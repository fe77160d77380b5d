//! Deterministic parallel prefix sums.
//!
//! Algorithm 1 compacts its two worklists with a parallel prefix sum every
//! iteration (Section V-B of the paper; Kokkos `parallel_scan`). The paper's
//! complexity analysis (Section IV) assumes the scan has `O(log n)` depth and
//! `O(n log n)` work. This module implements the classic three-phase
//! block-scan:
//!
//! 1. partition the input into fixed-size blocks and reduce each block in
//!    parallel;
//! 2. scan the (short) vector of block sums sequentially;
//! 3. re-scan each block in parallel, seeded with its block offset.
//!
//! The block size is **independent of the number of worker threads**, so the
//! result — and every intermediate value — is identical for any pool size.

use crate::par;

/// Element type usable in a scan: a copyable additive monoid.
pub trait ScanElem: Copy + Send + Sync {
    /// Additive identity.
    const ZERO: Self;
    /// Associative addition.
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_scan_elem {
    ($($t:ty),*) => {$(
        impl ScanElem for $t {
            const ZERO: Self = 0;
            #[inline]
            fn add(self, other: Self) -> Self { self + other }
        }
    )*};
}
impl_scan_elem!(usize, u32, u64, i64);

/// Below this length the scan runs sequentially; parallel setup would only
/// add overhead.
const SEQ_CUTOFF: usize = 1 << 14;
/// Fixed block size for the parallel scan. Chosen once (not per-pool) so
/// output is bitwise-stable across thread counts.
const BLOCK: usize = par::DET_BLOCK;

/// Exclusive prefix sum of `input` into a fresh vector; returns the total.
///
/// `out[i] = input[0] + ... + input[i-1]`, `out[0] = 0`.
///
/// ```
/// let (scan, total) = mis2_prim::scan::exclusive_scan(&[3usize, 1, 4]);
/// assert_eq!(scan, vec![0, 3, 4]);
/// assert_eq!(total, 8);
/// ```
pub fn exclusive_scan<T: ScanElem>(input: &[T]) -> (Vec<T>, T) {
    let mut out = vec![T::ZERO; input.len()];
    let total = exclusive_scan_to(input, &mut out);
    (out, total)
}

/// Exclusive prefix sum of `input` written into `out` (same length);
/// returns the total sum.
pub fn exclusive_scan_to<T: ScanElem>(input: &[T], out: &mut [T]) -> T {
    assert_eq!(input.len(), out.len(), "scan output length mismatch");
    let n = input.len();
    if n == 0 {
        return T::ZERO;
    }
    if n < SEQ_CUTOFF {
        return seq_exclusive(input, out);
    }
    // Phase 1: block sums.
    let nblocks = n.div_ceil(BLOCK);
    let mut block_sums: Vec<T> =
        par::map_chunks(input, BLOCK, |c| c.iter().fold(T::ZERO, |a, &b| a.add(b)));
    // Phase 2: sequential exclusive scan of the block sums.
    let mut run = T::ZERO;
    for bs in block_sums.iter_mut().take(nblocks) {
        let s = *bs;
        *bs = run;
        run = run.add(s);
    }
    let total = run;
    // Phase 3: per-block exclusive scans seeded by the block offset.
    par::for_chunks_mut(out, BLOCK, |b, oc| {
        let lo = b * BLOCK;
        let ic = &input[lo..lo + oc.len()];
        let mut acc = block_sums[b];
        for (o, &i) in oc.iter_mut().zip(ic) {
            *o = acc;
            acc = acc.add(i);
        }
    });
    total
}

/// Exclusive scan performed in place; returns the total.
pub fn exclusive_scan_in_place<T: ScanElem>(data: &mut [T]) -> T {
    let n = data.len();
    if n == 0 {
        return T::ZERO;
    }
    if n < SEQ_CUTOFF {
        let mut run = T::ZERO;
        for x in data.iter_mut() {
            let v = *x;
            *x = run;
            run = run.add(v);
        }
        return run;
    }
    let mut block_sums: Vec<T> =
        par::map_chunks(data, BLOCK, |c| c.iter().fold(T::ZERO, |a, &b| a.add(b)));
    let mut run = T::ZERO;
    for bs in block_sums.iter_mut() {
        let s = *bs;
        *bs = run;
        run = run.add(s);
    }
    let total = run;
    par::for_chunks_mut(data, BLOCK, |b, chunk| {
        let mut acc = block_sums[b];
        for x in chunk.iter_mut() {
            let v = *x;
            *x = acc;
            acc = acc.add(v);
        }
    });
    total
}

fn seq_exclusive<T: ScanElem>(input: &[T], out: &mut [T]) -> T {
    let mut run = T::ZERO;
    for (o, &i) in out.iter_mut().zip(input) {
        *o = run;
        run = run.add(i);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference<T: ScanElem>(input: &[T]) -> (Vec<T>, T) {
        let mut out = Vec::with_capacity(input.len());
        let mut run = T::ZERO;
        for &x in input {
            out.push(run);
            run = run.add(x);
        }
        (out, run)
    }

    #[test]
    fn empty() {
        let (v, t) = exclusive_scan::<usize>(&[]);
        assert!(v.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn single() {
        let (v, t) = exclusive_scan(&[42usize]);
        assert_eq!(v, vec![0]);
        assert_eq!(t, 42);
    }

    #[test]
    fn small_matches_reference() {
        let input: Vec<usize> = (0..1000).map(|i| (i * 7 + 3) % 11).collect();
        let (got, total) = exclusive_scan(&input);
        let (want, want_total) = reference(&input);
        assert_eq!(got, want);
        assert_eq!(total, want_total);
    }

    #[test]
    fn large_matches_reference() {
        // Force the parallel path (> SEQ_CUTOFF) with a non-trivial pattern.
        let n = (1 << 16) + 1234;
        let input: Vec<u64> = (0..n as u64)
            .map(|i| crate::hash::splitmix64(i) % 97)
            .collect();
        let (got, total) = exclusive_scan(&input);
        let (want, want_total) = reference(&input);
        assert_eq!(got, want);
        assert_eq!(total, want_total);
    }

    #[test]
    fn in_place_matches_scan() {
        let n = (1 << 16) + 7;
        let input: Vec<usize> = (0..n).map(|i| i % 5).collect();
        let (want, want_total) = reference(&input);
        let mut data = input.clone();
        let total = exclusive_scan_in_place(&mut data);
        assert_eq!(data, want);
        assert_eq!(total, want_total);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let n = (1 << 17) + 99;
        let input: Vec<u64> = (0..n as u64)
            .map(|i| crate::hash::xorshift64_star(i + 1) % 1000)
            .collect();
        let baseline = crate::pool::with_pool(1, || exclusive_scan(&input));
        for threads in [2, 3, 4] {
            let got = crate::pool::with_pool(threads, || exclusive_scan(&input));
            assert_eq!(got, baseline, "scan differs at {threads} threads");
        }
    }
}
