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

use crate::par::{self, SEQ_CUTOFF};

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
    let total = scan_into(Some(input), &mut out);
    (out, total)
}

/// Exclusive scan performed in place; returns the total.
pub fn exclusive_scan_in_place<T: ScanElem>(data: &mut [T]) -> T {
    scan_into(None, data)
}

/// The three phases, writing the exclusive scan of `input` (of `out`'s own
/// values when `None`) into `out`; returns the total. Below
/// `SEQ_CUTOFF` the whole slice is one block on the caller.
fn scan_into<T: ScanElem>(input: Option<&[T]>, out: &mut [T]) -> T {
    if out.len() < SEQ_CUTOFF {
        return scan_block(T::ZERO, input, out);
    }
    // Phase 1: block sums.
    let mut offsets: Vec<T> = par::map_chunks(input.unwrap_or(&*out), BLOCK, |c| {
        c.iter().fold(T::ZERO, |a, &b| a.add(b))
    });
    // Phase 2: sequential exclusive scan of the block sums.
    let total = scan_block(T::ZERO, None, &mut offsets);
    // Phase 3: per-block exclusive scans seeded by the block offset.
    par::for_chunks_mut(out, BLOCK, |b, chunk| {
        let lo = b * BLOCK;
        scan_block(offsets[b], input.map(|i| &i[lo..lo + chunk.len()]), chunk);
    });
    total
}

/// Sequential exclusive scan of one block seeded with `acc`: the values are
/// `src`'s, or `dst`'s own when `None` (each read before it is
/// overwritten). Returns the running sum past the block.
fn scan_block<T: ScanElem>(mut acc: T, src: Option<&[T]>, dst: &mut [T]) -> T {
    for (k, d) in dst.iter_mut().enumerate() {
        let v = src.map_or(*d, |s| s[k]);
        *d = acc;
        acc = acc.add(v);
    }
    acc
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
        for n in [0, 1000, (1 << 16) + 7] {
            let input: Vec<usize> = (0..n).map(|i| i % 5).collect();
            let (want, want_total) = reference(&input);
            let mut data = input.clone();
            let total = exclusive_scan_in_place(&mut data);
            assert_eq!(data, want, "n = {n}");
            assert_eq!(total, want_total, "n = {n}");
        }
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
