//! Order-preserving parallel stream compaction.
//!
//! Algorithm 1 maintains two worklists and filters them every iteration
//! (lines 33-34 of the paper's listing): `worklist1` keeps the undecided
//! vertices and `worklist2` keeps the vertices whose column status is not
//! yet permanently `OUT`. The paper performs this with a parallel prefix sum
//! ("scan"); these helpers are the reusable Rust equivalent.
//!
//! **Contract:** the predicate is invoked **exactly once per
//! element** (in unspecified order, possibly concurrently). Callers like
//! the speculative colorings pass predicates with side effects and
//! non-repeatable (racy atomic) reads, so the implementation materializes
//! the per-element decision in a single pass and compacts from the
//! materialized flags — never by re-evaluating the closure. (An earlier
//! version re-evaluated the predicate in the write pass; combined with a
//! racy predicate that could leave uninitialized slots in the output.)

use crate::par::{self, SendPtr};

/// Fixed block size (thread-count independent for determinism).
const BLOCK: usize = par::DET_BLOCK;
/// Below this length a sequential filter is faster.
const SEQ_CUTOFF: usize = 1 << 14;

/// Keep the elements of `input` satisfying `pred`, preserving order.
/// `pred` runs exactly once per element.
///
/// ```
/// let evens = mis2_prim::compact::par_filter(&[1u32, 2, 3, 4], |&x| x % 2 == 0);
/// assert_eq!(evens, vec![2, 4]);
/// ```
pub fn par_filter<T, F>(input: &[T], pred: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    if input.len() < SEQ_CUTOFF {
        return input.iter().filter(|x| pred(x)).copied().collect();
    }
    let keep: Vec<bool> = par::map(input, |x| pred(x));
    compact_by_flags(input, &keep)
}

/// Indices `i` with `pred(&input[i])`, in increasing order. `pred` runs
/// exactly once per element.
pub fn par_filter_indices<T, F>(input: &[T], pred: F) -> Vec<u32>
where
    T: Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    if input.len() < SEQ_CUTOFF {
        return input
            .iter()
            .enumerate()
            .filter(|(_, x)| pred(x))
            .map(|(i, _)| i as u32)
            .collect();
    }
    let keep: Vec<bool> = par::map(input, |x| pred(x));
    let counts: Vec<usize> = par::map_chunks(&keep, BLOCK, |c| c.iter().filter(|&&k| k).count());
    let (offsets, total) = crate::scan::exclusive_scan(&counts);
    let mut out: Vec<u32> = Vec::with_capacity(total);
    let ptr = SendPtr(out.as_mut_ptr());
    par::for_chunks(&keep, BLOCK, |b, chunk| {
        let mut w = offsets[b];
        let base = b * BLOCK;
        for (i, &k) in chunk.iter().enumerate() {
            if k {
                // SAFETY: each block writes the disjoint range
                // [offsets[b], offsets[b] + counts[b]) inside capacity.
                unsafe { ptr.get().add(w).write((base + i) as u32) };
                w += 1;
            }
        }
    });
    // SAFETY: exactly `total` slots were initialized above.
    unsafe { out.set_len(total) };
    out
}

/// Compact `input` keeping positions where `keep` is true (both length n).
fn compact_by_flags<T: Copy + Send + Sync>(input: &[T], keep: &[bool]) -> Vec<T> {
    debug_assert_eq!(input.len(), keep.len());
    let counts: Vec<usize> = par::map_chunks(keep, BLOCK, |c| c.iter().filter(|&&k| k).count());
    let (offsets, total) = crate::scan::exclusive_scan(&counts);
    let mut out: Vec<T> = Vec::with_capacity(total);
    let ptr = SendPtr(out.as_mut_ptr());
    par::for_chunks(keep, BLOCK, |b, kc| {
        let lo = b * BLOCK;
        let ic = &input[lo..lo + kc.len()];
        let mut w = offsets[b];
        for (x, &k) in ic.iter().zip(kc) {
            if k {
                // SAFETY: disjoint ranges per block, within capacity.
                unsafe { ptr.get().add(w).write(*x) };
                w += 1;
            }
        }
    });
    // SAFETY: exactly `total` slots were initialized above.
    unsafe { out.set_len(total) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input() {
        let out = par_filter::<u32, _>(&[], |_| true);
        assert!(out.is_empty());
    }

    #[test]
    fn keeps_all() {
        let input: Vec<u32> = (0..100_000).collect();
        assert_eq!(par_filter(&input, |_| true), input);
    }

    #[test]
    fn drops_all() {
        let input: Vec<u32> = (0..100_000).collect();
        assert!(par_filter(&input, |_| false).is_empty());
    }

    #[test]
    fn matches_sequential_filter() {
        let input: Vec<u64> = (0..200_000).map(crate::hash::splitmix64).collect();
        let got = par_filter(&input, |&x| x % 3 == 0);
        let want: Vec<u64> = input.iter().copied().filter(|&x| x % 3 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn indices_match_sequential() {
        let input: Vec<u64> = (0..150_000)
            .map(|i| crate::hash::xorshift64_star(i + 1))
            .collect();
        let got = par_filter_indices(&input, |&x| x % 7 < 3);
        let want: Vec<u32> = input
            .iter()
            .enumerate()
            .filter(|(_, &x)| x % 7 < 3)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let input: Vec<u64> = (0..300_000)
            .map(|i| crate::hash::splitmix64(i * 17))
            .collect();
        let baseline = crate::pool::with_pool(1, || par_filter(&input, |&x| x & 1 == 0));
        for t in [2, 4, 7] {
            let got = crate::pool::with_pool(t, || par_filter(&input, |&x| x & 1 == 0));
            assert_eq!(got, baseline, "compaction differs at {t} threads");
        }
    }

    #[test]
    fn predicate_runs_exactly_once_per_element() {
        // Regression test for the speculative-coloring corruption: a
        // side-effecting predicate must be evaluated exactly once per
        // element, on both the sequential and the parallel path.
        for n in [1000usize, 200_000] {
            let input: Vec<u32> = (0..n as u32).collect();
            let calls = AtomicUsize::new(0);
            let out = par_filter(&input, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x % 2 == 0
            });
            assert_eq!(calls.load(Ordering::Relaxed), n, "n = {n}");
            assert_eq!(out.len(), n.div_ceil(2));
        }
    }

    #[test]
    fn non_repeatable_predicate_still_yields_valid_output() {
        // A predicate whose answer would *change* between evaluations (it
        // flips a cell per call) must still produce output drawn only from
        // the input, never uninitialized memory.
        let n = 200_000;
        let input: Vec<u32> = (0..n as u32).collect();
        let state: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = par_filter(&input, |&x| {
            let prev = state[x as usize].fetch_add(1, Ordering::Relaxed);
            prev == 0 && x % 3 == 0
        });
        let want: Vec<u32> = (0..n as u32).filter(|x| x % 3 == 0).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn indices_predicate_runs_once() {
        let n = 150_000;
        let input: Vec<u32> = (0..n as u32).collect();
        let calls = AtomicUsize::new(0);
        let out = par_filter_indices(&input, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x % 10 == 0
        });
        assert_eq!(calls.load(Ordering::Relaxed), n);
        assert_eq!(out.len(), n / 10);
    }
}
