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
//!
//! Every compaction in the workspace ends in [`pack_into`], the one
//! scatter: [`par_filter`] and [`par_filter_indices`] count their flags per
//! block here and [`pack`] into a fresh vector, and Algorithm 1's engine
//! counts them inside its own fused passes and packs into the vectors it
//! keeps from run to run.

use crate::par::{self, SEQ_CUTOFF};
use crate::ptr::SharedMut;
use std::mem::MaybeUninit;

/// Fixed block size (thread-count independent for determinism).
const BLOCK: usize = par::DET_BLOCK;

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
    filter_map(input.len(), |i| pred(&input[i]), |i| input[i])
}

/// Indices `i` with `pred(&input[i])`, in increasing order. `pred` runs
/// exactly once per element.
pub fn par_filter_indices<T, F>(input: &[T], pred: F) -> Vec<u32>
where
    T: Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    filter_map(input.len(), |i| pred(&input[i]), |i| i as u32)
}

/// `item(i)` for every `i < n` with `pred(i)`, in increasing `i`: one
/// flag per index, one count per [`BLOCK`], then [`pack`].
fn filter_map<T: Send>(
    n: usize,
    pred: impl Fn(usize) -> bool + Sync,
    item: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if n < SEQ_CUTOFF {
        return (0..n).filter(|&i| pred(i)).map(item).collect();
    }
    let keep: Vec<bool> = par::map_range(0..n, pred);
    let counts: Vec<usize> = par::map_chunks(&keep, BLOCK, |c| c.iter().filter(|&&k| k).count());
    pack(&keep, BLOCK, &counts, item)
}

/// The order-preserving scatter: `item(i)` for every `i` with `keep[i]`,
/// in increasing `i`. `counts[b]` must be the number of set flags in block
/// `b` of `keep` (blocks of `block` flags, the last one short); an
/// exclusive scan of the counts gives each block its output range, and the
/// blocks fill their ranges in parallel. A count that disagrees with its
/// block's flags panics. The output is allocated at its exact length.
///
/// ```
/// let keep = [true, false, true, true, false];
/// let out = mis2_prim::compact::pack(&keep, 2, &[1, 2, 0], |i| 10 * i);
/// assert_eq!(out, vec![0, 20, 30]);
/// ```
pub fn pack<T: Send>(
    keep: &[bool],
    block: usize,
    counts: &[usize],
    item: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let mut out = Vec::new();
    pack_into(&mut out, keep, block, counts, item);
    out
}

/// [`pack`] into `out`, replacing what it held: a caller that packs a
/// list round after round into the same few vectors reuses their capacity
/// and allocates only when a list outgrows it.
///
/// ```
/// let mut out = Vec::with_capacity(8);
/// mis2_prim::compact::pack_into(&mut out, &[false, true, true], 2, &[1, 1], |i| i);
/// assert_eq!(out, [1, 2]);
/// assert_eq!(out.capacity(), 8);
/// ```
pub fn pack_into<T: Send>(
    out: &mut Vec<T>,
    keep: &[bool],
    block: usize,
    counts: &[usize],
    item: impl Fn(usize) -> T + Sync,
) {
    assert!(block > 0 && counts.len() == keep.len().div_ceil(block));
    // Bounding every count by its block length keeps the scan exact, so
    // the ranges below tile 0..total.
    let blocks = keep.chunks(block);
    assert!(counts.iter().zip(blocks).all(|(&c, f)| c <= f.len()));
    let (offsets, total) = crate::scan::exclusive_scan(counts);
    out.clear();
    out.reserve_exact(total);
    let w = SharedMut::new(&mut out.spare_capacity_mut()[..total]);
    par::for_chunks(keep, block, |b, flags| {
        let (mut at, end) = (offsets[b], offsets[b] + counts[b]);
        for (i, &k) in flags.iter().enumerate() {
            if k {
                assert!(at < end, "block {b} holds more flags than its count");
                // SAFETY: block b alone writes [offsets[b], end), and
                // end <= total.
                unsafe { w.write(at, MaybeUninit::new(item(b * block + i))) };
                at += 1;
            }
        }
        assert_eq!(at, end, "block {b} holds fewer flags than its count");
    });
    // SAFETY: the blocks' ranges tile 0..total and each was filled above
    // (a short block panics, and the region re-raises before this line).
    unsafe { out.set_len(total) };
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
    fn pack_places_blocks_by_their_counts() {
        let keep: Vec<bool> = (0..50_000).map(|i| i % 7 == 0 || i > 40_000).collect();
        let counts: Vec<usize> = keep
            .chunks(300)
            .map(|c| c.iter().filter(|&&k| k).count())
            .collect();
        let want: Vec<usize> = (0..keep.len()).filter(|&i| keep[i]).collect();
        for t in [1, 3] {
            let got = crate::pool::with_pool(t, || pack(&keep, 300, &counts, |i| i));
            assert_eq!(got, want, "{t} threads");
            assert_eq!(got.capacity(), got.len());
            // Into a vector that holds more than the output, and one that
            // holds less: the old entries are gone, the capacity is reused
            // when it suffices.
            for old in [60_000, 10] {
                let mut out: Vec<usize> = (0..old).rev().collect();
                let cap = out.capacity();
                crate::pool::with_pool(t, || pack_into(&mut out, &keep, 300, &counts, |i| i));
                assert_eq!(out, want, "{t} threads, {old} old entries");
                if cap >= want.len() {
                    assert_eq!(out.capacity(), cap);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "more flags than its count")]
    fn pack_rejects_a_count_below_its_flags() {
        pack(&[true, true, false], 2, &[1, 0], |i| i);
    }

    #[test]
    #[should_panic(expected = "fewer flags than its count")]
    fn pack_rejects_a_count_above_its_flags() {
        pack(&[true, false, false], 2, &[2, 0], |i| i);
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
