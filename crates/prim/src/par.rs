//! Portable parallel execution layer — the workspace's single substrate for
//! data parallelism.
//!
//! The paper's central claim is *portability*: one expression of Algorithm 1
//! running unchanged on serial and parallel substrates (Kokkos execution
//! spaces in the original; here, pool sizes). Every hot loop in the
//! workspace — the Algorithm 1 phases in `mis2-core`, aggregation in
//! `mis2-coarsen`, the colorings in `mis2-color`, the multicolor
//! Gauss-Seidel sweeps in `mis2-solver` — calls through this module instead
//! of a concrete threading library, so the team size never touches
//! algorithm code.
//!
//! Operations split their index space into blocks drained by the
//! **persistent worker pool** in [`crate::pool`] — OS threads that spin
//! briefly and then park between regions, each claiming whole blocks from
//! an atomic counter. No thread is spawned or torn down per region, and a
//! region opened within the spin budget of the last one finds its team
//! awake, so the rapid back-to-back tiny regions of iterative solvers pay
//! two mutex acquisitions, not a wake-up. The team size honors
//! [`crate::pool::with_pool`], which caps how many workers *participate*
//! (not how many exist); under `with_pool(1)` every operation is a plain
//! loop on the caller, with no thread created and no lock taken. That is
//! the serial execution space.
//!
//! ## When a region opens
//!
//! Two rules, by what the caller's index counts:
//!
//! * **element ranges** ([`for_range`], [`map_range`], the `for_each*`
//!   family, [`find_map_range`]): below `PAR_CUTOFF` *elements* the loop
//!   runs on the caller; above it the range is cut into adaptive blocks of
//!   at least `MIN_GRAIN` *elements*. [`for_each_slice_mut`] is the same
//!   rule with the block handed over whole, as `(lo, &mut [T])`: the
//!   vector kernels (`axpy`, `xpay`, `scale`, the Jacobi updates) are
//!   `zip` loops over those sub-slices, and [`for_each_mut_indexed`] is
//!   the element loop over them, so there is one dispatch path.
//! * **block indices** ([`map_blocks`] and everything built on it:
//!   [`map_chunks`], [`chunked_reduce`], [`map_reduce_range`], the scans,
//!   compaction counts, the row blocks of `rows::assemble` under every
//!   CSR producer; and the `for_chunks*` pair, under `reduce::det_dot`,
//!   compaction's scatter and [`map_windows`]): a region opens when there
//!   are at least two *blocks*, each block being thousands of elements the
//!   caller already sized ([`DET_BLOCK`] *elements* for every
//!   deterministic reduction).
//!
//! Either way a nested call and a team of one run the same blocks in order
//! on the caller. The three sizes are constants, not options: `DET_BLOCK`
//! fixes the bits of every `f64` reduction, and the other two only trade
//! dispatch cost against balance, which no caller in the workspace needs
//! to retune.
//!
//! ## Determinism contract
//!
//! Every operation in this module produces **bitwise-identical results** at
//! every thread count, one included:
//!
//! * maps and for-eachs write disjoint slots, so scheduling cannot reorder
//!   anything observable;
//! * reductions ([`map_reduce`], [`chunked_reduce`]) decompose the input
//!   into **fixed-size blocks independent of the thread count**, compute
//!   per-block partials in index order, and fold the partials sequentially
//!   in block order — the exact decomposition a team of one uses, so even
//!   non-associative `f64` reductions match bit-for-bit;
//! * [`find_map_range`] always returns the *globally first* match.
//!
//! Nested parallel regions (a `par` call made from inside a worker) run
//! serially on the calling worker — same results, no oversubscription, no
//! deadlock on the single persistent team. A panic inside a region is
//! re-raised on the thread that opened it after the remaining blocks have
//! drained, and the pool's workers survive to serve later regions.

use crate::pool::{current_threads, in_region, run_region_on};
use crate::ptr::SharedMut;
use std::ops::{Index, IndexMut, Range};

/// Fixed block size, in *elements*, shared by every deterministic
/// reduction in the workspace (scans, compaction counts, f64 sums). Chosen
/// once — never per thread count — so partial results are bitwise-stable
/// across pool sizes.
pub const DET_BLOCK: usize = 1 << 13;

/// Below this many *elements* a scan, a compaction or an `f64` reduction
/// (`reduce::det_dot` and its fused forms) runs on the caller as one
/// sequential pass; from here up it is cut into [`DET_BLOCK`] blocks. The
/// value fixes the bits of `det_dot` (one sum below it, a sum of block sums
/// above), so it is a constant shared by the three modules.
pub(crate) const SEQ_CUTOFF: usize = 1 << 14;

/// Below this many *elements* an element-range operation runs on the
/// caller: a few thousand cheap elements cost less than a dispatch. It is
/// never compared with a block count (see [`map_blocks`]).
const PAR_CUTOFF: usize = 2048;
/// Minimum *elements* per block for adaptive (order-insensitive)
/// element-range operations.
const MIN_GRAIN: usize = 256;

/// Index types the range-based operations accept (`u32` vertex ids, `usize`
/// row indices, `u64` counters).
pub trait ParIndex: Copy + Send + Sync {
    /// Convert from a `usize` offset.
    fn from_usize(i: usize) -> Self;
    /// Convert to a `usize` offset.
    fn to_usize(self) -> usize;
}

macro_rules! impl_par_index {
    ($($t:ty),*) => {$(
        impl ParIndex for $t {
            #[inline]
            fn from_usize(i: usize) -> Self {
                i as $t
            }
            #[inline]
            fn to_usize(self) -> usize {
                self as usize
            }
        }
    )*};
}
impl_par_index!(u32, u64, usize);

/// Adaptive block size for order-insensitive operations: enough blocks to
/// load-balance across the pool, but never tiny.
fn adaptive_block(n: usize) -> usize {
    let threads = current_threads().max(1);
    n.div_ceil(threads * 4).max(MIN_GRAIN)
}

#[inline]
fn run_ranges(n: usize, block: usize, body: impl Fn(usize, usize, usize) + Sync) {
    let block = block.max(1);
    let nblocks = n.div_ceil(block);
    run_region_on(current_threads(), nblocks, &|b| {
        let lo = b * block;
        let hi = (lo + block).min(n);
        body(b, lo, hi);
    });
}

// ---------------------------------------------------------------------------
// Parallel for
// ---------------------------------------------------------------------------

/// Parallel for over an index range: `f(i)` for every `i in range`, each
/// exactly once.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let acc = AtomicU64::new(0);
/// mis2_prim::par::for_range(0u32..100, |i| {
///     acc.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(acc.into_inner(), 4950);
/// ```
pub fn for_range<I: ParIndex>(range: Range<I>, f: impl Fn(I) + Sync) {
    let start = range.start.to_usize();
    let n = range.end.to_usize().saturating_sub(start);
    if n < PAR_CUTOFF || in_region() {
        for i in 0..n {
            f(I::from_usize(start + i));
        }
        return;
    }
    run_ranges(n, adaptive_block(n), |_, lo, hi| {
        for i in lo..hi {
            f(I::from_usize(start + i));
        }
    });
}

/// Parallel for over a slice.
pub fn for_each<T: Sync>(items: &[T], f: impl Fn(&T) + Sync) {
    for_range(0..items.len(), |i| f(&items[i]));
}

/// Parallel for over a slice with the element index.
pub fn for_each_indexed<T: Sync>(items: &[T], f: impl Fn(usize, &T) + Sync) {
    for_range(0..items.len(), |i| f(i, &items[i]));
}

/// Parallel for over a mutable slice with the element index.
pub fn for_each_mut_indexed<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    for_each_slice_mut(items, |lo, block| {
        for (k, x) in block.iter_mut().enumerate() {
            f(lo + k, x);
        }
    });
}

/// Parallel for over a mutable slice, one block at a time: `f(lo, block)`
/// with `block` being `items[lo..lo + block.len()]`, the blocks covering
/// the slice exactly once. Same cutoff and block rule as
/// [`for_each_mut_indexed`] (which is this with an element loop inside);
/// use it when the body is a loop over sub-slices the compiler can
/// vectorise, which a per-element closure indexing its other operands is
/// not. Below the cutoff, nested or empty, the one block is all of `items`.
///
/// ```
/// let x = [1.0, 2.0, 3.0];
/// let mut y = [10.0, 20.0, 30.0];
/// mis2_prim::par::for_each_slice_mut(&mut y, |lo, y| {
///     for (y, x) in y.iter_mut().zip(&x[lo..]) {
///         *y += 2.0 * x;
///     }
/// });
/// assert_eq!(y, [12.0, 24.0, 36.0]);
/// ```
pub fn for_each_slice_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    let n = items.len();
    if n < PAR_CUTOFF || in_region() {
        f(0, items);
        return;
    }
    let block = adaptive_block(n);
    for_chunks_mut(items, block, |b, chunk| f(b * block, chunk));
}

// ---------------------------------------------------------------------------
// Parallel map
// ---------------------------------------------------------------------------

/// Parallel map over an index range into a fresh vector:
/// `out[i] = f(range.start + i)`.
///
/// ```
/// let sq = mis2_prim::par::map_range(0usize..5, |i| i * i);
/// assert_eq!(sq, vec![0, 1, 4, 9, 16]);
/// ```
pub fn map_range<I: ParIndex, U: Send>(range: Range<I>, f: impl Fn(I) -> U + Sync) -> Vec<U> {
    let start = range.start.to_usize();
    let n = range.end.to_usize().saturating_sub(start);
    if n < PAR_CUTOFF || in_region() {
        return (0..n).map(|i| f(I::from_usize(start + i))).collect();
    }
    collect_chunks(n, adaptive_block(n), |i| f(I::from_usize(start + i)))
}

/// `f(i)` for every `i < n` into a fresh vector, each block of `block`
/// slots writing its own window of the vector's spare capacity through
/// [`for_chunks_mut`].
fn collect_chunks<U: Send>(n: usize, block: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let mut out = Vec::with_capacity(n);
    for_chunks_mut(&mut out.spare_capacity_mut()[..n], block, |b, window| {
        for (k, slot) in window.iter_mut().enumerate() {
            slot.write(f(b * block + k));
        }
    });
    // SAFETY: the windows tile `0..n` and every block wrote each slot of
    // its own; a block that panicked is re-raised before this line.
    unsafe { out.set_len(n) };
    out
}

/// Parallel map over a slice into a fresh vector.
pub fn map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    map_range(0..items.len(), |i| f(&items[i]))
}

// ---------------------------------------------------------------------------
// Chunked operations (explicit, fixed block size — deterministic building
// blocks for scans, compaction and reductions)
// ---------------------------------------------------------------------------

/// Parallel for over fixed-size chunks of a slice; `f(b, chunk)` receives
/// the chunk index. The last chunk may be short.
pub fn for_chunks<T: Sync>(items: &[T], chunk: usize, f: impl Fn(usize, &[T]) + Sync) {
    run_ranges(items.len(), chunk, |b, lo, hi| f(b, &items[lo..hi]));
}

/// Parallel for over fixed-size mutable chunks of a slice; `f(b, chunk)`
/// receives the chunk index. The last chunk may be short.
///
/// This is the one place in the crate that hands a pool block a `&mut`
/// piece of a slice. A split write whose pieces vary in length (a
/// compaction's output ranges, `rows::assemble`'s placement, the windows
/// of [`map_windows`]) cuts them first, one `&mut` window per block, and
/// passes the list of windows here in chunks of one.
pub fn for_chunks_mut<T: Send>(items: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let n = items.len();
    let w = SharedMut::new(items);
    run_ranges(n, chunk, |b, lo, hi| {
        // SAFETY: chunks [lo, hi) partition the slice; each is handed to
        // exactly one worker.
        f(b, unsafe { w.slice_mut(lo, hi) });
    });
}

/// The first `len` items of `rest`, cut off it: `rest` keeps the tail.
/// Cutting a slice in order this way gives each block its own `&mut`
/// window for [`for_chunks_mut`].
pub(crate) fn cut_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    front
}

/// Parallel map over *block indices*: `out[b] = f(b)` for `b in 0..nblocks`,
/// every index one task of the pool.
///
/// This is the entry point for callers that have already cut their input
/// into blocks ([`map_chunks`], [`map_reduce_range`], the
/// [`crate::rows::ROW_BLOCK`]-row blocks of every CSR producer). The rule
/// that decides whether a region opens counts **blocks**, not elements: it
/// opens when there are at least two blocks and the caller is not nested
/// ([`crate::pool::run_region_on`] applies exactly that), because one block
/// is already thousands of elements of work. [`map_range`]'s element
/// cutoff must never see a block count — it would keep 16 M elements on
/// one thread.
pub fn map_blocks<U: Send>(nblocks: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    collect_chunks(nblocks, 1, f)
}

/// One block's window of an output slice, addressed by the absolute index:
/// `w[i]` is `out[i]` for `i` inside the window, and a bounds panic in
/// every build outside it.
pub struct Window<'a, T> {
    lo: usize,
    slots: &'a mut [T],
}

impl<T> Index<usize> for Window<'_, T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.slots[i.wrapping_sub(self.lo)]
    }
}

impl<T> IndexMut<usize> for Window<'_, T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.slots[i.wrapping_sub(self.lo)]
    }
}

/// Parallel map over the blocks of a strictly ascending list, each block
/// writing its own entries' slots of `out`: `f(b, entries, window, per)`
/// for every block `b` of `block` entries, one pool task each, as
/// [`map_blocks`] runs them; the results come back in block order.
///
/// `key(e)` is entry `e`'s slot of `out`. The windows cut `out` at the
/// first key of every block but the first, so a block may write from its
/// own first key up to the next block's, and nothing else: a list whose
/// keys ascend strictly puts every entry's slot in its own block's
/// window, and the windows are disjoint `&mut` borrows. `per` is the
/// block's chunk of `per_entry`, one slot per entry (Algorithm 1's keep
/// flags). A block's first key below the previous one panics here; an
/// entry outside its window panics when the block indexes it. Strict
/// ascent inside a block is checked under `debug_assertions`.
///
/// ```
/// let list = [1u32, 2, 5, 6, 9];
/// let mut out = [0u32; 10];
/// let mut flags = [false; 5];
/// let sums = mis2_prim::par::map_windows(&list, 2, |&v| v as usize, &mut out, &mut flags, |b, entries, w, keep| {
///     for (&v, k) in entries.iter().zip(keep) {
///         w[v as usize] = 10 * v;
///         *k = v % 2 == 1;
///     }
///     100 * b as u32 + entries.iter().sum::<u32>()
/// });
/// assert_eq!(sums, [3, 111, 209]);
/// assert_eq!(out, [0, 10, 20, 0, 0, 50, 60, 0, 0, 90]);
/// assert_eq!(flags, [true, false, true, false, true]);
/// ```
pub fn map_windows<E: Sync, T: Send, F: Send, U: Send>(
    list: &[E],
    block: usize,
    key: impl Fn(&E) -> usize + Sync,
    out: &mut [T],
    per_entry: &mut [F],
    f: impl Fn(usize, &[E], &mut Window<'_, T>, &mut [F]) -> U + Sync,
) -> Vec<U> {
    struct Task<'a, E, T, F, U> {
        entries: &'a [E],
        window: Window<'a, T>,
        per: &'a mut [F],
        result: Option<U>,
    }
    assert_eq!(per_entry.len(), list.len(), "one per-entry slot per entry");
    let block = block.max(1);
    let mut tasks = Vec::with_capacity(list.len().div_ceil(block));
    let (mut rest, mut per_rest, mut lo) = (out, per_entry, 0);
    for (b, entries) in list.chunks(block).enumerate() {
        let hi = list.get((b + 1) * block).map_or(lo + rest.len(), &key);
        assert!(lo <= hi, "list keys descend at block {}", b + 1);
        let slots = cut_front(&mut rest, hi - lo);
        tasks.push(Task {
            entries,
            window: Window { lo, slots },
            per: cut_front(&mut per_rest, entries.len()),
            result: None,
        });
        lo = hi;
    }
    for_chunks_mut(&mut tasks, 1, |b, task| {
        let Task {
            entries,
            window,
            per,
            result,
        } = &mut task[0];
        debug_assert!(
            entries.windows(2).all(|p| key(&p[0]) < key(&p[1])),
            "list keys do not ascend strictly in block {b}"
        );
        *result = Some(f(b, entries, window, per));
    });
    let done = |t: Task<'_, E, T, F, U>| t.result.expect("every block ran");
    tasks.into_iter().map(done).collect()
}

/// Parallel map over fixed-size chunks: `out[b] = f(chunk_b)`. With a fixed
/// `chunk` the output is identical for every thread count.
pub fn map_chunks<T: Sync, U: Send>(
    items: &[T],
    chunk: usize,
    f: impl Fn(&[T]) -> U + Sync,
) -> Vec<U> {
    let n = items.len();
    let chunk = chunk.max(1);
    map_blocks(n.div_ceil(chunk), |b| {
        let lo = b * chunk;
        let hi = (lo + chunk).min(n);
        f(&items[lo..hi])
    })
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Deterministic parallel reduction: per-chunk partials (each computed
/// serially in index order) folded sequentially in chunk order. Because the
/// decomposition is a fixed `chunk` size, the result is bitwise-identical
/// for any thread count — even for non-associative `f64` ops.
pub fn chunked_reduce<T: Sync, U: Send>(
    items: &[T],
    chunk: usize,
    map_chunk: impl Fn(&[T]) -> U + Sync,
    identity: U,
    combine: impl Fn(U, U) -> U,
) -> U {
    let n = items.len();
    let chunk = chunk.max(1);
    if n == 0 {
        return identity;
    }
    // One block or a nested context: still fold in the same per-chunk
    // structure so results match the parallel path exactly.
    if n <= chunk || in_region() {
        return items
            .chunks(chunk)
            .fold(identity, |acc, c| combine(acc, map_chunk(c)));
    }
    let partials = map_chunks(items, chunk, map_chunk);
    partials.into_iter().fold(identity, combine)
}

/// Deterministic map + reduce over a slice using the workspace-wide
/// [`DET_BLOCK`] decomposition.
pub fn map_reduce<T: Sync, U: Send + Sync + Clone>(
    items: &[T],
    map: impl Fn(&T) -> U + Sync,
    identity: U,
    combine: impl Fn(U, U) -> U + Sync,
) -> U {
    chunked_reduce(
        items,
        DET_BLOCK,
        |c| c.iter().map(&map).fold(identity.clone(), &combine),
        identity.clone(),
        &combine,
    )
}

/// Deterministic map + reduce over an index range: fixed [`DET_BLOCK`]
/// sub-ranges folded serially in index order, partials folded in block
/// order — bitwise-identical for any thread count.
pub fn map_reduce_range<I: ParIndex, U: Send + Sync + Clone>(
    range: Range<I>,
    map: impl Fn(I) -> U + Sync,
    identity: U,
    combine: impl Fn(U, U) -> U + Sync,
) -> U {
    let start = range.start.to_usize();
    let n = range.end.to_usize().saturating_sub(start);
    if n == 0 {
        return identity;
    }
    let nblocks = n.div_ceil(DET_BLOCK);
    let block_partial = |b: usize| {
        let lo = start + b * DET_BLOCK;
        let hi = (lo + DET_BLOCK).min(start + n);
        (lo..hi)
            .map(|i| map(I::from_usize(i)))
            .fold(identity.clone(), &combine)
    };
    if nblocks == 1 || in_region() {
        return (0..nblocks).fold(identity.clone(), |acc, b| combine(acc, block_partial(b)));
    }
    let partials = map_blocks(nblocks, block_partial);
    partials.into_iter().fold(identity, combine)
}

/// Number of elements satisfying `pred` (deterministic, parallel).
pub fn count<T: Sync>(items: &[T], pred: impl Fn(&T) -> bool + Sync) -> usize {
    chunked_reduce(
        items,
        DET_BLOCK,
        |c| c.iter().filter(|x| pred(x)).count(),
        0usize,
        |a, b| a + b,
    )
}

// ---------------------------------------------------------------------------
// Searches
// ---------------------------------------------------------------------------

/// Parallel first-match search: returns `f(i)` for the smallest `i` with
/// `f(i).is_some()`, or `None`. Deterministic at every thread count: the
/// *globally first* match is returned, never an arbitrary one.
pub fn find_map_range<I: ParIndex, U: Send>(
    range: Range<I>,
    f: impl Fn(I) -> Option<U> + Sync,
) -> Option<U> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let start = range.start.to_usize();
    let n = range.end.to_usize().saturating_sub(start);
    if n < PAR_CUTOFF || in_region() {
        return (0..n).find_map(|i| f(I::from_usize(start + i)));
    }
    let block = adaptive_block(n);
    // Lowest block index that produced a match so far; blocks above it can
    // be skipped entirely (their match could never win).
    let best_block = AtomicUsize::new(usize::MAX);
    let best: Mutex<Option<(usize, U)>> = Mutex::new(None);
    run_ranges(n, block, |b, lo, hi| {
        if b >= best_block.load(Ordering::Relaxed) {
            return;
        }
        for i in lo..hi {
            if let Some(u) = f(I::from_usize(start + i)) {
                let mut guard = best.lock().unwrap();
                if b < best_block.load(Ordering::Relaxed) {
                    best_block.store(b, Ordering::Relaxed);
                    *guard = Some((b, u));
                }
                return;
            }
        }
    });
    best.into_inner().unwrap().map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_range_visits_every_index_once() {
        for n in [0usize, 1, 100, PAR_CUTOFF + 1234] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            for_range(0..n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn for_range_u32_offsets() {
        let n = 10_000u32;
        let acc = AtomicUsize::new(0);
        for_range(100u32..n, |i| {
            acc.fetch_add(i as usize, Ordering::Relaxed);
        });
        let want: usize = (100..n as usize).sum();
        assert_eq!(acc.into_inner(), want);
    }

    #[test]
    fn map_range_matches_sequential() {
        let n = PAR_CUTOFF * 3 + 17;
        let got = map_range(0..n, |i| crate::hash::splitmix64(i as u64));
        let want: Vec<u64> = (0..n).map(|i| crate::hash::splitmix64(i as u64)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_over_slice() {
        let items: Vec<u32> = (0..50_000).collect();
        let got = map(&items, |&x| x * 2);
        assert!(got.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));
    }

    #[test]
    fn for_each_mut_updates_in_place() {
        let mut items: Vec<u64> = (0..40_000).collect();
        for_each_mut_indexed(&mut items, |i, x| *x += i as u64);
        assert!(items.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
    }

    /// `hits[i] += 1` through [`for_each_slice_mut`], checking on the way
    /// that every block is where its `lo` says it is.
    fn count_slice_visits(n: usize) -> Vec<u32> {
        let mut hits = vec![0u32; n];
        let base = hits.as_ptr() as usize;
        for_each_slice_mut(&mut hits, |lo, block| {
            assert_eq!(block.as_ptr() as usize, base + lo * size_of::<u32>());
            for h in block {
                *h += 1;
            }
        });
        hits
    }

    #[test]
    fn slice_blocks_visit_every_index_once() {
        let sizes = [
            0usize,
            1,
            PAR_CUTOFF - 1,
            PAR_CUTOFF,
            PAR_CUTOFF + 1,
            70_001,
        ];
        for n in sizes {
            for t in [1usize, 2, 5] {
                let hits = crate::pool::with_pool(t, || count_slice_visits(n));
                assert_eq!(hits, vec![1; n], "n = {n} at {t} threads");
            }
        }
        // Nested: every inner call runs on the worker that made it.
        let outer = map_range(0..PAR_CUTOFF + 5, |i| {
            count_slice_visits(PAR_CUTOFF + i % 3)
        });
        for (i, hits) in outer.iter().enumerate() {
            assert_eq!(*hits, vec![1; PAR_CUTOFF + i % 3], "nested call {i}");
        }
    }

    #[test]
    fn count_matches_sequential() {
        let items: Vec<u64> = (0..123_457).map(crate::hash::splitmix64).collect();
        let got = count(&items, |&x| x % 5 == 0);
        let want = items.iter().filter(|&&x| x % 5 == 0).count();
        assert_eq!(got, want);
    }

    #[test]
    fn chunked_reduce_f64_bitwise_matches_serial_fold() {
        let data: Vec<f64> = (0..100_000)
            .map(|i| (crate::hash::splitmix64(i) as f64) / 1e15)
            .collect();
        let got = chunked_reduce(
            &data,
            DET_BLOCK,
            |c| c.iter().sum::<f64>(),
            0.0,
            |a, b| a + b,
        );
        let want = data
            .chunks(DET_BLOCK)
            .fold(0.0f64, |acc, c| acc + c.iter().sum::<f64>());
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn map_reduce_max() {
        let items: Vec<u64> = (0..77_777)
            .map(|i| crate::hash::xorshift64_star(i + 1))
            .collect();
        let got = map_reduce(&items, |&x| x, 0u64, |a, b| a.max(b));
        assert_eq!(got, *items.iter().max().unwrap());
    }

    #[test]
    fn find_map_returns_globally_first_match() {
        let n = 500_000usize;
        // Matches at several positions; the first is what must come back.
        let positions = [123_456usize, 200_000, 499_999];
        let got = find_map_range(0..n, |i| positions.contains(&i).then_some(i));
        assert_eq!(got, Some(123_456));
        let none = find_map_range(0..n, |_| Option::<usize>::None);
        assert_eq!(none, None);
    }

    #[test]
    fn chunks_partition_exactly() {
        let items: Vec<u32> = (0..100_001).collect();
        let sums = map_chunks(&items, 1 << 10, |c| {
            c.iter().map(|&x| x as u64).sum::<u64>()
        });
        assert_eq!(sums.len(), items.len().div_ceil(1 << 10));
        let total: u64 = sums.iter().sum();
        assert_eq!(total, 100_000u64 * 100_001 / 2);
    }

    #[test]
    fn map_blocks_runs_each_block_once_in_its_slot() {
        // Block counts far below PAR_CUTOFF: the element cutoff must not
        // apply, and slot b must hold f(b) at every team size.
        for nblocks in [0usize, 1, 2, 7, 64] {
            for t in [1usize, 2, 5] {
                let got = crate::pool::with_pool(t, || map_blocks(nblocks, |b| b * b + 1));
                let want: Vec<usize> = (0..nblocks).map(|b| b * b + 1).collect();
                assert_eq!(got, want, "{nblocks} blocks at {t} threads");
            }
        }
    }

    /// `out[v] += 1` and `per[i] = v` through [`map_windows`] over `list`
    /// in blocks of `block`; returns `(out, per, per-block entry counts)`.
    fn window_hits(list: &[u32], n: usize, block: usize) -> (Vec<u32>, Vec<u32>, Vec<usize>) {
        let mut out = vec![0u32; n];
        let mut per = vec![0u32; list.len()];
        let counts = map_windows(
            list,
            block,
            |&v| v as usize,
            &mut out,
            &mut per,
            |_, e, w, p| {
                for (&v, p) in e.iter().zip(p) {
                    w[v as usize] += 1;
                    *p = v;
                }
                e.len()
            },
        );
        (out, per, counts)
    }

    #[test]
    fn windows_hand_each_entry_its_own_slot() {
        let n = 50_000;
        let list: Vec<u32> = (0..n as u32).filter(|v| v % 3 != 1).collect();
        let want_out: Vec<u32> = (0..n as u32).map(|v| (v % 3 != 1) as u32).collect();
        for t in [1usize, 2, 5] {
            for block in [1usize, 7, 4096, n] {
                let (out, per, counts) = crate::pool::with_pool(t, || window_hits(&list, n, block));
                assert_eq!(out, want_out, "block {block} at {t} threads");
                assert_eq!(per, list);
                assert_eq!(counts.len(), list.len().div_ceil(block));
                assert_eq!(counts.iter().sum::<usize>(), list.len());
            }
        }
        assert_eq!(window_hits(&[], 3, 4), (vec![0; 3], vec![], vec![]));
    }

    #[test]
    #[should_panic(expected = "descend")]
    fn a_block_starting_below_the_last_panics() {
        window_hits(&[1, 2, 5, 6, 3, 4], 8, 2);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_vertex_repeated_across_blocks_is_outside_the_window() {
        window_hits(&[1, 3, 3, 4], 6, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascend strictly")]
    fn a_vertex_repeated_inside_a_block_panics_under_debug_assertions() {
        window_hits(&[1, 3, 3, 4], 6, 4);
    }

    #[test]
    fn for_chunks_mut_sees_disjoint_chunks() {
        let mut items = vec![0u32; 50_000];
        for_chunks_mut(&mut items, 777, |b, chunk| {
            for x in chunk.iter_mut() {
                *x = b as u32;
            }
        });
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, (i / 777) as u32);
        }
    }

    #[test]
    fn nested_calls_run_serially_and_correctly() {
        let n = 20_000usize;
        let outer: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for_range(0..n, |i| {
            // Nested par call from inside a region: must still visit
            // everything exactly once.
            let s = count(&[1u8, 2, 3, 4, 5], |&x| x % 2 == 1);
            outer[i].fetch_add(s, Ordering::Relaxed);
        });
        assert!(outer.iter().all(|h| h.load(Ordering::Relaxed) == 3));
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let n = 300_000usize;
        let baseline = crate::pool::with_pool(1, || {
            map_range(0..n, |i| crate::hash::splitmix64(i as u64 * 31))
        });
        for t in [2, 3, 8] {
            let got = crate::pool::with_pool(t, || {
                map_range(0..n, |i| crate::hash::splitmix64(i as u64 * 31))
            });
            assert_eq!(got, baseline, "map differs at {t} threads");
        }
        let data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let base_sum = crate::pool::with_pool(1, || {
            chunked_reduce(
                &data,
                DET_BLOCK,
                |c| c.iter().sum::<f64>(),
                0.0,
                |a, b| a + b,
            )
        });
        for t in [2, 5] {
            let got = crate::pool::with_pool(t, || {
                chunked_reduce(
                    &data,
                    DET_BLOCK,
                    |c| c.iter().sum::<f64>(),
                    0.0,
                    |a, b| a + b,
                )
            });
            assert_eq!(
                got.to_bits(),
                base_sum.to_bits(),
                "sum differs at {t} threads"
            );
        }
    }
}
