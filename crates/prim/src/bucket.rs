//! Deterministic bucketing (counting sort by key).
//!
//! Several consumers group items by a small integer key — color classes
//! for multicolor Gauss-Seidel sweeps, cluster membership lists for
//! Algorithm 4, aggregate member lists for coarsening, edges by source
//! vertex (the one build under every graph read or generated from an edge
//! list), matrix entries by row or by column. This is the one stable
//! counting sort under all of them: items keep their relative order within
//! a bucket, so every grouping built on it is deterministic.
//!
//! The pairs come as a function of a source range: `pairs(lo..hi)` yields
//! the pairs of source items `lo..hi` in order (an edge may yield two, a
//! self-loop none). That lets the count and place passes run over one
//! contiguous chunk of the source per participant, the way the paper's
//! kernels fill arrays: count, scan, fill. Each chunk counts its keys into
//! its own row; one pass per key across the rows gives each chunk its span
//! of the bucket, after the spans of the chunks before it; each chunk then
//! places its items into its spans. Every bucket still lists its items in
//! input order, so the output is the serial one at every pool size.
//!
//! A split costs one row of 8 bytes per bucket per chunk, so it pays only
//! when the source holds many more items than there are buckets:
//! [`chunks`] gives every chunk at least four source items per bucket,
//! which keeps the rows within 2 bytes per source item. At a
//! pool of one, nested in a region, or below that rule, the two passes
//! are one serial loop each.

use crate::par;
use crate::pool::{current_threads, in_region};
use crate::SharedMut;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// Source items per bucket that each chunk of a split count brings at
/// least. A split holds a row of 8 bytes per bucket per chunk; with four
/// items per bucket the rows stay within 2 bytes per source item (a
/// quarter of an edge list's 8).
const ITEMS_PER_BUCKET: usize = 4;

/// Below this many source items the serial passes cost about as much as
/// opening two regions, or less. Measured on 2 vCPUs at pool 2, bucketing
/// indices by label (`n / 20` labels): 50 000 items took 440 µs split
/// against 240–300 µs serial, 200 000 items 1.3 ms either way, and
/// 1 000 000 items 8.2 ms against 11.0 ms.
const MIN_SPLIT_ITEMS: usize = 1 << 18;

/// How many chunks [`bucket_by_key`] cuts a source of `len` items into for
/// `num_buckets` buckets from the calling thread: the pool's team size,
/// capped so that each chunk brings four items per bucket.
/// One means the serial loop, with no per-chunk rows.
pub fn chunks(num_buckets: usize, len: usize) -> usize {
    if len < MIN_SPLIT_ITEMS || num_buckets == 0 || in_region() {
        return 1;
    }
    let most = len / (ITEMS_PER_BUCKET * num_buckets);
    current_threads().min(most).max(1)
}

/// Group the `(key, item)` pairs of the source items `0..len` by key (each
/// `< num_buckets`); `pairs(range)` yields the pairs of the items in
/// `range`, in order, and the same pairs on every call (a `pairs` that
/// yields more on its second walk panics; it cannot race).
///
/// Returns `(offsets, items)` where `items[offsets[b]..offsets[b+1]]` are
/// the items with key `b`, in input order, at every pool size; both are
/// allocated at their exact length. The source is walked twice: once to
/// count, once to place. A key out of range panics in every build.
///
/// ```
/// let keys = [2u32, 0, 1, 0];
/// let (off, items) = mis2_prim::bucket::bucket_by_key(3, keys.len(), |r| {
///     keys[r.clone()].iter().copied().zip(r.start as u32..)
/// });
/// assert_eq!(off, vec![0, 2, 3, 4]);
/// assert_eq!(items, vec![1, 3, 2, 0]);
/// ```
pub fn bucket_by_key<T, I>(
    num_buckets: usize,
    len: usize,
    pairs: impl Fn(Range<usize>) -> I + Sync,
) -> (Vec<usize>, Vec<T>)
where
    T: Copy + Default + Send,
    I: Iterator<Item = (u32, T)>,
{
    let nchunks = chunks(num_buckets, len);
    if nchunks > 1 {
        if let Some(bucketed) = split(num_buckets, len, nchunks, &pairs) {
            return bucketed;
        }
    }
    // `for_each`, not `for`: a `flat_map` of pairs iterates internally at
    // the speed of the nested loops it stands for.
    let mut offsets = vec![0usize; num_buckets + 1];
    pairs(0..len).for_each(|(k, _)| {
        assert!((k as usize) < num_buckets, "key {k} out of range");
        offsets[k as usize] += 1;
    });
    let total = crate::scan::exclusive_scan_in_place(&mut offsets);
    let mut items = vec![T::default(); total];
    // Each bucket's offset is its cursor; after the pass it holds the
    // bucket's end, which is the next bucket's start.
    pairs(0..len).for_each(|(k, x)| {
        let at = &mut offsets[k as usize];
        items[*at] = x;
        *at += 1;
    });
    offsets.copy_within(0..num_buckets, 1);
    offsets[0] = 0;
    (offsets, items)
}

/// The items with key `keys[i]` are the indices `i`, ascending in each
/// bucket: [`bucket_by_key`] over `keys.iter().zip(0..)`.
///
/// ```
/// let (off, members) = mis2_prim::bucket::bucket_indices(3, &[2, 0, 1, 0]);
/// assert_eq!((off, members), (vec![0, 2, 3, 4], vec![1, 3, 2, 0]));
/// ```
pub fn bucket_indices(num_buckets: usize, keys: &[u32]) -> (Vec<usize>, Vec<u32>) {
    bucket_by_key(num_buckets, keys.len(), |r| {
        keys[r.clone()].iter().copied().zip(r.start as u32..)
    })
}

/// The split count and place over `nchunks` chunks of the source, or
/// `None` when there are more than `u32::MAX` items (the spans are
/// `u32`s). Row `c` of `spans` is chunk `c`'s: its count of each key, then
/// its span of each bucket in `items`, as `(next, end)`.
fn split<T, I>(
    num_buckets: usize,
    len: usize,
    nchunks: usize,
    pairs: &(impl Fn(Range<usize>) -> I + Sync),
) -> Option<(Vec<usize>, Vec<T>)>
where
    T: Copy + Default + Send,
    I: Iterator<Item = (u32, T)>,
{
    let chunk = |c: usize| len * c / nchunks..len * (c + 1) / nchunks;
    let mut spans = vec![(0u32, 0u32); nchunks * num_buckets];
    let too_many = AtomicBool::new(false);
    par::for_chunks_mut(&mut spans, num_buckets, |c, row| {
        let counted = pairs(chunk(c)).try_for_each(|(k, _)| {
            assert!((k as usize) < num_buckets, "key {k} out of range");
            let count = &mut row[k as usize].1;
            *count = count.checked_add(1)?;
            Some(())
        });
        if counted.is_none() {
            too_many.store(true, Relaxed);
        }
    });
    if too_many.into_inner() {
        return None;
    }

    // Per key, across the rows: each chunk's span follows the spans of the
    // chunks before it.
    let mut offsets = vec![0usize; num_buckets + 1];
    let mut total = 0u32;
    for (k, offset) in offsets[..num_buckets].iter_mut().enumerate() {
        *offset = total as usize;
        for c in 0..nchunks {
            let span = &mut spans[c * num_buckets + k];
            let end = total.checked_add(span.1)?;
            *span = (total, end);
            total = end;
        }
    }
    let total = total as usize;
    offsets[num_buckets] = total;

    let mut items = vec![T::default(); total];
    let out = SharedMut::new(&mut items);
    par::for_chunks_mut(&mut spans, num_buckets, |c, row| {
        pairs(chunk(c)).for_each(|(k, x)| {
            let span = &mut row[k as usize];
            assert!(span.0 < span.1, "the pairs changed between the passes");
            // SAFETY: the spans are disjoint and lie inside `0..total`,
            // by the pass above; only this chunk's task advances `span.0`,
            // and never past `span.1`.
            unsafe { out.write(span.0 as usize, x) };
            span.0 += 1;
        });
    });
    Some((offsets, items))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_and_preserves_order() {
        let keys = [1u32, 0, 1, 2, 0, 1];
        let (off, items) = bucket_indices(3, &keys);
        assert_eq!(off, vec![0, 2, 5, 6]);
        assert_eq!(&items[0..2], &[1, 4]); // key 0, ascending
        assert_eq!(&items[2..5], &[0, 2, 5]); // key 1
        assert_eq!(&items[5..6], &[3]); // key 2
    }

    #[test]
    fn empty_input() {
        let (off, items) = bucket_indices(4, &[]);
        assert_eq!(off, vec![0; 5]);
        assert!(items.is_empty());
    }

    #[test]
    fn empty_buckets_allowed() {
        let (off, items) = bucket_indices(5, &[4, 4]);
        assert_eq!(off, vec![0, 0, 0, 0, 0, 2]);
        assert_eq!(items, vec![0, 1]);
    }

    #[test]
    fn single_bucket() {
        let keys = vec![0u32; 100];
        let (off, items) = bucket_indices(1, &keys);
        assert_eq!(off, vec![0, 100]);
        assert_eq!(items, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn items_travel_with_their_keys() {
        let pairs = [(1u32, 'a'), (0, 'b'), (1, 'c'), (0, 'd')];
        let (off, items) = bucket_by_key(2, pairs.len(), |r| pairs[r].iter().copied());
        assert_eq!(off, vec![0, 2, 4]);
        assert_eq!(items, vec!['b', 'd', 'a', 'c']);
    }

    /// Skewed keys (a third of the items under key 0, the rest spread),
    /// bucketed at pools {1, 2, 3, 5, 8}, against one `Vec` per bucket.
    #[test]
    fn equals_a_serial_loop_at_every_pool_size() {
        let mut chunked = Vec::new();
        for (num_buckets, len) in [
            (1, 5),
            (7, 1000),
            (1000, (1 << 18) - 1),
            (1000, 1 << 18),
            (1 << 14, 1 << 18),
            (1 << 16, 1 << 18),
            (3, 1 << 18),
            (1 << 15, 1 << 18),
        ] {
            let keys: Vec<u32> = (0..len as u64)
                .map(|i| {
                    let h = crate::hash::splitmix64(i ^ num_buckets as u64);
                    if h % 3 == 0 {
                        0
                    } else {
                        ((h >> 8) % num_buckets as u64) as u32
                    }
                })
                .collect();
            let mut lists = vec![Vec::new(); num_buckets];
            for (i, &k) in keys.iter().enumerate() {
                lists[k as usize].push(i as u32);
            }
            let mut want_off = vec![0usize];
            for l in &lists {
                want_off.push(want_off.last().unwrap() + l.len());
            }
            let want_items = lists.concat();
            chunked.push(crate::pool::with_pool(3, || chunks(num_buckets, len)));
            for pool in [1usize, 2, 3, 5, 8] {
                let (off, items) =
                    crate::pool::with_pool(pool, || bucket_indices(num_buckets, &keys));
                assert_eq!(
                    off, want_off,
                    "{num_buckets} buckets, {len} items, pool {pool}"
                );
                assert_eq!(
                    items, want_items,
                    "{num_buckets} buckets, {len} items, pool {pool}"
                );
                assert_eq!((off.capacity(), items.capacity()), (off.len(), items.len()));
            }
        }
        // Both sides of the split rule, and a split below the team size.
        assert_eq!(chunked, [1, 1, 1, 3, 3, 1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "the pairs changed between the passes")]
    fn pairs_that_grow_between_the_passes_panic_in_the_split_path() {
        let walks = std::sync::atomic::AtomicUsize::new(0);
        crate::pool::with_pool(2, || {
            bucket_by_key(4, 1 << 18, |r| {
                // The second walk of the first chunk yields one pair more.
                let extra = r.start == 0 && walks.fetch_add(1, Relaxed) == 1;
                r.map(|i| ((i % 4) as u32, i))
                    .chain(extra.then_some((0, 0)))
            })
        });
    }

    #[test]
    #[should_panic(expected = "key 64 out of range")]
    fn a_key_out_of_range_panics_in_the_split_path() {
        let mut keys: Vec<u32> = (0..1u32 << 18).map(|i| i % 64).collect();
        keys[200_000] = 64;
        crate::pool::with_pool(3, || bucket_indices(64, &keys));
    }

    /// A key equal to `num_buckets` fits the offsets array, so only an
    /// assertion that holds in release builds keeps it from being counted
    /// into no bucket.
    #[test]
    #[should_panic(expected = "key 2 out of range")]
    fn key_at_num_buckets_panics() {
        bucket_indices(2, &[2]);
    }
}
