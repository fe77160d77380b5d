//! Deterministic bucketing (counting sort by key).
//!
//! Several consumers group items by a small integer key — color classes
//! for multicolor Gauss-Seidel sweeps, cluster membership lists for
//! Algorithm 4, aggregate member lists for coarsening, edge endpoints by
//! source vertex, matrix entries by row or by column. This is the one
//! stable counting sort under all of them: items keep their relative order
//! within a bucket, so every grouping built on it is deterministic.

/// Group the `(key, item)` pairs by key (each `< num_buckets`).
///
/// Returns `(offsets, items)` where `items[offsets[b]..offsets[b+1]]` are
/// the items with key `b`, in input order. `pairs` is walked twice: once to
/// count, once to place. A key out of range panics in every build.
///
/// ```
/// let keys = [2u32, 0, 1, 0];
/// let (off, items) = mis2_prim::bucket::bucket_by_key(3, keys.iter().copied().zip(0u32..));
/// assert_eq!(off, vec![0, 2, 3, 4]);
/// assert_eq!(items, vec![1, 3, 2, 0]);
/// ```
pub fn bucket_by_key<T: Copy + Default>(
    num_buckets: usize,
    pairs: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<usize>, Vec<T>) {
    // `for_each`, not `for`: a `flat_map` of pairs iterates internally at
    // the speed of the nested loops it stands for.
    let mut offsets = vec![0usize; num_buckets + 1];
    pairs.clone().for_each(|(k, _)| {
        assert!((k as usize) < num_buckets, "key {k} out of range");
        offsets[k as usize] += 1;
    });
    let total = crate::scan::exclusive_scan_in_place(&mut offsets);
    let mut cursor = offsets.clone();
    let mut items = vec![T::default(); total];
    pairs.for_each(|(k, x)| {
        items[cursor[k as usize]] = x;
        cursor[k as usize] += 1;
    });
    (offsets, items)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket the indices `0..keys.len()` by `keys[i]`.
    fn by_index(num_buckets: usize, keys: &[u32]) -> (Vec<usize>, Vec<u32>) {
        bucket_by_key(num_buckets, keys.iter().copied().zip(0u32..))
    }

    #[test]
    fn groups_and_preserves_order() {
        let keys = [1u32, 0, 1, 2, 0, 1];
        let (off, items) = by_index(3, &keys);
        assert_eq!(off, vec![0, 2, 5, 6]);
        assert_eq!(&items[0..2], &[1, 4]); // key 0, ascending
        assert_eq!(&items[2..5], &[0, 2, 5]); // key 1
        assert_eq!(&items[5..6], &[3]); // key 2
    }

    #[test]
    fn empty_input() {
        let (off, items) = by_index(4, &[]);
        assert_eq!(off, vec![0; 5]);
        assert!(items.is_empty());
    }

    #[test]
    fn empty_buckets_allowed() {
        let (off, items) = by_index(5, &[4, 4]);
        assert_eq!(off, vec![0, 0, 0, 0, 0, 2]);
        assert_eq!(items, vec![0, 1]);
    }

    #[test]
    fn single_bucket() {
        let keys = vec![0u32; 100];
        let (off, items) = by_index(1, &keys);
        assert_eq!(off, vec![0, 100]);
        assert_eq!(items, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn items_travel_with_their_keys() {
        let pairs = [(1u32, 'a'), (0, 'b'), (1, 'c'), (0, 'd')];
        let (off, items) = bucket_by_key(2, pairs.iter().copied());
        assert_eq!(off, vec![0, 2, 4]);
        assert_eq!(items, vec!['b', 'd', 'a', 'c']);
    }

    /// A key equal to `num_buckets` fits the offsets array, so only an
    /// assertion that holds in release builds keeps it from being counted
    /// into no bucket.
    #[test]
    #[should_panic(expected = "key 2 out of range")]
    fn key_at_num_buckets_panics() {
        by_index(2, &[2]);
    }
}
