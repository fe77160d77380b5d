//! Deterministic bucketing (counting sort by key).
//!
//! Several consumers group items by a small integer key — color classes
//! for multicolor Gauss-Seidel sweeps, cluster membership lists for
//! Algorithm 4, aggregate member lists for coarsening. This is the shared
//! stable counting sort: items keep their relative order within a bucket,
//! so every grouping built on it is deterministic.

/// Group `0..keys.len()` by `keys[i]` (each `< num_buckets`).
///
/// Returns `(offsets, items)` where `items[offsets[b]..offsets[b+1]]` are
/// the indices with key `b`, in ascending index order.
///
/// ```
/// let (off, items) = mis2_prim::bucket::bucket_by_key(3, &[2, 0, 1, 0]);
/// assert_eq!(off, vec![0, 2, 3, 4]);
/// assert_eq!(items, vec![1, 3, 2, 0]);
/// ```
pub fn bucket_by_key(num_buckets: usize, keys: &[u32]) -> (Vec<usize>, Vec<u32>) {
    let mut counts = vec![0usize; num_buckets + 1];
    for &k in keys {
        debug_assert!((k as usize) < num_buckets, "key {k} out of range");
        counts[k as usize] += 1;
    }
    crate::scan::exclusive_scan_in_place(&mut counts);
    let offsets = counts;
    let mut cursor = offsets.clone();
    let mut items = vec![0u32; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        items[cursor[k as usize]] = i as u32;
        cursor[k as usize] += 1;
    }
    (offsets, items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_and_preserves_order() {
        let keys = [1u32, 0, 1, 2, 0, 1];
        let (off, items) = bucket_by_key(3, &keys);
        assert_eq!(off, vec![0, 2, 5, 6]);
        assert_eq!(&items[0..2], &[1, 4]); // key 0, ascending
        assert_eq!(&items[2..5], &[0, 2, 5]); // key 1
        assert_eq!(&items[5..6], &[3]); // key 2
    }

    #[test]
    fn empty_input() {
        let (off, items) = bucket_by_key(4, &[]);
        assert_eq!(off, vec![0; 5]);
        assert!(items.is_empty());
    }

    #[test]
    fn empty_buckets_allowed() {
        let (off, items) = bucket_by_key(5, &[4, 4]);
        assert_eq!(off, vec![0, 0, 0, 0, 0, 2]);
        assert_eq!(items, vec![0, 1]);
    }

    #[test]
    fn single_bucket() {
        let keys = vec![0u32; 100];
        let (off, items) = bucket_by_key(1, &keys);
        assert_eq!(off, vec![0, 100]);
        assert_eq!(items, (0..100).collect::<Vec<u32>>());
    }
}
