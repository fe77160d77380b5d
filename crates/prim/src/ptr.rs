//! Shared mutable slice for disjoint parallel scatter writes.
//!
//! **The rule.** A loop whose task `i` writes only slot `i` (owner
//! computes) uses `par`'s safe `&mut` forms — `for_each_mut_indexed`,
//! `for_each_slice_mut`, `map_range`, `map_blocks` — and reads anything
//! else from a copy taken before the loop. `SharedMut` is for the writes
//! that are disjoint for a reason no slice split can express:
//!
//! * slots named by a *worklist*: Algorithm 1's `T[v]` / `M[v]` in
//!   `mis2_core::engine` (with each block's keep flags beside them);
//! * writes whose disjointness is an algorithm invariant: MIS-2 and
//!   same-colored D2C roots labeling their *neighbors* in
//!   `mis2_coarsen::{mis2_agg, d2c}`, and the color sweeps of
//!   `mis2_solver::gs`, which read neighbor rows while writing their own;
//! * the frozen seed engine, `mis2_core::reference`.
//!
//! `tests/surface.rs` holds that list as a table, so a new site has to be
//! added there on purpose.
//!
//! Inside this crate it is the one raw-pointer wrapper: `par::map_range`,
//! `par::map_blocks` and `compact::pack` write their output through it
//! over `Vec::spare_capacity_mut`, and `par::for_chunks_mut` cuts its
//! chunks with [`SharedMut::slice_mut`].

use std::marker::PhantomData;

/// A `Send + Sync` view over a mutable slice allowing indexed writes from
/// multiple threads. Callers must guarantee no two threads write the same
/// index during one parallel region (reads of slots written in the same
/// region are likewise forbidden).
pub struct SharedMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the view carries only the slice's pointer and length across
// threads. Every access through it is a method whose `# Safety` contract
// makes the caller show that a slot has one writer and no reader in the
// same region. `T: Send` because other threads write and read `T` values.
unsafe impl<T: Send> Send for SharedMut<'_, T> {}
unsafe impl<T: Send> Sync for SharedMut<'_, T> {}

impl<'a, T> SharedMut<'a, T> {
    /// Wrap a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` at `index`.
    ///
    /// # Safety
    /// No other thread may read or write `index` during the same parallel
    /// region. `index` must be `< len()` (checked with a debug assertion).
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).write(value) };
    }

    /// The sub-slice `[lo, hi)`, mutably.
    ///
    /// # Safety
    /// No other thread may read or write any index in `[lo, hi)` while the
    /// returned slice lives, and no second slice over any of it may be
    /// taken from this view meanwhile.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        assert!(lo <= hi && hi <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// Read the value at `index`.
    ///
    /// # Safety
    /// No other thread may write `index` during the same parallel region.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).read() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn disjoint_parallel_writes() {
        let mut data = vec![0u64; 10_000];
        let idx: Vec<usize> = (0..10_000).step_by(3).collect();
        {
            let w = SharedMut::new(&mut data);
            par::for_each(&idx, |&i| unsafe { w.write(i, i as u64 * 2) });
        }
        for i in 0..10_000 {
            let want = if i % 3 == 0 { i as u64 * 2 } else { 0 };
            assert_eq!(data[i], want, "slot {i}");
        }
    }

    #[test]
    fn read_back_previous_region() {
        let mut data: Vec<u32> = (0..100).collect();
        let w = SharedMut::new(&mut data);
        let sum: u32 = par::map_range(0..100usize, |i| unsafe { w.read(i) })
            .into_iter()
            .sum();
        assert_eq!(sum, 4950);
        assert_eq!(w.len(), 100);
        assert!(!w.is_empty());
    }
}
