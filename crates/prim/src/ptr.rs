//! Shared mutable slice for disjoint parallel scatter writes.
//!
//! **The rule.** A loop whose task `i` writes only slot `i` (owner
//! computes) uses `par`'s safe `&mut` forms — `for_each_mut_indexed`,
//! `for_each_slice_mut`, `map_range`, `map_blocks`. A loop over a strictly
//! ascending worklist that writes each entry's slot (Algorithm 1's `T[v]` /
//! `M[v]` in `mis2_core::engine`, with each block's keep flags) uses
//! `par::map_windows`, which hands each block its own `&mut` window. A
//! loop whose writes are disjoint only because a caller's coloring says
//! so (D2C's roots labeling their neighbors, the color sweeps of
//! `mis2_solver::gs`) goes through [`crate::cells`], where a wrong
//! coloring changes bits but cannot race.
//!
//! A write split into contiguous pieces, one per block, cuts the pieces
//! as `&mut` windows first and hands them out through
//! `par::for_chunks_mut`: `par::map_range` and `par::map_blocks` fill
//! windows of their output's `Vec::spare_capacity_mut`, `compact::pack`
//! one window per block of flags, `reduce`'s fused axpy forms one window
//! of `y` per block, `rows::assemble` one window of `cols` and of `vals`
//! per row block, and `par::map_windows` one window per worklist block.
//!
//! So `SharedMut` is built in two places, both in this crate:
//! `par::for_chunks_mut`, which hands each pool block its chunk with
//! [`SharedMut::slice_mut`], and the place pass of `bucket_by_key` over
//! several chunks, where each chunk scatters into one span per key with
//! [`SharedMut::write`]. Outside the crate, only the frozen seed engine,
//! `mis2_core::reference`, still builds one. `tests/surface.rs` holds
//! both lists as a table, so a new site has to be added there on purpose.

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

    /// The sub-slice `[lo, hi)`, mutably; `par::for_chunks_mut` is its one
    /// caller.
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
