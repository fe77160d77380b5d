//! Relaxed cells: a slice several tasks of one region may read and write
//! at the same slots, with no undefined behaviour whatever they do.
//!
//! Two loops in the workspace write slots that are disjoint only if their
//! input is right: the roots of one `mis2_coarsen::agg::claim` call label
//! their neighbors (Algorithms 2 and 3 root MIS-2 sets, D2C one color of
//! a distance-2 coloring at a time; either way no two roots share an
//! unaggregated neighbor), and the clusters of one color of the cluster
//! Gauss-Seidel sweep read neighbor `x` while writing their own
//! (`mis2_solver::gs`; a coloring of the quotient graph makes no two of
//! them adjacent). Both take that input from their caller. Through these
//! cells a wrong input changes which write lands, and so the result's
//! bits, but every access is a relaxed atomic load or store, so it cannot
//! race in the language's sense. With a right input no slot is touched
//! by two tasks, so the bits are those of plain loads and stores.
//!
//! The module owns the one layout cast that makes this free: `&mut [u32]`
//! as `&[AtomicU32]`, and `&mut [f64]` as 64-bit cells that hold the
//! `f64` bits. A relaxed 4- or 8-byte load or store is a plain `mov` on
//! x86-64. Every index is bounds-checked in every build. `Relaxed` is
//! enough: a cell publishes no other data, and the region's join orders
//! every write before the caller reads the slice again.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

const _: () = assert!(
    size_of::<u32>() == size_of::<AtomicU32>() && align_of::<u32>() == align_of::<AtomicU32>()
);
const _: () = assert!(
    size_of::<f64>() == size_of::<AtomicU64>() && align_of::<f64>() == align_of::<AtomicU64>()
);

/// `slice` as relaxed `u32` cells, for as long as the borrow lasts.
pub fn u32_cells(slice: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: same size and alignment (asserted above), every bit pattern
    // is valid for both, and the `&mut` borrow leaves the cells the only
    // access to the slots while they live.
    unsafe { &*(slice as *mut [u32] as *const [AtomicU32]) }
}

/// A `&mut [f64]` as relaxed cells holding each `f64`'s bits.
pub struct F64Cells<'a> {
    cells: &'a [AtomicU64],
}

impl<'a> F64Cells<'a> {
    /// View `slice` as cells for as long as the borrow lasts.
    pub fn new(slice: &'a mut [f64]) -> Self {
        // SAFETY: as in `u32_cells`: same size and alignment, and every
        // bit pattern is a valid `f64` and a valid `u64`.
        let cells = unsafe { &*(slice as *mut [f64] as *const [AtomicU64]) };
        F64Cells { cells }
    }

    /// The value at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.cells[i].load(Relaxed))
    }

    /// Store `value` at `i`.
    #[inline]
    pub fn set(&self, i: usize, value: f64) {
        self.cells[i].store(value.to_bits(), Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par;

    #[test]
    fn cells_write_through_to_the_slice() {
        let mut labels = vec![0u32; 5];
        let cells = u32_cells(&mut labels);
        cells[3].store(7, Relaxed);
        assert_eq!(cells[3].compare_exchange(0, 9, Relaxed, Relaxed), Err(7));
        assert_eq!(labels, [0, 0, 0, 7, 0]);

        let mut x = vec![1.5f64, -0.0, f64::NAN];
        let cells = F64Cells::new(&mut x);
        assert_eq!(cells.get(2).to_bits(), f64::NAN.to_bits());
        cells.set(0, cells.get(0) * 2.0);
        assert_eq!(x[0], 3.0);
        assert_eq!(x[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn every_task_may_write_every_slot() {
        // All tasks store into the same few slots: no race in the
        // language's sense, and each slot ends with some task's value.
        let mut x = vec![0.0f64; 4];
        let cells = F64Cells::new(&mut x);
        crate::pool::with_pool(3, || {
            par::for_range(0..100_000usize, |i| cells.set(i % 4, (i % 4) as f64 + 1.0));
        });
        assert_eq!(x, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn an_index_past_the_end_panics() {
        let mut x = vec![0.0f64; 2];
        F64Cells::new(&mut x).set(2, 1.0);
    }
}
