//! Row-block CSR assembly: rows are written once.
//!
//! The producers of CSR structures that learn a row's length only by
//! writing it — the square of a graph, induced subgraphs, quotient graphs,
//! SpGEMM, the row merges of the smoothed prolongator and the Galerkin
//! product, the matrix generators and `from_coo` — compute their rows
//! independently. (The graph generators and `CsrGraph::from_edges` know
//! their row lengths first and write straight into the final arrays.)
//! Instead of one
//! `Vec` per row copied into place afterwards, [`assemble`] hands blocks of
//! [`ROW_BLOCK`] consecutive rows to the pool; a block appends its rows,
//! one after the other, to one contiguous buffer ([`RowBuf`]) and records
//! where each row ends. A serial pass turns the ends into `row_ptr` and
//! cuts the final arrays into one `&mut` window per block, and one
//! `copy_from_slice` per block places its buffers in its windows.
//!
//! The block decomposition depends on the row count only, never on the
//! pool size, and rows land in row order with their entries in the order
//! the producer pushed them: the output is bitwise-identical on both
//! backends and at every thread count. The final arrays are allocated at
//! their exact length, so capacity equals length (byte-accounting caches
//! charge capacities).

use crate::par;

/// Rows per block. One block is one task of the pool and the lifetime of
/// one scratch state; a constant, because it shapes no result.
pub const ROW_BLOCK: usize = 256;

/// The buffers one block appends its rows to. A row is whatever its call
/// pushed onto `cols` (and onto `vals`, for a producer that has values);
/// `cols[start..]`, with `start = cols.len()` on entry, is the row under
/// construction and may be sorted or truncated in place.
pub struct RowBuf<V> {
    pub cols: Vec<u32>,
    pub vals: Vec<V>,
}

/// Assemble `nrows` rows into `(row_ptr, cols, vals)`.
///
/// `row(state, r, buf)` appends row `r` to `buf`; within a block it is
/// called for consecutive `r` in ascending order, with the one `state`
/// that `scratch()` made for that block (a dense accumulator, a stamp
/// array, or `()`). `vals` is the blocks' value buffers concatenated the
/// same way: as long as `cols` when every row pushed as many values as
/// columns, empty when none pushed any (`V = ()` for a pattern).
///
/// ```
/// use mis2_prim::rows;
/// // Row r holds the columns 0..r, each with value r.
/// let (row_ptr, cols, vals) = rows::assemble(
///     3,
///     || (),
///     |_, r, buf: &mut rows::RowBuf<f64>| {
///         buf.cols.extend(0..r as u32);
///         buf.vals.extend((0..r).map(|_| r as f64));
///     },
/// );
/// assert_eq!(row_ptr, [0, 0, 1, 3]);
/// assert_eq!(cols, [0, 0, 1]);
/// assert_eq!(vals, [1.0, 2.0, 2.0]);
/// ```
pub fn assemble<V, S>(
    nrows: usize,
    scratch: impl Fn() -> S + Sync,
    row: impl Fn(&mut S, usize, &mut RowBuf<V>) + Sync,
) -> (Vec<usize>, Vec<u32>, Vec<V>)
where
    V: Copy + Default + Send + Sync,
{
    // Per block: its buffers and the end of each of its rows in `cols`.
    let blocks: Vec<(RowBuf<V>, Vec<usize>)> = par::map_blocks(nrows.div_ceil(ROW_BLOCK), |b| {
        let lo = b * ROW_BLOCK;
        let hi = (lo + ROW_BLOCK).min(nrows);
        let mut state = scratch();
        let mut buf = RowBuf {
            cols: Vec::new(),
            vals: Vec::new(),
        };
        let ends = (lo..hi)
            .map(|r| {
                row(&mut state, r, &mut buf);
                buf.cols.len()
            })
            .collect();
        (buf, ends)
    });

    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let (mut ncols, mut nvals) = (0usize, 0usize);
    for (buf, ends) in &blocks {
        row_ptr.extend(ends.iter().map(|&e| ncols + e));
        ncols += buf.cols.len();
        nvals += buf.vals.len();
    }

    let mut cols = vec![0u32; ncols];
    let mut vals = vec![V::default(); nvals];
    // Each block's buffers and its windows of the final arrays, cut in
    // block order.
    let (mut cols_rest, mut vals_rest) = (&mut cols[..], &mut vals[..]);
    let mut places: Vec<_> = blocks
        .iter()
        .map(|(buf, _)| {
            let c = par::cut_front(&mut cols_rest, buf.cols.len());
            (buf, c, par::cut_front(&mut vals_rest, buf.vals.len()))
        })
        .collect();
    par::for_chunks_mut(&mut places, 1, |_, place| {
        let (buf, cols, vals) = &mut place[0];
        cols.copy_from_slice(&buf.cols);
        vals.copy_from_slice(&buf.vals);
    });
    (row_ptr, cols, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::splitmix64;
    use crate::pool::with_pool;

    /// Length of row `r` under `seed`: 0..=6, a third of the rows empty.
    fn len_of(seed: u64, r: usize) -> usize {
        let h = splitmix64(seed ^ r as u64);
        if h % 3 == 0 {
            0
        } else {
            (h >> 8) as usize % 7
        }
    }

    /// Assemble rows of the given lengths, entries a function of (r, k),
    /// and compare with the row-by-row construction.
    fn check(nrows: usize, len: impl Fn(usize) -> usize + Sync) {
        let col = |r: usize, k: usize| (r * 31 + k) as u32;
        let val = |r: usize, k: usize| r as f64 - 0.5 * k as f64;
        let mut want_ptr = vec![0usize];
        let (mut want_cols, mut want_vals) = (Vec::new(), Vec::new());
        for r in 0..nrows {
            for k in 0..len(r) {
                want_cols.push(col(r, k));
                want_vals.push(val(r, k));
            }
            want_ptr.push(want_cols.len());
        }
        for pool in [1usize, 2, 3, 5, 8] {
            let (row_ptr, cols, vals) = with_pool(pool, || {
                assemble(
                    nrows,
                    || (),
                    |_, r, buf: &mut RowBuf<f64>| {
                        for k in 0..len(r) {
                            buf.cols.push(col(r, k));
                            buf.vals.push(val(r, k));
                        }
                    },
                )
            });
            assert_eq!(row_ptr, want_ptr, "{nrows} rows, pool {pool}");
            assert_eq!(cols, want_cols, "{nrows} rows, pool {pool}");
            assert_eq!(vals, want_vals, "{nrows} rows, pool {pool}");
            assert_eq!(row_ptr.capacity(), row_ptr.len());
            assert_eq!(cols.capacity(), cols.len());
            assert_eq!(vals.capacity(), vals.len());
        }
    }

    #[test]
    fn row_counts_around_the_block_size() {
        for nrows in [
            0,
            1,
            ROW_BLOCK - 1,
            ROW_BLOCK,
            ROW_BLOCK + 1,
            3 * ROW_BLOCK + 7,
        ] {
            check(nrows, |r| len_of(nrows as u64, r));
        }
    }

    #[test]
    fn all_rows_empty() {
        for nrows in [1, ROW_BLOCK, 3 * ROW_BLOCK + 7] {
            check(nrows, |_| 0);
        }
    }

    #[test]
    fn an_empty_row_at_each_block_edge() {
        // The last row of a block, the first of the next, both, and a
        // whole empty block between two full ones.
        let n = 3 * ROW_BLOCK + 7;
        check(n, |r| if r % ROW_BLOCK == ROW_BLOCK - 1 { 0 } else { 3 });
        check(n, |r| if r % ROW_BLOCK == 0 { 0 } else { 3 });
        check(n, |r| match r % ROW_BLOCK {
            0 => 0,
            k if k == ROW_BLOCK - 1 => 0,
            _ => 2,
        });
        check(n, |r| if r / ROW_BLOCK == 1 { 0 } else { 4 });
    }

    #[test]
    fn a_pattern_has_no_values() {
        let (row_ptr, cols, vals) = assemble(
            ROW_BLOCK + 2,
            || (),
            |_, r, buf: &mut RowBuf<()>| buf.cols.push(r as u32),
        );
        assert_eq!(row_ptr, (0..=ROW_BLOCK + 2).collect::<Vec<_>>());
        assert_eq!(cols, (0..ROW_BLOCK as u32 + 2).collect::<Vec<_>>());
        assert!(vals.is_empty());
    }

    #[test]
    fn scratch_is_made_once_per_block_and_sees_rows_in_order() {
        // The state counts the rows it has seen; a row records the count.
        let n = 2 * ROW_BLOCK + 5;
        for pool in [1usize, 2, 5] {
            let (_, cols, _) = with_pool(pool, || {
                assemble(
                    n,
                    || 0u32,
                    |seen, r, buf: &mut RowBuf<()>| {
                        assert_eq!(*seen as usize, r % ROW_BLOCK);
                        buf.cols.push(*seen);
                        *seen += 1;
                    },
                )
            });
            let want: Vec<u32> = (0..n).map(|r| (r % ROW_BLOCK) as u32).collect();
            assert_eq!(cols, want, "pool {pool}");
        }
    }

    #[test]
    fn a_row_may_rework_its_own_tail() {
        // Push in descending order, sort the tail in place and drop its
        // last entry: earlier rows of the block are left alone.
        let (row_ptr, cols, _) = assemble(
            ROW_BLOCK + 3,
            || (),
            |_, r, buf: &mut RowBuf<()>| {
                let start = buf.cols.len();
                buf.cols.extend([r as u32 + 3, r as u32 + 2, r as u32 + 1]);
                buf.cols[start..].sort_unstable();
                buf.cols.truncate(start + 2);
            },
        );
        assert_eq!(cols.len(), 2 * (ROW_BLOCK + 3));
        for r in 0..ROW_BLOCK + 3 {
            assert_eq!(
                &cols[row_ptr[r]..row_ptr[r + 1]],
                &[r as u32 + 1, r as u32 + 2]
            );
        }
    }
}
