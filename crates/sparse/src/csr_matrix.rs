//! CSR sparse matrix with `f64` values.
//!
//! The solver-side substrate of the reproduction: the paper's use cases
//! (smoothed-aggregation AMG in Section VI-F, cluster Gauss-Seidel in
//! Section VI-G) operate on sparse linear systems whose structure is the
//! graphs that MIS-2 coarsens. Rows are sorted by column index; explicit
//! zeros are allowed (they arise in Galerkin products and are harmless).

use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::par;
use mis2_prim::rows::{self, RowBuf};

/// A sparse matrix in CSR format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Errors from matrix construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    BadRowPtr(String),
    ColOutOfBounds { row: usize, col: u32 },
    UnsortedRow { row: usize },
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::BadRowPtr(m) => write!(f, "bad row_ptr: {m}"),
            MatrixError::ColOutOfBounds { row, col } => {
                write!(f, "column {col} out of bounds in row {row}")
            }
            MatrixError::UnsortedRow { row } => write!(f, "row {row} not strictly sorted"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl CsrMatrix {
    /// Validated construction from raw CSR arrays.
    pub fn from_csr(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, MatrixError> {
        if row_ptr.len() != nrows + 1 || row_ptr[0] != 0 {
            return Err(MatrixError::BadRowPtr("length/first element".into()));
        }
        if *row_ptr.last().unwrap() != col_idx.len() || col_idx.len() != values.len() {
            return Err(MatrixError::BadRowPtr("row_ptr[n] != nnz".into()));
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(MatrixError::BadRowPtr(format!("decreasing at {r}")));
            }
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for (k, &c) in row.iter().enumerate() {
                if c as usize >= ncols {
                    return Err(MatrixError::ColOutOfBounds { row: r, col: c });
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(MatrixError::UnsortedRow { row: r });
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Build from COO triplets; duplicate entries are summed.
    ///
    /// ```
    /// use mis2_sparse::CsrMatrix;
    /// let a = CsrMatrix::from_coo(2, 2, &[(0, 0, 2.0), (1, 1, 3.0), (0, 0, 1.0)]);
    /// assert_eq!(a.get(0, 0), 3.0);
    /// assert_eq!(a.spmv(&[1.0, 1.0]), vec![3.0, 3.0]);
    /// ```
    pub fn from_coo(nrows: usize, ncols: usize, entries: &[(u32, u32, f64)]) -> Self {
        let (offsets, by_row) = mis2_prim::bucket_by_key(nrows, entries.len(), |range| {
            entries[range].iter().map(|&(r, c, v)| {
                assert!((r as usize) < nrows, "row index out of bounds");
                assert!((c as usize) < ncols, "col index out of bounds");
                (r, (c, v))
            })
        });
        // Sort (stably: duplicates are summed in input order) and combine
        // duplicates per row; the pair buffer is the block's scratch.
        Self::from_row_blocks(nrows, ncols, Vec::new, |pairs, r, out| {
            pairs.clear();
            pairs.extend_from_slice(&by_row[offsets[r]..offsets[r + 1]]);
            pairs.sort_by_key(|p| p.0);
            let start = out.cols.len();
            for &(c, v) in pairs.iter() {
                if out.cols[start..].last() == Some(&c) {
                    *out.vals.last_mut().expect("one value per column") += v;
                } else {
                    out.cols.push(c);
                    out.vals.push(v);
                }
            }
        })
    }

    /// Assemble from rows written in row blocks
    /// ([`mis2_prim::rows::assemble`]): `row(state, r, out)` appends row
    /// `r`'s column indices, sorted and duplicate-free, to `out.cols` and
    /// as many values to `out.vals`; `state` is the block's scratch (a
    /// dense accumulator for SpGEMM, `()` for a merge).
    pub fn from_row_blocks<S>(
        nrows: usize,
        ncols: usize,
        scratch: impl Fn() -> S + Sync,
        row: impl Fn(&mut S, usize, &mut RowBuf<f64>) + Sync,
    ) -> Self {
        let (row_ptr, col_idx, values) = rows::assemble(nrows, scratch, |state, r, out| {
            let start = out.cols.len();
            row(state, r, out);
            assert_eq!(
                out.cols.len(),
                out.vals.len(),
                "row {r}: one value per column"
            );
            // Checked in every build: `row` is any caller's closure (this
            // is a public constructor), and every consumer of a matrix
            // (`transpose`, SpGEMM's merges, the sweep layout of `gs`)
            // assumes sorted, in-range rows. A bad row panics here, at the
            // row that made it, not as a wrong answer further on.
            let new = &out.cols[start..];
            assert!(new.windows(2).all(|w| w[0] < w[1]), "row {r} unsorted");
            assert!(
                new.last().is_none_or(|&c| (c as usize) < ncols),
                "row {r}: column out of range"
            );
        });
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Entry `(r, c)`, or 0 if not stored.
    pub fn get(&self, r: usize, c: u32) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Parallel sparse matrix-vector product `y = A x`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// `y = A x`, writing into an existing buffer.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        assert_eq!(y.len(), self.nrows, "y length mismatch");
        par::for_each_mut_indexed(y, |r, yr| {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *yr = acc;
        });
    }

    /// Transpose (deterministic).
    pub fn transpose(&self) -> CsrMatrix {
        // Entries bucketed by column in storage order, so each transposed
        // row comes out sorted by (old) row index. The source is the rows.
        let (row_ptr, by_col) = mis2_prim::bucket_by_key(self.ncols, self.nrows, |rows| {
            rows.flat_map(|r| {
                let (cols, vals) = self.row(r);
                cols.iter()
                    .zip(vals)
                    .map(move |(&c, &v)| (c, (r as u32, v)))
            })
        });
        let (col_idx, values) = by_col.into_iter().unzip();
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The diagonal as a dense vector (0 where no diagonal entry stored).
    pub fn diag(&self) -> Vec<f64> {
        par::map_range(0..self.nrows, |r| self.get(r, r as u32))
    }

    /// Reciprocal of the diagonal, `1/d`, or `0.0` where `|d| ≤ 1e-300`
    /// (a row with no usable pivot is left alone by the smoothers and
    /// Gauss-Seidel sweeps that scale by it).
    pub fn inv_diag(&self) -> Vec<f64> {
        par::map_range(0..self.nrows, |r| {
            let d = self.get(r, r as u32);
            if d.abs() > 1e-300 {
                1.0 / d
            } else {
                0.0
            }
        })
    }

    /// Structural graph: off-diagonal pattern, symmetrized, as a
    /// [`CsrGraph`]. This is what the MIS-2 / aggregation pipeline consumes.
    pub fn to_graph(&self) -> CsrGraph {
        assert_eq!(self.nrows, self.ncols, "graph requires square matrix");
        // A structurally symmetric matrix with sorted rows (every operator
        // the solvers see) is its own graph once the diagonal is dropped.
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx: Vec<VertexId> = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for r in 0..self.nrows {
            let (cols, _) = self.row(r);
            col_idx.extend(cols.iter().filter(|&&c| c as usize != r));
            row_ptr.push(col_idx.len());
        }
        col_idx.shrink_to_fit();
        if let Ok(g) = CsrGraph::from_csr(self.nrows, row_ptr, col_idx) {
            if g.validate_symmetric().is_ok() {
                return g;
            }
        }
        self.symmetrized_graph()
    }

    /// [`CsrMatrix::to_graph`] for any pattern: every off-diagonal entry as
    /// an undirected edge, sorted and deduplicated per row.
    fn symmetrized_graph(&self) -> CsrGraph {
        let edges: Vec<(VertexId, VertexId)> = (0..self.nrows)
            .flat_map(|r| {
                let (cols, _) = self.row(r);
                cols.iter()
                    .filter(move |&&c| c as usize != r)
                    .map(move |&c| (r as VertexId, c))
            })
            .collect();
        CsrGraph::from_edges(self.nrows, &edges)
    }

    /// Check numerical symmetry within `tol` (used by tests and by solver
    /// preconditions for CG).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Pattern asymmetry: compare entrywise the slow way.
            return par::find_map_range(0..self.nrows, |r| {
                let (cols, vals) = self.row(r);
                let close = cols
                    .iter()
                    .zip(vals)
                    .all(|(&c, &v)| (self.get(c as usize, r as u32) - v).abs() <= tol);
                (!close).then_some(())
            })
            .is_none();
        }
        par::find_map_range(0..t.values.len(), |i| {
            let close = (t.values[i] - self.values[i]).abs() <= tol;
            (!close).then_some(())
        })
        .is_none()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        par::chunked_reduce(
            &self.values,
            par::DET_BLOCK,
            |c| c.iter().map(|v| v * v).sum::<f64>(),
            0.0,
            |a, b| a + b,
        )
        .sqrt()
    }

    /// Dense representation (small matrices / tests / coarsest AMG level).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut d = crate::dense::DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                *d.at_mut(r, c as usize) += v;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [2 -1 0]
        // [-1 2 -1]
        // [0 -1 2]
        CsrMatrix::from_coo(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let m = CsrMatrix::from_coo(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn spmv_tridiag() {
        let m = small();
        let y = m.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmv_identity() {
        let m = CsrMatrix::identity(5);
        let x = vec![1.0, -2.0, 3.0, 0.5, 0.0];
        assert_eq!(m.spmv(&x), x);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_coo(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        let tt = t.transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn diag_and_get() {
        let m = small();
        assert_eq!(m.diag(), vec![2.0, 2.0, 2.0]);
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn inv_diag_is_reciprocal_or_zero() {
        assert_eq!(small().inv_diag(), vec![0.5, 0.5, 0.5]);
        let holes = CsrMatrix::from_coo(3, 3, &[(0, 0, 4.0), (1, 0, 1.0), (2, 2, 1e-301)]);
        assert_eq!(holes.inv_diag(), vec![0.25, 0.0, 0.0]);
    }

    #[test]
    fn symmetric_check() {
        assert!(small().is_symmetric(1e-14));
        let asym = CsrMatrix::from_coo(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
        assert!(!asym.is_symmetric(1e-14));
        assert!(asym.is_symmetric(1.5));
    }

    #[test]
    fn to_graph_drops_diag_and_symmetrizes() {
        let m = CsrMatrix::from_coo(3, 3, &[(0, 0, 5.0), (0, 1, 1.0), (2, 1, 1.0)]);
        let g = m.to_graph();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn to_graph_of_a_symmetric_pattern_is_the_symmetrized_one() {
        // The direct strip must be the graph the edge-list path builds: the
        // suite stand-ins (symmetric), and patterns it has to hand back —
        // one-sided entries, with and without a diagonal.
        let mut matrices: Vec<CsrMatrix> = mis2_graph::suite::build_all(mis2_graph::Scale::Tiny)
            .iter()
            .map(|(_, g)| crate::gen::spd_from_graph(g, 7))
            .collect();
        matrices.push(CsrMatrix::from_coo(
            4,
            4,
            &[(0, 0, 5.0), (0, 1, 1.0), (2, 1, 1.0), (3, 0, 2.0)],
        ));
        matrices.push(CsrMatrix::from_coo(
            3,
            3,
            &[(0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)],
        ));
        matrices.push(CsrMatrix::from_coo(3, 3, &[]));
        matrices.push(CsrMatrix::identity(0));
        for m in &matrices {
            let g = m.to_graph();
            assert_eq!(g, m.symmetrized_graph());
            assert_eq!(g.heap_bytes(), m.symmetrized_graph().heap_bytes());
        }
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            CsrMatrix::from_csr(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(MatrixError::BadRowPtr(_))
        ));
        assert!(matches!(
            CsrMatrix::from_csr(1, 1, vec![0, 1], vec![4], vec![1.0]),
            Err(MatrixError::ColOutOfBounds { .. })
        ));
        assert!(matches!(
            CsrMatrix::from_csr(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]),
            Err(MatrixError::UnsortedRow { .. })
        ));
    }

    #[test]
    fn frobenius() {
        let m = CsrMatrix::from_coo(2, 2, &[(0, 0, 3.0), (1, 1, 4.0)]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn to_dense_matches() {
        let m = small();
        let d = m.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d.at(r, c), m.get(r, c as u32));
            }
        }
    }

    #[test]
    #[should_panic(expected = "x length mismatch")]
    fn spmv_rejects_wrong_x_length() {
        small().spmv(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row index out of bounds")]
    fn from_coo_rejects_bad_row() {
        CsrMatrix::from_coo(2, 2, &[(5, 0, 1.0)]);
    }

    /// One row of `from_row_blocks` holding `cols` (unit values).
    fn one_row(ncols: usize, cols: &'static [u32]) -> CsrMatrix {
        CsrMatrix::from_row_blocks(
            1,
            ncols,
            || (),
            |_, _, out| {
                out.cols.extend_from_slice(cols);
                out.vals.extend(cols.iter().map(|_| 1.0));
            },
        )
    }

    #[test]
    #[should_panic(expected = "row 0: column out of range")]
    fn from_row_blocks_rejects_a_column_out_of_range() {
        one_row(3, &[0, 3]);
    }

    #[test]
    #[should_panic(expected = "row 0 unsorted")]
    fn from_row_blocks_rejects_an_unsorted_row() {
        one_row(3, &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "graph requires square matrix")]
    fn to_graph_rejects_rectangular() {
        CsrMatrix::from_coo(2, 3, &[(0, 2, 1.0)]).to_graph();
    }

    #[test]
    fn spmv_deterministic_across_threads() {
        let n = 500;
        let entries: Vec<(u32, u32, f64)> = (0..n as u32)
            .flat_map(|i| {
                vec![
                    (i, i, 4.0),
                    (i, (i + 1) % n as u32, -1.0),
                    (i, (i + 7) % n as u32, 0.5),
                ]
            })
            .collect();
        let m = CsrMatrix::from_coo(n, n, &entries);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y1 = mis2_prim::pool::with_pool(1, || m.spmv(&x));
        let y2 = mis2_prim::pool::with_pool(4, || m.spmv(&x));
        assert_eq!(y1, y2);
    }
}
