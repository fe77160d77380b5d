//! Sparse matrix-matrix multiplication (SpGEMM) and the Galerkin triple
//! product.
//!
//! SpGEMM is the substrate the *earlier* MIS-2 literature needed (Tuminaro
//! & Tong computed MIS-2 as MIS-1 of `A²` via SpGEMM — paper Section II)
//! and which smoothed-aggregation AMG needs to form the coarse operator
//! `A_c = Pᵀ A P` (Section III-B). The implementation is row-parallel with
//! a dense accumulator per row block (the classic Gustavson algorithm);
//! accumulation order within a row is fixed (A's column order), so results
//! are bitwise deterministic for any thread count.

use crate::csr_matrix::CsrMatrix;

/// Per-block sparse accumulator: dense value array with generation-tagged
/// occupancy markers, so clearing between rows is O(nnz(row)).
struct Accumulator {
    values: Vec<f64>,
    tag: Vec<u64>,
    current: u64,
}

impl Accumulator {
    fn new(ncols: usize) -> Self {
        Accumulator {
            values: vec![0.0; ncols],
            tag: vec![0; ncols],
            current: 0,
        }
    }

    #[inline]
    fn begin_row(&mut self) {
        self.current += 1;
    }

    /// Add `v` at `col`; true when this is the row's first touch of `col`.
    #[inline]
    fn add(&mut self, col: usize, v: f64) -> bool {
        let first = self.tag[col] != self.current;
        if first {
            self.tag[col] = self.current;
            self.values[col] = v;
        } else {
            self.values[col] += v;
        }
        first
    }

    #[inline]
    fn get(&self, col: usize) -> f64 {
        debug_assert_eq!(self.tag[col], self.current);
        self.values[col]
    }
}

/// `C = A * B`.
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.ncols(), b.nrows(), "spgemm dimension mismatch");
    let ncols = b.ncols();
    // One dense accumulator per row block keeps allocation
    // O(blocks * ncols); the columns a row touches are the tail of the
    // block's column buffer, sorted in place, and the per-row accumulation
    // order stays A's column order whatever the pool size.
    CsrMatrix::from_row_blocks(
        a.nrows(),
        ncols,
        || Accumulator::new(ncols),
        |acc, r, out| {
            acc.begin_row();
            let start = out.cols.len();
            let (acols, avals) = a.row(r);
            for (&k, &av) in acols.iter().zip(avals) {
                let (bcols, bvals) = b.row(k as usize);
                for (&j, &bv) in bcols.iter().zip(bvals) {
                    if acc.add(j as usize, av * bv) {
                        out.cols.push(j);
                    }
                }
            }
            out.cols[start..].sort_unstable();
            out.vals
                .extend(out.cols[start..].iter().map(|&j| acc.get(j as usize)));
        },
    )
}

/// Galerkin coarse operator `A_c = Pᵀ A P` (paper Section III-B: restrict,
/// solve coarse, interpolate).
pub fn galerkin_product(a: &CsrMatrix, p: &CsrMatrix) -> CsrMatrix {
    let ap = spgemm(a, p);
    let r = p.transpose();
    spgemm(&r, &ap)
}

/// `C = alpha * A + beta * B` by parallel row merge. Shapes must match.
pub fn add_scaled(alpha: f64, a: &CsrMatrix, beta: f64, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.nrows(), b.nrows(), "add_scaled row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "add_scaled col mismatch");
    CsrMatrix::from_row_blocks(
        a.nrows(),
        a.ncols(),
        || (),
        |_, r, out| {
            let (ac, av) = a.row(r);
            let (bc, bv) = b.row(r);
            let (mut i, mut j) = (0usize, 0usize);
            while i < ac.len() || j < bc.len() {
                let ca = ac.get(i).copied().unwrap_or(u32::MAX);
                let cb = bc.get(j).copied().unwrap_or(u32::MAX);
                if ca < cb {
                    out.cols.push(ca);
                    out.vals.push(alpha * av[i]);
                    i += 1;
                } else if cb < ca {
                    out.cols.push(cb);
                    out.vals.push(beta * bv[j]);
                    j += 1;
                } else {
                    out.cols.push(ca);
                    out.vals.push(alpha * av[i] + beta * bv[j]);
                    i += 1;
                    j += 1;
                }
            }
        },
    )
}

/// Scale each row `i` of `A` by `s[i]` (used for `D⁻¹ A` in prolongator
/// smoothing and Jacobi).
pub fn scale_rows(s: &[f64], a: &CsrMatrix) -> CsrMatrix {
    assert_eq!(s.len(), a.nrows());
    CsrMatrix::from_row_blocks(
        a.nrows(),
        a.ncols(),
        || (),
        |_, r, out| {
            let (cols, vals) = a.row(r);
            out.cols.extend_from_slice(cols);
            out.vals.extend(vals.iter().map(|&v| s[r] * v));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::needless_range_loop)]
    fn dense_mul(a: &CsrMatrix, b: &CsrMatrix) -> Vec<Vec<f64>> {
        let mut c = vec![vec![0.0; b.ncols()]; a.nrows()];
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            for (&k, &av) in cols.iter().zip(vals) {
                let (bc, bv) = b.row(k as usize);
                for (&j, &bvv) in bc.iter().zip(bv) {
                    c[r][j as usize] += av * bvv;
                }
            }
        }
        c
    }

    fn random_matrix(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> CsrMatrix {
        let mut entries = Vec::new();
        for r in 0..nrows as u32 {
            for k in 0..per_row {
                let h = mis2_prim::hash::splitmix64(seed ^ ((r as u64) << 20) ^ k as u64);
                let c = (h % ncols as u64) as u32;
                let v = ((h >> 32) % 100) as f64 / 10.0 - 5.0;
                entries.push((r, c, v));
            }
        }
        CsrMatrix::from_coo(nrows, ncols, &entries)
    }

    #[test]
    fn identity_times_identity() {
        let i = CsrMatrix::identity(5);
        let c = spgemm(&i, &i);
        assert_eq!(c, i);
    }

    #[test]
    fn identity_preserves() {
        let a = random_matrix(10, 10, 3, 1);
        assert_eq!(spgemm(&CsrMatrix::identity(10), &a), a);
        assert_eq!(spgemm(&a, &CsrMatrix::identity(10)), a);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn matches_dense_reference() {
        let a = random_matrix(30, 20, 4, 7);
        let b = random_matrix(20, 25, 4, 8);
        let c = spgemm(&a, &b);
        let want = dense_mul(&a, &b);
        for r in 0..30 {
            for j in 0..25u32 {
                let got = c.get(r, j);
                assert!(
                    (got - want[r][j as usize]).abs() < 1e-10,
                    "({r},{j}): {got} vs {}",
                    want[r][j as usize]
                );
            }
        }
    }

    #[test]
    fn rectangular_chain() {
        let a = random_matrix(8, 40, 5, 2);
        let b = random_matrix(40, 3, 2, 3);
        let c = spgemm(&a, &b);
        assert_eq!(c.nrows(), 8);
        assert_eq!(c.ncols(), 3);
    }

    #[test]
    fn spgemm_deterministic() {
        let a = random_matrix(200, 200, 6, 4);
        let b = random_matrix(200, 200, 6, 5);
        let c1 = mis2_prim::pool::with_pool(1, || spgemm(&a, &b));
        let c2 = mis2_prim::pool::with_pool(4, || spgemm(&a, &b));
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "spgemm dimension mismatch")]
    fn spgemm_rejects_mismatched_shapes() {
        let a = CsrMatrix::identity(3);
        let b = CsrMatrix::identity(4);
        spgemm(&a, &b);
    }

    #[test]
    #[should_panic(expected = "add_scaled row mismatch")]
    fn add_scaled_rejects_mismatch() {
        add_scaled(1.0, &CsrMatrix::identity(2), 1.0, &CsrMatrix::identity(3));
    }

    #[test]
    fn galerkin_small() {
        // A = diag(1, 2, 3, 4); P aggregates {0,1} and {2,3}.
        let a = CsrMatrix::from_coo(4, 4, &[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0), (3, 3, 4.0)]);
        let p = CsrMatrix::from_coo(4, 2, &[(0, 0, 1.0), (1, 0, 1.0), (2, 1, 1.0), (3, 1, 1.0)]);
        let ac = galerkin_product(&a, &p);
        assert_eq!(ac.nrows(), 2);
        assert_eq!(ac.get(0, 0), 3.0); // 1 + 2
        assert_eq!(ac.get(1, 1), 7.0); // 3 + 4
        assert_eq!(ac.get(0, 1), 0.0);
    }

    #[test]
    fn add_scaled_matches_dense() {
        let a = random_matrix(12, 9, 3, 1);
        let b = random_matrix(12, 9, 3, 2);
        let c = add_scaled(2.0, &a, -0.5, &b);
        for r in 0..12 {
            for j in 0..9u32 {
                let want = 2.0 * a.get(r, j) - 0.5 * b.get(r, j);
                assert!((c.get(r, j) - want).abs() < 1e-12, "({r},{j})");
            }
        }
    }

    #[test]
    fn scale_rows_basic() {
        let a = CsrMatrix::from_coo(2, 2, &[(0, 0, 2.0), (0, 1, 4.0), (1, 1, 3.0)]);
        let s = scale_rows(&[0.5, 2.0], &a);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(1, 1), 6.0);
    }

    #[test]
    fn galerkin_keeps_symmetry() {
        // Symmetric A and any P give symmetric RAP.
        let a = crate::gen::laplace2d_matrix(6, 6);
        let p = random_matrix(36, 9, 1, 9);
        let ac = galerkin_product(&a, &p);
        assert!(ac.is_symmetric(1e-10));
    }
}
