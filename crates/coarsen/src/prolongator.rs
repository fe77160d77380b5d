//! Prolongators for smoothed-aggregation AMG.
//!
//! * [`tentative_prolongator`] — piecewise-constant `P_tent`: column `a` is
//!   the (normalized) indicator vector of aggregate `a`.
//! * [`smoothed_prolongator`] — one weighted-Jacobi smoothing step,
//!   `P = (I − ω D⁻¹ A) P_tent`, the standard SA-AMG construction used by
//!   MueLu in the paper's Table V experiment (ω defaults to 2/3, divided by
//!   the usual spectral heuristic).

use crate::agg::Aggregation;
use mis2_prim::par;
use mis2_sparse::{add_scaled, scale_rows, spgemm, CsrMatrix};

/// Piecewise-constant tentative prolongator. With `normalize`, each column
/// has unit 2-norm (so `P_tentᵀ P_tent = I`).
pub fn tentative_prolongator(agg: &Aggregation, normalize: bool) -> CsrMatrix {
    let n = agg.labels.len();
    let sizes = agg.sizes();
    // One entry per row, in the row's aggregate's column.
    let values = par::map_range(0..n, |v| {
        if normalize {
            1.0 / (sizes[agg.labels[v] as usize] as f64).sqrt()
        } else {
            1.0
        }
    });
    let row_ptr = (0..=n).collect();
    CsrMatrix::from_csr(n, agg.num_aggregates, row_ptr, agg.labels.clone(), values)
        .expect("every label is below num_aggregates")
}

/// Smoothed prolongator `P = (I − ω D⁻¹ A) P_tent`.
///
/// `omega` is the damping parameter; passing `None` uses the classic
/// `4/(3 ρ̂)` with `ρ̂` estimated as the max over rows of the absolute row
/// sum of `D⁻¹ A` (a cheap, deterministic upper bound on the spectral
/// radius).
pub fn smoothed_prolongator(a: &CsrMatrix, p_tent: &CsrMatrix, omega: Option<f64>) -> CsrMatrix {
    let dinv_a = scale_rows(&a.inv_diag(), a);
    let omega = omega.unwrap_or_else(|| {
        // rho(D^-1 A) <= max_i sum_j |(D^-1 A)_ij|
        let rho_hat = par::map_reduce_range(
            0..dinv_a.nrows(),
            |r| {
                let (_, vals) = dinv_a.row(r);
                vals.iter().map(|v| v.abs()).sum::<f64>()
            },
            0.0,
            f64::max,
        )
        .max(1e-12);
        4.0 / (3.0 * rho_hat)
    });
    let dinv_a_p = spgemm(&dinv_a, p_tent);
    add_scaled(1.0, p_tent, -omega, &dinv_a_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Aggregation;
    use mis2_graph::gen;
    use mis2_sparse::gen as sgen;

    fn toy_agg() -> Aggregation {
        Aggregation {
            labels: vec![0, 0, 1, 1, 1],
            num_aggregates: 2,
            roots: vec![0, 2],
        }
    }

    #[test]
    fn tentative_unnormalized_rows() {
        let p = tentative_prolongator(&toy_agg(), false);
        assert_eq!(p.nrows(), 5);
        assert_eq!(p.ncols(), 2);
        assert_eq!(p.nnz(), 5);
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(4, 1), 1.0);
        assert_eq!(p.get(0, 1), 0.0);
    }

    #[test]
    fn tentative_normalized_columns() {
        let p = tentative_prolongator(&toy_agg(), true);
        // Column norms: sqrt(sum of squares) == 1.
        let pt = p.transpose();
        for c in 0..2 {
            let (_, vals) = pt.row(c);
            let norm: f64 = vals.iter().map(|v| v * v).sum::<f64>();
            assert!((norm - 1.0).abs() < 1e-12, "column {c} norm {norm}");
        }
        // P^T P = I.
        let ptp = spgemm(&pt, &p);
        assert!((ptp.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((ptp.get(1, 1) - 1.0).abs() < 1e-12);
        assert!(ptp.get(0, 1).abs() < 1e-12);
    }

    #[test]
    fn tentative_is_the_row_by_row_matrix() {
        let agg = crate::mis2_agg::mis2_aggregation(&gen::laplace3d(9, 8, 7));
        let sizes = agg.sizes();
        for normalize in [false, true] {
            let want = CsrMatrix::from_row_blocks(
                agg.labels.len(),
                agg.num_aggregates,
                || (),
                |_, v, out| {
                    let a = agg.labels[v];
                    out.cols.push(a);
                    out.vals.push(if normalize {
                        1.0 / (sizes[a as usize] as f64).sqrt()
                    } else {
                        1.0
                    });
                },
            );
            assert_eq!(tentative_prolongator(&agg, normalize), want);
        }
    }

    #[test]
    fn smoothed_preserves_shape() {
        let g = gen::laplace2d(8, 8);
        let a = sgen::laplace2d_matrix(8, 8);
        let agg = crate::mis2_agg::mis2_aggregation(&g);
        let pt = tentative_prolongator(&agg, true);
        let p = smoothed_prolongator(&a, &pt, Some(2.0 / 3.0));
        assert_eq!(p.nrows(), 64);
        assert_eq!(p.ncols(), agg.num_aggregates);
        // Smoothing widens the stencil: strictly more nonzeros.
        assert!(p.nnz() > pt.nnz());
    }

    #[test]
    fn smoothed_interpolates_constants_interior() {
        // For the singular (Neumann-like) graph Laplacian, D^-1 A 1 = 0 on
        // interior rows, so smoothing leaves the constant vector's
        // interpolation intact there: P * (column sums of aggregates) keeps
        // interior entries equal to the tentative interpolation.
        let g = gen::laplace2d(6, 6);
        let a = mis2_sparse::gen::from_graph_with_diag(&g, 4.0);
        let agg = crate::basic::mis2_basic(&g);
        let pt = tentative_prolongator(&agg, false);
        let p = smoothed_prolongator(&a, &pt, Some(0.5));
        // x_c = all ones -> P x_c should stay close to 1 in the interior.
        let ones = vec![1.0; agg.num_aggregates];
        let px = p.spmv(&ones);
        // Interior vertex of the 6x6 grid: id 14 = (2,2).
        let v = 14usize;
        if g.degree(v as u32) == 4 {
            assert!(
                (px[v] - 1.0).abs() < 0.6,
                "interior interpolation {}",
                px[v]
            );
        }
    }

    #[test]
    fn auto_omega_is_finite_positive() {
        let a = sgen::laplace3d_matrix(4, 4, 4);
        let g = gen::laplace3d(4, 4, 4);
        let agg = crate::mis2_agg::mis2_aggregation(&g);
        let pt = tentative_prolongator(&agg, true);
        let p = smoothed_prolongator(&a, &pt, None);
        assert!(p.frobenius_norm().is_finite());
        assert!(p.nnz() > 0);
    }
}
