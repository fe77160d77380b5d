//! The preconditioner interface plus the trivial members (identity,
//! Jacobi). The interesting preconditioners live in [`crate::gs`]
//! (point/cluster multicolor Gauss-Seidel) and [`crate::amg`] (SA-AMG).

use mis2_prim::par;
use mis2_sparse::CsrMatrix;

/// Application of `z = M⁻¹ r` for a fixed matrix.
pub trait Preconditioner: Send + Sync {
    /// Apply the preconditioner.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Human-readable name for reports.
    fn name(&self) -> &'static str {
        "preconditioner"
    }
}

/// No preconditioning: `z = r`.
pub struct Identity;

impl Preconditioner for Identity {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

/// Jacobi (diagonal) preconditioning: `z = D⁻¹ r`.
pub struct Jacobi {
    dinv: Vec<f64>,
}

impl Jacobi {
    /// Build from the matrix diagonal.
    pub fn new(a: &CsrMatrix) -> Self {
        let dinv = a.diag().into_iter().map(Self::scale_of).collect();
        Jacobi { dinv }
    }

    /// For an `n`-row operator whose diagonal is `d` in every row (a
    /// `GraphLaplacian`): the same scaling as [`Jacobi::new`] of the
    /// assembled matrix, without a diagonal to read.
    pub fn constant(n: usize, d: f64) -> Self {
        Jacobi {
            dinv: vec![Self::scale_of(d); n],
        }
    }

    /// What a row with diagonal `d` is scaled by. Not `inv_diag()`'s rule:
    /// a missing pivot passes `r` through (1.0, not 0.0), and the served
    /// `SOLVE` bytes depend on it.
    fn scale_of(d: f64) -> f64 {
        if d.abs() > 1e-300 {
            1.0 / d
        } else {
            1.0
        }
    }
}

impl Preconditioner for Jacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert!(r.len() == z.len() && self.dinv.len() == z.len());
        par::for_each_slice_mut(z, |lo, z| {
            for ((z, r), dinv) in z.iter_mut().zip(&r[lo..]).zip(&self.dinv[lo..]) {
                *z = r * dinv;
            }
        });
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

/// Weighted Jacobi smoothing sweeps: `x += ω D⁻¹ (b - A x)`, repeated
/// `sweeps` times. This is the smoother of the paper's Table V experiment
/// ("2 sweeps of the Jacobi method as a smoother").
pub struct JacobiSmoother {
    pub omega: f64,
    pub sweeps: usize,
    dinv: Vec<f64>,
}

impl JacobiSmoother {
    pub fn new(a: &CsrMatrix, omega: f64, sweeps: usize) -> Self {
        JacobiSmoother {
            omega,
            sweeps,
            dinv: a.inv_diag(),
        }
    }

    /// Run the sweeps in place.
    pub fn smooth(&self, a: &CsrMatrix, b: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) {
        assert!(b.len() == x.len() && self.dinv.len() == x.len());
        scratch.resize(x.len(), 0.0);
        for _ in 0..self.sweeps {
            a.spmv_into(x, scratch);
            let omega = self.omega;
            let ax: &[f64] = scratch;
            par::for_each_slice_mut(x, |lo, x| {
                let rows = x.iter_mut().zip(&self.dinv[lo..]).zip(&b[lo..]);
                for (((x, dinv), b), ax) in rows.zip(&ax[lo..]) {
                    *x += omega * dinv * (b - ax);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_sparse::gen as sgen;

    #[test]
    fn identity_copies() {
        let mut z = vec![0.0; 3];
        Identity.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn jacobi_divides_by_diag() {
        let a = sgen::laplace2d_matrix(3, 3);
        let j = Jacobi::new(&a);
        let r = vec![4.0; 9];
        let mut z = vec![0.0; 9];
        j.apply(&r, &mut z);
        for &v in &z {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_jacobi_applies_like_jacobi_of_the_assembled_matrix() {
        // A usable pivot, a negative one, and the two sides of the 1e-300
        // cut-off, below which `r` passes through unscaled.
        let g = mis2_graph::gen::laplace2d(5, 4);
        let r: Vec<f64> = (0..20).map(|i| (i as f64 - 7.5) / 3.0).collect();
        for d in [4.0, 7.0, -3.0, 2e-300, 1e-300, 1e-301, 0.0, -1e-310] {
            let a = sgen::from_graph_with_diag(&g, d);
            let (mut want, mut got) = (vec![0.0; 20], vec![0.0; 20]);
            Jacobi::new(&a).apply(&r, &mut want);
            Jacobi::constant(20, d).apply(&r, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&got), bits(&want), "d = {d:e}");
            if d.abs() <= 1e-300 {
                assert_eq!(
                    bits(&got),
                    bits(&r),
                    "d = {d:e}: no pivot, r passes through"
                );
            }
        }
    }

    #[test]
    fn jacobi_smoother_reduces_residual() {
        let a = sgen::laplace2d_matrix(10, 10);
        let b = vec![1.0; 100];
        let mut x = vec![0.0; 100];
        let sm = JacobiSmoother::new(&a, 2.0 / 3.0, 5);
        let mut scratch = Vec::new();
        let r0 = mis2_sparse::kernels::norm2(&mis2_sparse::kernels::residual(&a, &x, &b));
        sm.smooth(&a, &b, &mut x, &mut scratch);
        let r1 = mis2_sparse::kernels::norm2(&mis2_sparse::kernels::residual(&a, &x, &b));
        assert!(r1 < r0 * 0.8, "residual {r0} -> {r1}");
    }
}
