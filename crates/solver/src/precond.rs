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
///
/// A sweep is one pass over the rows ([`CsrMatrix::spmv_with`]): it reads
/// one iterate and writes the next into the other of `x` and the caller's
/// scratch, which take turns so that the last sweep writes `x`. Each row
/// does the arithmetic of an SpMV followed by the update, so the bits are
/// those of that two-pass sweep.
///
/// A V-cycle's pre-smooth starts from `x = 0`, where the first sweep's
/// `A x` is known: [`JacobiSmoother::smooth_from_zero`] skips that SpMV
/// when the matrix holds only finite values (checked once, in
/// [`JacobiSmoother::new`]) and gives the bits of a full sweep.
pub struct JacobiSmoother {
    pub omega: f64,
    pub sweeps: usize,
    dinv: Vec<f64>,
    /// Every value of the matrix is finite, so `A · 0` is `+0.0` in every
    /// row (a `0 · ∞` would be NaN).
    pub(crate) finite: bool,
}

impl JacobiSmoother {
    pub fn new(a: &CsrMatrix, omega: f64, sweeps: usize) -> Self {
        JacobiSmoother {
            omega,
            sweeps,
            dinv: a.inv_diag(),
            finite: a.values().iter().all(|v| v.is_finite()),
        }
    }

    /// Run the sweeps in place.
    pub fn smooth(&self, a: &CsrMatrix, b: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) {
        assert!(b.len() == x.len() && self.dinv.len() == x.len());
        scratch.resize(x.len(), 0.0);
        if self.sweeps % 2 == 1 {
            scratch.copy_from_slice(x);
        }
        self.sweep(a, b, x, scratch, self.sweeps);
    }

    /// Run the sweeps from `x = 0`, writing every entry of `x`: the bits of
    /// zeroing `x` and calling [`JacobiSmoother::smooth`]. `a` is the
    /// matrix the smoother was built from. If its values are all finite,
    /// each row of the first sweep's `A · 0` is a sum of signed zeros
    /// started at `+0.0`, which is `+0.0`; that sweep then writes
    /// `0.0 + ω d⁻¹ (b − 0.0)` without the SpMV.
    pub fn smooth_from_zero(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut Vec<f64>,
    ) {
        assert!(b.len() == x.len() && self.dinv.len() == x.len());
        scratch.resize(x.len(), 0.0);
        let skip = self.finite && self.sweeps > 0;
        let rest = self.sweeps - skip as usize;
        // The iterate the remaining sweeps start from, where they expect it.
        let start = if rest % 2 == 1 {
            &mut scratch[..]
        } else {
            &mut *x
        };
        if skip {
            let omega = self.omega;
            par::for_each_slice_mut(start, |lo, x| {
                for ((x, dinv), b) in x.iter_mut().zip(&self.dinv[lo..]).zip(&b[lo..]) {
                    *x = 0.0 + omega * dinv * (b - 0.0);
                }
            });
        } else {
            start.iter_mut().for_each(|v| *v = 0.0);
        }
        self.sweep(a, b, x, scratch, rest);
    }

    /// `count` sweeps, the first reading `scratch` if `count` is odd and
    /// `x` if it is even; the last writes `x`.
    fn sweep(&self, a: &CsrMatrix, b: &[f64], x: &mut [f64], scratch: &mut [f64], count: usize) {
        let omega = self.omega;
        let next = |from: &[f64], to: &mut [f64]| {
            a.spmv_with(from, to, |i, ax, _| {
                from[i] + omega * self.dinv[i] * (b[i] - ax)
            })
        };
        for left in (1..=count).rev() {
            if left % 2 == 1 {
                next(scratch, x);
            } else {
                next(x, scratch);
            }
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
    fn smoothing_from_zero_gives_the_bits_of_zeroing_then_smoothing() {
        // A finite operator skips the first SpMV. An infinite or NaN value,
        // on or off the diagonal, keeps it: a row's `0 · ∞` is NaN there.
        let a = sgen::laplace2d_matrix(6, 5);
        let n = a.nrows();
        let with = |r: usize, c: usize, v: f64| {
            let coo: Vec<(u32, u32, f64)> = (0..n)
                .flat_map(|i| {
                    let (cols, vals) = a.row(i);
                    cols.iter().zip(vals).map(move |(&j, &w)| {
                        let w = if (i, j as usize) == (r, c) { v } else { w };
                        (i as u32, j, w)
                    })
                })
                .collect();
            CsrMatrix::from_coo(n, n, &coo)
        };
        let cases = [
            ("finite", a.clone(), true),
            ("inf off the diagonal", with(7, 8, f64::INFINITY), false),
            ("-inf on the diagonal", with(7, 7, f64::NEG_INFINITY), false),
            ("NaN", with(3, 4, f64::NAN), false),
        ];
        let b: Vec<f64> = (0..n)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => (i as f64 - 13.5) / 3.0,
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (name, a, finite) in &cases {
            for sweeps in 0..4 {
                let sm = JacobiSmoother::new(a, 2.0 / 3.0, sweeps);
                assert_eq!(sm.finite, *finite, "{name}");
                let mut want = vec![0.0; n];
                sm.smooth(a, &b, &mut want, &mut Vec::new());
                for pool in [1, 2, 3] {
                    mis2_prim::pool::with_pool(pool, || {
                        let mut x = vec![f64::NAN; n];
                        sm.smooth_from_zero(a, &b, &mut x, &mut Vec::new());
                        assert_eq!(
                            bits(&x),
                            bits(&want),
                            "{name}, {sweeps} sweeps, pool {pool}"
                        );
                    });
                }
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
