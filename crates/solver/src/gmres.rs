//! Right-preconditioned restarted GMRES.
//!
//! The solver of the paper's Table VI experiment ("The SGS methods are used
//! as preconditioners for a GMRES solver ... converge to a tolerance of
//! 1e-8 within 800 iterations"). Arnoldi with modified Gram-Schmidt and
//! Givens rotations; right preconditioning so the residual norm tracked by
//! the rotations is the true unpreconditioned residual.

use crate::cg::{SolveOpts, SolveResult};
use crate::precond::Preconditioner;
use mis2_sparse::kernels::{axpy, axpy_dot, axpy_norm2, dot, norm2, residual, Operator};

/// GMRES restart length.
pub const DEFAULT_RESTART: usize = 50;

/// Right-preconditioned GMRES(m) on any [`Operator`].
///
/// The residual `r = b - A x` is carried across restart cycles and
/// recomputed once per update of `x`: the end-of-cycle convergence check,
/// the next cycle's start and the returned `relative_residual` all read
/// that one vector, so a cycle of `k` iterations applies the operator
/// `k + 1` times.
///
/// ```
/// use mis2_solver::{gmres, Identity, SolveOpts};
/// // Any operator: here a stored matrix.
/// let a = mis2_sparse::gen::laplace2d_matrix(6, 6);
/// let b = vec![1.0; 36];
/// let (_, res) = gmres(&a, &b, &Identity, 20, &SolveOpts::default());
/// assert!(res.converged);
/// ```
pub fn gmres<A: Operator + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &dyn Preconditioner,
    restart: usize,
    opts: &SolveOpts,
) -> (Vec<f64>, SolveResult) {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    let m = restart.max(1);
    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // r = b - A*0
    let mut history: Vec<f64> = Vec::new();
    let mut total_iters = 0usize;

    'outer: while total_iters < opts.max_iters {
        let beta = norm2(&r);
        history.push(beta / bnorm);
        if beta / bnorm < opts.tol {
            break;
        }
        // Krylov basis (m+1 vectors) and Hessenberg in packed columns.
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        v.push(r.iter().map(|x| x / beta).collect());
        let mut h = vec![vec![0.0f64; m]; m + 1]; // h[i][j]
        let (mut cs, mut sn) = (vec![0.0f64; m], vec![0.0f64; m]);
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;
        let mut z = vec![0.0; n];
        let mut k_used = 0usize;

        for j in 0..m {
            if total_iters >= opts.max_iters {
                break;
            }
            total_iters += 1;
            // w = A M^{-1} v_j
            precond.apply(&v[j], &mut z);
            let mut w = vec![0.0; n];
            a.apply_into(&z, &mut w);
            // Modified Gram-Schmidt, one pass over `w` per basis vector:
            // subtracting the last projection is fused into the inner
            // product (and the closing norm) that reads `w` next.
            h[0][j] = dot(&w, &v[0]);
            for i in 1..=j {
                h[i][j] = axpy_dot(-h[i - 1][j], &v[i - 1], &mut w, &v[i]);
            }
            let hnext = axpy_norm2(-h[j][j], &v[j], &mut w);
            h[j + 1][j] = hnext;
            // Apply existing Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = t;
            }
            // New rotation to kill h[j+1][j].
            let denom = (h[j][j] * h[j][j] + hnext * hnext).sqrt();
            if denom < 1e-300 {
                k_used = j;
                break;
            }
            cs[j] = h[j][j] / denom;
            sn[j] = hnext / denom;
            h[j][j] = denom;
            h[j + 1][j] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            k_used = j + 1;
            let rel = g[j + 1].abs() / bnorm;
            history.push(rel);
            if rel < opts.tol {
                break;
            }
            if hnext < 1e-300 {
                break; // lucky breakdown: exact solution in the space
            }
            v.push(w.iter().map(|x| x / hnext).collect());
        }

        // Solve the k_used x k_used triangular system H y = g.
        if k_used == 0 {
            break 'outer;
        }
        let mut y = vec![0.0f64; k_used];
        for i in (0..k_used).rev() {
            let mut acc = g[i];
            for j2 in (i + 1)..k_used {
                acc -= h[i][j2] * y[j2];
            }
            y[i] = acc / h[i][i];
        }
        // x += M^{-1} (V y)
        let mut vy = vec![0.0; n];
        for (j, &yj) in y.iter().enumerate() {
            axpy(yj, &v[j], &mut vy);
        }
        precond.apply(&vy, &mut z);
        axpy(1.0, &z, &mut x);

        r = residual(a, &x, b);
        if norm2(&r) / bnorm < opts.tol {
            break;
        }
    }

    // Every way out of the loop leaves `r` the residual of the final `x`.
    let true_rel = norm2(&r) / bnorm;
    (
        x,
        SolveResult {
            iterations: total_iters,
            converged: true_rel < opts.tol,
            relative_residual: true_rel,
            history,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Identity, Jacobi};
    use mis2_sparse::gen as sgen;
    use mis2_sparse::CsrMatrix;

    #[test]
    fn solves_identity_instantly() {
        let a = CsrMatrix::identity(5);
        let b = vec![2.0; 5];
        let (x, res) = gmres(&a, &b, &Identity, 10, &SolveOpts::default());
        assert!(res.converged);
        for v in x {
            assert!((v - 2.0).abs() < 1e-8);
        }
    }

    #[test]
    fn solves_laplace2d() {
        let a = sgen::laplace2d_matrix(10, 10);
        let b = vec![1.0; 100];
        let (_, res) = gmres(
            &a,
            &b,
            &Identity,
            30,
            &SolveOpts {
                tol: 1e-10,
                max_iters: 400,
            },
        );
        assert!(res.converged, "rel {}", res.relative_residual);
    }

    #[test]
    fn solves_nonsymmetric() {
        // GMRES handles nonsymmetric systems (CG would break).
        let n = 50u32;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 4.0));
            if i + 1 < n {
                entries.push((i, i + 1, -1.5)); // upwind-ish asymmetry
                entries.push((i + 1, i, -0.5));
            }
        }
        let a = CsrMatrix::from_coo(n as usize, n as usize, &entries);
        let b = vec![1.0; n as usize];
        let (x, res) = gmres(
            &a,
            &b,
            &Identity,
            25,
            &SolveOpts {
                tol: 1e-10,
                max_iters: 300,
            },
        );
        assert!(res.converged);
        let r = mis2_sparse::kernels::residual(&a, &x, &b);
        assert!(mis2_sparse::kernels::norm2(&r) < 1e-8);
    }

    #[test]
    fn restart_still_converges() {
        let a = sgen::laplace2d_matrix(12, 12);
        let b = vec![1.0; 144];
        // Tiny restart forces multiple outer cycles.
        let (_, res) = gmres(
            &a,
            &b,
            &Jacobi::new(&a),
            5,
            &SolveOpts {
                tol: 1e-8,
                max_iters: 2000,
            },
        );
        assert!(res.converged, "rel {}", res.relative_residual);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        // A rough RHS on a finer grid: unpreconditioned GMRES needs a large
        // Krylov space, SGS smooths it away quickly.
        let a = sgen::laplace2d_matrix(24, 24);
        let n = 24 * 24;
        let b: Vec<f64> = (0..n)
            .map(|i| {
                if mis2_prim::hash::splitmix64(i as u64).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let opts = SolveOpts {
            tol: 1e-8,
            max_iters: 600,
        };
        let (_, plain) = gmres(&a, &b, &Identity, 60, &opts);
        let gs = crate::gs::ClusterMcSgs::point(&a, 0);
        let (_, pre) = gmres(&a, &b, &gs, 60, &opts);
        assert!(pre.converged && plain.converged);
        assert!(
            pre.iterations < plain.iterations,
            "SGS {} vs identity {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn max_iters_respected() {
        let a = sgen::laplace2d_matrix(16, 16);
        let b = vec![1.0; 256];
        let (_, res) = gmres(
            &a,
            &b,
            &Identity,
            10,
            &SolveOpts {
                tol: 1e-30,
                max_iters: 7,
            },
        );
        assert_eq!(res.iterations, 7);
        assert!(!res.converged);
    }

    #[test]
    fn deterministic_across_threads() {
        let a = sgen::laplace2d_matrix(10, 10);
        let b: Vec<f64> = (0..100).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
        let opts = SolveOpts {
            tol: 1e-9,
            max_iters: 300,
        };
        let (x1, _) = mis2_prim::pool::with_pool(1, || gmres(&a, &b, &Jacobi::new(&a), 20, &opts));
        let (x2, _) = mis2_prim::pool::with_pool(4, || gmres(&a, &b, &Jacobi::new(&a), 20, &opts));
        assert_eq!(x1, x2);
    }
}
