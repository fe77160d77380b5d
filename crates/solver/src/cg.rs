//! Preconditioned conjugate gradient.
//!
//! The main solver of the paper's Table V experiment ("conjugate gradient
//! (CG) as the main solver", tolerance 1e-12). Deterministic: all
//! reductions are the fixed-block deterministic kernels.

use crate::precond::Preconditioner;
use mis2_sparse::kernels::{axpy, dot, norm2, residual, xpay, Operator};

/// Outcome of a Krylov solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative-residual tolerance was reached.
    pub converged: bool,
    /// Final true relative residual `||b - Ax|| / ||b||`.
    pub relative_residual: f64,
    /// Per-iteration (preconditioned recurrence) residual norms.
    pub history: Vec<f64>,
}

impl SolveResult {
    /// Approximate heap footprint in bytes (capacity of the residual
    /// history) for memory-bounded caches. The solution vector is owned by
    /// the caller and accounted separately.
    pub fn heap_bytes(&self) -> usize {
        self.history.capacity() * std::mem::size_of::<f64>()
    }
}

/// Solver options.
#[derive(Debug, Clone, Copy)]
pub struct SolveOpts {
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for SolveOpts {
    fn default() -> Self {
        SolveOpts {
            tol: 1e-8,
            max_iters: 1000,
        }
    }
}

/// Preconditioned CG on an SPD operator: anything that implements
/// [`Operator`], a stored `CsrMatrix` or a matrix-free one. Returns the
/// solution and statistics.
///
/// ```
/// use mis2_solver::{pcg, Jacobi, SolveOpts};
/// // The operator `4 I - adjacency`, assembled...
/// let a = mis2_sparse::gen::laplace2d_matrix(8, 8);
/// let b = vec![1.0; 64];
/// let (x, res) = pcg(&a, &b, &Jacobi::new(&a), &SolveOpts::default());
/// assert!(res.converged);
/// // ...and applied off the graph: the same iterate, bit for bit.
/// let g = mis2_graph::gen::laplace2d(8, 8);
/// let op = mis2_sparse::gen::GraphLaplacian::new(&g, 4.0);
/// let (y, _) = pcg(&op, &b, &Jacobi::constant(64, 4.0), &SolveOpts::default());
/// assert_eq!(x, y);
/// ```
pub fn pcg<A: Operator + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &dyn Preconditioner,
    opts: &SolveOpts,
) -> (Vec<f64>, SolveResult) {
    let n = a.nrows();
    assert_eq!(b.len(), n);
    let mut x = vec![0.0; n];
    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    let mut r = b.to_vec(); // r = b - A*0
    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut history = Vec::new();
    let mut q = vec![0.0; n];

    for it in 0..opts.max_iters {
        let rnorm = norm2(&r);
        history.push(rnorm / bnorm);
        if rnorm / bnorm < opts.tol {
            let true_rel = norm2(&residual(a, &x, b)) / bnorm;
            return (
                x,
                SolveResult {
                    iterations: it,
                    converged: true,
                    relative_residual: true_rel,
                    history,
                },
            );
        }
        a.apply_into(&p, &mut q);
        let pq = dot(&p, &q);
        if pq <= 0.0 || !pq.is_finite() {
            // Not SPD (or breakdown): bail out with the current iterate.
            break;
        }
        let alpha = rz / pq;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &q, &mut r);
        precond.apply(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        xpay(&z, beta, &mut p);
    }

    let true_rel = norm2(&residual(a, &x, b)) / bnorm;
    let iterations = history.len();
    (
        x,
        SolveResult {
            iterations,
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
    fn solves_identity() {
        let a = CsrMatrix::identity(10);
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let (x, res) = pcg(&a, &b, &Identity, &SolveOpts::default());
        assert!(res.converged);
        for i in 0..10 {
            assert!((x[i] - b[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn solves_laplace2d() {
        let a = sgen::laplace2d_matrix(10, 10);
        let b = vec![1.0; 100];
        let (x, res) = pcg(
            &a,
            &b,
            &Identity,
            &SolveOpts {
                tol: 1e-10,
                max_iters: 500,
            },
        );
        assert!(res.converged, "rel {}", res.relative_residual);
        let check = mis2_sparse::kernels::residual(&a, &x, &b);
        assert!(mis2_sparse::kernels::norm2(&check) < 1e-8 * 10.0);
    }

    #[test]
    fn jacobi_preconditioning_helps_scaled_system() {
        // Continuously varying diagonal scaling (condition number ~1e6):
        // unpreconditioned CG crawls, Jacobi rescaling collapses the
        // spectrum back to the weakly-coupled tridiagonal's.
        let n = 300usize;
        let mut entries = Vec::new();
        for i in 0..n as u32 {
            let d = 10f64.powf(6.0 * i as f64 / n as f64);
            entries.push((i, i, d));
            if i + 1 < n as u32 {
                entries.push((i, i + 1, -0.01));
                entries.push((i + 1, i, -0.01));
            }
        }
        let a = CsrMatrix::from_coo(n, n, &entries);
        let b = vec![1.0; n];
        let opts = SolveOpts {
            tol: 1e-10,
            max_iters: 5000,
        };
        let (_, plain) = pcg(&a, &b, &Identity, &opts);
        let (_, jac) = pcg(&a, &b, &Jacobi::new(&a), &opts);
        assert!(jac.converged);
        assert!(
            jac.iterations * 3 < plain.iterations.max(1),
            "jacobi {} vs identity {}",
            jac.iterations,
            plain.iterations
        );
    }

    #[test]
    fn history_is_monotoneish_and_final_small() {
        let a = sgen::laplace3d_matrix(6, 6, 6);
        let b = vec![1.0; 216];
        let (_, res) = pcg(
            &a,
            &b,
            &Identity,
            &SolveOpts {
                tol: 1e-12,
                max_iters: 600,
            },
        );
        assert!(res.converged);
        assert!(res.history.first().unwrap() > res.history.last().unwrap());
    }

    #[test]
    fn deterministic_across_threads() {
        let a = sgen::laplace2d_matrix(12, 12);
        let b: Vec<f64> = (0..144).map(|i| ((i % 7) as f64) - 3.0).collect();
        let (x1, r1) =
            mis2_prim::pool::with_pool(1, || pcg(&a, &b, &Jacobi::new(&a), &SolveOpts::default()));
        let (x2, r2) =
            mis2_prim::pool::with_pool(4, || pcg(&a, &b, &Jacobi::new(&a), &SolveOpts::default()));
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(x1, x2, "CG iterates diverged across thread counts");
    }

    #[test]
    fn max_iters_respected() {
        let a = sgen::laplace2d_matrix(20, 20);
        let b = vec![1.0; 400];
        let (_, res) = pcg(
            &a,
            &b,
            &Identity,
            &SolveOpts {
                tol: 1e-30,
                max_iters: 5,
            },
        );
        assert!(!res.converged);
        assert!(res.iterations <= 5);
    }
}
