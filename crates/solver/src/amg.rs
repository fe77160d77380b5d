//! Smoothed-aggregation algebraic multigrid (SA-AMG).
//!
//! Reproduces the paper's Table V setup: "a multigrid V-cycle SA
//! preconditioner using the specified aggregation algorithm to coarsen at
//! all levels ... solve a Laplace3D problem to a tolerance of 1e-12, using
//! 2 sweeps of the Jacobi method as a smoother and conjugate gradient as
//! the main solver."
//!
//! Setup: aggregate (any [`AggScheme`]) → tentative prolongator → smoothed
//! prolongator `P = (I − ω D⁻¹ A) P_tent` → Galerkin `A_c = Pᵀ A P`,
//! recursively until the coarse system is small enough for a dense LU.
//! Apply: standard V-cycle with pre/post Jacobi smoothing.

use crate::precond::{JacobiSmoother, Preconditioner};
use mis2_coarsen::{smoothed_prolongator, tentative_prolongator, AggScheme};
use mis2_prim::par;
use mis2_sparse::kernels::axpy;
use mis2_sparse::{galerkin_product, CsrMatrix, LuFactors};
use std::sync::Mutex;
use std::time::Instant;

/// AMG configuration. Defaults mirror the paper's Table V experiment.
#[derive(Debug, Clone, Copy)]
pub struct AmgConfig {
    /// Aggregation scheme used on every level.
    pub scheme: AggScheme,
    /// Stop coarsening below this many rows (dense LU takes over).
    pub min_coarse_size: usize,
    /// Maximum number of levels (including the finest).
    pub max_levels: usize,
    /// Jacobi smoother damping.
    pub omega: f64,
    /// Pre- and post-smoothing sweeps (the paper uses 2).
    pub smoother_sweeps: usize,
    /// Smooth the prolongator (plain aggregation AMG when false).
    pub smooth_prolongator: bool,
    /// Seed forwarded to the aggregation scheme.
    pub seed: u64,
}

impl Default for AmgConfig {
    fn default() -> Self {
        AmgConfig {
            scheme: AggScheme::Mis2Agg,
            min_coarse_size: 200,
            max_levels: 10,
            omega: 2.0 / 3.0,
            smoother_sweeps: 2,
            smooth_prolongator: true,
            seed: 0,
        }
    }
}

/// Setup statistics (the paper's Table V columns "Agg." and "Setup").
#[derive(Debug, Clone)]
pub struct AmgSetupStats {
    /// Seconds spent in aggregation only (all levels).
    pub aggregation_seconds: f64,
    /// Total setup seconds (aggregation + prolongators + Galerkin + LU).
    pub setup_seconds: f64,
    /// Rows per level, finest first.
    pub level_sizes: Vec<usize>,
    /// Sum of nnz over all level operators divided by nnz of the finest —
    /// the standard operator-complexity quality metric.
    pub operator_complexity: f64,
}

struct AmgLevel {
    a: CsrMatrix,
    p: CsrMatrix,
    smoother: JacobiSmoother,
}

/// An SA-AMG hierarchy usable as a preconditioner (one V-cycle per apply).
pub struct AmgHierarchy {
    levels: Vec<AmgLevel>,
    coarse_a: CsrMatrix,
    coarse: CoarseSolve,
    /// Scratch buffers per level, protected for `&self` application.
    scratch: Mutex<Vec<LevelScratch>>,
    /// Setup statistics.
    pub stats: AmgSetupStats,
}

/// How the coarsest system is solved, decided once at build.
enum CoarseSolve {
    /// Dense LU of the coarsest operator.
    Lu(LuFactors),
    /// The operator is singular to the LU: 20 damped Jacobi sweeps from 0.
    Jacobi(JacobiSmoother),
}

#[derive(Default, Clone)]
struct LevelScratch {
    r: Vec<f64>,
    tmp: Vec<f64>,
}

impl AmgHierarchy {
    /// Build the hierarchy for `a`.
    pub fn build(a: &CsrMatrix, cfg: &AmgConfig) -> Self {
        let t_total = Instant::now();
        let mut agg_seconds = 0.0f64;
        let mut levels: Vec<AmgLevel> = Vec::new();
        let mut level_sizes = vec![a.nrows()];
        let mut nnz_total = a.nnz() as f64;
        let fine_nnz = a.nnz() as f64;
        let mut cur = a.clone();

        while levels.len() + 1 < cfg.max_levels && cur.nrows() > cfg.min_coarse_size {
            let g = cur.to_graph();
            let t_agg = Instant::now();
            let agg = cfg.scheme.aggregate(&g, cfg.seed ^ levels.len() as u64);
            agg_seconds += t_agg.elapsed().as_secs_f64();
            if agg.num_aggregates >= cur.nrows() {
                break; // no coarsening progress (degenerate input)
            }
            let p_tent = tentative_prolongator(&agg, true);
            let p = if cfg.smooth_prolongator {
                smoothed_prolongator(&cur, &p_tent, Some(cfg.omega))
            } else {
                p_tent
            };
            let coarse = galerkin_product(&cur, &p);
            let smoother = JacobiSmoother::new(&cur, cfg.omega, cfg.smoother_sweeps);
            level_sizes.push(coarse.nrows());
            nnz_total += coarse.nnz() as f64;
            levels.push(AmgLevel {
                a: cur,
                p,
                smoother,
            });
            cur = coarse;
        }

        let coarse = match cur.to_dense().lu() {
            Ok(lu) => CoarseSolve::Lu(lu),
            Err(_) => CoarseSolve::Jacobi(JacobiSmoother::new(&cur, 0.667, 20)),
        };
        let nlev = levels.len() + 1;
        let stats = AmgSetupStats {
            aggregation_seconds: agg_seconds,
            setup_seconds: t_total.elapsed().as_secs_f64(),
            level_sizes,
            operator_complexity: nnz_total / fine_nnz.max(1.0),
        };
        AmgHierarchy {
            levels,
            coarse_a: cur,
            coarse,
            scratch: Mutex::new(vec![LevelScratch::default(); nlev]),
            stats,
        }
    }

    /// Number of levels (including the coarsest).
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// One V-cycle from `level` down; `scratch[0]` belongs to `level`, the
    /// rest of the slice to the levels below it.
    fn v_cycle(&self, level: usize, b: &[f64], x: &mut [f64], scratch: &mut [LevelScratch]) {
        if level == self.levels.len() {
            match &self.coarse {
                CoarseSolve::Lu(lu) => x.copy_from_slice(&lu.solve(b)),
                CoarseSolve::Jacobi(sm) => {
                    x.iter_mut().for_each(|v| *v = 0.0);
                    sm.smooth(&self.coarse_a, b, x, &mut scratch[0].tmp);
                }
            }
            return;
        }
        let lvl = &self.levels[level];
        let (s, deeper) = scratch
            .split_first_mut()
            .expect("one scratch slot per level");
        // Pre-smooth.
        lvl.smoother.smooth(&lvl.a, b, x, &mut s.tmp);
        // Residual r = b - A x, in the level's own buffer.
        s.r.resize(x.len(), 0.0);
        lvl.a.spmv_into(x, &mut s.r);
        par::for_each_slice_mut(&mut s.r, |lo, r| {
            for (r, b) in r.iter_mut().zip(&b[lo..]) {
                *r = b - *r;
            }
        });
        // Restrict: bc = P^T r, without materializing the transpose.
        let bc = transpose_spmv(&lvl.p, &s.r);
        let mut xc = vec![0.0; bc.len()];
        // Recurse.
        self.v_cycle(level + 1, &bc, &mut xc, deeper);
        // Prolong and correct.
        s.tmp.resize(x.len(), 0.0);
        lvl.p.spmv_into(&xc, &mut s.tmp);
        axpy(1.0, &s.tmp, x);
        // Post-smooth.
        lvl.smoother.smooth(&lvl.a, b, x, &mut s.tmp);
    }
}

/// `y = Aᵀ x` without materializing the transpose (deterministic: each
/// output entry accumulates sequentially over a fixed traversal order).
#[allow(clippy::needless_range_loop)]
fn transpose_spmv(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0f64; a.ncols()];
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        let xr = x[r];
        for (&c, &v) in cols.iter().zip(vals) {
            y[c as usize] += v * xr;
        }
    }
    y
}

impl Preconditioner for AmgHierarchy {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), z.len());
        z.iter_mut().for_each(|v| *v = 0.0);
        let mut scratch = self.scratch.lock().unwrap();
        self.v_cycle(0, r, z, &mut scratch);
    }

    fn name(&self) -> &'static str {
        "SA-AMG V-cycle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{pcg, SolveOpts};
    use crate::precond::Identity;
    use mis2_sparse::gen as sgen;

    #[test]
    fn builds_multilevel_hierarchy() {
        let a = sgen::laplace3d_matrix(12, 12, 12);
        let amg = AmgHierarchy::build(
            &a,
            &AmgConfig {
                min_coarse_size: 50,
                ..Default::default()
            },
        );
        assert!(amg.num_levels() >= 2, "only {} levels", amg.num_levels());
        assert!(amg.stats.operator_complexity >= 1.0);
        assert!(amg.stats.level_sizes.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn amg_preconditioned_cg_beats_plain_cg() {
        // The Table V effect: AMG cuts CG iterations dramatically.
        let a = sgen::laplace3d_matrix(10, 10, 10);
        let b = vec![1.0; 1000];
        let opts = SolveOpts {
            tol: 1e-10,
            max_iters: 600,
        };
        let (_, plain) = pcg(&a, &b, &Identity, &opts);
        let amg = AmgHierarchy::build(
            &a,
            &AmgConfig {
                min_coarse_size: 64,
                ..Default::default()
            },
        );
        let (_, pre) = pcg(&a, &b, &amg, &opts);
        assert!(
            pre.converged,
            "AMG-CG did not converge: rel {}",
            pre.relative_residual
        );
        assert!(
            pre.iterations * 2 < plain.iterations,
            "AMG {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn all_schemes_give_working_preconditioners() {
        let a = sgen::laplace3d_matrix(8, 8, 8);
        let b = vec![1.0; 512];
        let opts = SolveOpts {
            tol: 1e-10,
            max_iters: 300,
        };
        for scheme in AggScheme::all() {
            let amg = AmgHierarchy::build(
                &a,
                &AmgConfig {
                    scheme,
                    min_coarse_size: 40,
                    ..Default::default()
                },
            );
            let (_, res) = pcg(&a, &b, &amg, &opts);
            assert!(
                res.converged,
                "{}: rel residual {}",
                scheme.label(),
                res.relative_residual
            );
        }
    }

    #[test]
    fn unsmoothed_prolongator_works_but_converges_slower() {
        let a = sgen::laplace3d_matrix(8, 8, 8);
        let b = vec![1.0; 512];
        let opts = SolveOpts {
            tol: 1e-10,
            max_iters: 400,
        };
        let sa = AmgHierarchy::build(
            &a,
            &AmgConfig {
                min_coarse_size: 40,
                ..Default::default()
            },
        );
        let plain = AmgHierarchy::build(
            &a,
            &AmgConfig {
                min_coarse_size: 40,
                smooth_prolongator: false,
                ..Default::default()
            },
        );
        let (_, rs) = pcg(&a, &b, &sa, &opts);
        let (_, rp) = pcg(&a, &b, &plain, &opts);
        assert!(rs.converged && rp.converged);
        assert!(
            rs.iterations <= rp.iterations,
            "SA {} vs plain {}",
            rs.iterations,
            rp.iterations
        );
    }

    #[test]
    fn deterministic_across_threads() {
        let a = sgen::laplace2d_matrix(16, 16);
        let b = vec![1.0; 256];
        let opts = SolveOpts {
            tol: 1e-10,
            max_iters: 200,
        };
        let run = || {
            let amg = AmgHierarchy::build(
                &a,
                &AmgConfig {
                    min_coarse_size: 30,
                    ..Default::default()
                },
            );
            pcg(&a, &b, &amg, &opts)
        };
        let (x1, r1) = mis2_prim::pool::with_pool(1, run);
        let (x2, r2) = mis2_prim::pool::with_pool(4, run);
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(x1, x2);
    }

    #[test]
    fn singular_coarse_operator_falls_back_to_jacobi_sweeps() {
        // The dense LU refuses [1 2; 2 4]; the V-cycle is then the 20
        // damped Jacobi sweeps chosen at build, the same on every apply.
        let a = CsrMatrix::from_coo(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        let amg = AmgHierarchy::build(&a, &AmgConfig::default());
        assert!(matches!(amg.coarse, CoarseSolve::Jacobi(_)));
        let b = [1.0, -3.0];
        let mut want = vec![0.0; 2];
        JacobiSmoother::new(&a, 0.667, 20).smooth(&a, &b, &mut want, &mut Vec::new());
        for _ in 0..2 {
            let mut z = vec![f64::NAN; 2];
            amg.apply(&b, &mut z);
            assert_eq!(z, want);
        }
    }

    #[test]
    fn small_input_single_level() {
        let a = sgen::laplace2d_matrix(4, 4);
        let amg = AmgHierarchy::build(&a, &AmgConfig::default());
        assert_eq!(amg.num_levels(), 1); // 16 rows < min_coarse_size
        let b = vec![1.0; 16];
        let (_, res) = pcg(&a, &b, &amg, &SolveOpts::default());
        assert!(res.converged);
    }
}
