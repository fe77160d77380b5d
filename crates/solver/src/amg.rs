//! Smoothed-aggregation algebraic multigrid (SA-AMG).
//!
//! Reproduces the paper's Table V setup: "a multigrid V-cycle SA
//! preconditioner using the specified aggregation algorithm to coarsen at
//! all levels ... solve a Laplace3D problem to a tolerance of 1e-12, using
//! 2 sweeps of the Jacobi method as a smoother and conjugate gradient as
//! the main solver."
//!
//! Setup: aggregate (any [`AggScheme`]) → tentative prolongator → smoothed
//! prolongator `P = (I − ω D⁻¹ A) P_tent` → its transpose `Pᵀ`, made once
//! and kept → Galerkin `A_c = Pᵀ (A P)`, recursively until the coarse
//! system is small enough for a dense LU. The finest level borrows the
//! caller's operator; each coarser level owns its Galerkin product.
//!
//! Apply: standard V-cycle with pre/post Jacobi smoothing. It restricts
//! with an SpMV over the kept `Pᵀ`, in a pool region: each row of `Pᵀ`
//! lists its old rows of `P` in ascending order, so every coarse entry
//! sums the same products in the same order, from `0.0`, as a scatter
//! over the rows of `P` would. Every pre-smooth starts from `x = 0`; on a
//! level whose operator holds only finite values its first Jacobi sweep
//! skips the SpMV, whose result is `+0.0` in every row
//! ([`JacobiSmoother::smooth_from_zero`]), and a level with a non-finite
//! value runs it in full. The residual `b − A x` and the correction
//! `x += P x_c` are one pass each ([`CsrMatrix::spmv_with`]), as is each
//! Jacobi sweep, with the bits of an SpMV followed by its elementwise
//! pass. Every vector a V-cycle needs lives in the hierarchy's per-level
//! scratch, so a V-cycle after the first allocates none.

use crate::precond::{JacobiSmoother, Preconditioner};
use mis2_coarsen::{smoothed_prolongator, tentative_prolongator, AggScheme};
use mis2_sparse::{spgemm, CsrMatrix, LuFactors};
use std::borrow::Cow;
use std::sync::Mutex;
use std::time::Instant;

/// AMG configuration. The rest of the paper's Table V setup is fixed, as
/// private constants: at most 10 levels (`MAX_LEVELS`), the tentative
/// prolongator smoothed once with damping 2/3 (`OMEGA`), and 2 Jacobi
/// sweeps with the same damping before and after each coarse correction
/// (`SMOOTHER_SWEEPS`).
#[derive(Debug, Clone, Copy)]
pub struct AmgConfig {
    /// Aggregation scheme used on every level.
    pub scheme: AggScheme,
    /// Stop coarsening below this many rows (dense LU takes over).
    pub min_coarse_size: usize,
    /// Seed forwarded to the aggregation scheme.
    pub seed: u64,
}

impl Default for AmgConfig {
    fn default() -> Self {
        AmgConfig {
            scheme: AggScheme::Mis2Agg,
            min_coarse_size: 200,
            seed: 0,
        }
    }
}

/// Most levels a hierarchy has, the finest included.
const MAX_LEVELS: usize = 10;
/// Damping of the prolongator smoother and of the Jacobi smoother.
const OMEGA: f64 = 2.0 / 3.0;
/// Jacobi sweeps before and after each coarse correction (Table V: 2).
const SMOOTHER_SWEEPS: usize = 2;

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

struct AmgLevel<'a> {
    a: Cow<'a, CsrMatrix>,
    p: CsrMatrix,
    /// `Pᵀ`, the restriction.
    pt: CsrMatrix,
    smoother: JacobiSmoother,
}

/// An SA-AMG hierarchy usable as a preconditioner (one V-cycle per apply).
/// It borrows the operator it was built for as its finest level (and as its
/// coarsest, when that operator is already small enough).
pub struct AmgHierarchy<'a> {
    levels: Vec<AmgLevel<'a>>,
    coarse_a: Cow<'a, CsrMatrix>,
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

/// One level's vectors: `tmp` has the level's rows (the smoother's other
/// iterate, then the residual), `bc` (the restricted residual) and `xc`
/// (the coarse correction) the next level's.
#[derive(Default, Clone)]
struct LevelScratch {
    tmp: Vec<f64>,
    bc: Vec<f64>,
    xc: Vec<f64>,
}

impl<'a> AmgHierarchy<'a> {
    /// Build the hierarchy for `a`.
    pub fn build(a: &'a CsrMatrix, cfg: &AmgConfig) -> Self {
        let t_total = Instant::now();
        let mut agg_seconds = 0.0f64;
        let mut levels: Vec<AmgLevel> = Vec::new();
        let mut level_sizes = vec![a.nrows()];
        let mut nnz_total = a.nnz() as f64;
        let fine_nnz = a.nnz() as f64;
        let mut cur = Cow::Borrowed(a);

        while levels.len() + 1 < MAX_LEVELS && cur.nrows() > cfg.min_coarse_size {
            let g = cur.to_graph();
            let t_agg = Instant::now();
            let agg = cfg.scheme.aggregate(&g, cfg.seed ^ levels.len() as u64);
            agg_seconds += t_agg.elapsed().as_secs_f64();
            if agg.num_aggregates >= cur.nrows() {
                break; // no coarsening progress (degenerate input)
            }
            let p = smoothed_prolongator(&cur, &tentative_prolongator(&agg, true), Some(OMEGA));
            // `galerkin_product`'s body, keeping its one transpose.
            let pt = p.transpose();
            let coarse = spgemm(&pt, &spgemm(&cur, &p));
            let smoother = JacobiSmoother::new(&cur, OMEGA, SMOOTHER_SWEEPS);
            level_sizes.push(coarse.nrows());
            nnz_total += coarse.nnz() as f64;
            levels.push(AmgLevel {
                a: cur,
                p,
                pt,
                smoother,
            });
            cur = Cow::Owned(coarse);
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

    /// One V-cycle from `level` down, writing every entry of `x` (its
    /// input is not read); `scratch[0]` belongs to `level`, the rest of the
    /// slice to the levels below it.
    fn v_cycle(&self, level: usize, b: &[f64], x: &mut [f64], scratch: &mut [LevelScratch]) {
        if level == self.levels.len() {
            match &self.coarse {
                CoarseSolve::Lu(lu) => lu.solve_into(b, x),
                CoarseSolve::Jacobi(sm) => {
                    sm.smooth_from_zero(&self.coarse_a, b, x, &mut scratch[0].tmp)
                }
            }
            return;
        }
        let lvl = &self.levels[level];
        let (s, deeper) = scratch
            .split_first_mut()
            .expect("one scratch slot per level");
        // Pre-smooth from x = 0: the first sweep skips its SpMV when the
        // level's operator is finite, and runs it in full otherwise.
        lvl.smoother.smooth_from_zero(&lvl.a, b, x, &mut s.tmp);
        // Residual r = b - A x, in one pass, in the level's own buffer.
        let r = &mut s.tmp;
        lvl.a.spmv_with(x, r, |i, ax, _| b[i] - ax);
        // Restrict: bc = Pᵀ r through the kept transpose. Each coarse entry
        // sums its rows of P in ascending order from 0.0.
        s.bc.resize(lvl.pt.nrows(), 0.0);
        lvl.pt.spmv_into(r, &mut s.bc);
        // Recurse; the coarse level writes all of xc.
        s.xc.resize(s.bc.len(), 0.0);
        self.v_cycle(level + 1, &s.bc, &mut s.xc, deeper);
        // Prolong and correct, in one pass: x += 1.0 · P xc.
        lvl.p.spmv_with(&s.xc, x, |_, pxc, x| x + 1.0 * pxc);
        // Post-smooth.
        lvl.smoother.smooth(&lvl.a, b, x, &mut s.tmp);
    }
}

impl Preconditioner for AmgHierarchy<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), z.len());
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
    use mis2_sparse::kernels::axpy;

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

    /// The V-cycle as it was written before `AmgLevel` kept `Pᵀ`: every
    /// pre-smooth runs its full first sweep from `x = 0`, the restriction
    /// is a serial scatter over the rows of `P`, and the coarse vectors are
    /// allocated per call.
    fn oracle_v_cycle(amg: &AmgHierarchy<'_>, level: usize, b: &[f64], x: &mut [f64]) {
        let mut tmp = Vec::new();
        if level == amg.levels.len() {
            match &amg.coarse {
                CoarseSolve::Lu(lu) => x.copy_from_slice(&lu.solve(b)),
                CoarseSolve::Jacobi(sm) => {
                    x.iter_mut().for_each(|v| *v = 0.0);
                    sm.smooth(&amg.coarse_a, b, x, &mut tmp);
                }
            }
            return;
        }
        let lvl = &amg.levels[level];
        lvl.smoother.smooth(&lvl.a, b, x, &mut tmp);
        let mut r = lvl.a.spmv(x);
        for (r, b) in r.iter_mut().zip(b) {
            *r = b - *r;
        }
        let mut bc = vec![0.0f64; lvl.p.ncols()];
        for (row, &rr) in r.iter().enumerate() {
            let (cols, vals) = lvl.p.row(row);
            for (&c, &v) in cols.iter().zip(vals) {
                bc[c as usize] += v * rr;
            }
        }
        let mut xc = vec![0.0; bc.len()];
        oracle_v_cycle(amg, level + 1, &bc, &mut xc);
        axpy(1.0, &lvl.p.spmv(&xc), x);
        lvl.smoother.smooth(&lvl.a, b, x, &mut tmp);
    }

    /// A right-hand side with both signs, exact zeros and a `-0.0`.
    fn oracle_rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 11 {
                3 => 0.0,
                7 => -0.0,
                _ => {
                    let h = mis2_prim::hash::splitmix64(i as u64);
                    (h % 2001) as f64 / 1000.0 - 1.0
                }
            })
            .collect()
    }

    /// `apply` equals [`oracle_v_cycle`] bit for bit at pools 1-3, on its
    /// first call and on a second that reuses the scratch, for every
    /// aggregation scheme. `finite` is whether the finest level's
    /// pre-smooth may skip its first SpMV.
    fn assert_apply_is_the_oracle(name: &str, a: &CsrMatrix, min_coarse_size: usize, finite: bool) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let b = oracle_rhs(a.nrows());
        for scheme in AggScheme::all() {
            let cfg = AmgConfig {
                scheme,
                min_coarse_size,
                ..Default::default()
            };
            let amg = AmgHierarchy::build(a, &cfg);
            assert!(amg.num_levels() >= 2, "{name}: one level");
            assert_eq!(amg.levels[0].smoother.finite, finite, "{name}");
            let mut want = vec![0.0; a.nrows()];
            oracle_v_cycle(&amg, 0, &b, &mut want);
            for pool in [1, 2, 3] {
                mis2_prim::pool::with_pool(pool, || {
                    for call in 0..2 {
                        let mut z = vec![f64::NAN; a.nrows()];
                        amg.apply(&b, &mut z);
                        assert!(
                            bits(&z) == bits(&want),
                            "{name}, {}, pool {pool}, call {call}: apply is not the oracle",
                            scheme.label()
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn v_cycle_equals_the_oracle_on_grids() {
        assert_apply_is_the_oracle(
            "Laplace3D 12^3",
            &sgen::laplace3d_matrix(12, 12, 12),
            200,
            true,
        );
        assert_apply_is_the_oracle(
            "Laplace3D 24^3",
            &sgen::laplace3d_matrix(24, 24, 24),
            200,
            true,
        );
        assert_apply_is_the_oracle(
            "Elasticity3D 6^3",
            &sgen::elasticity3d_matrix(6, 6, 6),
            200,
            true,
        );
    }

    #[test]
    fn v_cycle_equals_the_oracle_on_the_tiny_suite() {
        use mis2_graph::suite::{build_all, Scale};
        for (name, g) in build_all(Scale::Tiny) {
            assert_apply_is_the_oracle(name, &sgen::spd_from_graph(&g, 7), 200, true);
        }
    }

    #[test]
    fn v_cycle_equals_the_oracle_with_an_infinite_entry() {
        // `inf · 0` is NaN, so the finest level keeps its full first sweep.
        // A skipped SpMV would give the same output bits here (the NaN
        // reaches every level through P and the Galerkin product), so the
        // smoother's own test is the one that sees it.
        let a = sgen::laplace3d_matrix(8, 8, 8);
        let (k, _) = a.row(100);
        let j = k[0] as usize;
        let coo: Vec<(u32, u32, f64)> = (0..a.nrows())
            .flat_map(|r| {
                let (cols, vals) = a.row(r);
                cols.iter().zip(vals).map(move |(&c, &v)| {
                    let off = (r, c as usize) == (100, j) || (r, c as usize) == (j, 100);
                    (r as u32, c, if off { f64::INFINITY } else { v })
                })
            })
            .collect();
        let a = CsrMatrix::from_coo(a.nrows(), a.ncols(), &coo);
        assert_apply_is_the_oracle("Laplace3D 8^3 with inf", &a, 40, false);
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
