//! `lib_amg`: the paper's two coarsening use cases as time to solution.
//! One op builds an SA-AMG hierarchy on MIS-2 aggregates and solves with
//! PCG to 1e-10 (Table V), then builds cluster multicolor Gauss-Seidel on
//! the same aggregation scheme and solves with GMRES(50) to 1e-8
//! (Table VI), on the exact Laplace3D operator.

use super::{measure, median_ms, ms, timed_setups, Cx, Outcome, Readings};
use crate::json::Value;
use crate::load::Client;
use crate::trace::Recorder;
use crate::yard::Gather;
use mis2_coarsen::{quotient_graph, smoothed_prolongator, tentative_prolongator, AggScheme};
use mis2_prim::hash::splitmix64;
use mis2_prim::pool::with_pool;
use mis2_solver::{
    gmres, pcg, AmgConfig, AmgHierarchy, ClusterMcSgs, Preconditioner, SolveOpts, SolveResult,
};
use mis2_sparse::kernels::{norm2, residual};
use mis2_sparse::CsrMatrix;
use std::time::Instant;

/// Grid side. 24³ = 13 824 unknowns keeps an op near 0.12 s, so a
/// ten-second run holds enough ops for its tail percentile.
pub const GRID: usize = 24;
const PCG_TOL: f64 = 1e-10;
const GMRES_TOL: f64 = 1e-8;
const GMRES_RESTART: usize = 50;
const MAX_ITERS: usize = 500;
/// The harness recomputes `‖b − Ax‖ / ‖b‖` itself and allows the solver's
/// own stopping test this much slack (recurrence against true residual).
const RESIDUAL_SLACK: f64 = 10.0;

pub struct Problem {
    pub a: CsrMatrix,
    pub b: Vec<f64>,
    pub seed: u64,
}

/// The exact operator and a seeded right-hand side in [0.5, 1.5).
pub fn problem(seed: u64) -> Problem {
    let a = mis2_sparse::gen::laplace3d_matrix(GRID, GRID, GRID);
    let b = (0..a.nrows() as u64)
        .map(|i| 0.5 + (splitmix64(seed ^ splitmix64(i)) >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    Problem { a, b, seed }
}

pub struct Solved {
    pub x_pcg: Vec<f64>,
    pub pcg: SolveResult,
    pub x_gmres: Vec<f64>,
    pub gmres: SolveResult,
}

/// One op, at whatever pool size the caller installed, with a span around
/// each library stage.
pub fn solve(p: &Problem, rec: &mut Recorder) -> Solved {
    let s = rec.begin("solver.amg_setup");
    let amg = AmgHierarchy::build(
        &p.a,
        &AmgConfig {
            seed: p.seed,
            ..Default::default()
        },
    );
    rec.end(s);
    let s = rec.begin("solver.pcg");
    let opts = SolveOpts {
        tol: PCG_TOL,
        max_iters: MAX_ITERS,
    };
    let (x_pcg, pcg_result) = pcg(&p.a, &p.b, &amg, &opts);
    rec.end(s);
    let s = rec.begin("solver.cgs_setup");
    let cgs = ClusterMcSgs::new(&p.a, AggScheme::Mis2Agg, p.seed);
    rec.end(s);
    let s = rec.begin("solver.gmres");
    let opts = SolveOpts {
        tol: GMRES_TOL,
        max_iters: MAX_ITERS,
    };
    let (x_gmres, gmres_result) = gmres(&p.a, &p.b, &cgs, GMRES_RESTART, &opts);
    rec.end(s);
    Solved {
        x_pcg,
        pcg: pcg_result,
        x_gmres,
        gmres: gmres_result,
    }
}

/// The correctness gate of one op: both solves converged, the residuals
/// the harness recomputes are within tolerance, and the iteration counts
/// are the pool-1 run's (the determinism contract).
fn check(p: &Problem, got: &Solved, oracle: &Solved) -> Result<(), String> {
    let bnorm = norm2(&p.b);
    for (what, x, res, tol, want) in [
        ("pcg", &got.x_pcg, &got.pcg, PCG_TOL, &oracle.pcg),
        ("gmres", &got.x_gmres, &got.gmres, GMRES_TOL, &oracle.gmres),
    ] {
        if !res.converged {
            return Err(format!("{what} did not converge"));
        }
        let rel = norm2(&residual(&p.a, x, &p.b)) / bnorm;
        if rel.is_nan() || rel > tol * RESIDUAL_SLACK {
            return Err(format!("{what} residual {rel:e} above {tol:e}"));
        }
        if res.iterations != want.iterations {
            return Err(format!(
                "{what} took {} iterations, pool 1 took {}",
                res.iterations, want.iterations
            ));
        }
    }
    Ok(())
}

/// The `sparse`, `color` and `solver` layer probes: each stage of the op
/// timed on its own, plus the kernels under them.
pub fn probes(p: &Problem, cpus: usize) -> Readings {
    with_pool(cpus, || {
        let a = &p.a;
        let mut y = vec![0.0; a.nrows()];
        let spmv_ms = median_ms(25, || a.spmv_into(&p.b, &mut y));
        // Bytes one SpMV must touch, computed from the array sizes (values
        // and column indices once, row pointers, x and y once each). The
        // host's last-level cache holds all of it, so this is a rate, not
        // a share of memory bandwidth.
        let spmv_bytes = a.nnz() * 12 + (a.nrows() + 1) * 8 + a.ncols() * 8 + a.nrows() * 8;

        let g = a.to_graph();
        let agg = AggScheme::Mis2Agg.aggregate(&g, p.seed);
        let p_smooth = smoothed_prolongator(a, &tentative_prolongator(&agg, true), Some(2.0 / 3.0));
        let galerkin_ms = median_ms(3, || mis2_sparse::galerkin_product(a, &p_smooth));
        let coarse = quotient_graph(&g, &agg);
        let d1_ms = median_ms(5, || mis2_color::color_d1(&coarse, p.seed));
        let colors = mis2_color::color_d1(&coarse, p.seed).num_colors;

        let cfg = AmgConfig {
            seed: p.seed,
            ..Default::default()
        };
        let (amg, amg_setup_ms) = ms(|| AmgHierarchy::build(a, &cfg));
        let mut z = vec![0.0; a.nrows()];
        let vcycle_ms = median_ms(9, || amg.apply(&p.b, &mut z));
        let ((_, pcg_res), pcg_ms) = ms(|| {
            let opts = SolveOpts {
                tol: PCG_TOL,
                max_iters: MAX_ITERS,
            };
            pcg(a, &p.b, &amg, &opts)
        });
        let (cgs, cgs_setup_ms) = ms(|| ClusterMcSgs::new(a, AggScheme::Mis2Agg, p.seed));
        let cgs_apply_ms = median_ms(9, || cgs.apply(&p.b, &mut z));
        let ((_, gmres_res), gmres_ms) = ms(|| {
            let opts = SolveOpts {
                tol: GMRES_TOL,
                max_iters: MAX_ITERS,
            };
            gmres(a, &p.b, &cgs, GMRES_RESTART, &opts)
        });
        vec![
            ("sparse.spmv_ms", spmv_ms),
            (
                "sparse.spmv_gbs_computed",
                spmv_bytes as f64 / (spmv_ms * 1e-3) / 1e9,
            ),
            ("sparse.galerkin_ms", galerkin_ms),
            ("color.d1_ms", d1_ms),
            ("color.colors", f64::from(colors)),
            ("solver.amg_setup_ms", amg_setup_ms),
            ("solver.amg_agg_ms", amg.stats.aggregation_seconds * 1e3),
            ("solver.amg_levels", amg.num_levels() as f64),
            ("solver.amg_opcx", amg.stats.operator_complexity),
            ("solver.vcycle_ms", vcycle_ms),
            ("solver.pcg_ms", pcg_ms),
            ("solver.pcg_iters", pcg_res.iterations as f64),
            ("solver.cgs_setup_ms", cgs_setup_ms),
            ("solver.cgs_apply_ms", cgs_apply_ms),
            ("solver.cgs_colors", cgs.num_colors as f64),
            ("solver.gmres_ms", gmres_ms),
            ("solver.gmres_iters", gmres_res.iterations as f64),
        ]
    })
}

pub fn run(cx: &Cx) -> Outcome {
    let cpus = cx.cpus;
    let mut idle = Recorder::new(false, cx.origin, 0, 1);
    let mut gen_ms = 0.0;
    // Set-up: assemble the operator and run one op, which starts the pool
    // and faults the solver's work arrays in.
    let (p, setups_s) = timed_setups(
        || {
            let (p, t) = ms(|| problem(cx.seed));
            gen_ms = t;
            std::hint::black_box(with_pool(cpus, || solve(&p, &mut idle)));
            p
        },
        drop,
    );
    // Oracle: the same op on a pool of one.
    let oracle = with_pool(1, || solve(&p, &mut idle));
    let oracle_ok = check(&p, &oracle, &oracle);

    let op = |_: &mut (), c: &mut Client| {
        let root = c.rec.begin("harness.op");
        let t = Instant::now();
        let got = with_pool(cpus, || solve(&p, &mut c.rec));
        let latency = t.elapsed();
        let s = c.rec.begin("harness.check");
        let verdict = check(&p, &got, &oracle);
        c.rec.end(s);
        c.rec.end(root);
        c.done(latency, verdict);
    };
    let graph = p.a.to_graph();
    // The whole graph has fewer entries than any sensible block: a barrier
    // per sweep, some five hundred in a reading, as the op is thousands of
    // small regions.
    let mut yardstick = Gather::new(vec![&graph], cpus, usize::MAX);
    let (plain, traced) = measure(&mut [()], cx, &mut || yardstick.read(), op);
    let (sweeps, barriers) = (yardstick.sweeps(), yardstick.barriers());

    let mut layers = Readings::new();
    if cx.trace {
        layers.push(("graph.gen_ms", gen_ms));
        // Scaling of the op itself: three ops on a pool of one against
        // the run's median.
        let p1_ms = median_ms(3, || with_pool(1, || solve(&p, &mut idle)));
        let p50_ms = plain.hist.quantile_ns(0.5) / 1e6;
        layers.push(("prim.scaling_eff", p1_ms / p50_ms / cpus as f64));
    }
    Outcome {
        setups_s,
        plain,
        traced,
        valid: oracle_ok.map_err(|e| format!("the pool-1 oracle is itself wrong: {e}")),
        layers,
        inputs: Value::obj([
            ("operator", Value::str(format!("Laplace3D {GRID}^3"))),
            ("rows", Value::from(p.a.nrows() as u64)),
            ("nnz", Value::from(p.a.nnz() as u64)),
            ("pcg_iters", Value::from(oracle.pcg.iterations as u64)),
            ("gmres_iters", Value::from(oracle.gmres.iterations as u64)),
            ("yardstick_sweeps", Value::from(sweeps as u64)),
            ("yardstick_barriers", Value::from(barriers as u64)),
        ]),
        probe_graph: graph,
        serves_probe_graph: false,
    }
}
