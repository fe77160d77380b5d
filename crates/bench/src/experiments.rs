//! One function per table/figure of the paper's evaluation (Section VI).
//!
//! Every function returns a [`Table`] whose rows mirror the paper's
//! artifact. The claims that are counts (Tables I and III–VI, and Figure
//! 2's set per ladder step) are asserted at `Scale::Tiny` by
//! `tests/repro.rs`, through the same library calls.

use crate::tables::{fmt_ms, fmt_x, Table};
use crate::timing::{mean_ms, time_ms, TimedPrecond};
use crate::RunOpts;
use mis2_coarsen::AggScheme;
use mis2_core::{bell_mis2, mis2, mis2_with_config, Mis2Config, PriorityScheme};
use mis2_graph::{gen, suite, CsrGraph, Scale};
use mis2_prim::pool::with_pool;
use mis2_prim::timer::geometric_mean;
use mis2_solver::{gmres, pcg, AmgConfig, AmgHierarchy, ClusterMcSgs, SolveOpts};

/// Build all suite graphs once (names in Table II order).
fn suite_graphs(scale: Scale) -> Vec<(&'static str, CsrGraph)> {
    suite::build_all(scale)
}

// ---------------------------------------------------------------------------
// Table I — MIS-2 iteration counts for three priority schemes
// ---------------------------------------------------------------------------

/// Table I: iteration counts for Fixed / Xor / Xor\* priorities.
pub fn table1(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "Table I — MIS-2 iteration counts for three random priority methods",
        &["Matrix", "Fixed", "Xor Hash", "Xor* Hash"],
    );
    for (name, g) in suite_graphs(opts.scale) {
        let iters = |p: PriorityScheme| {
            mis2_with_config(
                &g,
                &Mis2Config {
                    priorities: p,
                    ..Default::default()
                },
            )
            .iterations
            .to_string()
        };
        t.row(vec![
            name.to_string(),
            iters(PriorityScheme::Fixed),
            iters(PriorityScheme::XorHash),
            iters(PriorityScheme::XorStar),
        ]);
    }
    t.note("Paper (V100, full-size graphs): Fixed 11-14, Xor 9-39, Xor* 8-12 iterations.");
    t.note("Expected shape: Xor* <= Fixed << Xor on most matrices.");
    t.note("On the stand-ins Xor* <= Fixed holds on all 17, but Xor reads close to Fixed");
    t.note("(5-14 vs 8-16 at tiny scale), so the \"<< Xor\" half does not hold here.");
    t
}

// ---------------------------------------------------------------------------
// Table II — summary statistics and mean MIS-2 times
// ---------------------------------------------------------------------------

/// Table II: suite statistics and mean Algorithm 1 times per thread count.
pub fn table2(opts: &RunOpts) -> Table {
    let threads = opts.thread_counts();
    let mut headers: Vec<String> = vec![
        "Matrix".into(),
        "|V| (x1e6)".into(),
        "|E| (x1e6)".into(),
        "Avg deg".into(),
        "Max deg".into(),
    ];
    for &n in &threads {
        headers.push(format!("{n}T (ms)"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Table II — suite statistics and mean MIS-2 run times",
        &hdr_refs,
    );
    for (name, g) in suite_graphs(opts.scale) {
        let s = g.stats();
        let mut row = vec![
            name.to_string(),
            format!("{:.3}", s.num_vertices as f64 / 1e6),
            format!("{:.3}", s.num_directed_edges as f64 / 1e6),
            format!("{:.2}", s.avg_degree),
            s.max_degree.to_string(),
        ];
        for &n in &threads {
            let ms = with_pool(n, || mean_ms(opts.trials, || mis2(&g)));
            row.push(fmt_ms(ms));
        }
        t.row(row);
    }
    t.note(format!(
        "Mean of {} trials. Paper architectures (V100/MI100/Skylake-48T/TX2-56T) are \
         replaced by host-CPU thread profiles (substitution policy: mis2_graph::suite).",
        opts.trials
    ));
    t
}

// ---------------------------------------------------------------------------
// Table III — structured-problem scaling
// ---------------------------------------------------------------------------

/// Table III: MIS-2 size and iteration count for varying structured sizes.
pub fn table3(opts: &RunOpts) -> Table {
    let d = |x: usize| if opts.scale == Scale::Tiny { x / 2 } else { x };
    let elasticity = [(30, 30, 30), (60, 30, 30), (60, 60, 30), (60, 60, 60)];
    let laplace = [(50, 50, 50), (100, 50, 50), (100, 100, 50), (100, 100, 100)];
    let mut t = Table::new(
        "Table III — MIS-2 size and iteration count, structured problems",
        &["Problem", "|V|", "|MIS-2|", "MIS-2 frac", "Iters"],
    );
    for (nx, ny, nz) in elasticity {
        let g = gen::elasticity3d(d(nx), d(ny), d(nz), 3);
        let r = mis2(&g);
        t.row(vec![
            format!("Elasticity {}x{}x{}", d(nx), d(ny), d(nz)),
            g.num_vertices().to_string(),
            r.size().to_string(),
            format!("{:.2}%", 100.0 * r.size() as f64 / g.num_vertices() as f64),
            r.iterations.to_string(),
        ]);
    }
    for (nx, ny, nz) in laplace {
        let g = gen::laplace3d(d(nx), d(ny), d(nz));
        let r = mis2(&g);
        t.row(vec![
            format!("Laplace {}x{}x{}", d(nx), d(ny), d(nz)),
            g.num_vertices().to_string(),
            r.size().to_string(),
            format!("{:.2}%", 100.0 * r.size() as f64 / g.num_vertices() as f64),
            r.iterations.to_string(),
        ]);
    }
    t.note("Paper: ~0.7% of vertices for Elasticity (deg 81), ~9% for Laplace (deg 7);");
    t.note("iterations grow by 1-2 when the grid grows 4-8x (expected O(log V)).");
    t
}

// ---------------------------------------------------------------------------
// Figure 2 — cumulative speedup of the optimization ladder
// ---------------------------------------------------------------------------

/// Figure 2: the optimization ladder, cumulative speedups over the Bell
/// baseline.
pub fn fig2(opts: &RunOpts) -> Table {
    let ladder = Mis2Config::ladder();
    let mut headers: Vec<String> = vec!["Matrix".into(), "Bell base (ms)".into()];
    for (label, _) in ladder.iter().skip(1) {
        headers.push(label.to_string());
    }
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 2 — cumulative speedups from the optimization ladder",
        &hdr_refs,
    );
    let mut per_step_speedups: Vec<Vec<f64>> = vec![Vec::new(); ladder.len() - 1];
    for (name, g) in suite_graphs(opts.scale) {
        let base_ms = time_ms(opts.trials, || bell_mis2(&g, 0));
        let mut row = vec![name.to_string(), fmt_ms(base_ms)];
        for (k, (_, cfg)) in ladder.iter().skip(1).enumerate() {
            let ms = time_ms(opts.trials, || mis2_with_config(&g, cfg));
            let speedup = base_ms / ms.max(1e-9);
            per_step_speedups[k].push(speedup);
            row.push(fmt_x(speedup));
        }
        t.row(row);
    }
    let mut geo = vec!["geomean".to_string(), String::new()];
    for s in per_step_speedups.iter().skip(1) {
        geo.push(fmt_x(geometric_mean(s)));
    }
    geo.insert(2, fmt_x(geometric_mean(&per_step_speedups[0])));
    geo.truncate(headers.len());
    t.row(geo);
    t.note("Each column adds one optimization; values are speedup vs our Bell (CUSP) baseline.");
    t.note(
        "Paper (V100): priorities 1.28x, worklists 2.55x, packing 1.72x, SIMD 1.37x, total ~8.97x.",
    );
    t.note("No +SIMD column: Section V-D spreads one vertex's neighbors over GPU vector lanes; its CPU");
    t.note(
        "form in the seed engine was a reduction nested in a parallel region, hence serial (~1x).",
    );
    t
}

// ---------------------------------------------------------------------------
// Figure 3 — bandwidth efficiency profiles
// ---------------------------------------------------------------------------

/// Figure 3: bandwidth-normalized efficiency across thread-count
/// "device profiles".
pub fn fig3(opts: &RunOpts) -> Table {
    let threads = opts.thread_counts();
    let bws: Vec<crate::bandwidth::Bandwidth> = threads
        .iter()
        .map(|&n| crate::bandwidth::measure_default(n))
        .collect();
    let mut headers = vec!["Matrix".to_string()];
    for bw in &bws {
        headers.push(format!("{}T eff", bw.threads));
    }
    headers.push("best profile".into());
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 3 — bandwidth efficiency profile (MIS-2 instances/s per GB/s)",
        &hdr_refs,
    );
    for (name, g) in suite_graphs(opts.scale) {
        let mut effs = Vec::new();
        for (k, &n) in threads.iter().enumerate() {
            let ms = with_pool(n, || time_ms(opts.trials, || mis2(&g)));
            let instances_per_s = 1000.0 / ms.max(1e-9);
            effs.push(instances_per_s / bws[k].gbps);
        }
        let best = effs.iter().cloned().fold(f64::MIN, f64::max);
        let best_idx = effs.iter().position(|&e| e == best).unwrap();
        let mut row = vec![name.to_string()];
        for &e in &effs {
            row.push(format!("{:.3}", e));
        }
        row.push(format!("{}T", threads[best_idx]));
        t.row(row);
    }
    for bw in &bws {
        t.note(format!(
            "measured triad bandwidth at {} threads: {:.1} GB/s",
            bw.threads, bw.gbps
        ));
    }
    t.note("Paper normalizes by datasheet bandwidth across 4 architectures; we measure triad per profile (substitution policy: mis2_graph::suite).");
    t
}

// ---------------------------------------------------------------------------
// Figures 4/5 — strong scaling
// ---------------------------------------------------------------------------

/// Figures 4 and 5: strong thread-scaling of MIS-2.
pub fn fig4(opts: &RunOpts) -> Table {
    let threads = opts.thread_counts();
    let mut headers = vec!["Matrix".to_string()];
    for &n in &threads {
        headers.push(format!("{n}T (ms)"));
    }
    headers.push("speedup".into());
    headers.push("efficiency".into());
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figures 4/5 — strong scaling efficiency of MIS-2",
        &hdr_refs,
    );
    let mut speedups = Vec::new();
    for (name, g) in suite_graphs(opts.scale) {
        let times: Vec<f64> = threads
            .iter()
            .map(|&n| with_pool(n, || time_ms(opts.trials, || mis2(&g))))
            .collect();
        let t1 = times[0];
        let tn = *times.last().unwrap();
        let nmax = *threads.last().unwrap() as f64;
        let sp = t1 / tn.max(1e-9);
        speedups.push(sp);
        let mut row = vec![name.to_string()];
        for &ms in &times {
            row.push(fmt_ms(ms));
        }
        row.push(fmt_x(sp));
        row.push(format!("{:.2}", sp / nmax));
        t.row(row);
    }
    t.note(format!(
        "geomean speedup at max threads: {}",
        fmt_x(geometric_mean(&speedups))
    ));
    t.note(
        "Paper: 26.9x at 48 threads (Intel), 43.9x at 56 threads (ARM); this host has fewer cores.",
    );
    t
}

// ---------------------------------------------------------------------------
// Figure 6 — MIS-2 vs CUSP
// ---------------------------------------------------------------------------

/// Figure 6: Algorithm 1 vs the Bell/CUSP baseline.
pub fn fig6(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "Figure 6 — MIS-2: Kokkos-Kernels algorithm vs CUSP (Bell) baseline",
        &["Matrix", "KK (ms)", "CUSP (ms)", "speedup"],
    );
    let mut speedups = Vec::new();
    for (name, g) in suite_graphs(opts.scale) {
        let kk = time_ms(opts.trials, || mis2(&g));
        let cusp = time_ms(opts.trials, || bell_mis2(&g, 1));
        let sp = cusp / kk.max(1e-9);
        speedups.push(sp);
        t.row(vec![name.to_string(), fmt_ms(kk), fmt_ms(cusp), fmt_x(sp)]);
    }
    t.note(format!(
        "geomean speedup: {}",
        fmt_x(geometric_mean(&speedups))
    ));
    t.note("Paper: 5-7x vs CUSP on V100. CUSP here = our faithful Rust port of Bell's MIS-k.");
    t
}

// ---------------------------------------------------------------------------
// Figure 7 — coarsening vs ViennaCL
// ---------------------------------------------------------------------------

/// Figure 7: MIS-2 + Algorithm 2 coarsening vs the ViennaCL-equivalent
/// (Bell MIS-2 + the same coarsening).
pub fn fig7(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "Figure 7 — MIS-2 based coarsening vs ViennaCL (Bell) baseline",
        &["Matrix", "KK coarsen (ms)", "ViennaCL (ms)", "speedup"],
    );
    let mut speedups = Vec::new();
    for (name, g) in suite_graphs(opts.scale) {
        let kk = time_ms(opts.trials, || {
            let m = mis2(&g);
            mis2_coarsen::mis2_basic_from(&g, &m)
        });
        let vcl = time_ms(opts.trials, || {
            let m = bell_mis2(&g, 2);
            mis2_coarsen::mis2_basic_from(&g, &m)
        });
        let sp = vcl / kk.max(1e-9);
        speedups.push(sp);
        t.row(vec![name.to_string(), fmt_ms(kk), fmt_ms(vcl), fmt_x(sp)]);
    }
    t.note(format!(
        "geomean speedup: {}",
        fmt_x(geometric_mean(&speedups))
    ));
    t.note("Paper: 3-8x vs ViennaCL (CUDA and OpenCL backends) on V100.");
    t
}

// ---------------------------------------------------------------------------
// Table IV — MIS-2 quality comparison
// ---------------------------------------------------------------------------

/// Table IV: |MIS-2| produced by the three implementations.
pub fn table4(opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "Table IV — quality of MIS-2: set sizes (higher is better)",
        &["Matrix", "KK", "CUSP", "ViennaCL", "max spread"],
    );
    for (name, g) in suite_graphs(opts.scale) {
        let kk = mis2(&g).size();
        let cusp = bell_mis2(&g, 1).size();
        let vcl = bell_mis2(&g, 2).size();
        let max = kk.max(cusp).max(vcl) as f64;
        let min = kk.min(cusp).min(vcl) as f64;
        t.row(vec![
            name.to_string(),
            kk.to_string(),
            cusp.to_string(),
            vcl.to_string(),
            format!("{:.2}%", 100.0 * (max - min) / max.max(1.0)),
        ]);
    }
    t.note("All three should agree within ~1-2% (paper Table IV). CUSP/ViennaCL = Bell ports with independent random streams.");
    t.note("On the stand-ins that holds where every set has 1000+ vertices; smaller sets spread wider,");
    t.note("up to 10.7% on Elasticity3D_60 at tiny scale (sets of ~100 vertices).");
    t
}

// ---------------------------------------------------------------------------
// Table V — multigrid aggregation comparison
// ---------------------------------------------------------------------------

/// Table V: SA-AMG preconditioned CG on Laplace3D with the five
/// aggregation schemes.
pub fn table5(opts: &RunOpts) -> Table {
    let d = match opts.scale {
        Scale::Tiny => 25,
        Scale::Small => 50,
        Scale::Paper => 100,
    };
    let a = mis2_sparse::gen::laplace3d_matrix(d, d, d);
    let b = vec![1.0; a.nrows()];
    let solve_opts = SolveOpts {
        tol: 1e-12,
        max_iters: 1000,
    };
    let mut t = Table::new(
        format!("Table V — MueLu-style SA-AMG on {d}^3 Laplace3D (CG, tol 1e-12, 2 Jacobi sweeps)"),
        &[
            "Scheme",
            "Iters",
            "Agg (s)",
            "Setup (s)",
            "Solve (s)",
            "Det.",
        ],
    );
    for scheme in AggScheme::all() {
        let amg = AmgHierarchy::build(
            &a,
            &AmgConfig {
                scheme,
                min_coarse_size: 200,
                ..Default::default()
            },
        );
        let timer = mis2_prim::timer::Timer::start();
        let (_, res) = pcg(&a, &b, &amg, &solve_opts);
        let solve_s = timer.elapsed_s();
        t.row(vec![
            scheme.label().to_string(),
            res.iterations.to_string(),
            format!("{:.4}", amg.stats.aggregation_seconds),
            format!("{:.4}", amg.stats.setup_seconds),
            format!("{:.4}", solve_s),
            if scheme.paper_deterministic() {
                "yes".into()
            } else {
                "no*".into()
            },
        ]);
    }
    t.note("Paper (V100, 100^3): Serial Agg 25 iters / MIS2 Basic 49 / MIS2 Agg 22; MIS2 Agg fastest deterministic setup.");
    t.note("* Det. column reports the paper's classification of the reference implementations. Here the D2C leftover join is deterministic; NB D2C's speculative coloring still races across pool sizes (tests/determinism.rs).");
    t.note("MIS2 Agg < MIS2 Basic in CG iterations is asserted at tiny scale by tests/repro.rs.");
    t
}

// ---------------------------------------------------------------------------
// Table VI — point vs cluster multicolor Gauss-Seidel
// ---------------------------------------------------------------------------

/// The five Table VI systems (synthetic stand-ins per the substitution
/// policy in [`mis2_graph::suite`]).
pub fn table6_systems(scale: Scale) -> Vec<(&'static str, mis2_sparse::CsrMatrix)> {
    let d3 = |x: usize| scale.dim3(x);
    let bodyy5 = {
        // bodyy5: ~18.6k vertices, avg degree ~5.8 2D FE mesh.
        let side = match scale {
            Scale::Tiny => 68,
            Scale::Small => 96,
            Scale::Paper => 136,
        };
        let g = suite::grid2d_sprinkled(side, side, 13, 0);
        mis2_sparse::gen::spd_from_graph(&g, 0xB0D5)
    };
    let ela = mis2_sparse::gen::elasticity3d_matrix(d3(60), d3(60), d3(60));
    let geo = mis2_sparse::gen::spd_from_graph(&suite::build("Geo_1438", scale), 0x6E0);
    let lap = {
        let d = d3(100);
        mis2_sparse::gen::laplace3d_matrix(d, d, d)
    };
    let serena = mis2_sparse::gen::spd_from_graph(&suite::build("Serena", scale), 0x5E7E);
    vec![
        ("bodyy5", bodyy5),
        ("Elasticity3D_60", ela),
        ("Geo_1438", geo),
        ("Laplace3D_100", lap),
        ("Serena", serena),
    ]
}

/// Table VI: point vs cluster multicolor SGS as GMRES preconditioners.
pub fn table6(opts: &RunOpts) -> Table {
    let solve_opts = SolveOpts {
        tol: 1e-8,
        max_iters: 800,
    };
    let mut t = Table::new(
        "Table VI — point vs cluster multicolor SGS preconditioning GMRES (tol 1e-8, cap 800)",
        &[
            "System",
            "P.Setup (s)",
            "C.Setup (s)",
            "P.Apply (s)",
            "C.Apply (s)",
            "P.Iters",
            "C.Iters",
        ],
    );
    for (name, a) in table6_systems(opts.scale) {
        let b = vec![1.0; a.nrows()];
        let point = ClusterMcSgs::point(&a, 0);
        let cluster = ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0);
        let tp = TimedPrecond::new(&point);
        let (_, rp) = gmres(&a, &b, &tp, 50, &solve_opts);
        let tc = TimedPrecond::new(&cluster);
        let (_, rc) = gmres(&a, &b, &tc, 50, &solve_opts);
        t.row(vec![
            name.to_string(),
            format!("{:.4}", point.setup_seconds),
            format!("{:.4}", cluster.setup_seconds),
            format!("{:.4}", tp.apply_seconds()),
            format!("{:.4}", tc.apply_seconds()),
            format!(
                "{} ({})",
                rp.iterations,
                if rp.converged { "conv" } else { "cap" }
            ),
            format!(
                "{} ({})",
                rc.iterations,
                if rc.converged { "conv" } else { "cap" }
            ),
        ]);
    }
    t.note("Paper (V100): cluster wins setup and apply on all five systems; iterations ~5% lower (geomean).");
    t.note("On the stand-ins Elasticity3D_60 is the one system where cluster SGS takes more");
    t.note("iterations (19 vs 17 at tiny scale, 21 vs 19 at small); the geomean still favours cluster.");
    t.note("Point SGS runs the same sweep over singleton clusters (ClusterMcSgs::point), so the");
    t.note("Apply columns differ by iterations and cluster size, not by sweep code.");
    t.note("Systems are synthetic stand-ins with matched size/degree (substitution policy: mis2_graph::suite).");
    t
}

/// Run every experiment.
pub fn all(opts: &RunOpts) -> Vec<Table> {
    vec![
        table1(opts),
        table2(opts),
        table3(opts),
        fig2(opts),
        fig3(opts),
        fig4(opts),
        fig6(opts),
        fig7(opts),
        table4(opts),
        table5(opts),
        table6(opts),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> RunOpts {
        RunOpts {
            scale: Scale::Tiny,
            trials: 1,
            threads: crate::ThreadSweep::Default,
        }
    }

    #[test]
    fn render_does_not_panic() {
        let t = table1(&tiny_opts());
        let s = t.render();
        assert!(s.contains("Table I"));
    }
}
