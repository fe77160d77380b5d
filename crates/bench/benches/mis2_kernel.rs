//! Kernel-level A/B of the MIS-2 engine against the frozen seed engine
//! ([`mis2_core::reference`]), kept for exactly this comparison.
//!
//! Three graph classes × pool sizes {1, 4, 8}:
//!
//! * `laplace3d` — bounded-degree mesh;
//! * `erdos_renyi` — concentrated degrees;
//! * `rmat` — power-law: the hub of the largest graph here
//!   (`rmat(18, 16, .65, ...)`) has degree 24 919 and sits in an ordinary
//!   4096-vertex block next to degree-1 leaves, so this is where a block
//!   decomposition that load-balances badly would show.
//!
//! Both engines iterate every row serially (the seed's chunked reduction
//! of rows ≥ 512 is nested in a region, which the pool runs serially), so
//! what the cells compare is the seed's separate decide / count / compact /
//! refresh sweeps against the engine's two fused passes. Acceptance is one
//! number: the worst regression over **all** cells, target **≤ 3%**. Cells
//! with `pool > host_cpus` measure pool overhead, not parallel speedup;
//! they are marked `"oversubscribed": true` in the JSON and a note is
//! printed whenever there is one.
//!
//! Every timed pair also asserts the two engines' results are equal, so
//! the bench doubles as an equivalence smoke test — including under the
//! CI `taskset -c 0` leg, which pins to one CPU.
//!
//! Output: per-cell ns/round and speedup on stdout, and the full matrix
//! as `BENCH_kernel.json` (override the path with `BENCH_KERNEL_JSON=`)
//! for the CI artifact upload. `--quick` (or `MIS2_KERNEL_QUICK=1`)
//! shrinks the graphs and repetitions for smoke runs.

use mis2_core::{mis2_with_config, reference, Mis2Config, Mis2Result};
use mis2_graph::{gen, CsrGraph};
use mis2_prim::pool::with_pool;
use std::io::Write as _;
use std::time::Instant;

const POOLS: [usize; 3] = [1, 4, 8];

struct Cell {
    graph: &'static str,
    pool: usize,
    ref_ms: f64,
    engine_ms: f64,
    ns_per_round_ref: f64,
    ns_per_round_engine: f64,
    speedup: f64,
    iterations: usize,
}

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("MIS2_KERNEL_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false)
}

fn graphs(quick: bool) -> Vec<(&'static str, CsrGraph)> {
    if quick {
        vec![
            ("laplace3d", gen::laplace3d(20, 20, 20)),
            ("erdos_renyi", gen::erdos_renyi(20_000, 160_000, 11)),
            ("rmat", gen::rmat(14, 16, 0.65, 0.15, 0.15, 5)),
        ]
    } else {
        vec![
            ("laplace3d", gen::laplace3d(60, 60, 60)),
            ("erdos_renyi", gen::erdos_renyi(200_000, 1_600_000, 11)),
            ("rmat", gen::rmat(18, 16, 0.65, 0.15, 0.15, 5)),
        ]
    }
}

/// Best-of-`reps` wall time in seconds (minimum filters scheduler noise,
/// which only ever adds time).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn write_json(cells: &[Cell], quick: bool, worst_pct: f64) -> std::io::Result<String> {
    let path =
        std::env::var("BENCH_KERNEL_JSON").unwrap_or_else(|_| "BENCH_kernel.json".to_string());
    let mut out = String::from("{\n  \"bench\": \"mis2_kernel\",\n  \"schema\": 2,\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    let cpus = host_cpus();
    out.push_str(&format!("  \"host_cpus\": {cpus},\n"));
    out.push_str(&format!("  \"worst_regression_pct\": {worst_pct:.2},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"graph\": \"{}\", \"pool\": {}, \"oversubscribed\": {}, \
             \"ref_ms\": {:.3}, \"engine_ms\": {:.3}, \
             \"ns_per_round_ref\": {:.0}, \"ns_per_round_engine\": {:.0}, \
             \"speedup\": {:.3}, \"iterations\": {}}}{}\n",
            c.graph,
            c.pool,
            c.pool > cpus,
            c.ref_ms,
            c.engine_ms,
            c.ns_per_round_ref,
            c.ns_per_round_engine,
            c.speedup,
            c.iterations,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::File::create(&path)?.write_all(out.as_bytes())?;
    Ok(path)
}

fn main() {
    let quick = quick_mode();
    let reps = if quick { 2 } else { 5 };
    let cfg = Mis2Config::default();
    let mut cells: Vec<Cell> = Vec::new();

    for (name, g) in graphs(quick) {
        for pool in POOLS {
            // Warm the pool and the page cache once per cell.
            let want: Mis2Result = with_pool(pool, || reference::mis2_with_config(&g, &cfg));
            let (ref_s, want2) = best_of(reps, || {
                with_pool(pool, || reference::mis2_with_config(&g, &cfg))
            });
            assert_eq!(want, want2, "seed engine nondeterministic on {name}");
            let (eng_s, got) = best_of(reps, || with_pool(pool, || mis2_with_config(&g, &cfg)));
            // Equivalence gate: a fast wrong kernel is worthless.
            assert_eq!(got, want, "engine diverges on {name} at pool {pool}");

            let rounds = want.iterations.max(1) as f64;
            let cell = Cell {
                graph: name,
                pool,
                ref_ms: ref_s * 1e3,
                engine_ms: eng_s * 1e3,
                ns_per_round_ref: ref_s * 1e9 / rounds,
                ns_per_round_engine: eng_s * 1e9 / rounds,
                speedup: ref_s / eng_s,
                iterations: want.iterations,
            };
            println!(
                "mis2_kernel/{name}/p{pool}: seed {:.3} ms, engine {:.3} ms, \
                 {:.0} -> {:.0} ns/round, speedup {:.2}x ({} rounds)",
                cell.ref_ms,
                cell.engine_ms,
                cell.ns_per_round_ref,
                cell.ns_per_round_engine,
                cell.speedup,
                cell.iterations
            );
            cells.push(cell);
        }
    }

    // Worst regression across every cell: positive = slower than the seed
    // engine.
    let regression_pct = |c: &Cell| (1.0 / c.speedup - 1.0) * 100.0;
    let worst = cells
        .iter()
        .max_by(|a, b| regression_pct(a).total_cmp(&regression_pct(b)))
        .expect("at least one cell");
    let worst_pct = regression_pct(worst);
    println!(
        "mis2_kernel/acceptance: worst regression over all cells {worst_pct:+.2}% \
         ({}/p{}, target <= 3%)",
        worst.graph, worst.pool
    );
    let cpus = host_cpus();
    if POOLS.iter().any(|&p| p > cpus) {
        println!(
            "mis2_kernel/note: host has {cpus} CPU(s) — cells with pool > {cpus} are \
             oversubscribed: they measure pool overhead, not parallel speedup"
        );
    }

    match write_json(&cells, quick, worst_pct) {
        Ok(path) => println!("mis2_kernel/json: wrote {path}"),
        Err(e) => eprintln!("mis2_kernel/json: write failed: {e}"),
    }
}
