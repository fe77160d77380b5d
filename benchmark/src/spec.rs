//! The benchmark's contract in one place: the workloads and why each
//! exists, every metric with its unit, direction and regression bound, and
//! which end-to-end metric each layer metric is expected to move. The
//! `BENCHMARK.json` at the repo root is this table rendered (`spec`
//! subcommand); a unit test holds the two together.

use crate::json::Value;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}
use Better::{Higher, Lower};

pub struct Workload {
    /// Permanent: later issues refer to workloads by these names.
    pub name: &'static str,
    /// What one op is.
    pub op: &'static str,
    /// The fixed tail percentile of `latency_tail_yd`: of {99, 95, 90, 75},
    /// the highest that keeps at least ten samples beyond it in a run on a
    /// two-CPU host with room to spare, and that repeated in the sizing
    /// runs (p99 and p95 of the hot workloads did not: when the host
    /// stalls a CPU for a millisecond or two every twenty, that is where
    /// the stalled requests sit).
    pub tail_pct: u32,
    /// One line: which layers do the work, and which do none.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` names the workload, so that the acceptance
    /// driver runs it and holds its metrics to the bounds. A workload that
    /// is not gated runs, prints and self-checks like the others.
    pub gated: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "kernel_mesh",
        op: "one mis2_with_config on a seeded 500k-vertex FE-mesh stand-in (Emilia_923 class), pool = host CPUs, cycling through 8 priority seeds",
        tail_pct: 90,
        why: "core does all the work on the flat small-degree class 13 of the paper's 17 matrices fall in; svc and solver do none (tail = p90)",
        gated: true,
    },
    Workload {
        name: "kernel_rmat",
        op: "one mis2_with_config on a seeded Graph500 R-MAT (scale 18, edge factor 16), pool = host CPUs, cycling through 8 priority seeds",
        tail_pct: 90,
        why: "the same core layer used differently: hub rows, the medium degree class, fewer rounds, so a kernel change tuned for meshes that costs power-law graphs shows (tail = p90)",
        gated: true,
    },
    Workload {
        name: "lib_amg",
        op: "AmgHierarchy::build + pcg to 1e-10, then ClusterMcSgs::new + gmres(50) to 1e-8, on Laplace3D 24^3",
        tail_pct: 75,
        why: "the paper's two coarsening use cases (Tables V, VI) as time to solution: coarsen, sparse, color, solver and thousands of small prim regions do the work; svc none (tail = p75)",
        gated: true,
    },
    Workload {
        name: "svc_cold",
        op: "one session of 10 dependent computed requests (MIS2, COARSEN 2, SOLVE cg, COARSEN 8, SOLVE gmres on a mesh, then on an R-MAT graph) over v3, 2 connections",
        tail_pct: 75,
        why: "working set exceeds the registry: every request misses the artifact cache while graphs stay interned; ops::compute, registry eviction and sched sub-teams carry the latency, the wire none (tail = p75)",
        gated: true,
    },
    Workload {
        name: "svc_hot",
        op: "one request of 18 cached keys; one client thread, 2 v3 connections, a batch of 64 in flight on each, in bursts of 256 batches; default epoll server",
        tail_pct: 90,
        why: "working set fits: codec, server, evloop and the registry probe do all the work, sched runs zero jobs and core zero rounds, so the predicted change under any kernel PR is none (tail = p90)",
        gated: true,
    },
    Workload {
        name: "svc_routed",
        op: "the svc_hot traffic through shard::route over 2 in-process shards",
        tail_pct: 90,
        why: "shard does most of the work: the workload a connection-engine change claims on, with svc_hot as the control that must not move (tail = p90)",
        // Client, router threads and two shard loops are five busy threads
        // on the sizing host's two CPUs: run to run it reads which of them
        // the scheduler paired, and no yardstick of two or three threads
        // follows that (quartile distance 12% against 4 to 6% on svc_hot).
        // Gate it on a host with four CPUs or more.
        gated: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    pub meaning: &'static str,
}

/// Every workload reports all of these. Times are in yardsticks: each
/// latency over the reading of the workload's yardstick (`yard.rs`) taken
/// in the same round, because on the sizing host a wall-clock figure says
/// more about the minute than about the program; the wall-clock figures
/// are per-layer metrics (`raw.*`, with `yard.reading_ms` as their base).
/// Failed, refused, timed-out and incorrect ops are not a metric here: the
/// result line carries them as `attempted`, `failed` and `correct`, and
/// any failure fails the run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "median of three to nine set-ups (a cheap one repeats until a second is spent): input generation, .mtx write, server and router start, graph interning, cache warm-up, first op",
    },
    EndToEnd {
        name: "throughput_ops_yd",
        unit: "ops/yardstick",
        better: Higher,
        bound: 0.25,
        meaning: "correct ops completed in the time of one yardstick reading (median of 16 consecutive blocks of rounds)",
    },
    EndToEnd {
        name: "latency_p50_yd",
        unit: "yardsticks",
        better: Lower,
        bound: 0.25,
        meaning: "median client-observed op latency, each op over the yardstick reading of its round",
    },
    EndToEnd {
        name: "latency_tail_yd",
        unit: "yardsticks",
        better: Lower,
        bound: 0.25,
        meaning: "the same at the workload's fixed tail percentile",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        meaning: "VmHWM of the workload's process: program, in-process servers and load generator",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const PRIM: &str = "latency_p50_yd on lib_amg (small regions) and kernel_*; nothing on svc_hot";
const GRAPH: &str = "setup_s everywhere; peak_rss_mb";
const CORE: &str = "latency_p50_yd and throughput_ops_yd on kernel_* (~100% share); a minority share on svc_cold; nothing on svc_hot, svc_routed";
const CORE_EXACT: &str = "an exact count: must not move under a bitwise-equivalent kernel change";
const COARSEN: &str = "latency_p50_yd on svc_cold (COARSEN requests) and lib_amg";
const SOLVER: &str = "latency_p50_yd on lib_amg";
const SOLVER_EXACT: &str = "an exact count on lib_amg's operator; gates correctness there";
const OPS: &str = "the floor under latency_p50_yd on svc_cold";
const REGISTRY: &str = "throughput_ops_yd on svc_hot; latency_tail_yd and peak_rss_mb on svc_cold";
const REGISTRY_COUNT: &str =
    "the workload's own traffic; svc_cold must show 0 hits, svc_hot and svc_routed 0 misses";
const SCHED: &str = "latency_p50_yd on svc_cold";
const WIRE: &str =
    "throughput_ops_yd and latency_p50_yd on svc_hot (closed window of 64: p50 ~ 64 / throughput)";
const STAGE: &str = "latency_p50_yd on svc_cold; mean of the server's own stage histogram over six computed probe requests";
const SHARD: &str = "throughput_ops_yd on svc_routed only";
const RAW: &str = "the untraced slices on the wall clock: the relative figure times yard.reading_ms, and as unsteady as the host";
const TRACE: &str = "share of op time the harness spans attribute to the layer; core >= 90% on kernel_*, 0 on svc_hot";

/// Reported by traced runs only. A time or a rate is always a probe's
/// measurement on the traced workload's own inputs (or, where it serves no
/// graph, on a small suite mesh); a count or share of the workload's own
/// traffic reads 0 where the workload never enters the layer.
pub const PER_LAYER: &[Layer] = &[
    layer("prim.region_us", "us", Lower, PRIM),
    layer("prim.scan_melem_s", "Melem/s", Higher, PRIM),
    layer("prim.compact_melem_s", "Melem/s", Higher, PRIM),
    layer("prim.scaling_eff", "ratio", Higher, "(pool-1 op time / full-pool op p50) / CPUs on kernel_* and lib_amg; 0 on served workloads"),
    layer("prim.pool_contended", "count", Lower, "latency_tail_yd on svc_cold"),
    layer("prim.pool_spawned", "count", Lower, "peak_rss_mb"),
    layer("graph.gen_ms", "ms", Lower, GRAPH),
    layer("graph.mtx_write_ms", "ms", Lower, GRAPH),
    layer("graph.mtx_read_ms", "ms", Lower, GRAPH),
    layer("graph.bytes", "bytes", Lower, GRAPH),
    layer("core.mis2_ms", "ms", Lower, CORE),
    layer("core.mis2_p1_ms", "ms", Lower, CORE),
    layer("core.ref_ms", "ms", Lower, "the frozen reference engine: the base of core.speedup_vs_ref"),
    layer("core.speedup_vs_ref", "ratio", Higher, CORE),
    layer("core.verify_ms", "ms", Lower, "setup_s on svc_cold (ops::compute verifies every MIS-2 it serves)"),
    layer("core.rounds", "count", Lower, CORE_EXACT),
    layer("core.frontier_sum", "count", Lower, CORE_EXACT),
    layer("core.set_size", "count", Higher, CORE_EXACT),
    layer("core.ns_per_frontier_vertex", "ns", Lower, CORE),
    layer("coarsen.agg_ms", "ms", Lower, COARSEN),
    layer("coarsen.aggregates", "count", Lower, CORE_EXACT),
    layer("coarsen.quotient_ms", "ms", Lower, COARSEN),
    layer("coarsen.recursive_ms", "ms", Lower, COARSEN),
    layer("coarsen.levels", "count", Lower, CORE_EXACT),
    layer("sparse.spmv_ms", "ms", Lower, SOLVER),
    layer("sparse.spmv_gbs_computed", "GB/s", Higher, "bytes computed from array sizes, not measured traffic; latency_p50_yd on lib_amg"),
    layer("sparse.galerkin_ms", "ms", Lower, SOLVER),
    layer("color.d1_ms", "ms", Lower, SOLVER),
    layer("color.colors", "count", Lower, SOLVER_EXACT),
    layer("solver.amg_setup_ms", "ms", Lower, SOLVER),
    layer("solver.amg_agg_ms", "ms", Lower, SOLVER),
    layer("solver.amg_levels", "count", Lower, SOLVER_EXACT),
    layer("solver.amg_opcx", "ratio", Lower, SOLVER_EXACT),
    layer("solver.vcycle_ms", "ms", Lower, SOLVER),
    layer("solver.pcg_ms", "ms", Lower, SOLVER),
    layer("solver.pcg_iters", "count", Lower, SOLVER_EXACT),
    layer("solver.cgs_setup_ms", "ms", Lower, SOLVER),
    layer("solver.cgs_apply_ms", "ms", Lower, SOLVER),
    layer("solver.cgs_colors", "count", Lower, SOLVER_EXACT),
    layer("solver.gmres_ms", "ms", Lower, SOLVER),
    layer("solver.gmres_iters", "count", Lower, SOLVER_EXACT),
    layer("ops.compute_mis2_ms", "ms", Lower, OPS),
    layer("ops.compute_coarsen_ms", "ms", Lower, OPS),
    layer("ops.compute_solve_ms", "ms", Lower, OPS),
    layer("ops.body_us", "us", Lower, OPS),
    layer("registry.hit_ns", "ns", Lower, REGISTRY),
    layer("registry.miss_overhead_us", "us", Lower, REGISTRY),
    layer("registry.graph_load_ms", "ms", Lower, "setup_s on svc_cold"),
    layer("registry.hits", "count", Higher, REGISTRY_COUNT),
    layer("registry.misses", "count", Lower, REGISTRY_COUNT),
    layer("registry.resp_hits", "count", Higher, REGISTRY_COUNT),
    layer("registry.evictions", "count", Lower, REGISTRY_COUNT),
    layer("registry.graph_builds", "count", Lower, REGISTRY_COUNT),
    layer("registry.bytes", "bytes", Lower, "peak_rss_mb on svc_cold"),
    layer("sched.roundtrip_us", "us", Lower, SCHED),
    layer("sched.queue_wait_us", "us", Lower, SCHED),
    layer("sched.run_ms", "ms", Lower, SCHED),
    layer("sched.jobs", "count", Lower, "the workload's own traffic; must be 0 on svc_hot and svc_routed"),
    layer("sched.team", "count", Higher, SCHED),
    layer("sched.run_share", "ratio", Higher, "scheduler run time over client-observed latency on svc_cold (>= 0.8); 0 on the hot workloads"),
    layer("codec.encode_ns", "ns", Lower, WIRE),
    layer("codec.decode_ns", "ns", Lower, WIRE),
    layer("proto.parse_ns", "ns", Lower, WIRE),
    layer("server.rtt_w1_us", "us", Lower, "the unloaded v3 round trip: the floor under latency_p50_yd on svc_hot"),
    layer("server.rtt_v1_us", "us", Lower, "the unloaded v1 round trip"),
    layer("server.stage_parse_us", "us", Lower, STAGE),
    layer("server.stage_probe_us", "us", Lower, STAGE),
    layer("server.stage_queue_us", "us", Lower, STAGE),
    layer("server.stage_run_us", "us", Lower, STAGE),
    layer("server.stage_write_us", "us", Lower, STAGE),
    layer("server.frames_per_writev", "ratio", Higher, WIRE),
    layer("server.bytes_tx", "bytes", Lower, WIRE),
    layer("server.peak_inflight", "count", Higher, WIRE),
    layer("server.threads_over_epoll", "ratio", Lower, "hot throughput of the threads backend over the epoll backend (base = epoll); svc_hot only"),
    layer("server.attributed_share", "ratio", Higher, "named server stages over client-observed latency on svc_cold; reported, not gated"),
    layer("shard.ring_lookup_ns", "ns", Lower, SHARD),
    layer("shard.hop_us", "us", Lower, "routed minus direct unloaded round trip; latency_p50_yd on svc_routed"),
    layer("shard.routed_over_direct", "ratio", Higher, "svc_routed throughput over the same stream straight at one shard (base = direct); svc_routed only"),
    layer("shard.balance", "ratio", Lower, "largest shard's share of the requests; svc_routed only"),
    layer("metrics.overhead_pct", "%", Lower, "hot throughput lost to recording (metrics: true against false); svc_hot only"),
    layer("metrics.scrape_us", "us", Lower, "nothing in a measured phase: no workload scrapes while it measures"),
    layer("bench.trace_overhead_pct", "%", Lower, "throughput of the untraced slices lost in the traced slices of the same run"),
    layer("trace.spans", "count", Lower, "spans the traced slices recorded"),
    layer("trace.core_self_pct", "%", Higher, TRACE),
    layer("trace.solver_self_pct", "%", Higher, TRACE),
    layer("trace.svc_self_pct", "%", Higher, TRACE),
    layer("trace.harness_self_pct", "%", Lower, "share of op time spent in the harness itself: loop glue and correctness checks"),
    layer("host.calib_stream_gbs", "GB/s", Higher, "the host, not the program: a fixed streaming load"),
    layer("host.calib_spin_mops", "Mops/s", Higher, "the host, not the program: a fixed arithmetic chain"),
    layer("host.drift_pct", "%", Lower, "change of the calibration load from before the run to after; above 10 the run is marked drifted"),
    layer("raw.throughput_ops_s", "ops/s", Higher, RAW),
    layer("raw.latency_p50_ms", "ms", Lower, RAW),
    layer("raw.latency_tail_ms", "ms", Lower, RAW),
    layer("yard.reading_ms", "ms", Lower, "the host, not the program: median yardstick reading, the base of every relative figure"),
    layer("yard.rounds", "count", Higher, "rounds (one op per client, one yardstick reading) in the untraced slices"),
    layer("run.samples", "count", Higher, "latency samples behind the traced run's untraced slices"),
    layer("run.tail_pct_supported", "count", Higher, "highest tail percentile those samples support (ten beyond it)"),
];

/// The `BENCHMARK.json` this table implies.
pub fn benchmark_json() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(Value::str)
                .to_vec(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_table_is_within_the_contracts_limits() {
        let mut seen = HashSet::new();
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(crate::stats::TAIL_LADDER.contains(&w.tail_pct));
            assert!(
                w.why.contains(&format!("tail = p{}", w.tail_pct)),
                "{}",
                w.name
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with the `spec` subcommand"
        );
    }
}
