//! The six workloads. Each module sets its inputs up from the seed, builds
//! the oracle its answers are checked against, drives rounds of ops and
//! yardstick readings for the measured time and, in a traced run, runs the
//! layer probes on its own inputs.

pub mod amg;
pub mod kernel;
pub mod svc;

use crate::json::Value;
use crate::load::{alternating, closed_loop, Client, Phase};
use mis2_graph::CsrGraph;
use std::path::Path;
use std::time::{Duration, Instant};

/// A named per-layer reading.
pub type Readings = Vec<(&'static str, f64)>;

/// What a workload needs to know about the run it is part of.
pub struct Cx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Pool size of every library call and thread budget of every server:
    /// the host's CPU count, never more.
    pub cpus: usize,
    /// Fresh directory for `.mtx` inputs, removed when the run ends.
    pub tmp: &'a Path,
    /// Time zero of the run's spans.
    pub origin: Instant,
}

/// A run repeats its set-up at least [`MIN_SETUPS`] times, and a cheap one
/// until [`SETUP_BUDGET_S`] seconds or [`MAX_SETUPS`] repetitions are spent;
/// `setup_s` is the median. A set-up of 50 or 150 ms is a few allocations
/// and a thread start, and three of them said what the host was doing.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;

/// What a workload hands back.
pub struct Outcome {
    /// Seconds each set-up took.
    pub setups_s: Vec<f64>,
    /// The untraced measured phase: the source of every end-to-end metric.
    pub plain: Phase,
    /// The traced slices of a traced run.
    pub traced: Option<Phase>,
    /// The workload-validity asserts: `Err` when the run did not exercise
    /// what the workload exists to exercise (a cold run that hit the
    /// cache). Such a run is invalid, not slow.
    pub valid: Result<(), String>,
    /// The per-layer readings only this workload can take, in a traced
    /// run; `run` adds the probes every workload shares.
    pub layers: Readings,
    /// Facts about the inputs, for the result file.
    pub inputs: Value,
    /// The graph a traced run's `core` and `coarsen` probes run on: the
    /// workload's own.
    pub probe_graph: CsrGraph,
    /// Whether the workload serves that graph, so the service-side probes
    /// run on it too (otherwise they run on `probes::tiny_mesh`).
    pub serves_probe_graph: bool,
}

/// Run `setup` several times (see [`MIN_SETUPS`]), tearing each state down
/// before the next so two never coexist, and keep the last one.
pub fn timed_setups<S>(mut setup: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up ran"), times)
}

/// The measured phase: rounds of one op per element of `states` and one
/// `yardstick` reading, for the run's seconds. A traced run cuts the time
/// into alternating untraced and traced slices and returns both sides.
pub fn measure<S: Send>(
    states: &mut [S],
    cx: &Cx,
    yardstick: &mut dyn FnMut() -> Duration,
    op: impl Fn(&mut S, &mut Client) + Sync,
) -> (Phase, Option<Phase>) {
    let total = Duration::from_secs_f64(cx.seconds);
    if cx.trace {
        let (plain, traced) = alternating(states, total, cx.origin, yardstick, op);
        (plain, Some(traced))
    } else {
        (
            closed_loop(states, total, false, cx.origin, yardstick, op),
            None,
        )
    }
}

/// Time one call, in milliseconds.
pub fn ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Median time of `reps` calls, in milliseconds; the results are dropped.
pub fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (r, t) = ms(&mut f);
            std::hint::black_box(r);
            t
        })
        .collect();
    crate::stats::median(&times)
}

pub fn run(name: &str, cx: &Cx) -> Outcome {
    match name {
        "kernel_mesh" => kernel::run(kernel::Kind::Mesh, cx),
        "kernel_rmat" => kernel::run(kernel::Kind::Rmat, cx),
        "lib_amg" => amg::run(cx),
        "svc_cold" => svc::cold(cx),
        "svc_hot" => svc::hot(cx, false),
        "svc_routed" => svc::hot(cx, true),
        other => unreachable!("workload `{other}` is checked against the spec before it runs"),
    }
}
