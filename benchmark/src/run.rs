//! One run of one workload in this process, and the parent mode that runs
//! every workload in a child process of its own.

use crate::host::{self, Calibration};
use crate::json::{self, Value};
use crate::spec::{self, Workload};
use crate::workloads::{self, Cx, Readings};
use crate::{probes, stats, trace};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// `benchmark/out`: result files, traces and the run's temp directory.
/// Inside the checkout the binary was built from, and git-ignored.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory for `.mtx` inputs, removed again on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn create(workload: &str) -> TempDir {
        let path = out_dir().join(format!("tmp-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the run's temp directory");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one run measured, ready to print.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in spec order: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The untraced phase on the wall clock, and its yardstick: printed
    /// under an untraced run's metrics, part of a traced run's.
    raw: Vec<(&'static str, f64, &'static str)>,
    /// The relative latency at every percentile of the tail ladder.
    ladder: Vec<(u32, f64)>,
    /// Latency samples behind the end-to-end metrics.
    samples: u64,
    /// Whether those samples leave ten beyond the workload's tail.
    tail_supported: bool,
    /// Whether the calibration load changed by more than the limit.
    drifted: bool,
    /// Why the run did not exercise what the workload exists for.
    invalid: Option<String>,
    first_failure: Option<String>,
    /// Everything else worth keeping: host stamp, calibration, inputs.
    detail: Value,
}

impl Report {
    /// The result the driver reads: exactly these four keys.
    fn result(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Value::obj([("value", Value::Num(*value)), ("unit", Value::str(*unit))]),
                    )
                })),
            ),
        ])
    }

    /// The full report for the result file: the detail, then the result.
    fn to_json(&self) -> Value {
        let Value::Obj(mut pairs) = self.detail.clone() else {
            unreachable!("detail is built as an object");
        };
        pairs.push(("result".into(), self.result()));
        Value::Obj(pairs)
    }
}

fn calibration_json(c: Calibration) -> Value {
    Value::obj([
        ("stream_gbs", Value::Num(c.stream_gbs)),
        ("spin_mops", Value::Num(c.spin_mops)),
    ])
}

/// Share of the traced ops' time each harness-visible layer accounts for.
fn trace_shares(spans: &[trace::Span]) -> Readings {
    let layers = trace::layer_self_ns(spans);
    let total = trace::root_ns(spans).max(1) as f64;
    let pct = |layer: &str| 100.0 * layers.get(layer).copied().unwrap_or(0) as f64 / total;
    vec![
        ("trace.spans", spans.len() as f64),
        ("trace.core_self_pct", pct("core")),
        ("trace.solver_self_pct", pct("solver")),
        ("trace.svc_self_pct", pct("svc")),
        ("trace.harness_self_pct", pct("harness")),
    ]
}

/// Run `workload` in this process.
pub fn run_one(workload: &'static Workload, args: Args) -> Report {
    let cpus = host::cpus();
    let tmp = TempDir::create(workload.name);
    let cx = Cx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        cpus,
        tmp: &tmp.0,
        origin: Instant::now(),
    };
    let calib_before = host::calibrate();
    let outcome = workloads::run(workload.name, &cx);
    // Read before the probes of a traced run allocate anything.
    let peak_rss_mb = host::peak_rss_mb();
    let calib_after = host::calibrate();
    let drift_pct = host::drift_pct(calib_before, calib_after);

    let plain = &outcome.plain;
    let tail = f64::from(workload.tail_pct) / 100.0;
    // The same phase on the wall clock: what a client of this host saw,
    // and the base the relative figures multiply back to. Not gated: on
    // the sizing host these say what the minute was like.
    let raw = vec![
        ("raw.throughput_ops_s", plain.throughput(), "ops/s"),
        (
            "raw.latency_p50_ms",
            plain.hist.quantile_ns(0.5) / 1e6,
            "ms",
        ),
        (
            "raw.latency_tail_ms",
            plain.hist.quantile_ns(tail) / 1e6,
            "ms",
        ),
        ("yard.reading_ms", plain.yardstick_ms(), "ms"),
        ("yard.rounds", plain.rounds() as f64, "count"),
    ];
    // The relative latency at every percentile a workload may fix, so that
    // lowering an unsteady tail to the next one needs no new runs.
    let ladder: Vec<(u32, f64)> = stats::TAIL_LADDER
        .iter()
        .map(|pct| (*pct, plain.rel_quantile(f64::from(*pct) / 100.0)))
        .collect();
    let samples = plain.hist.count();
    let supported_pct = stats::supported_tail_pct(samples);
    let (mut attempted, mut failed) = (plain.attempted, plain.failed);
    let mut first_failure = plain.first_failure.clone();
    if let Some(traced) = &outcome.traced {
        attempted += traced.attempted;
        failed += traced.failed;
        first_failure = first_failure.or_else(|| traced.first_failure.clone());
    }
    let correct = failed == 0 && attempted > 0 && outcome.valid.is_ok();

    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        let traced = outcome
            .traced
            .as_ref()
            .expect("a traced run has traced slices");
        let mut layers = outcome.layers.clone();
        layers.extend(raw.iter().map(|(name, value, _)| (*name, *value)));
        layers.extend(trace_shares(&traced.spans));
        layers.extend([
            (
                "bench.trace_overhead_pct",
                100.0 * (1.0 - traced.rel_throughput() / plain.rel_throughput()),
            ),
            ("host.calib_stream_gbs", calib_after.stream_gbs),
            ("host.calib_spin_mops", calib_after.spin_mops),
            ("host.drift_pct", drift_pct),
            ("run.samples", samples as f64),
            (
                "run.tail_pct_supported",
                f64::from(supported_pct.unwrap_or(0)),
            ),
        ]);
        // The probes every workload shares, on this workload's inputs.
        let has = |layers: &Readings, name: &str| layers.iter().any(|(n, _)| *n == name);
        layers.extend(probes::prim(cpus));
        if !has(&layers, "core.mis2_ms") {
            layers.extend(probes::core(&outcome.probe_graph, args.seed, cpus).readings);
        }
        layers.extend(probes::coarsen(&outcome.probe_graph, cpus));
        layers.push(("graph.bytes", outcome.probe_graph.heap_bytes() as f64));
        layers.extend(workloads::amg::probes(
            &workloads::amg::problem(args.seed),
            cpus,
        ));
        if outcome.serves_probe_graph {
            layers.extend(probes::service(&outcome.probe_graph, &cx));
        } else {
            layers.extend(probes::service(&probes::tiny_mesh(), &cx));
        }
        layers.extend([
            (
                "prim.pool_contended",
                mis2_prim::pool::contended_regions() as f64,
            ),
            (
                "prim.pool_spawned",
                mis2_prim::pool::spawned_workers() as f64,
            ),
        ]);
        for (name, _) in &layers {
            assert!(
                spec::PER_LAYER.iter().any(|m| m.name == *name),
                "`{name}` is not in the per-layer table"
            );
        }
        // Spec order; a count or share the workload never touched reads 0.
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name, value, m.unit)
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => stats::median(&outcome.setups_s),
            "throughput_ops_yd" => plain.rel_throughput(),
            "latency_p50_yd" => plain.rel_quantile(0.5),
            "latency_tail_yd" => plain.rel_quantile(tail),
            "peak_rss_mb" => peak_rss_mb,
            other => unreachable!("end-to-end metric `{other}` has no reading"),
        };
        spec::END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect()
    };

    if let Some(traced) = &outcome.traced {
        let doc = trace::to_json(workload.name, args.seed, &traced.spans);
        let path = out_dir().join(format!("trace-{}.json", workload.name));
        std::fs::write(path, doc.render()).expect("write the trace file");
    }

    let tail_supported = supported_pct.is_some_and(|p| p >= workload.tail_pct);
    let drifted = drift_pct > host::DRIFT_LIMIT_PCT;
    let invalid = outcome.valid.err();
    let opt = |s: &Option<String>| s.as_deref().map_or(Value::Null, Value::str);
    let detail = Value::obj([
        ("workload", Value::str(workload.name)),
        ("op", Value::str(workload.op)),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("host", host::stamp()),
        ("pool", Value::from(cpus as u64)),
        ("calibration_before", calibration_json(calib_before)),
        ("calibration_after", calibration_json(calib_after)),
        ("drift_pct", Value::Num(drift_pct)),
        ("drifted", Value::Bool(drifted)),
        ("tail_pct", Value::from(u64::from(workload.tail_pct))),
        ("samples", Value::from(samples)),
        ("tail_supported", Value::Bool(tail_supported)),
        (
            "setups_s",
            Value::Arr(outcome.setups_s.iter().map(|s| Value::Num(*s)).collect()),
        ),
        ("measured_s", Value::Num(plain.busy_s)),
        (
            "tail_ladder_yd",
            Value::Obj(
                ladder
                    .iter()
                    .map(|(pct, v)| (format!("p{pct}"), Value::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "raw",
            Value::obj(raw.iter().map(|(name, value, unit)| {
                (
                    *name,
                    Value::obj([("value", Value::Num(*value)), ("unit", Value::str(*unit))]),
                )
            })),
        ),
        ("peak_rss_mb", Value::Num(peak_rss_mb)),
        ("invalid", opt(&invalid)),
        ("first_failure", opt(&first_failure)),
        ("inputs", outcome.inputs),
    ]);
    Report {
        correct,
        attempted,
        failed,
        metrics,
        raw,
        ladder,
        samples,
        tail_supported,
        drifted,
        invalid,
        first_failure,
        detail,
    }
}

fn result_path(workload: &str, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    out_dir().join(format!("result-{workload}{suffix}.json"))
}

/// Print every metric by name and unit, then the result line, and keep
/// the full report in `out/`.
pub fn print_and_save(workload: &Workload, args: Args, report: &Report) {
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    std::fs::write(
        result_path(workload.name, args.trace),
        report.to_json().render_pretty(),
    )
    .expect("write the result file");
    println!(
        "# {} seed={} seconds={} trace={} pool={} samples={} tail=p{}{}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cpus(),
        report.samples,
        workload.tail_pct,
        if report.drifted { " DRIFTED" } else { "" },
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    if !args.trace {
        println!("# on the wall clock (not gated), and the yardstick behind the figures above");
        for (name, value, unit) in &report.raw {
            println!("{name:<32} {value:>16.4} {unit}");
        }
        for (pct, value) in &report.ladder {
            println!(
                "{:<32} {value:>16.4} yardsticks",
                format!("ladder.latency_p{pct}_yd")
            );
        }
    }
    if let Some(why) = &report.invalid {
        println!("INVALID RUN: {why}");
    }
    if let Some(why) = &report.first_failure {
        println!("FIRST FAILED OP: {why}");
    }
    if !report.tail_supported && !args.trace {
        println!(
            "note: {} samples do not leave ten beyond p{}",
            report.samples, workload.tail_pct
        );
    }
    println!("{}", report.result().render());
}

/// What the parent keeps of one child run.
pub struct ChildResult {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
    pub drifted: bool,
}

/// Run one workload in a child process of this same binary and read its
/// result line back. The child's own table goes to our stdout unless
/// `quiet`.
pub fn run_child(workload: &Workload, args: Args, quiet: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !quiet {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name, output.status));
    }
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    let result = json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line without metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let drifted = std::fs::read_to_string(result_path(workload.name, args.trace))
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| doc.get("drifted").and_then(Value::as_bool))
        .unwrap_or(false);
    Ok(ChildResult {
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        metrics,
        drifted,
    })
}

/// Run every workload, each in its own child process, and gather the
/// result files into `out/results.json`. A traced pass follows the
/// untraced one when asked for. Returns whether every run was correct.
pub fn run_all(args: Args) -> bool {
    let mut all_correct = true;
    let mut gathered = Vec::new();
    for trace in [false, true] {
        if trace && !args.trace {
            continue;
        }
        for workload in spec::WORKLOADS {
            let args = Args { trace, ..args };
            match run_child(workload, args, false) {
                Ok(child) => all_correct &= child.correct,
                Err(why) => {
                    eprintln!("error: {why}");
                    all_correct = false;
                    continue;
                }
            }
            if let Some(doc) = std::fs::read_to_string(result_path(workload.name, trace))
                .ok()
                .and_then(|text| json::parse(&text).ok())
            {
                gathered.push(doc);
            }
            println!();
        }
    }
    let path = out_dir().join("results.json");
    std::fs::write(&path, Value::Arr(gathered).render_pretty()).expect("write results.json");
    println!("wrote {}", path.display());
    all_correct
}
