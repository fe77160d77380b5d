//! Request observability: latency histograms, stage spans, a slow-request
//! ring, and the versioned `METRICS` text exposition.
//!
//! Everything here is std-only. What watching a request costs depends on
//! how it was answered:
//!
//! - An inline answer — a cache hit on either protocol, `STATS`, `PING`,
//!   an error — reads no clock of its own ([`Span::fast`]). Its latency
//!   runs from the arrival stamp the driver takes once per socket read to
//!   the retire stamp the writer takes once per write batch, both shared
//!   with every other request of that read and that batch.
//! - A scheduled request (a cache miss) reads the clock once
//!   on the reader, after the failed cache probe, to end its `parse` stage
//!   ([`Span::start`]); the scheduler worker stamps enqueue, job start and
//!   job end into atomic [`JobStamps`], the only atomics left here.
//! - The writer hands a retired batch to [`Metrics::record_batch`], which
//!   takes the registry's one lock once for the whole batch. Under it sit
//!   plain [`HistoSnap`] histograms — per op × outcome latency and per
//!   stage — and the ring of the last [`SLOW_SLOTS`] requests whose total
//!   latency met `--slow-ms`. [`Metrics::render`] takes the same lock once
//!   per scrape, so `mis2_requests_total` and every `_count` it emits come
//!   from one snapshot.
//!
//! [`Metrics::render`] emits the Prometheus-style exposition (`# mis2svc
//! metrics schema 2` header, counters, per-op × per-outcome histogram
//! series with `_sum`/`_count`, per-stage series, and a slow-ring dump)
//! as an [`Exposition`], written by [`Exposition::render`] like the
//! router's merged body: the format has one writer.
//! The router parses each shard's exposition with [`parse_exposition`]
//! and merges the parsed values once, with [`merge_expositions`]: every
//! series sums bucket-wise except `mis2_uptime_seconds` and
//! `mis2_slow_threshold_ms` (min over live shards) and the
//! `mis2_slow_request` lines (passed through with the `shard` label
//! rewritten to the source shard index). Both of the router's bodies,
//! `METRICS` and `STATS`, are printed from that one merge.
//!
//! Bucket scheme: bucket 0 holds `ns <= 1000`; bucket `i` holds
//! `1000·2^(i-1) < ns <= 1000·2^i`; the top bucket (`le="33554432000"`)
//! also absorbs anything slower. Buckets are emitted **non-cumulative**
//! (unlike native Prometheus) so `sum(buckets) == _count` holds exactly
//! — the CI smoke asserts it, and cumulative form is one prefix-sum
//! away for anyone exporting for real.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Exposition format version; bumped whenever a series is renamed or
/// its labels change meaning. The header line is
/// `# mis2svc metrics schema <SCHEMA>`.
pub const SCHEMA: u64 = 2;

/// Number of histogram buckets: 1µs doubling up to ~33.5s.
pub const NBUCKETS: usize = 26;

/// Upper bound (inclusive, in ns) of bucket `i`: `1000 << i`.
pub fn bucket_bound(i: usize) -> u64 {
    1000u64 << i
}

/// The unique bucket a duration lands in: the smallest `i` with
/// `ns <= bucket_bound(i)`, clamped to the top bucket.
pub fn bucket_of(ns: u64) -> usize {
    if ns <= 1000 {
        return 0;
    }
    let q = (ns - 1) / 1000; // >= 1, so leading_zeros < 64
    let i = 64 - q.leading_zeros() as usize;
    i.min(NBUCKETS - 1)
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A fixed-boundary latency histogram: per-bucket counts and the sum of
/// the recorded nanoseconds. `_count` is derived as the sum of the
/// buckets, so `sum(buckets) == count` holds by construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HistoSnap {
    pub buckets: [u64; NBUCKETS],
    pub sum: u64,
}

impl HistoSnap {
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.sum = self.sum.wrapping_add(ns);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    pub fn is_empty(&self) -> bool {
        self.sum == 0 && self.buckets.iter().all(|&b| b == 0)
    }

    /// Bucket-wise saturating merge; associative and commutative.
    pub fn merge(&mut self, other: &HistoSnap) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile
    /// (nearest-rank over bucket counts); 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(NBUCKETS - 1)
    }
}

// ---------------------------------------------------------------------------
// Ops, outcomes, stages
// ---------------------------------------------------------------------------

/// Request operation, for histogram labelling. `Other` covers protocol
/// chatter (PING, QUIT, hellos) and unparseable lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Mis2 = 0,
    Coarsen = 1,
    Solve = 2,
    Stats = 3,
    Metrics = 4,
    Other = 5,
}

pub const NOPS: usize = 6;
pub const OPS: [Op; NOPS] = [
    Op::Mis2,
    Op::Coarsen,
    Op::Solve,
    Op::Stats,
    Op::Metrics,
    Op::Other,
];

impl Op {
    pub fn label(self) -> &'static str {
        match self {
            Op::Mis2 => "mis2",
            Op::Coarsen => "coarsen",
            Op::Solve => "solve",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Other => "other",
        }
    }
}

/// How the request was answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Served inline from interned response bytes (either protocol).
    RespHit = 0,
    /// Went through the scheduler and computed (or answered inline for
    /// STATS/METRICS/PING-class requests).
    Computed = 1,
    /// Answered with an ERR response.
    Error = 2,
}

pub const NOUTCOMES: usize = 3;
pub const OUTCOMES: [Outcome; NOUTCOMES] = [Outcome::RespHit, Outcome::Computed, Outcome::Error];

impl Outcome {
    pub fn label(self) -> &'static str {
        match self {
            Outcome::RespHit => "resp_hit",
            Outcome::Computed => "computed",
            Outcome::Error => "error",
        }
    }
}

/// Request lifecycle stage of a scheduled request, for the per-stage
/// histograms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Socket read → request parsed; on v3 this includes the failed
    /// inline cache probe, which the stage's one clock read follows.
    Parse = 0,
    /// Scheduler queue wait (enqueue → job start).
    Queue = 1,
    /// Job execution (job start → job end).
    Run = 2,
    /// Job end → write retired.
    Write = 3,
}

pub const NSTAGES: usize = 4;
pub const STAGES: [Stage; NSTAGES] = [Stage::Parse, Stage::Queue, Stage::Run, Stage::Write];

impl Stage {
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Run => "run",
            Stage::Write => "write",
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Bytes of the graph key kept in a span (suite tokens fit; longer
/// paths are truncated for display).
pub const KEY_BYTES: usize = 24;

/// Fixed-capacity copy of the request's graph key, so spans stay
/// allocation-free on the hot path.
#[derive(Clone, Copy, Debug)]
pub struct KeyBuf {
    len: u8,
    buf: [u8; KEY_BYTES],
}

impl KeyBuf {
    pub fn new(s: &str) -> KeyBuf {
        let bytes = s.as_bytes();
        let len = bytes.len().min(KEY_BYTES);
        let mut buf = [0u8; KEY_BYTES];
        buf[..len].copy_from_slice(&bytes[..len]);
        KeyBuf {
            len: len as u8,
            buf,
        }
    }

    pub fn display(&self) -> String {
        String::from_utf8_lossy(&self.buf[..self.len as usize]).into_owned()
    }
}

/// Elapsed nanoseconds between two instants, in u64 arithmetic — the
/// per-span retire loop runs this at request rate, and `as_nanos`'s
/// u128 multiply is measurable there. Saturates to 0 on inversion.
#[inline]
fn elapsed_ns(from: Instant, to: Instant) -> u64 {
    let d = to.saturating_duration_since(from);
    d.as_secs()
        .wrapping_mul(1_000_000_000)
        .wrapping_add(u64::from(d.subsec_nanos()))
}

/// Stage stamps for a scheduler-path request, shared between the job
/// closure (stamps start/end on a worker thread) and the span riding to
/// the writer. Offsets are ns since `started`.
#[derive(Debug)]
pub struct JobStamps {
    started: Instant,
    enqueued_ns: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl JobStamps {
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    pub fn stamp_enqueued(&self) {
        self.enqueued_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    pub fn stamp_start(&self) {
        self.start_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    pub fn stamp_end(&self) {
        self.end_ns.store(self.now_ns(), Ordering::Relaxed);
    }
}

/// Per-request record, created by the reader and retired by the writer
/// after the response bytes hit the socket. The reader only stamps
/// clocks; all bucket arithmetic happens in [`Metrics::record_batch`].
#[derive(Clone, Debug)]
pub struct Span {
    pub op: Op,
    pub outcome: Outcome,
    pub key: KeyBuf,
    /// The arrival stamp of the socket read the request came in.
    pub started: Instant,
    /// `started` → end of parse, saturating at `u32::MAX` (~4.3 s) so a
    /// span stays inside one cache line; 0 on a [`Span::fast`] span.
    pub parse_ns: u32,
    pub job: Option<Arc<JobStamps>>,
}

impl Span {
    /// Start a span for a scheduled request whose read began at `t0`,
    /// stamping `parse_ns = t0.elapsed()` — the one clock read the reader
    /// spends on it. `None` when recording is disabled (`t0` is `None`).
    pub fn start(t0: Option<Instant>, op: Op, key: &str) -> Option<Span> {
        let mut span = Span::fast(t0, op, Outcome::Computed, key)?;
        let d = span.started.elapsed();
        span.parse_ns = if d.as_secs() >= 4 {
            u32::MAX
        } else {
            (d.as_secs() as u32) * 1_000_000_000 + d.subsec_nanos()
        };
        Some(span)
    }

    /// The clock-free span of an inline answer (cache hit, `STATS`,
    /// `PING`-class chatter, errors): no parse stamp, no job. Its whole
    /// cost is its latency total, `t0` to write-retired.
    pub fn fast(t0: Option<Instant>, op: Op, outcome: Outcome, key: &str) -> Option<Span> {
        Some(Span {
            op,
            outcome,
            key: KeyBuf::new(key),
            started: t0?,
            parse_ns: 0,
            job: None,
        })
    }

    /// Attach scheduler-path stamps; returns the handle the job closure
    /// uses to stamp start/end from the worker thread.
    pub fn attach_job(&mut self) -> Arc<JobStamps> {
        let stamps = Arc::new(JobStamps {
            started: self.started,
            enqueued_ns: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
        });
        self.job = Some(Arc::clone(&stamps));
        stamps
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Capacity of the slow-request ring.
pub const SLOW_SLOTS: usize = 64;

/// One captured slow request.
#[derive(Clone, Copy, Debug)]
struct SlowEntry {
    /// Capture ticket, monotonic over the registry's lifetime.
    seq: u64,
    op: Op,
    outcome: Outcome,
    key: KeyBuf,
    total_ns: u64,
    parse_ns: u64,
    queue_ns: u64,
    run_ns: u64,
    write_ns: u64,
}

/// Everything a scrape reads, behind [`Metrics`]' one lock.
#[derive(Clone, Default)]
struct Recorded {
    latency: [[HistoSnap; NOUTCOMES]; NOPS],
    stages: [HistoSnap; NSTAGES],
    /// Slow requests ever captured, including ones since overwritten.
    slow_captured: u64,
    /// The last [`SLOW_SLOTS`] slow requests, in ticket order.
    slow: VecDeque<SlowEntry>,
}

impl Recorded {
    /// Every latency histogram's count: the one request counter.
    fn requests_total(&self) -> u64 {
        self.latency.iter().flatten().map(HistoSnap::count).sum()
    }

    /// File one retired span. Every span lands in its latency histogram;
    /// only a scheduled span (one with job stamps) has stages to record —
    /// an inline answer is single-stage, and stamping its sub-microsecond
    /// stages would cost more clock reads than the stages take.
    fn add(&mut self, span: &Span, retired: Instant, slow_ns: u64) {
        let total = elapsed_ns(span.started, retired);
        self.latency[span.op as usize][span.outcome as usize].record(total);
        let parse_ns = u64::from(span.parse_ns);
        let (queue_ns, run_ns, write_ns) = match &span.job {
            Some(j) => {
                let e = j.enqueued_ns.load(Ordering::Relaxed);
                let s = j.start_ns.load(Ordering::Relaxed);
                let n = j.end_ns.load(Ordering::Relaxed);
                let split = (
                    s.saturating_sub(e),
                    n.saturating_sub(s),
                    total.saturating_sub(n),
                );
                for (stage, ns) in [
                    (Stage::Parse, parse_ns),
                    (Stage::Queue, split.0),
                    (Stage::Run, split.1),
                    (Stage::Write, split.2),
                ] {
                    self.stages[stage as usize].record(ns);
                }
                split
            }
            None => (0, 0, total.saturating_sub(parse_ns)),
        };
        if total >= slow_ns {
            if self.slow.len() == SLOW_SLOTS {
                self.slow.pop_front();
            }
            self.slow.push_back(SlowEntry {
                seq: self.slow_captured,
                op: span.op,
                outcome: span.outcome,
                key: span.key,
                total_ns: total,
                parse_ns,
                queue_ns,
                run_ns,
                write_ns,
            });
            self.slow_captured += 1;
        }
    }
}

/// Per-server metrics: per-op × per-outcome latency histograms,
/// per-stage histograms, and the slow-request ring, all behind one lock.
///
/// There is deliberately no separate request counter:
/// `requests_total` is **derived** from the latency histograms' counts,
/// so the exposition identity `sum(_count) == mis2_requests_total`
/// holds exactly, on every scrape.
pub struct Metrics {
    enabled: bool,
    started: Instant,
    slow_ms: u64,
    slow_ns: u64,
    recorded: Mutex<Recorded>,
}

impl Metrics {
    fn build(slow_ms: u64, enabled: bool) -> Metrics {
        Metrics {
            enabled,
            started: Instant::now(),
            slow_ms,
            slow_ns: slow_ms.saturating_mul(1_000_000),
            recorded: Mutex::default(),
        }
    }

    pub fn new(slow_ms: u64) -> Metrics {
        Metrics::build(slow_ms, true)
    }

    /// A no-op registry: drivers pass no arrival stamp, so spans are never
    /// created, and `record_batch` returns immediately. Used by the bench
    /// to A/B the recording overhead.
    pub fn disabled(slow_ms: u64) -> Metrics {
        Metrics::build(slow_ms, false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    fn recorded(&self) -> MutexGuard<'_, Recorded> {
        // Nothing under the lock panics short of a bug in `Recorded::add`.
        self.recorded.lock().expect("metrics lock poisoned")
    }

    /// Total retired requests: the sum of every latency histogram's
    /// count. Derived, not counted — see the struct doc.
    pub fn requests_total(&self) -> u64 {
        self.recorded().requests_total()
    }

    /// Retire a batch of finished requests against one shared
    /// write-retired stamp: one clock read per write batch on the caller,
    /// one lock here.
    pub fn record_batch(&self, spans: impl IntoIterator<Item = Span>, retired: Instant) {
        if !self.enabled {
            return;
        }
        let mut rec = self.recorded();
        for span in spans {
            rec.add(&span, retired, self.slow_ns);
        }
    }

    /// Render the exposition. `extra` carries server-level gauges and
    /// counters (cache hits, scheduler totals, bytes on the wire) that
    /// live outside this registry; each becomes a bare `name value`
    /// line after the built-in counters. An entry naming a built-in
    /// counter is skipped: the built-in value is the one read from this
    /// scrape's snapshot.
    pub fn render(&self, extra: &[(&str, u64)]) -> String {
        // One copy under the lock; every line below reads it, so even with
        // batches retiring concurrently the emitted `mis2_requests_total`
        // equals the emitted `_count` sum.
        let rec = self.recorded().clone();
        let own = [
            ("mis2_uptime_seconds", self.uptime_s()),
            ("mis2_requests_total", rec.requests_total()),
            ("mis2_slow_threshold_ms", self.slow_ms),
            ("mis2_slow_captured_total", rec.slow_captured),
        ];
        let extra = extra
            .iter()
            .filter(|(n, _)| own.iter().all(|(o, _)| o != n));
        let mut exp = Exposition {
            schema: SCHEMA,
            samples: Vec::new(),
        };
        for &(name, value) in own.iter().chain(extra) {
            exp.push(name, &[], value);
        }
        for op in OPS {
            for outcome in OUTCOMES {
                let labels = [("op", op.label()), ("outcome", outcome.label())];
                let snap = &rec.latency[op as usize][outcome as usize];
                exp.push_histo("mis2_request_latency_ns", &labels, snap);
            }
        }
        for stage in STAGES {
            let snap = &rec.stages[stage as usize];
            exp.push_histo("mis2_stage_ns", &[("stage", stage.label())], snap);
        }
        for e in &rec.slow {
            let [seq, total, parse, queue, run, write] = [
                e.seq, e.total_ns, e.parse_ns, e.queue_ns, e.run_ns, e.write_ns,
            ]
            .map(|v| v.to_string());
            let key = e.key.display();
            let labels = [
                ("seq", seq.as_str()),
                ("op", e.op.label()),
                ("outcome", e.outcome.label()),
                ("key", key.as_str()),
                ("shard", "0"),
                ("total_ns", total.as_str()),
                ("parse_ns", parse.as_str()),
                ("queue_ns", queue.as_str()),
                ("run_ns", run.as_str()),
                ("write_ns", write.as_str()),
            ];
            exp.push("mis2_slow_request", &labels, 1);
        }
        exp.render()
    }
}

// ---------------------------------------------------------------------------
// Exposition parsing and cluster merge
// ---------------------------------------------------------------------------

/// One exposition line: `name value` or `name{labels} value`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: u64,
}

impl Sample {
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: the schema from the header plus every sample in
/// document order.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    pub schema: u64,
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// Value of the first sample with this name (label-free counters).
    pub fn value(&self, name: &str) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// The text form [`parse_exposition`] reads back: the schema header,
    /// then one line per sample in order.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(32 + 80 * self.samples.len());
        let _ = writeln!(out, "# mis2svc metrics schema {}", self.schema);
        for s in &self.samples {
            out.push_str(&s.name);
            for (i, (k, v)) in s.labels.iter().enumerate() {
                out.push(if i == 0 { '{' } else { ',' });
                let _ = write!(out, "{k}=\"{}\"", escape_label(v));
            }
            if !s.labels.is_empty() {
                out.push('}');
            }
            let _ = writeln!(out, " {}", s.value);
        }
        out
    }

    /// Append one sample.
    fn push(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let labels = labels.iter().map(|&(k, v)| (k.into(), v.into()));
        self.samples.push(Sample {
            name: name.to_string(),
            labels: labels.collect(),
            value,
        });
    }

    /// Append a non-empty histogram as its series: one `_bucket` sample
    /// per bucket (labelled `le`), then `_sum` and `_count`.
    fn push_histo(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistoSnap) {
        if snap.is_empty() {
            return;
        }
        for (i, &b) in snap.buckets.iter().enumerate() {
            let le = bucket_bound(i).to_string();
            let with_le: Vec<_> = labels.iter().copied().chain([("le", &*le)]).collect();
            self.push(&format!("{name}_bucket"), &with_le, b);
        }
        self.push(&format!("{name}_sum"), labels, snap.sum);
        self.push(&format!("{name}_count"), labels, snap.count());
    }
}

/// Escape a label value for the exposition (`\` → `\\`, `"` → `\"`).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            _ => out.push(c),
        }
    }
    out
}

/// Parse a label block: the text between `{` and `}`. Honors `\\` and
/// `\"` escapes inside quoted values.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label `{key}`: expected opening quote"));
        }
        let mut val = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    other => return Err(format!("label `{key}`: bad escape {other:?}")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => val.push(c),
            }
        }
        if !closed {
            return Err(format!("label `{key}`: unterminated value"));
        }
        labels.push((key, val));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("expected `,` between labels, got {c:?}")),
        }
    }
    Ok(labels)
}

/// Parse one exposition body. The first line must be the schema header;
/// later `#` comment lines and blank lines are skipped.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty exposition")?;
    let schema = header
        .strip_prefix("# mis2svc metrics schema ")
        .and_then(|s| s.trim().parse::<u64>().ok())
        .ok_or_else(|| format!("bad exposition header: {header:?}"))?;
    let mut samples = Vec::new();
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Split `name{labels} value` / `name value`. The value is the
        // text after the last space *outside* the label block.
        let (head, value) = match line.rfind('}') {
            Some(close) => {
                let rest = line[close + 1..].trim();
                (&line[..close + 1], rest)
            }
            None => line
                .rsplit_once(' ')
                .ok_or_else(|| format!("bad sample line: {line:?}"))?,
        };
        let value: u64 = value
            .parse()
            .map_err(|_| format!("bad sample value in: {line:?}"))?;
        let (name, labels) = match head.find('{') {
            Some(open) => {
                let close = head
                    .rfind('}')
                    .ok_or_else(|| format!("unclosed labels: {line:?}"))?;
                (
                    head[..open].to_string(),
                    parse_labels(&head[open + 1..close]).map_err(|e| format!("{line:?}: {e}"))?,
                )
            }
            None => (head.to_string(), Vec::new()),
        };
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(Exposition { schema, samples })
}

/// Merge per-shard expositions into the cluster's one exposition, from
/// which the router prints both its `METRICS` and its `STATS` body.
///
/// - Every series (counters, histogram buckets, `_sum`, `_count`) is
///   summed across live shards, keeping first-seen order — except
///   `mis2_uptime_seconds` and `mis2_slow_threshold_ms`, which take the
///   **minimum** over live shards: the youngest member bounds how much
///   history the merged counters cover, and the lowest threshold is the
///   one below which no shard's ring holds a request.
/// - `mis2_slow_request` lines pass through unsummed, with the `shard`
///   label rewritten to the source shard's index.
/// - `mis2_shards` / `mis2_shards_up` cluster gauges are appended.
///
/// `shards[i]` is shard `i`'s exposition, or `None` if it was down (or
/// answered garbage).
pub fn merge_expositions(shards: &[Option<Exposition>]) -> Exposition {
    let mut merged = Exposition {
        schema: SCHEMA,
        samples: Vec::new(),
    };
    let mut index = HashMap::new();
    let mut slow: Vec<Sample> = Vec::new();
    for (shard, exp) in shards.iter().enumerate() {
        let Some(exp) = exp else { continue };
        for s in &exp.samples {
            if s.name == "mis2_slow_request" {
                let mut s = s.clone();
                let shard_label = shard.to_string();
                match s.labels.iter_mut().find(|(k, _)| k == "shard") {
                    Some((_, v)) => *v = shard_label,
                    None => s.labels.push(("shard".to_string(), shard_label)),
                }
                slow.push(s);
                continue;
            }
            let key = (s.name.as_str(), s.labels.as_slice());
            let Some(&i) = index.get(&key) else {
                index.insert(key, merged.samples.len());
                merged.samples.push(s.clone());
                continue;
            };
            let into = &mut merged.samples[i].value;
            *into = match key.0 {
                "mis2_uptime_seconds" | "mis2_slow_threshold_ms" => (*into).min(s.value),
                _ => into.saturating_add(s.value),
            };
        }
    }
    let up = shards.iter().flatten().count();
    merged.push("mis2_shards", &[], shards.len() as u64);
    merged.push("mis2_shards_up", &[], up as u64);
    merged.samples.extend(slow);
    merged
}

// ---------------------------------------------------------------------------
// Wire body escaping
// ---------------------------------------------------------------------------

/// Encode a multi-line exposition as a single-line wire body: `\` →
/// `\\`, newline → the two characters `\n`. Responses stay one line on
/// every protocol, preserving the cross-protocol byte-identity
/// contract.
pub fn escape_body(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_body`]. Unknown escapes are passed through
/// verbatim.
pub fn unescape_body(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Client-side percentile helper
// ---------------------------------------------------------------------------

/// Nearest-rank percentile over an already-sorted sample slice; 0 on an
/// empty slice. Used by the clients and bench for client-observed
/// p50/p95/p99.
pub fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(1000), 0);
        assert_eq!(bucket_of(1001), 1);
        assert_eq!(bucket_of(2000), 1);
        assert_eq!(bucket_of(2001), 2);
        assert_eq!(bucket_of(4000), 2);
        assert_eq!(bucket_of(4001), 3);
        for i in 0..NBUCKETS {
            assert_eq!(bucket_of(bucket_bound(i)), i, "bound of bucket {i}");
            let next = bucket_of(bucket_bound(i) + 1);
            assert_eq!(next, (i + 1).min(NBUCKETS - 1), "just past bucket {i}");
        }
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn histo_count_equals_bucket_sum() {
        let mut h = HistoSnap::default();
        for ns in [0u64, 999, 1000, 1001, 50_000, 1_000_000, u64::MAX] {
            h.record(ns);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets.iter().sum::<u64>(), 7);
    }

    #[test]
    fn quantile_walks_buckets() {
        let mut h = HistoSnap::default();
        for _ in 0..90 {
            h.record(500); // bucket 0
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 10 (bound 1024000)
        }
        assert_eq!(h.quantile(0.5), 1000);
        assert_eq!(h.quantile(0.95), bucket_bound(10));
        assert_eq!(HistoSnap::default().quantile(0.99), 0);
    }

    #[test]
    fn keybuf_truncates_and_displays() {
        let k = KeyBuf::new("af_shell7");
        assert_eq!(k.display(), "af_shell7");
        let long = "x".repeat(40);
        let k = KeyBuf::new(&long);
        assert_eq!(k.display(), "x".repeat(KEY_BYTES));
    }

    /// The tickets of the slow entries still in the ring, oldest first.
    fn slow_seqs(m: &Metrics) -> Vec<u64> {
        m.recorded().slow.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn slow_ring_keeps_the_last_entries() {
        let m = Metrics::new(0); // slow_ms=0: every record reaches the ring
        let t0 = Instant::now();
        let spans =
            (0..SLOW_SLOTS + 10).map(|_| Span::fast(Some(t0), Op::Mis2, Outcome::Computed, "g"));
        m.record_batch(spans.flatten(), Instant::now());
        assert_eq!(m.recorded().slow_captured, SLOW_SLOTS as u64 + 10);
        // Oldest surviving ticket is 10; newest is SLOW_SLOTS + 9.
        let seqs = slow_seqs(&m);
        assert_eq!(seqs, (10..SLOW_SLOTS as u64 + 10).collect::<Vec<u64>>());
    }

    #[test]
    fn slow_ring_drops_nothing_under_concurrent_writers() {
        // Eight writers lap the 64-slot ring ~60 times. Every push must
        // be counted and the survivors must be exactly the last 64
        // tickets, in order — a lapped writer loses nothing.
        const THREADS: u64 = 8;
        const PUSHES: u64 = 500;
        let m = Metrics::new(0); // slow_ms=0: every record reaches the ring
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..PUSHES {
                        let span =
                            Span::fast(Some(Instant::now()), Op::Mis2, Outcome::RespHit, "g");
                        m.record_batch(span, Instant::now());
                    }
                });
            }
        });
        assert_eq!(m.recorded().slow_captured, THREADS * PUSHES);
        let first = THREADS * PUSHES - SLOW_SLOTS as u64;
        assert_eq!(
            slow_seqs(&m),
            (first..THREADS * PUSHES).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn record_routes_outcomes_and_stages() {
        let m = Metrics::new(0); // slow_ms=0: capture everything
        let t0 = Instant::now();
        let mut span = Span::start(Some(t0), Op::Mis2, "af_shell7").unwrap();
        let stamps = span.attach_job();
        stamps.stamp_enqueued();
        stamps.stamp_start();
        stamps.stamp_end();
        m.record_batch([span], Instant::now() + Duration::from_millis(1));
        assert_eq!(m.requests_total(), 1);
        assert_eq!(
            m.recorded().latency[Op::Mis2 as usize][Outcome::Computed as usize].count(),
            1
        );
        for stage in STAGES {
            assert_eq!(m.recorded().stages[stage as usize].count(), 1, "{stage:?}");
        }
        assert_eq!(m.recorded().slow_captured, 1);

        // An inline resp-hit records its latency total only — the stage
        // histograms are the scheduled requests' decomposition, and an
        // inline answer has no stages worth a clock read. It still
        // reaches the slow ring.
        let span = Span::fast(
            Some(Instant::now()),
            Op::Mis2,
            Outcome::RespHit,
            "af_shell7",
        );
        m.record_batch(span, Instant::now());
        for stage in STAGES {
            assert_eq!(m.recorded().stages[stage as usize].count(), 1, "{stage:?}");
        }
        assert_eq!(
            m.recorded().latency[Op::Mis2 as usize][Outcome::RespHit as usize].count(),
            1
        );
        assert_eq!(m.requests_total(), 2);
        assert_eq!(m.recorded().slow_captured, 2);
        let hit = *m.recorded().slow.back().unwrap();
        assert_eq!((hit.parse_ns, hit.queue_ns, hit.run_ns), (0, 0, 0));
        assert_eq!(hit.write_ns, hit.total_ns);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::disabled(0);
        assert!(!m.enabled());
        let span = Span::start(Some(Instant::now()), Op::Mis2, "g");
        m.record_batch(span, Instant::now());
        assert_eq!(m.requests_total(), 0);
        assert_eq!(m.recorded().slow_captured, 0);
    }

    #[test]
    fn render_parse_round_trip() {
        let m = Metrics::new(0);
        let span = Span::start(Some(Instant::now()), Op::Solve, "tmt_sym");
        m.record_batch(span, Instant::now());
        let text = m.render(&[("mis2_cache_hits_total", 7)]);
        let exp = parse_exposition(&text).unwrap();
        assert_eq!(exp.schema, SCHEMA);
        assert_eq!(exp.value("mis2_requests_total"), Some(1));
        assert_eq!(exp.value("mis2_cache_hits_total"), Some(7));
        let count = exp
            .samples
            .iter()
            .find(|s| {
                s.name == "mis2_request_latency_ns_count"
                    && s.label("op") == Some("solve")
                    && s.label("outcome") == Some("computed")
            })
            .unwrap();
        assert_eq!(count.value, 1);
        let bucket_sum: u64 = exp
            .samples
            .iter()
            .filter(|s| {
                s.name == "mis2_request_latency_ns_bucket" && s.label("op") == Some("solve")
            })
            .map(|s| s.value)
            .sum();
        assert_eq!(bucket_sum, count.value);
        let slow = exp
            .samples
            .iter()
            .find(|s| s.name == "mis2_slow_request")
            .unwrap();
        assert_eq!(slow.label("key"), Some("tmt_sym"));
        assert_eq!(slow.label("shard"), Some("0"));
        assert_eq!(slow.label("probe_ns"), None);
    }

    #[test]
    fn label_escapes_round_trip() {
        let m = Metrics::new(0);
        let span = Span::start(Some(Instant::now()), Op::Mis2, "we\"ird\\key");
        m.record_batch(span, Instant::now());
        let exp = parse_exposition(&m.render(&[])).unwrap();
        let slow = exp
            .samples
            .iter()
            .find(|s| s.name == "mis2_slow_request")
            .unwrap();
        assert_eq!(slow.label("key"), Some("we\"ird\\key"));
    }

    #[test]
    fn merge_sums_series_and_mins_uptime_and_threshold() {
        let mk = |uptime: u64, requests: u64, b0: u64, slow_ms: u64| {
            Some(
                parse_exposition(&format!(
                    "# mis2svc metrics schema 2\nmis2_uptime_seconds {uptime}\n\
                     mis2_requests_total {requests}\n\
                     mis2_slow_threshold_ms {slow_ms}\n\
                     mis2_request_latency_ns_bucket{{op=\"mis2\",outcome=\"computed\",le=\"1000\"}} {b0}\n\
                     mis2_slow_request{{seq=\"0\",op=\"mis2\",outcome=\"computed\",key=\"g\",shard=\"0\",\
                     total_ns=\"9\",parse_ns=\"1\",queue_ns=\"2\",run_ns=\"3\",\
                     write_ns=\"3\"}} 1\n"
                ))
                .unwrap(),
            )
        };
        let merged = merge_expositions(&[mk(100, 5, 2, 500), None, mk(40, 7, 3, 250)]);
        // The merge renders to text the parser reads back unchanged.
        let exp = parse_exposition(&merged.render()).unwrap();
        assert_eq!(exp.samples, merged.samples);
        assert_eq!(exp.value("mis2_uptime_seconds"), Some(40));
        assert_eq!(exp.value("mis2_slow_threshold_ms"), Some(250));
        assert_eq!(exp.value("mis2_requests_total"), Some(12));
        assert_eq!(exp.value("mis2_shards"), Some(3));
        assert_eq!(exp.value("mis2_shards_up"), Some(2));
        let bucket = exp
            .samples
            .iter()
            .find(|s| s.name == "mis2_request_latency_ns_bucket")
            .unwrap();
        assert_eq!(bucket.value, 5);
        let shards: Vec<_> = exp
            .samples
            .iter()
            .filter(|s| s.name == "mis2_slow_request")
            .map(|s| s.label("shard").unwrap().to_string())
            .collect();
        assert_eq!(shards, ["0", "2"]);
    }

    #[test]
    fn merge_of_all_dead_shards_is_still_well_formed() {
        let merged = merge_expositions(&[None, None]);
        let exp = parse_exposition(&merged.render()).unwrap();
        assert_eq!(exp.samples.len(), 2, "{exp:?}");
        assert_eq!(exp.value("mis2_shards"), Some(2));
        assert_eq!(exp.value("mis2_shards_up"), Some(0));
    }

    #[test]
    fn body_escape_round_trips() {
        let body = "# mis2svc metrics schema 2\nkey \\ with\nnewlines\n";
        let wire = escape_body(body);
        assert!(!wire.contains('\n'));
        assert_eq!(unescape_body(&wire), body);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 0.50), 50);
        assert_eq!(percentile_ns(&v, 0.95), 95);
        assert_eq!(percentile_ns(&v, 0.99), 99);
        assert_eq!(percentile_ns(&v, 1.0), 100);
        assert_eq!(percentile_ns(&[], 0.5), 0);
        assert_eq!(percentile_ns(&[42], 0.99), 42);
    }
}
