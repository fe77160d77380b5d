//! Byte-for-byte pins of the `METRICS` exposition text: what a server's
//! [`Metrics`] renders after a fixed batch of spans (every op × outcome,
//! every stage, one slow-ring entry whose key needs escaping, extra
//! counters with one naming a built-in), and what the router renders from
//! [`metrics::merge_expositions`] over two such bodies and a dead shard.
//!
//! The spans carry fixed latencies (arrival and retire stamps a fixed
//! distance apart, job stamps left at zero), so the only clock-derived
//! line is `mis2_uptime_seconds`; [`render`] reads it the same before and
//! after the render and writes it as 0. The goldens live in
//! `tests/golden/`. Regenerate only for an intended change of the
//! exposition:
//! `cargo test -q --test svc_exposition_golden -- --ignored print_goldens`.

use mis2::svc::metrics::{self, KeyBuf, Metrics, Op, Outcome, Span, OPS, OUTCOMES};
use std::time::{Duration, Instant};

const SERVER_GOLDEN: &str = include_str!("golden/metrics_exposition.txt");
const MERGED_GOLDEN: &str = include_str!("golden/merged_exposition.txt");

/// Retire one span `total_ns` after its arrival stamp. A `Computed`
/// span of a compute op carries job stamps (so every stage histogram
/// records it) and a parse stamp.
fn feed(m: &Metrics, op: Op, outcome: Outcome, key: &str, total_ns: u64) {
    let t0 = Instant::now();
    let mut span = Span {
        op,
        outcome,
        key: KeyBuf::new(key),
        started: t0,
        parse_ns: 0,
        job: None,
    };
    if outcome == Outcome::Computed && (op as usize) < 3 {
        span.parse_ns = (total_ns / 4) as u32;
        span.attach_job();
    }
    m.record_batch([span], t0 + Duration::from_nanos(total_ns));
}

/// A server's metrics after every op × outcome, `reps` times each, at
/// latencies spread over fourteen buckets, plus one span past `slow_ms`
/// with a key that needs escaping.
fn fed(slow_ms: u64, reps: u64, slow_key: &str) -> Metrics {
    let m = Metrics::new(slow_ms);
    for rep in 0..reps {
        for op in OPS {
            for outcome in OUTCOMES {
                let i = (op as u64) * 3 + outcome as u64 + rep;
                feed(&m, op, outcome, "ecology2", (1000 << (i % 14)) + 7 * i);
            }
        }
    }
    feed(
        &m,
        Op::Coarsen,
        Outcome::Computed,
        slow_key,
        slow_ms * 1_000_000 + 12_345,
    );
    m
}

/// The exposition text with the uptime line read as 0: the render runs
/// again until the uptime it reports is the same before and after.
fn render(m: &Metrics, extra: &[(&str, u64)]) -> String {
    loop {
        let up = m.uptime_s();
        let text = m.render(extra);
        if m.uptime_s() == up {
            let line = format!("\nmis2_uptime_seconds {up}\n");
            assert!(text.contains(&line), "{text}");
            return text.replacen(&line, "\nmis2_uptime_seconds 0\n", 1);
        }
    }
}

fn server_body() -> String {
    let m = fed(5, 1, "we\"ird\\key");
    render(
        &m,
        &[
            ("mis2_cache_hits_total", 7),
            ("mis2_requests_total", 999),
            ("mis2_bytes_tx_total", 12_345),
        ],
    )
}

fn merged_body() -> String {
    let a = server_body();
    let b = render(&fed(3, 2, "a\"b"), &[("mis2_cache_hits_total", 4)]);
    let parsed = [a, b].map(|t| Some(metrics::parse_exposition(&t).unwrap()));
    metrics::merge_expositions(&[parsed[0].clone(), None, parsed[1].clone()]).render()
}

#[test]
fn server_exposition_matches_its_golden() {
    assert_eq!(server_body(), SERVER_GOLDEN);
}

#[test]
fn merged_exposition_matches_its_golden() {
    assert_eq!(merged_body(), MERGED_GOLDEN);
}

#[test]
#[ignore = "prints the goldens; run with --nocapture to regenerate"]
fn print_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("metrics_exposition.txt"), server_body()).unwrap();
    std::fs::write(dir.join("merged_exposition.txt"), merged_body()).unwrap();
    println!("wrote {}", dir.display());
}
