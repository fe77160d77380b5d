//! Property tests for the metrics histograms and exposition merge,
//! driven by the repo's deterministic splitmix64 case generator (the
//! container builds offline, so the `proptest` crate is replaced by
//! explicit seeded sampling — same properties, reproducible cases):
//!
//! * every recorded duration lands in exactly the bucket whose half-open
//!   range contains it, and the top bucket absorbs everything beyond the
//!   last boundary;
//! * a histogram's per-bucket counts always sum to its `_count`, and its
//!   `_sum` is the exact sum of the recorded nanoseconds;
//! * `HistoSnap::merge` is commutative and associative bucket-wise —
//!   the property that makes cluster aggregation order-independent;
//! * render → parse is the identity on the sample set, so the router can
//!   merge what the server emitted;
//! * how spans are grouped into `record_batch` calls never shows in the
//!   exposition.

use mis2_prim::hash::splitmix64;
use mis2_svc::metrics::{self, bucket_bound, bucket_of, HistoSnap, Metrics, NBUCKETS};

/// Deterministic stream of pseudo-random u64s for one test case.
struct Rng(u64);

impl Rng {
    fn new(test: u64, case: u64) -> Self {
        Rng(splitmix64(test.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// A duration in nanoseconds, biased across the full bucket range:
    /// sub-microsecond, mid-range, boundary-adjacent, and beyond-the-top
    /// values all occur.
    fn ns(&mut self) -> u64 {
        match self.next() % 4 {
            0 => self.next() % 2_000,     // bucket 0 and its edge
            1 => self.next() % 1_000_000, // µs range
            2 => {
                // Exactly on or one off a boundary.
                let i = (self.next() % NBUCKETS as u64) as usize;
                bucket_bound(i).saturating_add(self.next() % 2)
            }
            _ => self.next() % 100_000_000_000, // up to 100 s
        }
    }
}

const CASES: u64 = 64;

#[test]
fn every_duration_lands_in_its_half_open_bucket() {
    for case in 0..CASES {
        let mut rng = Rng::new(201, case);
        for _ in 0..256 {
            let ns = rng.ns();
            let b = bucket_of(ns);
            assert!(b < NBUCKETS, "ns={ns} bucket={b}");
            if b < NBUCKETS - 1 {
                assert!(ns <= bucket_bound(b), "ns={ns} above bound of bucket {b}");
            }
            if b > 0 {
                assert!(
                    ns > bucket_bound(b - 1),
                    "ns={ns} should not fit bucket {}",
                    b - 1
                );
            }
        }
    }
}

#[test]
fn exact_boundaries_belong_to_the_lower_bucket() {
    // The contract the exposition's `le` labels promise: bucket i counts
    // durations in (bound(i-1), bound(i)] — inclusive upper edge.
    for i in 0..NBUCKETS - 1 {
        assert_eq!(bucket_of(bucket_bound(i)), i, "bound {i} inclusive");
        assert_eq!(
            bucket_of(bucket_bound(i) + 1),
            i + 1,
            "bound {i} exclusive +1"
        );
    }
    assert_eq!(bucket_of(0), 0);
    assert_eq!(
        bucket_of(u64::MAX),
        NBUCKETS - 1,
        "top bucket absorbs overflow"
    );
}

#[test]
fn bucket_counts_sum_to_count_and_sum_is_exact() {
    for case in 0..CASES {
        let mut rng = Rng::new(202, case);
        let mut h = HistoSnap::default();
        let n = 1 + rng.next() % 512;
        let mut expect_sum = 0u64;
        for _ in 0..n {
            let ns = rng.ns();
            expect_sum = expect_sum.wrapping_add(ns);
            h.record(ns);
        }
        let buckets: u64 = h.buckets.iter().sum();
        assert_eq!(buckets, n, "case {case}");
        assert_eq!(h.count(), n, "case {case}");
        assert_eq!(h.sum, expect_sum, "case {case}");
    }
}

/// A fresh random histogram.
fn random_snap(rng: &mut Rng) -> HistoSnap {
    let mut h = HistoSnap::default();
    for _ in 0..rng.next() % 128 {
        h.record(rng.ns());
    }
    h
}

fn merged(a: &HistoSnap, b: &HistoSnap) -> HistoSnap {
    let mut m = *a;
    m.merge(b);
    m
}

#[test]
fn merge_is_commutative_and_associative() {
    for case in 0..CASES {
        let mut rng = Rng::new(203, case);
        let (a, b, c) = (
            random_snap(&mut rng),
            random_snap(&mut rng),
            random_snap(&mut rng),
        );
        // Commutative: a ∪ b == b ∪ a.
        assert_eq!(
            merged(&a, &b).buckets,
            merged(&b, &a).buckets,
            "case {case}"
        );
        assert_eq!(merged(&a, &b).sum, merged(&b, &a).sum, "case {case}");
        // Associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        assert_eq!(left.buckets, right.buckets, "case {case}");
        assert_eq!(left.sum, right.sum, "case {case}");
        // The merge preserves total mass.
        assert_eq!(
            left.count(),
            a.count() + b.count() + c.count(),
            "case {case}"
        );
    }
}

#[test]
fn merge_with_empty_is_identity() {
    for case in 0..CASES {
        let mut rng = Rng::new(204, case);
        let a = random_snap(&mut rng);
        let empty = HistoSnap::default();
        let m = merged(&a, &empty);
        assert_eq!(m.buckets, a.buckets, "case {case}");
        assert_eq!(m.sum, a.sum, "case {case}");
    }
}

#[test]
fn render_parse_round_trips_under_random_load() {
    use std::time::{Duration, Instant};
    for case in 0..8 {
        let mut rng = Rng::new(205, case);
        let mx = Metrics::new(0); // slow-ms 0: every request enters the ring
        let t0 = Instant::now();
        for _ in 0..64 {
            let op = metrics::OPS[(rng.next() % metrics::NOPS as u64) as usize];
            let outcome = metrics::OUTCOMES[(rng.next() % metrics::NOUTCOMES as u64) as usize];
            let mut span = metrics::Span::start(Some(t0), op, "graph-x").unwrap();
            if rng.next() % 2 == 0 {
                span.outcome = outcome;
            }
            mx.record_batch([span], t0 + Duration::from_nanos(rng.ns()));
        }
        let text = mx.render(&[("extra_gauge", rng.next() % 1000)]);
        let exp =
            metrics::parse_exposition(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(exp.schema, metrics::SCHEMA, "case {case}");
        assert_eq!(exp.value("mis2_requests_total"), Some(64), "case {case}");
        // The escaped wire form is lossless too.
        let wire = metrics::escape_body(&text);
        assert!(!wire.contains('\n'), "case {case}: body must be one line");
        assert_eq!(metrics::unescape_body(&wire), text, "case {case}");
        // And a self-merge doubles every counter.
        let twice = metrics::merge_expositions(&[Some(exp.clone()), Some(exp)]);
        let m = metrics::parse_exposition(&twice.render()).unwrap();
        assert_eq!(m.value("mis2_requests_total"), Some(128), "case {case}");
    }
}

#[test]
fn one_batch_renders_what_single_span_batches_render() {
    use std::time::{Duration, Instant};
    for case in 0..8 {
        let mut rng = Rng::new(206, case);
        // Every span starts within 4 ms before `retired`; slow-ms 1 sends
        // about three in four of them to the ring.
        let base = Instant::now();
        let retired = base + Duration::from_millis(4);
        let n = if case == 0 { 150 } else { 1 + rng.next() % 150 };
        let spans: Vec<metrics::Span> = (0..n)
            .map(|i| {
                let started = Some(base + Duration::from_nanos(rng.next() % 4_000_000));
                let op = metrics::OPS[(rng.next() % metrics::NOPS as u64) as usize];
                let key = format!("graph-{i}");
                if rng.next() % 2 == 0 {
                    let outcome =
                        metrics::OUTCOMES[(rng.next() % metrics::NOUTCOMES as u64) as usize];
                    metrics::Span::fast(started, op, outcome, &key).unwrap()
                } else {
                    let mut span = metrics::Span::start(started, op, &key).unwrap();
                    let job = span.attach_job();
                    job.stamp_enqueued();
                    job.stamp_start();
                    job.stamp_end();
                    span
                }
            })
            .collect();
        let batched = Metrics::new(1);
        batched.record_batch(spans.clone(), retired);
        let single = Metrics::new(1);
        for span in spans {
            single.record_batch([span], retired);
        }
        // Uptime is the one line that depends on when the render ran.
        let render = |m: &Metrics| {
            let text = m.render(&[]);
            let kept: Vec<&str> = text
                .lines()
                .filter(|l| !l.starts_with("mis2_uptime_seconds "))
                .collect();
            kept.join("\n")
        };
        let text = render(&batched);
        assert_eq!(text, render(&single), "case {case}");
        let exp = metrics::parse_exposition(&text).unwrap();
        assert_eq!(exp.value("mis2_requests_total"), Some(n), "case {case}");
        let captured = exp.value("mis2_slow_captured_total").unwrap();
        let ring = exp
            .samples
            .iter()
            .filter(|s| s.name == "mis2_slow_request")
            .count() as u64;
        assert_eq!(
            ring,
            captured.min(metrics::SLOW_SLOTS as u64),
            "case {case}"
        );
        if case == 0 {
            assert!(captured > metrics::SLOW_SLOTS as u64, "the ring must wrap");
        }
    }
}
