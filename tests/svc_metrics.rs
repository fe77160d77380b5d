//! End-to-end tests of the observability layer: the `METRICS` exposition
//! a live server emits must satisfy the stage invariants the span
//! plumbing promises, and a 3-shard cluster's merged exposition must
//! stay self-consistent (summed `_count` totals equal to the summed
//! `mis2_requests_total` — the same counter `STATS requests=` reads).
//!
//! The stage invariants are checked on both I/O backends.

use mis2::svc::{
    client::{Client, V3Client},
    metrics::{self, Exposition},
    IoBackend, RouterConfig, ServerConfig, ServerHandle,
};
use mis2_graph::Scale;
use std::time::Duration;

/// Fetch and parse the exposition over a throwaway v1 connection,
/// polling until `mis2_requests_total` reaches `want_requests` (spans
/// are recorded *after* the response bytes hit the socket, so a scrape
/// races the writer's bookkeeping by a hair). The headline identity
/// `sum(_count) == requests_total` needs no polling: the render derives
/// the total from the same histogram snapshots it emits.
fn scrape(addr: std::net::SocketAddr, want_requests: u64) -> Exposition {
    let mut last = Exposition::default();
    for _ in 0..200 {
        let mut c = Client::connect(addr).unwrap();
        let raw = c.request("METRICS").unwrap();
        let body = raw.strip_prefix("OK METRICS ").expect(&raw);
        last = metrics::parse_exposition(&metrics::unescape_body(body)).unwrap();
        let _ = c.quit();
        let total = last.value("mis2_requests_total").unwrap_or(0);
        if total >= want_requests {
            return last;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "no self-consistent snapshot with requests_total >= {want_requests}: {:?}",
        last.value("mis2_requests_total")
    );
}

/// Sum of every `_count` sample of the request-latency histogram family.
fn latency_count_total(exp: &Exposition) -> u64 {
    exp.samples
        .iter()
        .filter(|s| s.name == "mis2_request_latency_ns_count")
        .map(|s| s.value)
        .sum()
}

/// The `_count` of one latency series, 0 if the series never recorded.
fn latency_count(exp: &Exposition, op: &str, outcome: &str) -> u64 {
    exp.samples
        .iter()
        .filter(|s| {
            s.name == "mis2_request_latency_ns_count"
                && s.label("op") == Some(op)
                && s.label("outcome") == Some(outcome)
        })
        .map(|s| s.value)
        .sum()
}

/// The `_count` of one stage histogram, 0 if the stage never recorded.
fn stage_count(exp: &Exposition, stage: &str) -> u64 {
    exp.samples
        .iter()
        .filter(|s| s.name == "mis2_stage_ns_count" && s.label("stage") == Some(stage))
        .map(|s| s.value)
        .sum()
}

/// Parse one numeric label off a `mis2_slow_request` sample.
fn slow_ns(s: &mis2::svc::metrics::Sample, key: &str) -> u64 {
    s.label(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("slow entry without {key}: {s:?}"))
}

#[test]
fn stage_invariants_hold_on_a_live_server() {
    let handle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        slow_ms: 0, // capture every request into the slow ring
        ..Default::default()
    })
    .unwrap();
    // One computed request per op, then repeats of the MIS2 over the
    // same v3 connection so the interned response cache gets exercised.
    let lines = [
        "MIS2 ecology2",
        "COARSEN ecology2 2",
        "SOLVE ecology2 cg",
        "MIS2 ecology2",
        "MIS2 ecology2",
        "MIS2 ecology2",
    ];
    let mut v3 = V3Client::connect(handle.addr(), 1).unwrap();
    for r in v3.request_many(&lines).unwrap() {
        assert!(r.starts_with("OK "), "{r}");
    }
    let _ = v3.quit();
    let exp = scrape(handle.addr(), lines.len() as u64);

    // The headline identity: the requests counter and the histogram
    // counts are incremented at the same place, so they must agree.
    assert_eq!(
        Some(latency_count_total(&exp)),
        exp.value("mis2_requests_total"),
        "{exp:?}"
    );
    // 3 computed compute-ops; the 3 repeats answered from a cache.
    assert_eq!(latency_count(&exp, "mis2", "computed"), 1);
    assert_eq!(latency_count(&exp, "coarsen", "computed"), 1);
    assert_eq!(latency_count(&exp, "solve", "computed"), 1);
    assert_eq!(latency_count(&exp, "mis2", "resp_hit"), 3);
    // Every interned-bytes answer is a `resp_hit`, byte-identical repeat
    // or not: no series carries the retired `memo_hit` outcome, and on
    // this v3-only traffic the exposition and the registry count the
    // same events.
    assert!(
        exp.samples
            .iter()
            .all(|s| s.label("outcome") != Some("memo_hit")),
        "{exp:?}"
    );
    let resp_hits: u64 = metrics::OPS
        .iter()
        .map(|op| latency_count(&exp, op.label(), "resp_hit"))
        .sum();
    assert_eq!(resp_hits, handle.registry().stats().resp_hits);
    // Cache hits never touch the scheduler: the stage histograms are
    // the *scheduled* requests' decomposition, so every stage counts
    // exactly the 3 computed requests — inline answers record their
    // latency total only. The cache probe is part of `parse`; no
    // series of its own survives.
    for stage in metrics::STAGES {
        assert_eq!(stage_count(&exp, stage.label()), 3, "{stage:?}: {exp:?}");
    }
    assert!(
        exp.samples
            .iter()
            .all(|s| s.label("stage") != Some("probe")),
        "{exp:?}"
    );

    // Per-request invariants, via the slow ring (slow-ms 0 captured all).
    let slow: Vec<_> = exp
        .samples
        .iter()
        .filter(|s| s.name == "mis2_slow_request")
        .collect();
    assert!(!slow.is_empty(), "slow ring empty under --slow-ms 0");
    let mut saw_computed = false;
    for e in &slow {
        let total = slow_ns(e, "total_ns");
        assert_eq!(e.label("probe_ns"), None, "{e:?}");
        let stages = slow_ns(e, "parse_ns")
            + slow_ns(e, "queue_ns")
            + slow_ns(e, "run_ns")
            + slow_ns(e, "write_ns");
        // Stages never account for more time than the request took:
        // enqueue happens after parse, the job runs between
        // enqueue and write — the ordering job_start <= job_end <=
        // write_retired shows up here as additivity.
        assert!(stages <= total, "stage sum {stages} > total {total}: {e:?}");
        match e.label("outcome") {
            Some("resp_hit") => {
                assert_eq!(slow_ns(e, "queue_ns"), 0, "cache hit queued: {e:?}");
                assert_eq!(slow_ns(e, "run_ns"), 0, "cache hit ran a job: {e:?}");
            }
            Some("computed") if e.label("op") == Some("mis2") => {
                saw_computed = true;
                assert!(slow_ns(e, "run_ns") > 0, "computed with zero run: {e:?}");
            }
            _ => {}
        }
    }
    assert!(saw_computed, "no computed mis2 slow entry: {slow:?}");

    // More hits move the resp_hit latency series and no stage at all.
    let stage_totals = |exp: &Exposition| -> Vec<(u64, u64)> {
        metrics::STAGES
            .iter()
            .map(|stage| {
                let sum = exp
                    .samples
                    .iter()
                    .find(|s| {
                        s.name == "mis2_stage_ns_sum" && s.label("stage") == Some(stage.label())
                    })
                    .map_or(0, |s| s.value);
                (sum, stage_count(exp, stage.label()))
            })
            .collect()
    };
    let hits = ["MIS2 ecology2", "COARSEN ecology2 2", "SOLVE ecology2 cg"].repeat(4);
    let mut v3 = V3Client::connect(handle.addr(), 8).unwrap();
    for r in v3.request_many(&hits).unwrap() {
        assert!(r.starts_with("OK "), "{r}");
    }
    let _ = v3.quit();
    let resp_hits = |exp: &Exposition| -> u64 {
        metrics::OPS
            .iter()
            .map(|op| latency_count(exp, op.label(), "resp_hit"))
            .sum()
    };
    let want = 3 + hits.len() as u64;
    let mut after = scrape(handle.addr(), 0);
    for _ in 0..200 {
        if resp_hits(&after) >= want {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        after = scrape(handle.addr(), 0);
    }
    assert_eq!(resp_hits(&after), want, "{after:?}");
    assert_eq!(stage_totals(&after), stage_totals(&exp), "{after:?}");
    handle.shutdown();
}

#[test]
fn interned_answers_are_resp_hits_on_v1_and_v3_alike() {
    // The same repeats on one v1 and one v3 connection: every answer from
    // interned bytes is an inline `resp_hit` on either framing, and only
    // the two first computes ever reach the scheduler.
    let lines = [
        "MIS2 ecology2",
        "COARSEN ecology2 2",
        "MIS2 ecology2",
        "COARSEN ecology2 2",
    ];
    for backend in [IoBackend::Epoll, IoBackend::Threads] {
        let handle = mis2::svc::serve(ServerConfig {
            threads: 2,
            scale: Scale::Tiny,
            io_backend: backend,
            ..Default::default()
        })
        .unwrap();
        let mut v1 = Client::connect(handle.addr()).unwrap();
        for line in lines {
            let r = v1.request(line).unwrap();
            assert!(r.starts_with("OK "), "{r}");
        }
        v1.quit().unwrap();
        let mut v3 = V3Client::connect(handle.addr(), 4).unwrap();
        for r in v3.request_many(&lines).unwrap() {
            assert!(r.starts_with("OK "), "{r}");
        }
        v3.quit().unwrap();
        // v1: four requests and QUIT; v3: the hello, four requests, QUIT.
        let exp = scrape(handle.addr(), 11);
        let resp_hits: u64 = metrics::OPS
            .iter()
            .map(|op| latency_count(&exp, op.label(), "resp_hit"))
            .sum();
        assert_eq!(
            Some(resp_hits),
            exp.value("mis2_resp_hits_total"),
            "{backend}: {exp:?}"
        );
        let jobs = exp.value("mis2_jobs_total");
        assert_eq!(jobs, Some(2), "{backend}: {exp:?}");
        for stage in metrics::STAGES {
            let count = stage_count(&exp, stage.label());
            assert_eq!(Some(count), jobs, "{backend} {stage:?}: {exp:?}");
        }
        handle.shutdown();
    }
}

#[test]
fn requests_total_matches_the_counts_while_batches_retire() {
    // Four threads-driver connections, each with its own writer thread
    // retiring batches, keep recording while the main thread scrapes: every
    // scrape must still be one snapshot.
    let handle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        io_backend: IoBackend::Threads,
        ..Default::default()
    })
    .unwrap();
    let hot = ["MIS2 ecology2", "MIS2 thermal2"];
    let mut warm = V3Client::connect(handle.addr(), 2).unwrap();
    warm.request_many(&hot).unwrap();
    let _ = warm.quit();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut v3 = V3Client::connect(handle.addr(), 16).unwrap();
                    let burst = hot.repeat(16);
                    for _ in 0..50 {
                        for r in v3.request_many(&burst).unwrap() {
                            assert!(r.starts_with("OK "), "{r}");
                        }
                    }
                    let _ = v3.quit();
                })
            })
            .collect();
        // The clients run a fixed amount of work, so a failed assertion
        // here cannot leave the scope waiting on them.
        let mut scrapes = 0;
        while scrapes < 20 || !clients.iter().all(|c| c.is_finished()) {
            let exp = scrape(handle.addr(), 0);
            assert_eq!(
                Some(latency_count_total(&exp)),
                exp.value("mis2_requests_total"),
                "{exp:?}"
            );
            scrapes += 1;
        }
    });
    handle.shutdown();
}

#[test]
fn merged_cluster_exposition_is_self_consistent() {
    let handles: Vec<ServerHandle> = (0..3)
        .map(|_| {
            mis2::svc::serve(ServerConfig {
                threads: 2,
                scale: Scale::Tiny,
                slow_ms: 0,
                ..Default::default()
            })
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let router = mis2::svc::route(RouterConfig {
        shards: addrs,
        ..Default::default()
    })
    .unwrap();

    // Spread compute over enough distinct graphs that several shards own
    // at least one key.
    let lines = [
        "MIS2 ecology2",
        "MIS2 parabolic_fem",
        "MIS2 thermal2",
        "MIS2 tmt_sym",
        "MIS2 apache2",
        "COARSEN ecology2 2",
        "SOLVE tmt_sym gmres",
    ];
    let mut v3 = V3Client::connect(router.addr(), 4).unwrap();
    for r in v3.request_many(&lines).unwrap() {
        assert!(r.starts_with("OK "), "{r}");
    }
    let _ = v3.quit();
    // Let every shard retire its writes before the scrape.
    std::thread::sleep(Duration::from_millis(50));

    let mut c = Client::connect(router.addr()).unwrap();
    let raw = c.request("METRICS").unwrap();
    let body = raw.strip_prefix("OK METRICS ").expect(&raw);
    let exp = metrics::parse_exposition(&metrics::unescape_body(body)).unwrap();
    let _ = c.quit();

    assert_eq!(exp.value("mis2_shards"), Some(3), "{raw}");
    assert_eq!(exp.value("mis2_shards_up"), Some(3), "{raw}");
    // The acceptance identity: the merged `_count` totals equal the
    // summed requests counter — the very counter STATS `requests=`
    // reads on each shard.
    assert_eq!(
        Some(latency_count_total(&exp)),
        exp.value("mis2_requests_total"),
        "{body}"
    );
    assert!(
        exp.value("mis2_requests_total").unwrap() >= lines.len() as u64,
        "{body}"
    );
    // Slow entries pass through with the shard label rewritten to the
    // source shard's cluster index; with keys spread over the ring, more
    // than one shard must appear.
    let shards_seen: std::collections::BTreeSet<&str> = exp
        .samples
        .iter()
        .filter(|s| s.name == "mis2_slow_request")
        .filter_map(|s| s.label("shard"))
        .collect();
    assert!(
        shards_seen.len() > 1,
        "slow entries from one shard only: {shards_seen:?}"
    );
    // And the cluster STATS line reports the same counter family: its
    // requests= can only have grown since the scrape (the scrape itself
    // is a request on every shard).
    let stats = Client::connect(router.addr())
        .unwrap()
        .request("STATS")
        .unwrap();
    let requests: u64 = stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix("requests="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no requests= in {stats}"));
    assert!(
        requests >= exp.value("mis2_requests_total").unwrap(),
        "{stats}"
    );
    // Min-over-shards uptime: never larger than any shard's own uptime
    // plus the test's runtime allowance.
    assert!(stats.contains(" uptime_s="), "{stats}");

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}
