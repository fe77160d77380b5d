//! End-to-end test of the binary v3 wire protocol: concurrent `V3Client`s
//! keep deep windows of binary frames in flight, the server answers cache
//! hits inline with interned response bytes and coalesces completions
//! into vectored writes, and every payload must still be
//! **bitwise-identical** to a direct library call — at pool budgets
//! {1, 8}, pool 1 being the serial path.
//!
//! The "direct" side computes expected payloads through
//! `mis2::svc::ops::execute` on a private registry in this process — the
//! same single definition of request semantics the server uses. A v3
//! frame's payload carries exactly the text after the v1 `OK ` / `ERR `
//! prefix (the status byte replaces the prefix), and `V3Client` renders
//! frames back to v1 lines, so string equality here *is* byte identity
//! of the rendered payloads.

use mis2::svc::{
    client::{Client, V3Client},
    ops,
    proto::Request,
    Registry, ServerConfig,
};
use mis2_graph::Scale;
use std::sync::atomic::Ordering;

/// Six differently-shaped suite graphs (same set as the eviction-churn
/// e2e test).
fn graphs() -> [&'static str; 6] {
    [
        "ecology2",
        "parabolic_fem",
        "thermal2",
        "tmt_sym",
        "apache2",
        "StocF-1465",
    ]
}

/// The 64 requests every client sends: all three compute ops cycled over
/// the six graphs with varying parameters.
fn request_lines() -> Vec<String> {
    (0..64)
        .map(|i| {
            let g = graphs()[i % graphs().len()];
            match (i / graphs().len()) % 4 {
                0 => format!("MIS2 {g}"),
                1 => format!("COARSEN {g} 2"),
                2 => format!("SOLVE {g} cg"),
                _ => format!("COARSEN {g} 3"),
            }
        })
        .collect()
}

/// Expected response payloads via the direct library path.
fn direct_responses(lines: &[String]) -> Vec<String> {
    let reg = Registry::new(Scale::Tiny);
    lines
        .iter()
        .map(|line| ops::execute(&reg, &Request::parse(line).unwrap()))
        .collect()
}

#[test]
fn eight_v3_clients_are_bitwise_identical_to_direct_calls() {
    let lines = request_lines();
    let want = direct_responses(&lines);
    for w in &want {
        assert!(w.starts_with("OK "), "direct call failed: {w}");
    }
    for threads in [1usize, 8] {
        let handle = mis2::svc::serve(ServerConfig {
            threads,
            scale: Scale::Tiny,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr();
        std::thread::scope(|s| {
            for c in 0..8usize {
                let (lines, want) = (&lines, &want);
                s.spawn(move || {
                    // Windows 1, 2, 4, ... 64 across the eight clients, so
                    // every depth from degenerate to full-cap is exercised
                    // concurrently.
                    let window = 1usize << (c.min(6));
                    let mut client = V3Client::connect(addr, window)
                        .unwrap_or_else(|e| panic!("client {c} cannot connect: {e}"));
                    assert_eq!(client.window(), window);
                    let got = client
                        .request_many(lines)
                        .unwrap_or_else(|e| panic!("client {c} (window {window}): {e}"));
                    assert_eq!(got.len(), want.len());
                    for (i, (g, w)) in got.iter().zip(want).enumerate() {
                        assert_eq!(
                            g, w,
                            "client {c} (window {window}) at pool budget {threads}: \
                             v3 response for {:?} differs from the direct library call",
                            lines[i]
                        );
                    }
                    client.quit().unwrap();
                });
            }
        });
        // Window accounting must settle once every client disconnects.
        let svc = handle.svc_stats();
        assert_eq!(
            svc.inflight.load(Ordering::Relaxed),
            0,
            "pool budget {threads}: in-flight gauge must drain to zero"
        );
        // The writer coalesced at least some completions, and moved real
        // bytes: 8 clients x 64 responses can't leave either counter at 0.
        assert!(
            svc.writev_batches.load(Ordering::Relaxed) > 0,
            "pool budget {threads}: no vectored write batches recorded"
        );
        assert!(
            svc.bytes_tx.load(Ordering::Relaxed) > 0,
            "pool budget {threads}: no bytes recorded on the wire"
        );
        // 8 clients x 64 requests over 24 distinct (graph, op) keys: every
        // request touches the artifact cache exactly once (the interned
        // response-bytes fast path counts as a hit), and after the 24 cold
        // renders the rest must have been served from interned bytes.
        let stats = handle.registry().stats();
        assert_eq!(stats.graphs, 6, "pool budget {threads}");
        assert_eq!(stats.artifacts, 24, "pool budget {threads}");
        assert_eq!(stats.resp, 24, "pool budget {threads}");
        assert_eq!(
            stats.hits + stats.misses,
            8 * 64,
            "pool budget {threads}: every request must touch the artifact cache"
        );
        assert!(
            stats.resp_hits > 0,
            "pool budget {threads}: repeated requests must hit interned response bytes"
        );
        assert!(
            stats.resp_hits <= stats.hits,
            "pool budget {threads}: resp_hits is a subset of hits"
        );
        assert_eq!(stats.graph_builds, 6, "pool budget {threads}");
        handle.shutdown();
    }
}

#[test]
fn mixed_v1_v2_and_v3_connections_stay_correct_on_one_server() {
    let lines = request_lines();
    let want = direct_responses(&lines);
    let handle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();
    std::thread::scope(|s| {
        // Three v3 clients pipelining binary frames...
        for c in 0..3 {
            let (lines, want) = (&lines, &want);
            s.spawn(move || {
                let mut client = V3Client::connect(addr, 32).unwrap();
                let got = client.request_many(lines).unwrap();
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g, w, "v3 client {c}");
                }
                client.quit().unwrap();
            });
        }
        // ...and two classic blocking v1 clients, all on one server.
        for c in 0..2 {
            let (lines, want) = (&lines, &want);
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for (line, expect) in lines.iter().zip(want) {
                    let got = client.request(line).unwrap();
                    assert_eq!(&got, expect, "v1 client {c} for {line:?}");
                }
                client.quit().unwrap();
            });
        }
    });
    // Every protocol funnels through the same registry: one interned
    // response entry per distinct key, shared across v1 and v3.
    let stats = handle.registry().stats();
    assert_eq!(stats.artifacts, 24);
    assert_eq!(stats.resp, 24);
    assert_eq!(stats.hits + stats.misses, 5 * 64);
    assert!(stats.resp_hits > 0);
    handle.shutdown();
}

#[test]
fn v3_stats_exposes_response_byte_gauges_over_the_wire() {
    let handle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        max_inflight: 32,
        ..Default::default()
    })
    .unwrap();
    let mut client = V3Client::connect(handle.addr(), 32).unwrap();
    // Same window twice: the first pass renders and interns, the second
    // is all zero-serialization hits.
    let lines: Vec<String> = (0..32)
        .map(|i| format!("COARSEN {} 2", graphs()[i % graphs().len()]))
        .collect();
    for pass in 0..2 {
        let responses = client.request_many(&lines).unwrap();
        assert!(
            responses.iter().all(|r| r.starts_with("OK ")),
            "pass {pass}"
        );
    }
    let stats = client.request("STATS").unwrap();
    let gauge = |name: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix(name).and_then(|v| v.strip_prefix('=')))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name}= in {stats}"))
    };
    assert_eq!(gauge("resp"), 6, "{stats}");
    assert!(gauge("resp_bytes") > 0, "{stats}");
    // Second pass: 32 requests over 6 keys, every one an interned hit.
    assert!(gauge("resp_hits") >= 32, "{stats}");
    assert!(gauge("writev_batches") > 0, "{stats}");
    assert!(gauge("bytes_tx") > 0, "{stats}");
    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn stats_exposes_window_counters_over_the_wire() {
    let handle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        max_inflight: 32,
        ..Default::default()
    })
    .unwrap();
    let mut client = V3Client::connect(handle.addr(), 32).unwrap();
    // Pipeline a window of compute requests, then read STATS afterwards:
    // the peak gauge must reflect the depth the reader actually accepted.
    let lines: Vec<String> = (0..32)
        .map(|i| format!("COARSEN {} 2", graphs()[i % graphs().len()]))
        .collect();
    let responses = client.request_many(&lines).unwrap();
    assert!(responses.iter().all(|r| r.starts_with("OK ")));
    let stats = client.request("STATS").unwrap();
    assert!(stats.contains("max_inflight=32"), "{stats}");
    assert!(
        stats.contains("inflight=0"),
        "idle between batches: {stats}"
    );
    let peak: u64 = stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix("peak_inflight="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no peak_inflight in {stats}"));
    assert!(
        (2..=32).contains(&peak),
        "32 pipelined cold computes must have stacked a real window: {stats}"
    );
    client.quit().unwrap();
    handle.shutdown();
}
