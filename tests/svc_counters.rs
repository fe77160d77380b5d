//! One counter table, two renderings: every numeric `STATS` key reads
//! the value its `METRICS` series carries ([`COUNTERS`]), on a server
//! and through the router, whose two cluster bodies come from one merge
//! of the shards' expositions.

use mis2::svc::{
    client::Client,
    metrics::{self, Exposition},
    server::COUNTERS,
    RouterConfig, ServerConfig, ServerHandle,
};
use mis2_graph::Scale;
use std::net::SocketAddr;

fn server() -> ServerHandle {
    mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        ..Default::default()
    })
    .unwrap()
}

/// The value of `key=` on a `STATS` line.
fn stat(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {line}"))
}

fn scrape(c: &mut Client) -> Exposition {
    let raw = c.request("METRICS").unwrap();
    let body = raw.strip_prefix("OK METRICS ").expect(&raw);
    metrics::parse_exposition(&metrics::unescape_body(body)).unwrap()
}

fn router_scrape(addr: SocketAddr) -> Exposition {
    let mut c = Client::connect(addr).unwrap();
    let exp = scrape(&mut c);
    let _ = c.quit();
    exp
}

#[test]
fn every_stats_key_reads_its_metrics_series() {
    let h = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        mem_budget: 64 << 20,
        max_inflight: 16,
        ..Default::default()
    })
    .unwrap();
    let mut c = Client::connect(h.addr()).unwrap();
    for req in [
        "MIS2 ecology2",
        "COARSEN ecology2 2",
        "SOLVE ecology2 cg",
        "MIS2 ecology2",
    ] {
        assert!(c.request(req).unwrap().starts_with("OK "), "{req}");
    }
    // STATS, METRICS, STATS on one connection: the scrape in the middle
    // must read every counter between the two lines around it, and
    // exactly what they read for every counter nothing moves between
    // scrapes. What does move: the clock, the request count, and the
    // bytes and write batches of the scrapes' own responses.
    let before = c.request("STATS").unwrap();
    let exp = scrape(&mut c);
    let after = c.request("STATS").unwrap();
    let moving = ["uptime_s", "requests", "bytes_tx", "writev_batches"];
    for (key, series) in COUNTERS {
        let (a, b) = (stat(&before, key), stat(&after, key));
        let m = exp.value(series).unwrap_or_else(|| panic!("no {series}"));
        assert!(a <= m && m <= b, "{key}={a}..{b} but {series} {m}");
        if !moving.contains(&key) {
            assert_eq!(a, b, "{key} moved between scrapes: {before} / {after}");
        }
    }
    // The traffic shows: this is not an agreement of zeros.
    assert_eq!(stat(&before, "misses"), 3, "{before}");
    assert_eq!(stat(&before, "mem_budget"), 64 << 20, "{before}");
    assert_eq!(stat(&before, "max_inflight"), 16, "{before}");
    assert_eq!(stat(&before, "conns"), 1, "{before}");
    // Both bodies leave the scrape's own window slot out.
    assert_eq!(exp.value("mis2_inflight"), Some(0));
    let _ = c.quit();
    h.shutdown();
}

#[test]
fn cluster_slow_threshold_is_the_minimum_over_live_shards() {
    let mut shards: Vec<ServerHandle> = (0..3).map(|_| server()).collect();
    let router = mis2::svc::route(RouterConfig {
        shards: shards.iter().map(|h| h.addr().to_string()).collect(),
        ..Default::default()
    })
    .unwrap();
    let exp = router_scrape(router.addr());
    assert_eq!(exp.value("mis2_shards_up"), Some(3));
    assert_eq!(exp.value("mis2_slow_threshold_ms"), Some(500));
    shards.remove(1).kill();
    let exp = router_scrape(router.addr());
    assert_eq!(exp.value("mis2_shards_up"), Some(2));
    assert_eq!(exp.value("mis2_slow_threshold_ms"), Some(500));
    router.shutdown();
    for h in shards {
        h.shutdown();
    }
}

#[test]
fn cluster_stats_with_every_shard_dead_prints_every_key_as_zero() {
    let shards: Vec<ServerHandle> = (0..3).map(|_| server()).collect();
    let router = mis2::svc::route(RouterConfig {
        shards: shards.iter().map(|h| h.addr().to_string()).collect(),
        ..Default::default()
    })
    .unwrap();
    for h in shards {
        h.kill();
    }
    let mut c = Client::connect(router.addr()).unwrap();
    let line = c.request("STATS").unwrap();
    let _ = c.quit();
    let mut want: String = COUNTERS.iter().map(|(k, _)| format!(" {k}=0")).collect();
    want.insert_str(0, "OK STATS");
    want.push_str(" shards=3 shards_up=0 shard_bytes=0,0,0 shard_evictions=0,0,0");
    assert_eq!(line, want);
    router.shutdown();
}
