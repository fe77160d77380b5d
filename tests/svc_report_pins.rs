//! Pins of the service's report on itself, as literals: the key sequence
//! of a single server's `STATS` line, the key sequence of a 3-shard
//! router's `STATS` line (topology tail included), and every `METRICS`
//! series name with the label keys it carries, on a server and through
//! the router. A scraper that greps a key or parses a series relies on
//! exactly these; any change to them is a change of the wire contract.

use mis2::svc::{
    client::Client,
    metrics::{self, Exposition},
    RouterConfig, ServerConfig, ServerHandle,
};
use mis2_graph::Scale;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::Duration;

/// Every key of a single server's `STATS` line, in line order.
const SERVER_STATS_KEYS: [&str; 30] = [
    "graphs",
    "artifacts",
    "hits",
    "misses",
    "bytes",
    "mem_budget",
    "evictions",
    "graph_builds",
    "jobs",
    "queue_wait_us",
    "run_us",
    "panics",
    "inflight",
    "max_inflight",
    "peak_inflight",
    "workers",
    "team",
    "pool_spawned",
    "pool_contended",
    "resp",
    "resp_bytes",
    "resp_hits",
    "writev_batches",
    "bytes_tx",
    "queue_wait_count",
    "uptime_s",
    "requests",
    "conns",
    "derived",
    "io_backend",
];

/// Every key of a 3-shard router's `STATS` line, in line order.
const ROUTER_STATS_KEYS: [&str; 33] = [
    "graphs",
    "artifacts",
    "hits",
    "misses",
    "bytes",
    "mem_budget",
    "evictions",
    "graph_builds",
    "jobs",
    "queue_wait_us",
    "run_us",
    "panics",
    "inflight",
    "max_inflight",
    "peak_inflight",
    "workers",
    "team",
    "pool_spawned",
    "pool_contended",
    "resp",
    "resp_bytes",
    "resp_hits",
    "writev_batches",
    "bytes_tx",
    "queue_wait_count",
    "uptime_s",
    "requests",
    "conns",
    "derived",
    "shards",
    "shards_up",
    "shard_bytes",
    "shard_evictions",
];

/// Every series a server's `METRICS` emits once it has served a
/// scheduled request under `--slow-ms 0`, as `name{label keys}`.
const SERVER_SERIES: &[&str] = &[
    "mis2_bytes_tx_total{}",
    "mis2_cache_artifacts{}",
    "mis2_cache_budget_bytes{}",
    "mis2_cache_bytes{}",
    "mis2_cache_derived_total{}",
    "mis2_cache_evictions_total{}",
    "mis2_cache_graphs{}",
    "mis2_cache_hits_total{}",
    "mis2_cache_misses_total{}",
    "mis2_conns{}",
    "mis2_graph_builds_total{}",
    "mis2_inflight{}",
    "mis2_job_panics_total{}",
    "mis2_jobs_total{}",
    "mis2_max_inflight{}",
    "mis2_peak_inflight{}",
    "mis2_pool_contended_total{}",
    "mis2_pool_spawned{}",
    "mis2_queue_wait_count_total{}",
    "mis2_queue_wait_us_total{}",
    "mis2_request_latency_ns_bucket{op,outcome,le}",
    "mis2_request_latency_ns_count{op,outcome}",
    "mis2_request_latency_ns_sum{op,outcome}",
    "mis2_requests_total{}",
    "mis2_resp_bytes{}",
    "mis2_resp_cached{}",
    "mis2_resp_hits_total{}",
    "mis2_run_us_total{}",
    "mis2_sched_team{}",
    "mis2_sched_workers{}",
    "mis2_slow_captured_total{}",
    "mis2_slow_request{seq,op,outcome,key,shard,total_ns,parse_ns,queue_ns,run_ns,write_ns}",
    "mis2_slow_threshold_ms{}",
    "mis2_stage_ns_bucket{stage,le}",
    "mis2_stage_ns_count{stage}",
    "mis2_stage_ns_sum{stage}",
    "mis2_uptime_seconds{}",
    "mis2_writev_batches_total{}",
];

/// What a router's merged `METRICS` adds to the server's series.
const ROUTER_ONLY_SERIES: [&str; 2] = ["mis2_shards{}", "mis2_shards_up{}"];

fn server() -> ServerHandle {
    mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        slow_ms: 0,
        ..Default::default()
    })
    .unwrap()
}

/// The keys of a `key=value` line, in order.
fn keys(line: &str) -> Vec<&str> {
    line.split_whitespace()
        .filter_map(|w| w.split_once('=').map(|(k, _)| k))
        .collect()
}

fn stats(addr: SocketAddr) -> String {
    let mut c = Client::connect(addr).unwrap();
    let line = c.request("STATS").unwrap();
    let _ = c.quit();
    line
}

/// Scrape `METRICS` until the scheduled request and its slow-ring entry
/// have been recorded (spans retire after their bytes are written).
fn settled_exposition(addr: SocketAddr) -> Exposition {
    for _ in 0..200 {
        let mut c = Client::connect(addr).unwrap();
        let raw = c.request("METRICS").unwrap();
        let _ = c.quit();
        let body = raw.strip_prefix("OK METRICS ").expect(&raw);
        let exp = metrics::parse_exposition(&metrics::unescape_body(body)).unwrap();
        let has = |name: &str| exp.samples.iter().any(|s| s.name == name);
        if has("mis2_stage_ns_count") && has("mis2_slow_request") {
            return exp;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("the scheduled request never reached the exposition");
}

/// `name{label keys}` of every sample, deduplicated.
fn series(exp: &Exposition) -> BTreeSet<String> {
    exp.samples
        .iter()
        .map(|s| {
            let keys: Vec<&str> = s.labels.iter().map(|(k, _)| k.as_str()).collect();
            format!("{}{{{}}}", s.name, keys.join(","))
        })
        .collect()
}

fn literal_set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
fn single_server_stats_keys_and_metrics_series_are_pinned() {
    let h = server();
    let mut c = Client::connect(h.addr()).unwrap();
    assert!(c.request("MIS2 ecology2").unwrap().starts_with("OK "));
    let _ = c.quit();
    let line = stats(h.addr());
    assert!(line.starts_with("OK STATS "), "{line}");
    assert_eq!(keys(&line), SERVER_STATS_KEYS, "{line}");
    assert_eq!(
        series(&settled_exposition(h.addr())),
        literal_set(SERVER_SERIES)
    );
    h.shutdown();
}

#[test]
fn router_stats_keys_and_metrics_series_are_pinned() {
    let shards: Vec<ServerHandle> = (0..3).map(|_| server()).collect();
    let router = mis2::svc::route(RouterConfig {
        shards: shards.iter().map(|h| h.addr().to_string()).collect(),
        ..Default::default()
    })
    .unwrap();
    let mut c = Client::connect(router.addr()).unwrap();
    assert!(c.request("MIS2 ecology2").unwrap().starts_with("OK "));
    let _ = c.quit();
    let line = stats(router.addr());
    assert!(line.starts_with("OK STATS "), "{line}");
    assert_eq!(keys(&line), ROUTER_STATS_KEYS, "{line}");
    let mut want = literal_set(SERVER_SERIES);
    want.extend(literal_set(&ROUTER_ONLY_SERIES));
    assert_eq!(series(&settled_exposition(router.addr())), want);
    router.shutdown();
    for h in shards {
        h.shutdown();
    }
}
