//! End-to-end test of the `mis2-svc` subsystem: 16 concurrent clients
//! hammer a loopback server with `MIS2` / `COARSEN` / `SOLVE` requests and
//! every response must be **bitwise-identical** to a direct library call —
//! at pool budgets {1, 2, 8}, pool 1 being the serial path.
//!
//! The "direct" side computes expected response lines through
//! `mis2_svc::ops::execute` on a private registry in this process — the
//! same single definition of request semantics the server uses, driven
//! here without any server, scheduler, sub-team, or socket in the loop.

use mis2::svc::{client::Client, ops, proto::Request, Registry, ServerConfig};
use mis2_graph::Scale;

/// The request mix every client sends: all three compute ops across two
/// differently-shaped suite graphs (honeycomb + sprinkled grid).
fn request_lines() -> Vec<&'static str> {
    vec![
        "MIS2 ecology2",
        "COARSEN ecology2 3",
        "SOLVE ecology2 cg",
        "MIS2 parabolic_fem",
        "COARSEN parabolic_fem 2",
        "SOLVE parabolic_fem gmres",
    ]
}

/// Expected response lines via the direct library path.
fn direct_responses() -> Vec<String> {
    let reg = Registry::new(Scale::Tiny);
    request_lines()
        .iter()
        .map(|line| ops::execute(&reg, &Request::parse(line).unwrap()))
        .collect()
}

#[test]
fn sixteen_clients_bitwise_identical_to_direct_calls() {
    let want = direct_responses();
    for w in &want {
        assert!(w.starts_with("OK "), "direct call failed: {w}");
    }
    for threads in [1usize, 2, 8] {
        let handle = mis2::svc::serve(ServerConfig {
            threads,
            scale: Scale::Tiny,
            ..Default::default()
        })
        .unwrap();
        let addr = handle.addr();
        std::thread::scope(|s| {
            for c in 0..16 {
                let want = &want;
                s.spawn(move || {
                    let mut client = Client::connect(addr)
                        .unwrap_or_else(|e| panic!("client {c} cannot connect: {e}"));
                    for (line, expect) in request_lines().iter().zip(want) {
                        let got = client
                            .request(line)
                            .unwrap_or_else(|e| panic!("client {c} request {line:?}: {e}"));
                        assert_eq!(
                            &got, expect,
                            "client {c} at pool budget {threads}: served response for \
                             {line:?} differs from the direct library call"
                        );
                    }
                    client.quit().unwrap();
                });
            }
        });
        // 16 clients x 6 requests with only 6 distinct artifacts: the
        // registry must have deduplicated nearly everything.
        let stats = handle.registry().stats();
        assert_eq!(stats.graphs, 2, "pool budget {threads}");
        assert_eq!(stats.artifacts, 6, "pool budget {threads}");
        assert_eq!(
            stats.hits + stats.misses,
            16 * 6,
            "pool budget {threads}: every request must touch the artifact cache"
        );
        assert!(
            stats.misses >= 6,
            "pool budget {threads}: at least one compute per distinct artifact"
        );
        // Graph interning is single-flight: the 16-client cold burst pays
        // exactly one build per distinct graph.
        assert_eq!(
            stats.graph_builds, 2,
            "pool budget {threads}: cold burst must build each graph exactly once"
        );
        handle.shutdown();
    }
}

#[test]
fn server_rejects_bad_requests_without_dying() {
    let handle = mis2::svc::serve(ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for bad in [
        "MIS2 not_a_graph",
        "MIS2 /no/such/file.mtx",
        "COARSEN ecology2 0",
        "SOLVE ecology2 sor",
        "HELLO",
    ] {
        let got = client.request(bad).unwrap();
        assert!(got.starts_with("ERR "), "{bad:?} -> {got}");
    }
    // A `.mtx` whose size line lies: the declared entry count is untrusted
    // input and must cost an `ERR`, not an allocation that aborts the
    // daemon.
    let dir = std::env::temp_dir().join("mis2_svc_e2e_liar");
    std::fs::create_dir_all(&dir).unwrap();
    let liar = dir.join("liar.mtx");
    std::fs::write(
        &liar,
        "%%MatrixMarket matrix coordinate pattern general\n3 3 99999999999999\n2 1\n",
    )
    .unwrap();
    let got = client.request(&format!("MIS2 {}", liar.display())).unwrap();
    assert!(got.starts_with("ERR "), "liar.mtx -> {got}");
    // The connection (and server) must still be healthy afterwards.
    assert_eq!(client.request("PING").unwrap(), "OK PONG");
    let stats = client.request("STATS").unwrap();
    assert!(stats.starts_with("OK STATS "), "{stats}");
    handle.shutdown();
}

#[test]
fn stats_reports_cache_and_scheduler_counters() {
    let handle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.request("MIS2 ecology2").unwrap();
    client.request("MIS2 ecology2").unwrap();
    let stats = client.request("STATS").unwrap();
    assert!(
        stats.contains("graphs=1 artifacts=1 hits=1 misses=1"),
        "{stats}"
    );
    assert!(stats.contains("jobs=1"), "{stats}");
    assert!(
        stats.contains("mem_budget=0") && stats.contains("evictions=0"),
        "unbounded server must report no budget and no evictions: {stats}"
    );
    assert!(stats.contains("graph_builds=1"), "{stats}");
    handle.shutdown();
}

/// The graphs the bounded-churn test cycles through — more working set
/// than the budget below admits.
fn churn_graphs() -> [&'static str; 6] {
    [
        "ecology2",
        "parabolic_fem",
        "thermal2",
        "tmt_sym",
        "apache2",
        "StocF-1465",
    ]
}

/// Eviction correctness end-to-end: concurrent clients churn over more
/// graphs than the memory budget holds. Every served response must stay
/// bitwise-identical to the direct (unbounded) library call — eviction may
/// change latency and counters, never bytes — and the reported cache size
/// must respect the budget whenever nothing is mid-flight.
#[test]
fn bounded_server_evicts_under_churn_but_responses_are_bitwise_identical() {
    let lines: Vec<String> = churn_graphs()
        .iter()
        .flat_map(|g| [format!("MIS2 {g}"), format!("COARSEN {g} 2")])
        .collect();
    // Direct, unbounded reference responses — and the working-set size,
    // from which a budget that can hold only about half of it is derived.
    let reference = Registry::new(Scale::Tiny);
    let want: Vec<String> = lines
        .iter()
        .map(|line| ops::execute(&reference, &Request::parse(line).unwrap()))
        .collect();
    for w in &want {
        assert!(w.starts_with("OK "), "direct call failed: {w}");
    }
    let budget = reference.stats().bytes / 2;
    assert!(budget > 0);

    let handle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        mem_budget: budget,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();
    std::thread::scope(|s| {
        for c in 0..8 {
            let (lines, want) = (&lines, &want);
            s.spawn(move || {
                let mut client = Client::connect(addr)
                    .unwrap_or_else(|e| panic!("client {c} cannot connect: {e}"));
                for round in 0..3 {
                    for (line, expect) in lines.iter().zip(want) {
                        let got = client
                            .request(line)
                            .unwrap_or_else(|e| panic!("client {c} request {line:?}: {e}"));
                        assert_eq!(
                            &got, expect,
                            "client {c} round {round}: bounded-server response for {line:?} \
                             differs from the unbounded direct call"
                        );
                    }
                }
                client.quit().unwrap();
            });
        }
    });
    let stats = handle.registry().stats();
    assert!(
        stats.evictions > 0,
        "churn over half the working set must evict: {stats:?}"
    );
    assert!(
        stats.bytes <= budget,
        "idle cache must respect the budget: {stats:?}"
    );
    assert!(
        stats.misses > lines.len() as u64,
        "evicted artifacts must have been recomputed: {stats:?}"
    );
    handle.shutdown();
}
