//! End-to-end test of shard mode: a 3-shard cluster (three in-process
//! `serve` instances) fronted by the consistent-hash router of
//! `shard::route`. Every payload through the cluster must be
//! **bitwise-identical** to a direct library call — the same contract the
//! unsharded e2e tests assert — and killing one shard must fail fast with
//! `ERR shard down` on exactly the keys that shard owns while the
//! survivors keep serving.
//!
//! The "direct" side computes expected payloads through
//! `mis2::svc::ops::execute` on a private registry in this process — the
//! single definition of request semantics every layer shares. Ownership
//! is predicted with the same `Ring` the router builds, so the kill test
//! knows exactly which responses must flip to `ERR shard down`.

use mis2::svc::{
    client::V3Client,
    ops,
    proto::Request,
    shard::{shard_key, Ring},
    Registry, RouterConfig, ServerConfig, ServerHandle,
};
use mis2_graph::Scale;
use std::sync::atomic::Ordering;

/// Six differently-shaped suite graphs (same set as the v3 e2e test).
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

/// Spin up `n` independent shard servers and return their handles plus
/// their addresses in shard order.
fn spawn_shards(n: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..n)
        .map(|_| {
            mis2::svc::serve(ServerConfig {
                threads: 2,
                scale: Scale::Tiny,
                ..Default::default()
            })
            .unwrap()
        })
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

/// Pull one summed gauge out of a merged `OK STATS ...` line.
fn gauge(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix(name).and_then(|v| v.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name}= in {stats}"))
}

#[test]
fn sharded_cluster_is_bitwise_identical_to_direct_calls() {
    let lines = request_lines();
    let want = direct_responses(&lines);
    for w in &want {
        assert!(w.starts_with("OK "), "direct call failed: {w}");
    }
    let (handles, addrs) = spawn_shards(3);
    let router = mis2::svc::route(RouterConfig {
        shards: addrs,
        ..Default::default()
    })
    .unwrap();
    let router_addr = router.addr();

    // Eight concurrent v3 clients through the router, windows 1..64 —
    // the router must remap tags across its per-shard upstreams and
    // still hand every client its own responses in request order.
    std::thread::scope(|s| {
        for c in 0..8usize {
            let (lines, want) = (&lines, &want);
            s.spawn(move || {
                let window = 1usize << (c.min(6));
                let mut client = V3Client::connect(router_addr, window)
                    .unwrap_or_else(|e| panic!("client {c} cannot connect: {e}"));
                let got = client
                    .request_many(lines)
                    .unwrap_or_else(|e| panic!("client {c} (window {window}): {e}"));
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g, w,
                        "client {c} (window {window}): routed response for {:?} \
                         differs from the direct library call",
                        lines[i]
                    );
                }
                client.quit().unwrap();
            });
        }
    });

    // Merged cluster STATS via the router's STATS interception: summed
    // gauges first (existing greps keep matching), shard topology
    // appended at the end.
    let routed_stats = {
        let mut probe = V3Client::connect(router_addr, 4).unwrap();
        let s = probe.request("STATS").unwrap();
        probe.quit().unwrap();
        s
    };
    assert!(
        routed_stats.contains(" shards=3 shards_up=3 shard_bytes="),
        "{routed_stats}"
    );
    assert!(
        routed_stats.starts_with("OK STATS graphs="),
        "{routed_stats}"
    );
    // Each graph is owned by exactly one shard, so the summed graph
    // gauge across the cluster is exactly the distinct-graph count.
    assert_eq!(gauge(&routed_stats, "graphs"), 6, "{routed_stats}");
    assert_eq!(gauge(&routed_stats, "graph_builds"), 6, "{routed_stats}");
    // Window accounting must settle across the whole cluster once every
    // client disconnects: summed in-flight gauge drains to zero.
    assert_eq!(gauge(&routed_stats, "inflight"), 0, "{routed_stats}");

    // The router's own connection/window accounting drains as well.
    assert_eq!(router.svc_stats().inflight.load(Ordering::Relaxed), 0);
    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn killing_one_shard_fails_fast_and_spares_survivors() {
    let lines = request_lines();
    let want = direct_responses(&lines);
    let (mut handles, addrs) = spawn_shards(3);
    let router = mis2::svc::route(RouterConfig {
        shards: addrs.clone(),
        ..Default::default()
    })
    .unwrap();
    let router_addr = router.addr();

    // Predict ownership with the same ring the router builds, and doom
    // the shard owning the first request's graph — the ephemeral-port
    // shard identities land differently every run, so the victim must
    // be picked from the actual key distribution, not hardcoded.
    let ring = Ring::new(&addrs);
    let owner: Vec<usize> = lines
        .iter()
        .map(|line| {
            let req = Request::parse(line).unwrap();
            let (graph, _) = ops::request_op(&req).expect("compute request");
            ring.shard_of(&shard_key(graph))
        })
        .collect();
    let doomed = owner[0];

    // Warm sweep: everything OK while all three shards are up.
    let mut client = V3Client::connect(router_addr, 32).unwrap();
    let got = client.request_many(&lines).unwrap();
    assert_eq!(got, want, "all-up sweep must match direct calls");

    // Kill the doomed shard the hard way: sockets die mid-connection,
    // no drain.
    handles.remove(doomed).kill();

    // The same connection keeps working: the dead shard's keys fail
    // fast with the literal `ERR shard down`, every other key stays
    // byte-identical.
    let got = client.request_many(&lines).unwrap();
    for (i, g) in got.iter().enumerate() {
        if owner[i] == doomed {
            assert_eq!(
                g, "ERR shard down",
                "dead shard's key {:?} must fail fast",
                lines[i]
            );
        } else {
            assert_eq!(
                g, &want[i],
                "surviving shard's key {:?} must stay byte-identical",
                lines[i]
            );
        }
    }

    // A second full sweep: the dead-shard answers stay fail-fast (no
    // hangs, no retries) and survivors keep serving from warm caches.
    let again = client.request_many(&lines).unwrap();
    assert_eq!(again, got, "fail-fast answers must be stable");

    // Merged STATS now reports the outage: shards_up drops to 2, the
    // dead shard contributes zeros, and the survivors' in-flight gauges
    // drain to 0 — the router released exactly one window slot per
    // poisoned tag, or the summed gauge could not settle.
    client.quit().unwrap();
    let stats_line = {
        let mut probe = V3Client::connect(router_addr, 4).unwrap();
        let s = probe.request("STATS").unwrap();
        probe.quit().unwrap();
        s
    };
    assert!(
        stats_line.contains(" shards=3 shards_up=2 "),
        "{stats_line}"
    );
    assert_eq!(gauge(&stats_line, "inflight"), 0, "{stats_line}");
    assert_eq!(router.svc_stats().inflight.load(Ordering::Relaxed), 0);

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn dead_shard_redial_is_paced_not_hotlooped() {
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    // A flapping shard: answers the v3 hello — so the router's startup
    // probe and every later dial "succeed" — then hangs up immediately.
    // Each accept is one router dial: the observable retry cadence.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let shard_addr = listener.local_addr().unwrap().to_string();
    let accepts = Arc::new(AtomicUsize::new(0));
    {
        let accepts = Arc::clone(&accepts);
        std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                accepts.fetch_add(1, Ordering::Relaxed);
                let mut line = String::new();
                let _ = BufReader::new(s.try_clone().unwrap()).read_line(&mut line);
                let _ = writeln!(s, "{}", mis2::svc::codec::hello_ok(64));
            }
        });
    }

    let router = mis2::svc::route(RouterConfig {
        shards: vec![shard_addr],
        ..Default::default()
    })
    .unwrap();
    let mut client = mis2::svc::Client::connect(router.addr()).unwrap();

    // Hammer the dead shard with a fast sequential request stream. A
    // hot-looping reconnect would dial once per request; the jittered
    // backoff (base 50ms doubling to 2s) must keep the dial count to
    // the first request's dial plus a handful of due retries.
    let burst = 50;
    for _ in 0..burst {
        let got = client.request("MIS2 ecology2").unwrap();
        assert_eq!(got, "ERR shard down");
    }
    let dials = accepts.load(Ordering::Relaxed);
    assert!(
        dials <= 10,
        "{burst} requests against a dead shard dialed it {dials} times — reconnect is hot-looping"
    );
    assert!(dials >= 1, "the shard must have been dialed");

    // A second immediate burst rides the (now doubled) backoff window:
    // at most a couple more dials.
    for _ in 0..burst {
        let got = client.request("MIS2 ecology2").unwrap();
        assert_eq!(got, "ERR shard down");
    }
    let more = accepts.load(Ordering::Relaxed) - dials;
    assert!(
        more <= 5,
        "second burst added {more} dials — backoff is not growing"
    );

    client.quit().unwrap();
    assert_eq!(router.svc_stats().inflight.load(Ordering::Relaxed), 0);
    router.shutdown();
}

#[test]
fn dead_shard_revives_once_it_comes_back() {
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    // A real backend fronted by a controllable byte-splicing proxy: the
    // proxy's address is the "shard", and flipping `up` simulates the
    // shard dying and coming back on the *same* address — no port-reuse
    // races.
    let backend = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        ..Default::default()
    })
    .unwrap();
    let backend_addr = backend.addr();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let shard_addr = listener.local_addr().unwrap().to_string();
    let up = Arc::new(AtomicBool::new(true));
    let live: Arc<Mutex<Vec<std::net::TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let (up, live) = (Arc::clone(&up), Arc::clone(&live));
        std::thread::spawn(move || {
            while let Ok((down, _)) = listener.accept() {
                if !up.load(Ordering::SeqCst) {
                    continue; // hang up: this dial fails its hello
                }
                let Ok(upstream) = std::net::TcpStream::connect(backend_addr) else {
                    continue;
                };
                {
                    let mut l = live.lock().unwrap();
                    l.push(down.try_clone().unwrap());
                    l.push(upstream.try_clone().unwrap());
                }
                let (mut dr, mut dw) = (down.try_clone().unwrap(), down);
                let (mut ur, mut uw) = (upstream.try_clone().unwrap(), upstream);
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut dr, &mut uw);
                    let _ = uw.shutdown(std::net::Shutdown::Both);
                });
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut ur, &mut dw);
                    let _ = dw.shutdown(std::net::Shutdown::Both);
                });
            }
        });
    }

    let router = mis2::svc::route(RouterConfig {
        shards: vec![shard_addr],
        ..Default::default()
    })
    .unwrap();
    let mut client = mis2::svc::Client::connect(router.addr()).unwrap();
    let want = {
        let reg = Registry::new(Scale::Tiny);
        ops::execute(&reg, &Request::parse("MIS2 ecology2").unwrap())
    };
    assert_eq!(
        client.request("MIS2 ecology2").unwrap(),
        want,
        "healthy shard must serve through the proxy"
    );

    // Kill the shard: stop proxying new dials and sever every live
    // splice. The same downstream connection must flip to fail-fast.
    up.store(false, Ordering::SeqCst);
    for s in live.lock().unwrap().drain(..) {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let got = client.request("MIS2 ecology2").unwrap();
        if got == "ERR shard down" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "severed shard never went down: last response {got:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Revive: the next due redial splices to the live backend again and
    // byte-identical service resumes on the same downstream connection,
    // within the backoff cap.
    up.store(true, Ordering::SeqCst);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let got = client.request("MIS2 ecology2").unwrap();
        if got != "ERR shard down" {
            assert_eq!(got, want, "revived shard must serve byte-identically");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shard never revived within the backoff cap"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    client.quit().unwrap();
    assert_eq!(router.svc_stats().inflight.load(Ordering::Relaxed), 0);
    router.shutdown();
    backend.shutdown();
}

/// Write `bytes` to `addr`, optionally half-close, and read to EOF.
/// Without the half-close the peer must close on its own; a peer that
/// wrongly keeps the connection open fails the read timeout instead of
/// hanging the suite.
fn exchange(addr: std::net::SocketAddr, bytes: &[u8], half_close: bool) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    s.write_all(bytes).unwrap();
    if half_close {
        s.shutdown(std::net::Shutdown::Write).unwrap();
    }
    let mut got = Vec::new();
    s.read_to_end(&mut got)
        .unwrap_or_else(|e| panic!("peer neither answered nor closed: {e}"));
    got
}

/// One v3 request frame.
fn frame(tag: u64, payload: &[u8]) -> Vec<u8> {
    mis2::svc::codec::encode_frame(tag, mis2::svc::codec::STATUS_OK, payload)
}

/// Split a response stream into its units — lines, or after a `V3` hello
/// line, binary frames — and sort them: pipelined responses arrive in
/// completion order, which is the one thing allowed to differ.
fn sorted_units(stream: &[u8], v3: bool) -> Vec<Vec<u8>> {
    let mut units: Vec<Vec<u8>> = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let len = if v3 && !units.is_empty() {
            let (_, used) = mis2::svc::codec::decode_frame(rest).expect("whole frames");
            used
        } else {
            rest.iter().position(|&b| b == b'\n').expect("whole lines") + 1
        };
        units.push(rest[..len].to_vec());
        rest = &rest[len..];
    }
    units.sort();
    units
}

#[test]
fn half_closed_client_gets_the_single_server_bytes() {
    // A client that pipelines its requests and then half-closes (`printf
    // ... | nc`) must get every answer — from a router exactly as from a
    // server. The connection's machine, and the upstream sockets a
    // router's machine owns, outlive the last in-flight response.
    let direct = spawn_shards(1).0.remove(0);
    let (handles, addrs) = spawn_shards(3);
    let route = |shards: &[String]| {
        mis2::svc::route(RouterConfig {
            shards: shards.to_vec(),
            ..Default::default()
        })
        .unwrap()
    };
    let (one, three) = (route(&addrs[..1]), route(&addrs));

    let v1 = b"SOLVE apache2 cg\n".to_vec();
    let v3 = [
        b"V3\n".to_vec(),
        frame(1, b"MIS2 ecology2"),
        frame(2, b"COARSEN thermal2 2"),
        frame(3, b"SOLVE apache2 cg"),
    ]
    .concat();
    for (proto, bytes, answers) in [("v1", &v1, 1), ("v3", &v3, 4)] {
        let want = sorted_units(&exchange(direct.addr(), bytes, true), proto == "v3");
        assert_eq!(want.len(), answers, "{proto}: the server itself fell short");
        for (name, router) in [("1 shard", &one), ("3 shards", &three)] {
            let got = sorted_units(&exchange(router.addr(), bytes, true), proto == "v3");
            assert_eq!(
                got.iter()
                    .map(|u| String::from_utf8_lossy(u))
                    .collect::<Vec<_>>(),
                want.iter()
                    .map(|u| String::from_utf8_lossy(u))
                    .collect::<Vec<_>>(),
                "{proto} through a router over {name}"
            );
        }
    }

    for router in [one, three] {
        assert_eq!(router.svc_stats().inflight.load(Ordering::Relaxed), 0);
        router.shutdown();
    }
    direct.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn malformed_streams_get_the_single_server_bytes() {
    use mis2::svc::codec::{encode_header, MAX_PAYLOAD, STATUS_OK};
    use mis2::svc::proto::MAX_LINE;
    // The same hostile or sloppy byte streams against a server and a
    // 1-shard router: identical bytes back, and the same decision to
    // close or keep serving. Streams the peer must survive end in a PING
    // and are half-closed, so a peer that hung up early is short a PONG;
    // streams the peer must close on are sent exactly (every byte is
    // consumed — no RST racing the answer) and the peer has to end the
    // connection by itself. No stream has two computes in flight, so the
    // answer order is fixed and the comparison is on raw bytes.
    let long = vec![b'a'; MAX_LINE + 1];
    let oversized = encode_header(77, (MAX_PAYLOAD + 1) as u32, STATUS_OK).to_vec();
    let cases: Vec<(&str, Vec<u8>, bool)> = vec![
        ("over-long line, v1", long.clone(), false),
        ("invalid utf-8, v1", b"MIS2 \xff\xfe\nPING\n".to_vec(), true),
        (
            "invalid utf-8, v3",
            [b"V3\n".to_vec(), frame(5, b"\xff\xfe"), frame(6, b"PING")].concat(),
            true,
        ),
        // The retired v2 hello is what any other unknown word is on v1:
        // an error, connection kept.
        ("retired V2 hello, v1", b"V2\nPING\n".to_vec(), true),
        (
            "header over MAX_PAYLOAD, v3",
            [b"V3\n", &oversized[..]].concat(),
            false,
        ),
        ("blank lines, v1", b"\n\r\n\nPING\n".to_vec(), true),
        ("unterminated last line, v1", b"PING".to_vec(), true),
        (
            "QUIT behind a full window, v1",
            b"SOLVE apache2 cg\nQUIT\n".to_vec(),
            false,
        ),
        (
            "QUIT behind a compute, v3",
            [
                b"V3\n".to_vec(),
                frame(1, b"MIS2 ecology2"),
                frame(2, b"QUIT"),
            ]
            .concat(),
            false,
        ),
        (
            "second hello, v3",
            [
                b"V3\n".to_vec(),
                frame(1, b"V3"),
                frame(2, b"V2"),
                frame(3, b"PING"),
            ]
            .concat(),
            true,
        ),
    ];

    let direct = spawn_shards(1).0.remove(0);
    let (handles, addrs) = spawn_shards(1);
    let router = mis2::svc::route(RouterConfig {
        shards: addrs,
        ..Default::default()
    })
    .unwrap();
    for (name, bytes, half_close) in &cases {
        let want = exchange(direct.addr(), bytes, *half_close);
        let got = exchange(router.addr(), bytes, *half_close);
        assert!(!want.is_empty(), "{name}: the server itself said nothing");
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "{name}: router and server disagree"
        );
        assert_eq!(got, want, "{name}: router and server disagree in raw bytes");
    }
    // What "identical" was identical *to*, spot-checked so a shared bug
    // cannot hide behind the comparison.
    let text = |name: &str| {
        let (_, bytes, half_close) = cases.iter().find(|c| c.0 == name).unwrap();
        String::from_utf8(exchange(router.addr(), bytes, *half_close)).unwrap()
    };
    assert_eq!(text("over-long line, v1"), "ERR line too long\n");
    let retired = text("retired V2 hello, v1");
    assert!(
        retired.starts_with("ERR unknown command: V2 ") && retired.ends_with(")\nOK PONG\n"),
        "{retired}"
    );
    assert_eq!(text("unterminated last line, v1"), "OK PONG\n");
    assert!(text("QUIT behind a full window, v1").ends_with("\nOK BYE\n"));

    assert_eq!(router.svc_stats().inflight.load(Ordering::Relaxed), 0);
    router.shutdown();
    direct.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn ring_rebalance_only_moves_keys_whose_owner_changed() {
    // Grow 3 -> 4 shards: every key either keeps its owner or moves to
    // the new shard — never between old shards — so a rolling resize
    // invalidates only the minimum slice of each shard's warm cache.
    let three: Vec<String> = (0..3).map(|i| format!("shard-{i}")).collect();
    let four: Vec<String> = (0..4).map(|i| format!("shard-{i}")).collect();
    let (r3, r4) = (Ring::new(&three), Ring::new(&four));
    let lines = request_lines();
    let mut moved = 0usize;
    for line in &lines {
        let req = Request::parse(line).unwrap();
        let (graph, _) = ops::request_op(&req).expect("compute request");
        let key = shard_key(graph);
        let (before, after) = (r3.shard_of(&key), r4.shard_of(&key));
        if before != after {
            assert_eq!(after, 3, "{key}: moved between surviving shards");
            moved += 1;
        }
    }
    // Not a probability bound — just a sanity check that the sweep's
    // keys exercise both the stay and move paths.
    assert!(moved < lines.len(), "grow must not reshuffle everything");
}
