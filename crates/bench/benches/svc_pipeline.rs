//! Wire-protocol throughput ladder: blocking v1 lines and pipelined
//! binary v3 frames with interned response bytes, both against the
//! *same* server process.
//!
//! The workload is deliberately the smallest the service can answer —
//! requests whose artifacts are already cached, over 18 keys in a fixed
//! shuffled order (see [`batch_lines`]) — so the measurement isolates
//! protocol round-trip cost: syscalls, scheduler hand-off, and the
//! one-in-flight stall of v1. A blocking client pays a full
//! write→schedule→compute→read round trip per request; an N-deep window
//! amortizes that across N in-flight requests (cf. Redis pipelining), so
//! requests/sec should rise steeply with window depth until the server's
//! reader saturates. v3 also removes per-request work on the server: a
//! cache hit is answered inline from the reader thread with interned
//! bytes (no scheduler hop, no serialization, no text parse of the
//! response tag), and the writer coalesces bursts into vectored writes.
//!
//! Acceptance shape (asserted by eye in CI logs, measured in the e2e
//! suite): the 64-deep v3 window sustains at least 3x the requests/sec of
//! blocking v1. The run prints an explicit ratio line after the criterion
//! output to make that check one `grep` away, and writes the full
//! protocol × window matrix
//! as `BENCH_svc.json` (override the path with `BENCH_SVC_JSON=`) for the
//! CI artifact upload. Schema 2 adds client-observed p50/p95/p99 per
//! cell and the metrics-recording overhead (`svc_pipeline/metrics:` line,
//! on the cache-hit v3-w64 hot path). Schema 3 labels every
//! cell with the server's I/O backend and adds an epoll-vs-threads A/B
//! at v3-w64 (`svc_pipeline/io_backend:` line, target >= 0.95x — the
//! readiness loop buys connection scale and must not cost the hot path
//! more than 5%; measured it is in fact ~1.35x *faster*, the per-conn
//! writer thread's channel hand-off being the cost it sheds). Schema 4
//! is schema 3 minus the tagged-text v2 protocol, which no longer exists:
//! the `pipelined_w{1,8,64}` criterion cells, the `"v2"` ladder cells and
//! the `ratio_v2_w64_over_v1` / `ratio_v3_w64_over_v2_w64` fields left;
//! every other field is unchanged.

use mis2_bench::criterion::{criterion_group, criterion_main, Criterion};
use mis2_svc::client::{Client, V3Client};
use mis2_svc::shard::{route, RouterConfig};
use mis2_svc::{server, ServerConfig, ServerHandle};
use std::io::Write as _;
use std::time::Instant;

/// Requests per measured batch — one window's worth at the deepest
/// setting, and the same count issued one-at-a-time over v1.
const BATCH: usize = 64;

/// The cached-hit workload: one window's worth of requests over 18 keys —
/// six suite graphs × `MIS2` / `COARSEN g 2` / `SOLVE g cg` — in a fixed
/// seeded order: a multilevel client re-requests many (graph, op) keys,
/// and adjacent requests almost never share one. The warm-up computes and
/// interns every key, so every measured request is a cache hit. The six
/// graphs are differently owned, so a multi-shard cluster spreads the
/// batch across its shards instead of funneling one key to one owner.
fn batch_lines() -> Vec<String> {
    const GRAPHS: [&str; 6] = [
        "ecology2",
        "parabolic_fem",
        "thermal2",
        "tmt_sym",
        "apache2",
        "StocF-1465",
    ];
    let mut lines: Vec<String> = (0..BATCH)
        .map(|i| {
            let g = GRAPHS[i % GRAPHS.len()];
            match (i / GRAPHS.len()) % 3 {
                0 => format!("MIS2 {g}"),
                1 => format!("COARSEN {g} 2"),
                _ => format!("SOLVE {g} cg"),
            }
        })
        .collect();
    // Fisher–Yates under a fixed seed: the same order on every run.
    let mut x = 0x5EED;
    for i in (1..lines.len()).rev() {
        x = mis2_prim::splitmix64(x);
        lines.swap(i, (x % (i as u64 + 1)) as usize);
    }
    lines
}

/// Compute and intern every key of the batch on the server at `addr`.
fn warm(addr: std::net::SocketAddr, lines: &[String]) {
    let mut c = Client::connect(addr).unwrap();
    for line in lines {
        assert!(c.request(line).unwrap().starts_with("OK "), "{line}");
    }
}

/// Spin up an `n`-shard cluster behind a router; returns the handles to
/// keep alive plus the router, whose address the client dials.
fn spawn_cluster(n: usize) -> (Vec<ServerHandle>, mis2_svc::shard::RouterHandle) {
    let shards: Vec<ServerHandle> = (0..n)
        .map(|_| {
            server::serve(ServerConfig {
                threads: 2,
                ..Default::default()
            })
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = shards.iter().map(|h| h.addr().to_string()).collect();
    let router = route(RouterConfig {
        shards: addrs,
        ..Default::default()
    })
    .unwrap();
    (shards, router)
}

/// Mean seconds per batch of `BATCH` requests over `rounds` rounds.
fn time_batches(rounds: usize, mut run: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..rounds {
        run();
    }
    start.elapsed().as_secs_f64() / rounds as f64
}

/// One measured cell of the protocol × window matrix, with
/// client-observed latency percentiles over every measured request.
struct Cell {
    proto: &'static str,
    window: usize,
    io_backend: &'static str,
    rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Nearest-rank p50/p95/p99 in microseconds over raw nanosecond samples.
fn pcts(mut ns: Vec<u64>) -> (f64, f64, f64) {
    ns.sort_unstable();
    let p = |q| mis2_svc::metrics::percentile_ns(&ns, q) as f64 / 1_000.0;
    (p(0.50), p(0.95), p(0.99))
}

/// Hand-rolled JSON (the workspace is std-only): an array of
/// `{proto, window, io_backend, req_per_s, p50_us, p95_us, p99_us}`
/// objects plus the batch size, the shard and backend ratios, and the
/// metrics-recording overhead (schema 4: see the module docs for what
/// each schema added or dropped).
fn write_bench_json(
    cells: &[Cell],
    shard3_over_shard1: f64,
    metrics_overhead_pct: f64,
    epoll_over_threads: f64,
) -> std::io::Result<String> {
    let path = std::env::var("BENCH_SVC_JSON").unwrap_or_else(|_| "BENCH_svc.json".to_string());
    let mut out = String::from("{\n  \"bench\": \"svc_pipeline\",\n  \"schema\": 4,\n");
    out.push_str(&format!("  \"batch\": {BATCH},\n"));
    out.push_str(&format!(
        "  \"ratio_v3_shard3_over_shard1\": {shard3_over_shard1:.3},\n"
    ));
    out.push_str(&format!(
        "  \"metrics_overhead_pct\": {metrics_overhead_pct:.2},\n"
    ));
    out.push_str(&format!(
        "  \"ratio_v3_w64_epoll_over_threads\": {epoll_over_threads:.3},\n"
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"proto\": \"{}\", \"window\": {}, \"io_backend\": \"{}\", \
             \"req_per_s\": {:.1}, \
             \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}}}{}\n",
            c.proto,
            c.window,
            c.io_backend,
            c.rps,
            c.p50_us,
            c.p95_us,
            c.p99_us,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::File::create(&path)?.write_all(out.as_bytes())?;
    Ok(path)
}

fn bench_svc_pipeline(c: &mut Criterion) {
    let handle = server::serve(ServerConfig {
        threads: 2,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Warm-up: intern the graphs, cache the artifacts, and render the
    // response bytes once, so every measured request is a cache hit.
    let lines = batch_lines();
    warm(addr, &lines);
    let mut blocking = Client::connect(addr).unwrap();

    let mut group = c.benchmark_group("svc_pipeline");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    group.bench_function("64_requests/blocking_v1", |b| {
        b.iter(|| {
            for line in &lines {
                blocking.request(line).unwrap();
            }
        })
    });

    for window in [1usize, 8, 64] {
        let mut v3 = V3Client::connect(addr, window).unwrap();
        assert_eq!(v3.window(), window);
        group.bench_function(format!("64_requests/v3_w{window}").as_str(), |b| {
            b.iter(|| v3.request_many(&lines).unwrap())
        });
    }
    group.finish();

    // Explicit acceptance ratio: requests/sec per protocol at the window
    // ladder, fresh connections, fixed round count. The same numbers feed
    // the BENCH_svc.json artifact.
    let rounds = 20;
    let mut cells: Vec<Cell> = Vec::new();
    // The ladder's server uses the platform-default backend; label every
    // cell with what actually ran (epoll on Linux, threads elsewhere).
    let main_backend = mis2_svc::IoBackend::default().effective().name();

    let mut v1 = Client::connect(addr).unwrap();
    let mut v1_lat: Vec<u64> = Vec::new();
    let v1_batch = time_batches(rounds, || {
        for line in &lines {
            let t = Instant::now();
            v1.request(line).unwrap();
            v1_lat.push(t.elapsed().as_nanos() as u64);
        }
    });
    let (p50_us, p95_us, p99_us) = pcts(v1_lat);
    cells.push(Cell {
        proto: "v1",
        window: 1,
        io_backend: main_backend,
        rps: BATCH as f64 / v1_batch,
        p50_us,
        p95_us,
        p99_us,
    });

    for window in [1usize, 8, 64] {
        let mut v3 = V3Client::connect(addr, window).unwrap();
        let mut lat: Vec<u64> = Vec::new();
        let batch = time_batches(rounds, || {
            v3.request_many(&lines).unwrap();
            lat.extend_from_slice(v3.last_latencies_ns());
        });
        let (p50_us, p95_us, p99_us) = pcts(lat);
        cells.push(Cell {
            proto: "v3",
            window,
            io_backend: main_backend,
            rps: BATCH as f64 / batch,
            p50_us,
            p95_us,
            p99_us,
        });
    }

    // Sharded leg: the same 64-request cache-hot batch through a router
    // fronting 1 and then 3 shard processes.
    // Aggregate req/s should scale with shard count on multi-core hosts;
    // on a single-CPU runner the cells are informational (recorded, not
    // asserted) — the batch still proves the routed path end to end.
    for nshards in [1usize, 3] {
        let (shards, router) = spawn_cluster(nshards);
        let mut client = V3Client::connect(router.addr(), 64).unwrap();
        // Warm every shard: first pass computes + interns per owner.
        let warmed = client.request_many(&lines).unwrap();
        assert!(warmed.iter().all(|r| r.starts_with("OK ")));
        let mut lat: Vec<u64> = Vec::new();
        let batch = time_batches(rounds, || {
            client.request_many(&lines).unwrap();
            lat.extend_from_slice(client.last_latencies_ns());
        });
        let (p50_us, p95_us, p99_us) = pcts(lat);
        cells.push(Cell {
            proto: if nshards == 1 {
                "v3_shard1"
            } else {
                "v3_shard3"
            },
            window: 64,
            io_backend: main_backend,
            rps: BATCH as f64 / batch,
            p50_us,
            p95_us,
            p99_us,
        });
        client.quit().unwrap();
        router.shutdown();
        for h in shards {
            h.shutdown();
        }
    }

    let rps = |proto: &str, window: usize| {
        cells
            .iter()
            .find(|c| c.proto == proto && c.window == window)
            .map(|c| c.rps)
            .unwrap()
    };
    let (v1_rps, v3_rps) = (rps("v1", 1), rps("v3", 64));
    println!(
        "svc_pipeline/acceptance: blocking_v1 {:.0} req/s, v3_w64 {:.0} req/s, \
         ratio {:.2}x (target >= 3x)",
        v1_rps,
        v3_rps,
        v3_rps / v1_rps
    );

    let (s1, s3) = (rps("v3_shard1", 64), rps("v3_shard3", 64));
    println!(
        "svc_pipeline/shards: v3_shard1 {s1:.0} req/s, v3_shard3 {s3:.0} req/s, \
         scale {:.2}x (informational on single-CPU hosts)",
        s3 / s1
    );

    // Metrics-recording overhead: the identical cache-hot v3-w64 batch
    // against a second server whose recording is compiled in but turned
    // off (`metrics: false` — the reader then skips even the clock
    // reads). The two sides alternate batch-by-batch *within* each
    // round, so scheduler noise and machine drift — which live at
    // millisecond scale on a shared host — hit both sides equally in
    // expectation; a pass's ratio of summed times is then drift-free,
    // and the median over passes is the reported overhead.
    let off_handle = server::serve(ServerConfig {
        threads: 2,
        metrics: false,
        ..Default::default()
    })
    .unwrap();
    warm(off_handle.addr(), &lines);
    let mut on = V3Client::connect(addr, 64).unwrap();
    let mut off = V3Client::connect(off_handle.addr(), 64).unwrap();
    on.request_many(&lines).unwrap();
    off.request_many(&lines).unwrap();
    let ab_rounds = 400;
    let (mut on_best, mut off_best) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::new();
    for _pass in 0..7 {
        let (mut t_on, mut t_off) = (0.0f64, 0.0f64);
        for _ in 0..ab_rounds {
            let t = Instant::now();
            on.request_many(&lines).unwrap();
            t_on += t.elapsed().as_secs_f64();
            let t = Instant::now();
            off.request_many(&lines).unwrap();
            t_off += t.elapsed().as_secs_f64();
        }
        on_best = on_best.min(t_on / ab_rounds as f64);
        off_best = off_best.min(t_off / ab_rounds as f64);
        ratios.push(t_on / t_off);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let metrics_overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    println!(
        "svc_pipeline/metrics: v3_w64 recording-on {:.0} req/s, recording-off {:.0} req/s, \
         overhead {metrics_overhead_pct:+.2}%",
        BATCH as f64 / on_best,
        BATCH as f64 / off_best,
    );
    off_handle.shutdown();

    // I/O-backend A/B: the identical cache-hot v3-w64 batch against an
    // explicit epoll server and an explicit thread-per-conn server,
    // alternating batch-by-batch within each pass (same drift-free
    // scheme as the metrics A/B). The readiness loop exists for
    // connection scale; this cell pins down what it costs (or saves) on
    // the single-connection hot path — acceptance is no more than a 5%
    // regression (ratio >= 0.95x). Measured it *wins* ~1.35x: the loop
    // stages completions straight into the vectored batch instead of
    // paying the per-conn writer thread's channel hand-off and wakeup.
    let epoll_handle = server::serve(ServerConfig {
        threads: 2,
        io_backend: mis2_svc::IoBackend::Epoll,
        ..Default::default()
    })
    .unwrap();
    let threads_handle = server::serve(ServerConfig {
        threads: 2,
        io_backend: mis2_svc::IoBackend::Threads,
        ..Default::default()
    })
    .unwrap();
    for h in [&epoll_handle, &threads_handle] {
        warm(h.addr(), &lines);
    }
    let mut ev = V3Client::connect(epoll_handle.addr(), 64).unwrap();
    let mut th = V3Client::connect(threads_handle.addr(), 64).unwrap();
    ev.request_many(&lines).unwrap();
    th.request_many(&lines).unwrap();
    let (mut ev_best, mut th_best) = (f64::INFINITY, f64::INFINITY);
    let mut ev_lat: Vec<u64> = Vec::new();
    let mut th_lat: Vec<u64> = Vec::new();
    let mut ab_ratios = Vec::new();
    for _pass in 0..7 {
        let (mut t_ev, mut t_th) = (0.0f64, 0.0f64);
        for _ in 0..ab_rounds {
            let t = Instant::now();
            ev.request_many(&lines).unwrap();
            t_ev += t.elapsed().as_secs_f64();
            ev_lat.extend_from_slice(ev.last_latencies_ns());
            let t = Instant::now();
            th.request_many(&lines).unwrap();
            t_th += t.elapsed().as_secs_f64();
            th_lat.extend_from_slice(th.last_latencies_ns());
        }
        ev_best = ev_best.min(t_ev / ab_rounds as f64);
        th_best = th_best.min(t_th / ab_rounds as f64);
        // epoll req/s over threads req/s: >1 means the loop is faster.
        ab_ratios.push(t_th / t_ev);
    }
    ab_ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let epoll_over_threads = ab_ratios[ab_ratios.len() / 2];
    println!(
        "svc_pipeline/io_backend: v3_w64 epoll {:.0} req/s, threads {:.0} req/s, \
         ratio {epoll_over_threads:.3}x (target >= 0.95x)",
        BATCH as f64 / ev_best,
        BATCH as f64 / th_best,
    );
    let (p50_us, p95_us, p99_us) = pcts(ev_lat);
    cells.push(Cell {
        proto: "v3_ab",
        window: 64,
        // Off-Linux the epoll request degrades to threads; label what ran.
        io_backend: mis2_svc::IoBackend::Epoll.effective().name(),
        rps: BATCH as f64 / ev_best,
        p50_us,
        p95_us,
        p99_us,
    });
    let (p50_us, p95_us, p99_us) = pcts(th_lat);
    cells.push(Cell {
        proto: "v3_ab",
        window: 64,
        io_backend: "threads",
        rps: BATCH as f64 / th_best,
        p50_us,
        p95_us,
        p99_us,
    });
    epoll_handle.shutdown();
    threads_handle.shutdown();

    match write_bench_json(&cells, s3 / s1, metrics_overhead_pct, epoll_over_threads) {
        Ok(path) => println!("svc_pipeline/json: wrote {path}"),
        Err(e) => eprintln!("svc_pipeline/json: write failed: {e}"),
    }

    handle.shutdown();
}

criterion_group!(benches, bench_svc_pipeline);
criterion_main!(benches);
