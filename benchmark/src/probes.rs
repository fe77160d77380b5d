//! Layer probes: each times calls into one layer's public functions from
//! outside, on inputs the traced workload hands in. A probe that reports a
//! time or a rate always measures something real, on every workload; the
//! counts a workload's own traffic produced come from its server's `STATS`
//! instead (see `workloads::svc`).

use crate::stats::median;
use crate::workloads::{median_ms, ms, Cx, Readings};
use mis2_core::{mis2_with_config, verify_mis2, Mis2Config, Mis2Result};
use mis2_graph::{CsrGraph, Scale};
use mis2_prim::pool::{self, with_pool};
use mis2_svc::ops::{self, OpKey};
use mis2_svc::proto::{GraphRef, Method, Request};
use mis2_svc::{codec, metrics, registry, Client, Registry, V3Client};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

/// The `core` layer on one graph: the adaptive engine on the whole pool
/// and on a pool of one, the frozen reference engine, and the validity
/// check. For the kernel workloads this is also the oracle.
pub struct CoreProbe {
    /// The frozen reference engine's result.
    pub reference: Mis2Result,
    /// `Err` unless the reference verifies as an MIS-2 and both pool sizes
    /// of the adaptive engine reproduce it bit for bit.
    pub consistent: Result<(), String>,
    pub readings: Readings,
}

impl CoreProbe {
    pub fn reading(&self, name: &str) -> f64 {
        self.readings
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("a core reading by this name")
    }
}

pub fn core(g: &CsrGraph, seed: u64, cpus: usize) -> CoreProbe {
    let cfg = Mis2Config {
        seed,
        ..Default::default()
    };
    let (reference, ref_ms) =
        ms(|| with_pool(cpus, || mis2_core::reference::mis2_with_config(g, &cfg)));
    let (verified, verify_ms) = ms(|| verify_mis2(g, &reference.is_in));
    let (on_one, p1_ms) = ms(|| with_pool(1, || mis2_with_config(g, &cfg)));
    let on_all = with_pool(cpus, || mis2_with_config(g, &cfg));
    let mis2_ms = median_ms(3, || with_pool(cpus, || mis2_with_config(g, &cfg)));
    let consistent = match verified {
        Err(e) => Err(format!("the reference result is not an MIS-2: {e:?}")),
        Ok(()) if on_one != reference => Err("pool 1 differs from the reference engine".into()),
        Ok(()) if on_all != reference => Err("the full pool differs from the reference".into()),
        Ok(()) => Ok(()),
    };
    let frontier_sum: usize = reference.history.iter().map(|r| r.undecided).sum();
    let readings = vec![
        ("core.mis2_ms", mis2_ms),
        ("core.mis2_p1_ms", p1_ms),
        ("core.ref_ms", ref_ms),
        // Ratio with its base: reference engine time over adaptive engine
        // time, both on the whole pool.
        ("core.speedup_vs_ref", ref_ms / mis2_ms),
        ("core.verify_ms", verify_ms),
        ("core.rounds", reference.iterations as f64),
        ("core.frontier_sum", frontier_sum as f64),
        ("core.set_size", reference.size() as f64),
        (
            "core.ns_per_frontier_vertex",
            mis2_ms * 1e6 / frontier_sum.max(1) as f64,
        ),
    ];
    CoreProbe {
        reference,
        consistent,
        readings,
    }
}

/// The `coarsen` layer on one graph.
pub fn coarsen(g: &CsrGraph, cpus: usize) -> Readings {
    with_pool(cpus, || {
        let (agg, agg_ms) = ms(|| mis2_coarsen::mis2_aggregation(g));
        let (_, quotient_ms) = ms(|| mis2_coarsen::quotient_graph(g, &agg));
        let (levels, recursive_ms) = ms(|| mis2_coarsen::coarsen_recursive(g, 64, 4));
        vec![
            ("coarsen.agg_ms", agg_ms),
            ("coarsen.aggregates", agg.num_aggregates as f64),
            ("coarsen.quotient_ms", quotient_ms),
            ("coarsen.recursive_ms", recursive_ms),
            ("coarsen.levels", levels.len() as f64),
        ]
    })
}

/// The `prim` layer on fixed inputs: the cost of dispatching one region
/// onto the parked pool, and the two primitives every kernel round is
/// built from.
pub fn prim(cpus: usize) -> Readings {
    const REGIONS: usize = 20_000;
    const ELEMS: usize = 1 << 22;
    with_pool(cpus, || {
        let t = Instant::now();
        for _ in 0..REGIONS {
            pool::run_region_on(cpus, cpus, &|b| {
                black_box(b);
            });
        }
        let region_us = t.elapsed().as_secs_f64() * 1e6 / REGIONS as f64;
        let input: Vec<u32> = (0..ELEMS as u32).map(|i| i & 7).collect();
        let scan_ms = median_ms(5, || mis2_prim::exclusive_scan(&input));
        let compact_ms = median_ms(5, || mis2_prim::par_filter_indices(&input, |x| *x < 3));
        vec![
            ("prim.region_us", region_us),
            ("prim.scan_melem_s", ELEMS as f64 / (scan_ms * 1e-3) / 1e6),
            (
                "prim.compact_melem_s",
                ELEMS as f64 / (compact_ms * 1e-3) / 1e6,
            ),
        ]
    })
}

/// The graph the service-side probes run on when the traced workload
/// serves none of its own: the Emilia_923 stand-in at `Scale::Tiny`
/// (14 000 vertices), the mesh class of the kernel workload at a size
/// whose probes take milliseconds.
pub fn tiny_mesh() -> CsrGraph {
    mis2_graph::suite::build("Emilia_923", Scale::Tiny)
}

/// `STATS` over a fresh v1 connection, as a key → value map.
pub fn stats(addr: SocketAddr) -> HashMap<String, u64> {
    let mut c = Client::connect(addr).expect("connect for STATS");
    let line = c.request("STATS").expect("STATS");
    let _ = c.quit();
    registry::parse_stats_body(&line)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// `METRICS` over a fresh v1 connection, parsed.
pub fn exposition(addr: SocketAddr) -> metrics::Exposition {
    let mut c = Client::connect(addr).expect("connect for METRICS");
    let line = c.request("METRICS").expect("METRICS");
    let _ = c.quit();
    let body = line
        .strip_prefix("OK METRICS ")
        .unwrap_or_else(|| panic!("unexpected METRICS reply: {line}"));
    metrics::parse_exposition(&metrics::unescape_body(body)).expect("a parseable exposition")
}

/// `(sum_ns, count)` of one server stage histogram.
pub fn stage_totals(x: &metrics::Exposition, stage: &str) -> (u64, u64) {
    let of = |name: &str| {
        x.samples
            .iter()
            .find(|s| s.name == name && s.label("stage") == Some(stage))
            .map_or(0, |s| s.value)
    };
    (of("mis2_stage_ns_sum"), of("mis2_stage_ns_count"))
}

/// The five server stages in request order: the per-layer metric that
/// carries each one's mean, and its label in the exposition.
pub const STAGES: [(&str, &str); 5] = [
    ("server.stage_parse_us", "parse"),
    ("server.stage_probe_us", "probe"),
    ("server.stage_queue_us", "queue"),
    ("server.stage_run_us", "run"),
    ("server.stage_write_us", "write"),
];

/// Median round trip of `reps` single requests, in microseconds.
fn rtt_us(reps: usize, mut request: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            request();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per call over `reps` calls.
fn ns_per_call<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// What `Registry::response` adds to the compute it wraps on a miss
/// (canonical key, single-flight marker, insert, budget check, render,
/// intern): median over every distinct key of a small graph of the
/// uncached response time minus the direct compute time of the same op.
fn miss_overhead_us(cx: &Cx) -> f64 {
    let small = mis2_graph::gen::laplace2d(16, 16);
    let path = cx.tmp.join("small.mtx");
    mis2_graph::io::write_graph_file(&small, &path).expect("write small.mtx");
    let gref = GraphRef::Mtx(path.to_str().expect("a UTF-8 temp path").to_string());
    let keys: Vec<OpKey> = (1..=mis2_svc::proto::MAX_LEVELS)
        .map(|levels| OpKey::Coarsen { levels })
        .chain([
            OpKey::Mis2,
            OpKey::Solve { method: Method::Cg },
            OpKey::Solve {
                method: Method::Gmres,
            },
        ])
        .collect();
    let mut extra_us = Vec::new();
    with_pool(1, || {
        for _ in 0..5 {
            let reg = Registry::new(Scale::Tiny);
            reg.graph(&gref).expect("registry load");
            for op in &keys {
                let (_, direct) = ms(|| ops::compute(&small, op));
                let (resp, through) = ms(|| reg.response(&gref, op));
                resp.expect("registry response");
                extra_us.push((through - direct) * 1e3);
            }
        }
    });
    median(&extra_us)
}

/// Everything behind the socket, layer by layer, on one graph: the `.mtx`
/// reader and writer, direct `ops::compute`, a private `Registry` and
/// `Scheduler`, the codec and parser, and a default server with a
/// one-shard router in front of it for unloaded round trips, the server's
/// own stage histograms and the cost of the router hop.
pub fn service(g: &CsrGraph, cx: &Cx) -> Readings {
    const CALLS: usize = 100_000;
    const TRIPS: usize = 2_000;
    let path = cx.tmp.join("probe.mtx");
    let token = path.to_str().expect("a UTF-8 temp path").to_string();
    let mut out = Readings::new();

    // graph: the .mtx path every served graph takes.
    let (written, write_ms) = ms(|| mis2_graph::io::write_graph_file(g, &path));
    written.expect("write probe.mtx");
    let (read_back, read_ms) = ms(|| mis2_graph::io::read_graph_file(&path));
    assert_eq!(
        read_back.expect("read probe.mtx").num_edges(),
        g.num_edges(),
        "probe.mtx did not round-trip"
    );
    out.extend([
        ("graph.mtx_write_ms", write_ms),
        ("graph.mtx_read_ms", read_ms),
    ]);

    // server: a default server serving the probe graph.
    let server = mis2_svc::serve(mis2_svc::ServerConfig::default()).expect("start probe server");
    let addr = server.addr();
    let mut v3 = V3Client::connect(addr, 1).expect("v3 connect");
    let ok = |reply: String| assert!(reply.starts_with("OK "), "probe request failed: {reply}");
    // The probe pass: six computed requests, each scheduled, so the
    // server's stage histograms and scheduler counters hold exactly them.
    for line in [
        format!("MIS2 {token}"),
        format!("COARSEN {token} 1"),
        format!("COARSEN {token} 2"),
        format!("COARSEN {token} 3"),
        format!("SOLVE {token} cg"),
        format!("SOLVE {token} gmres"),
    ] {
        ok(v3.request(&line).expect("probe pass"));
    }
    let st = stats(addr);
    let team = st["team"].max(1) as usize;
    let x = exposition(addr);
    for (name, stage) in STAGES {
        let (sum, count) = stage_totals(&x, stage);
        out.push((name, sum as f64 / count.max(1) as f64 / 1e3));
    }
    out.extend([
        (
            "sched.queue_wait_us",
            st["queue_wait_us"] as f64 / st["queue_wait_count"].max(1) as f64,
        ),
        (
            "sched.run_ms",
            st["run_us"] as f64 / st["jobs"].max(1) as f64 / 1e3,
        ),
    ]);
    // Unloaded round trips of a cached key: binary v3 and text v1.
    let hot = format!("MIS2 {token}");
    out.push((
        "server.rtt_w1_us",
        rtt_us(TRIPS, || {
            black_box(v3.request(&hot).expect("v3 round trip"));
        }),
    ));
    let mut v1 = Client::connect(addr).expect("v1 connect");
    out.push((
        "server.rtt_v1_us",
        rtt_us(TRIPS, || {
            black_box(v1.request(&hot).expect("v1 round trip"));
        }),
    ));
    out.push((
        "metrics.scrape_us",
        rtt_us(50, || {
            black_box(v1.request("METRICS").expect("METRICS"));
        }),
    ));
    let _ = v1.quit();

    // shard: the same round trip through a one-shard router.
    let router = mis2_svc::route(mis2_svc::RouterConfig {
        shards: vec![addr.to_string()],
        ..Default::default()
    })
    .expect("start probe router");
    let mut routed = V3Client::connect(router.addr(), 1).expect("router connect");
    ok(routed.request(&hot).expect("routed warm-up"));
    let routed_us = rtt_us(TRIPS, || {
        black_box(routed.request(&hot).expect("routed round trip"));
    });
    // Measured again right next to the routed loop, so host drift between
    // the two cancels.
    let direct_us = rtt_us(TRIPS, || {
        black_box(v3.request(&hot).expect("v3 round trip"));
    });
    out.push(("shard.hop_us", routed_us - direct_us));
    let _ = routed.quit();
    router.shutdown();
    let _ = v3.quit();
    server.shutdown();
    let ring = mis2_svc::Ring::new(&["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]);
    out.push((
        "shard.ring_lookup_ns",
        ns_per_call(CALLS, || ring.shard_of(black_box(&token))),
    ));

    // ops: the compute the server's `run` stage wraps, at the team size
    // its scheduler gives a job.
    let keys = [
        OpKey::Mis2,
        OpKey::Coarsen { levels: 2 },
        OpKey::Solve { method: Method::Cg },
    ];
    let mut body_ns = 0.0;
    for (name, op) in [
        "ops.compute_mis2_ms",
        "ops.compute_coarsen_ms",
        "ops.compute_solve_ms",
    ]
    .into_iter()
    .zip(&keys)
    {
        let (artifact, t) = ms(|| with_pool(team, || ops::compute(g, op)));
        out.push((name, t));
        body_ns += ns_per_call(200, || ops::body(&token, op, &artifact));
    }
    out.push(("ops.body_us", body_ns / keys.len() as f64 / 1e3));

    // registry: first touch and the inline hit probe on the probe graph;
    // the uncached path around compute on a graph small enough (256
    // vertices) that the path is not lost in the compute it wraps.
    let reg = Registry::new(Scale::Tiny);
    let gref = GraphRef::parse(&token).expect("a graph token");
    let (loaded, graph_load_ms) = ms(|| reg.graph(&gref));
    loaded.expect("registry load");
    reg.response(&gref, &OpKey::Mis2)
        .expect("registry response");
    out.extend([
        ("registry.graph_load_ms", graph_load_ms),
        (
            "registry.hit_ns",
            ns_per_call(CALLS, || reg.try_response(&gref, &OpKey::Mis2)),
        ),
        ("registry.miss_overhead_us", miss_overhead_us(cx)),
    ]);

    // sched: hand-off to a worker-leader and back, nothing to compute.
    let sched = mis2_svc::Scheduler::new(mis2_svc::SchedConfig::default());
    out.push((
        "sched.roundtrip_us",
        rtt_us(TRIPS, || {
            black_box(
                sched
                    .submit(Box::new(|| ops::Response::ok_text("PONG".into())))
                    .wait(),
            );
        }),
    ));
    sched.shutdown();

    // codec and proto: per-frame and per-line cost.
    let payload = hot.as_bytes();
    let frame = codec::encode_frame(7, codec::STATUS_OK, payload);
    let line = format!("COARSEN {token} 2");
    out.extend([
        (
            "codec.encode_ns",
            ns_per_call(CALLS, || {
                codec::encode_frame(7, codec::STATUS_OK, black_box(payload))
            }),
        ),
        (
            "codec.decode_ns",
            ns_per_call(CALLS, || codec::decode_frame(black_box(&frame))),
        ),
        (
            "proto.parse_ns",
            ns_per_call(CALLS, || Request::parse(black_box(&line))),
        ),
    ]);
    out
}
