//! The served workloads. Every response is checked byte for byte against
//! `"OK " + ops::body(token, op, &ops::compute(g, op))` from a table built
//! before the measured phase, and the server's own `STATS` op says whether
//! the run exercised what the workload exists for.
//!
//! * `svc_cold`: the working set exceeds the registry, so every request
//!   computes while the graphs stay interned.
//! * `svc_hot`: the working set fits, so every request is answered inline
//!   from interned response bytes and the scheduler runs nothing.
//! * `svc_routed`: the `svc_hot` traffic through `shard::route` over two
//!   shards.

use super::{measure, ms, timed_setups, Cx, Outcome, Readings};
use crate::json::Value;
use crate::load::Client;
use crate::pipe::Pipe;
use crate::probes::{exposition, stage_totals, stats, STAGES};
use crate::yard::{Echo, Gather};
use mis2_graph::{gen, CsrGraph, Scale};
use mis2_prim::hash::splitmix64;
use mis2_prim::pool::with_pool;
use mis2_svc::proto::{GraphRef, Request};
use mis2_svc::shard::shard_key;
use mis2_svc::{codec, ops};
use mis2_svc::{serve, IoBackend, Ring, RouterHandle, ServerConfig, ServerHandle, V3Client};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A reply that takes longer than this is a failed op, not a hung run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The line a correct server answers `line` with, computed directly.
fn expected(line: &str, g: &CsrGraph) -> String {
    let req = Request::parse(line).expect("the harness only sends well-formed requests");
    let (gref, op) = ops::request_op(&req).expect("a compute request");
    format!("OK {}", ops::body(gref.token(), &op, &ops::compute(g, &op)))
}

fn connect(addr: SocketAddr, window: usize) -> V3Client {
    let conn = V3Client::connect(addr, window).expect("v3 connect");
    conn.set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");
    conn
}

/// What the server says about itself at one moment: its `STATS` line and
/// its `METRICS` exposition. Through a router both are the cluster's,
/// every counter summed over the shards.
struct Snapshot {
    stats: HashMap<String, u64>,
    metrics: mis2_svc::metrics::Exposition,
}

impl Snapshot {
    fn take(addr: SocketAddr) -> Snapshot {
        Snapshot {
            stats: stats(addr),
            metrics: exposition(addr),
        }
    }

    /// How far one `STATS` counter moved since `before`.
    fn since(&self, before: &Snapshot, key: &str) -> u64 {
        self.stats[key].saturating_sub(before.stats[key])
    }
}

/// The per-layer counts a served workload's own traffic produced: `STATS`
/// and `METRICS` differences across the measured phase.
fn traffic_readings(before: &Snapshot, after: &Snapshot, client_latency_ns: u128) -> Readings {
    let d = |key: &str| after.since(before, key) as f64;
    let staged_ns: u64 = STAGES
        .iter()
        .map(|(_, s)| stage_totals(&after.metrics, s).0 - stage_totals(&before.metrics, s).0)
        .sum();
    let client_ns = (client_latency_ns as f64).max(1.0);
    // A router's merged line sums `team` like every other key.
    let servers = after.stats.get("shards").copied().unwrap_or(1).max(1);
    vec![
        ("registry.hits", d("hits")),
        ("registry.misses", d("misses")),
        ("registry.resp_hits", d("resp_hits")),
        ("registry.evictions", d("evictions")),
        ("registry.graph_builds", after.stats["graph_builds"] as f64),
        ("registry.bytes", after.stats["bytes"] as f64),
        ("sched.jobs", d("jobs")),
        ("sched.team", (after.stats["team"] / servers) as f64),
        // Time the scheduler's leaders spent running jobs, over the time
        // the clients spent waiting for replies.
        ("sched.run_share", d("run_us") * 1e3 / client_ns),
        // Every named server stage (parse, probe, queue, run, write),
        // over the same base. Inline answers record no stages.
        ("server.attributed_share", staged_ns as f64 / client_ns),
        (
            "server.frames_per_writev",
            d("requests") / d("writev_batches").max(1.0),
        ),
        ("server.bytes_tx", d("bytes_tx")),
        ("server.peak_inflight", after.stats["peak_inflight"] as f64),
    ]
}

// ---------------------------------------------------------------------------
// svc_cold
// ---------------------------------------------------------------------------

/// Mesh + R-MAT pairs served. Each connection owns an equal share and
/// cycles through it, one session per pair.
const COLD_PAIRS: usize = 4;
const COLD_MESH_VERTICES: usize = 50_000;
const COLD_RMAT_SCALE: u32 = 15;
/// The registry may hold the graphs and half their bytes again. One
/// session's artifacts on one pair already exceed that half, so an
/// artifact is evicted long before its connection comes back to it.
const COLD_BUDGET_FACTOR: f64 = 1.5;

/// The five dependent requests of a session on one graph.
fn session_lines(token: &str) -> [String; 5] {
    [
        format!("MIS2 {token}"),
        format!("COARSEN {token} 2"),
        format!("SOLVE {token} cg"),
        format!("COARSEN {token} 8"),
        format!("SOLVE {token} gmres"),
    ]
}

struct Served {
    token: String,
    graph: CsrGraph,
}

struct ColdState {
    server: ServerHandle,
    conns: Vec<V3Client>,
    /// mesh 0, rmat 0, mesh 1, rmat 1, …
    served: Vec<Served>,
    gen_ms: f64,
}

struct ColdConn {
    conn: V3Client,
    /// The sessions this connection cycles through: ten `(request,
    /// expected reply)` pairs each.
    sessions: Vec<Vec<(String, String)>>,
    next: usize,
}

fn cold_setup(cx: &Cx, nconns: usize) -> ColdState {
    let mut gen_ms = 0.0;
    let served: Vec<Served> = (0..2 * COLD_PAIRS)
        .map(|i| {
            let seed = splitmix64(cx.seed ^ splitmix64(i as u64));
            let (graph, t) = ms(|| match i % 2 {
                0 => gen::mesh3d(COLD_MESH_VERTICES, 22, 0.02, 2, 40, 3, 26, seed),
                _ => gen::rmat(COLD_RMAT_SCALE, 16, 0.57, 0.19, 0.19, seed),
            });
            gen_ms += t;
            let kind = if i % 2 == 0 { "mesh" } else { "rmat" };
            let path = cx.tmp.join(format!("cold-{kind}-{}.mtx", i / 2));
            mis2_graph::io::write_graph_file(&graph, &path).expect("write .mtx input");
            Served {
                token: path.to_str().expect("a UTF-8 temp path").to_string(),
                graph,
            }
        })
        .collect();
    let graph_bytes: usize = served.iter().map(|s| s.graph.heap_bytes()).sum();
    let server = serve(ServerConfig {
        mem_budget: (graph_bytes as f64 * COLD_BUDGET_FACTOR) as usize,
        ..Default::default()
    })
    .expect("start server");
    let mut conns: Vec<V3Client> = (0..nconns).map(|_| connect(server.addr(), 1)).collect();
    // Intern every graph through the connection that will use it.
    std::thread::scope(|scope| {
        let share = served.len() / nconns;
        for (conn, mine) in conns.iter_mut().zip(served.chunks(share)) {
            scope.spawn(move || {
                for s in mine {
                    let reply = conn
                        .request(&format!("COARSEN {} 1", s.token))
                        .expect("intern request");
                    assert!(reply.starts_with("OK "), "interning failed: {reply}");
                }
            });
        }
    });
    ColdState {
        server,
        conns,
        served,
        gen_ms,
    }
}

fn cold_teardown(state: ColdState) {
    for conn in state.conns {
        let _ = conn.quit();
    }
    state.server.shutdown();
}

pub fn cold(cx: &Cx) -> Outcome {
    // Two connections where the host has two CPUs; never more clients
    // than CPUs.
    let nconns = cx.cpus.clamp(1, 2);
    let (state, setups_s) = timed_setups(|| cold_setup(cx, nconns), cold_teardown);
    let ColdState {
        server,
        conns,
        served,
        gen_ms,
    } = state;
    let addr = server.addr();

    // Oracle: every request of every session, computed directly.
    let sessions: Vec<Vec<(String, String)>> = with_pool(cx.cpus, || {
        served
            .chunks(2)
            .map(|pair| {
                pair.iter()
                    .flat_map(|s| {
                        session_lines(&s.token).map(|line| {
                            let want = expected(&line, &s.graph);
                            (line, want)
                        })
                    })
                    .collect()
            })
            .collect()
    });
    let share = sessions.len() / nconns;
    let mut states: Vec<ColdConn> = conns
        .into_iter()
        .zip(sessions.chunks(share))
        .map(|(conn, mine)| ColdConn {
            conn,
            sessions: mine.to_vec(),
            next: 0,
        })
        .collect();

    // Yardstick: gather sweeps over the served graphs, in the harness, while
    // the server waits for the next round's requests.
    // One barrier per graph and sweep (each graph has about a million
    // adjacency entries): 40 in a reading of 27 ms.
    let mut yardstick = Gather::new(
        served.iter().map(|s| &s.graph).collect(),
        cx.cpus,
        usize::MAX,
    );
    let (sweeps, barriers) = (yardstick.sweeps(), yardstick.barriers());

    let before = Snapshot::take(addr);
    let session = |st: &mut ColdConn, c: &mut Client| {
        let session = &st.sessions[st.next % st.sessions.len()];
        st.next += 1;
        let root = c.rec.begin("harness.session");
        let mut latency = Duration::ZERO;
        let mut verdict = Ok(());
        for (line, want) in session {
            let s = c.rec.begin("svc.request");
            let t = Instant::now();
            let reply = st.conn.request(line);
            latency += t.elapsed();
            c.rec.end(s);
            match reply {
                Ok(got) if got == *want => {}
                Ok(got) => {
                    verdict = Err(format!("`{line}` answered `{got}`, expected `{want}`"));
                }
                Err(e) => {
                    verdict = Err(format!("`{line}` failed: {e}"));
                    break;
                }
            }
        }
        c.rec.end(root);
        c.done(latency, verdict);
    };
    let (plain, traced) = measure(&mut states, cx, &mut || yardstick.read(), session);
    let after = Snapshot::take(addr);

    // Validity: the run is cold only if nothing hit the artifact cache,
    // and the working set is "interned" only if no graph was built twice.
    let hits = after.since(&before, "hits");
    let builds = after.stats["graph_builds"];
    let valid = if hits != 0 {
        Err(format!(
            "{hits} requests hit the artifact cache in a cold run"
        ))
    } else if builds != served.len() as u64 {
        Err(format!(
            "{builds} graph builds for {} graphs: the budget evicted a graph",
            served.len()
        ))
    } else {
        Ok(())
    };

    let mut layers = Readings::new();
    if let Some(traced) = &traced {
        layers.push(("graph.gen_ms", gen_ms / served.len() as f64));
        layers.extend(traffic_readings(
            &before,
            &after,
            plain.hist.sum_ns() + traced.hist.sum_ns(),
        ));
    }
    let inputs = Value::obj([
        ("graphs", Value::from(served.len() as u64)),
        ("connections", Value::from(nconns as u64)),
        ("mem_budget", Value::from(after.stats["mem_budget"])),
        ("misses", Value::from(after.since(&before, "misses"))),
        ("evictions", Value::from(after.since(&before, "evictions"))),
        ("team", Value::from(after.stats["team"])),
        ("yardstick_sweeps", Value::from(sweeps as u64)),
        ("yardstick_barriers", Value::from(barriers as u64)),
    ]);
    for st in states {
        let _ = st.conn.quit();
    }
    server.shutdown();
    let probe_graph = served
        .into_iter()
        .next()
        .expect("at least one pair is served")
        .graph;
    Outcome {
        setups_s,
        plain,
        traced,
        valid,
        layers,
        inputs,
        probe_graph,
        serves_probe_graph: true,
    }
}

// ---------------------------------------------------------------------------
// svc_hot and svc_routed
// ---------------------------------------------------------------------------

/// Six suite graphs at `Scale::Tiny`, three ops each: 18 cached keys.
const HOT_GRAPHS: [&str; 6] = [
    "ecology2",
    "parabolic_fem",
    "thermal2",
    "tmt_sym",
    "apache2",
    "StocF-1465",
];
/// Requests per batch: one full window of a default server.
const HOT_WINDOW: usize = 64;
/// Connections the one client thread alternates between, a batch in
/// flight on each (see `pipe.rs` for why two, and why one thread).
const HOT_PIPES: usize = 2;
/// Batches in one round of the measured traffic (about 20 ms direct, six
/// times that routed) and in one yardstick reading (a few milliseconds),
/// so a run holds hundreds of pairs taken close together.
const HOT_BURST: usize = 256;
const ECHO_BURST: usize = 128;

/// The three cached requests on one graph.
fn hot_lines(graph: &str) -> [String; 3] {
    [
        format!("MIS2 {graph}"),
        format!("COARSEN {graph} 2"),
        format!("SOLVE {graph} cg"),
    ]
}

fn hot_keys() -> Vec<String> {
    HOT_GRAPHS.iter().flat_map(|g| hot_lines(g)).collect()
}

/// One window of requests and the reply body a correct server sends for
/// each.
struct Batch {
    lines: Vec<String>,
    want: Vec<Vec<u8>>,
}

/// The request stream, cut into batches of one window: the 18 keys in a
/// seeded order, repeated. Nine batches bring the stream back to its
/// start (lcm(64, 18) = 576 requests).
fn hot_batches(seed: u64, table: &HashMap<String, Vec<u8>>) -> Vec<Batch> {
    let mut keys = hot_keys();
    for i in (1..keys.len()).rev() {
        let j = (splitmix64(seed ^ splitmix64(i as u64)) % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    let period = keys.len() / gcd(HOT_WINDOW, keys.len());
    (0..period)
        .map(|b| {
            let lines: Vec<String> = (0..HOT_WINDOW)
                .map(|j| keys[(b * HOT_WINDOW + j) % keys.len()].clone())
                .collect();
            let want = lines.iter().map(|l| table[l].clone()).collect();
            Batch { lines, want }
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Largest share of the hot graphs one shard owns.
fn balance(shards: &[String]) -> f64 {
    let ring = Ring::new(shards);
    let mut owned = vec![0usize; shards.len()];
    for g in HOT_GRAPHS {
        owned[ring.shard_of(&shard_key(&GraphRef::Suite(g.into())))] += 1;
    }
    *owned.iter().max().expect("at least one shard") as f64 / HOT_GRAPHS.len() as f64
}

/// The one client of a hot workload: a few connections, a batch in flight
/// on each, served in turn.
struct HotLane {
    pipes: Vec<Pipe>,
    /// Per pipe: the batch in flight, its first tag, and when it was sent.
    inflight: Vec<Option<(usize, u64, Instant)>>,
    turn: usize,
}

impl HotLane {
    fn connect(addr: SocketAddr) -> HotLane {
        let pipes: Vec<Pipe> = (0..HOT_PIPES)
            .map(|_| {
                let (pipe, window) = Pipe::connect(addr, REPLY_TIMEOUT).expect("v3 connect");
                assert!(window >= HOT_WINDOW, "server window {window} below a batch");
                pipe
            })
            .collect();
        let mut lane = HotLane {
            inflight: vec![None; pipes.len()],
            pipes,
            turn: 0,
        };
        // Request every key until the whole pass is answered from interned
        // bytes, so the first measured request is already a hit.
        let keys = hot_keys();
        for _ in 0..2 {
            for pipe in &mut lane.pipes {
                pipe.send(&keys).expect("warm-up send");
                pipe.recv(keys.len(), |_, status, body, _| {
                    assert!(
                        status == codec::STATUS_OK,
                        "warm-up failed: {}",
                        String::from_utf8_lossy(body)
                    );
                })
                .expect("warm-up replies");
            }
        }
        lane
    }

    /// Collect and check the batch in flight on connection `i`, if any,
    /// calling `done(latency, verdict)` per request.
    fn collect(
        &mut self,
        i: usize,
        batches: &[Batch],
        done: &mut impl FnMut(Duration, Result<(), String>),
    ) {
        let Some((b, base, sent)) = self.inflight[i].take() else {
            return;
        };
        let batch = &batches[b];
        let mut answered = 0;
        let outcome = self.pipes[i].recv(batch.lines.len(), |tag, status, body, arrived| {
            answered += 1;
            let verdict = match batch.want.get((tag.wrapping_sub(base)) as usize) {
                Some(want) if status == codec::STATUS_OK && body == want.as_slice() => Ok(()),
                Some(want) => Err(format!(
                    "got status {status} `{}`, expected `{}`",
                    String::from_utf8_lossy(body),
                    String::from_utf8_lossy(want)
                )),
                None => Err(format!("reply to tag {tag}, which is not in flight")),
            };
            done(arrived.saturating_duration_since(sent), verdict);
        });
        if let Err(e) = outcome {
            for _ in answered..batch.lines.len() {
                done(Duration::ZERO, Err(format!("batch failed: {e}")));
            }
        }
    }

    /// One step: collect the batch in flight on the connection whose turn
    /// it is and send that connection its next batch. The other
    /// connections' batches stay in flight meanwhile, which is what keeps
    /// the server busy.
    fn step(&mut self, batches: &[Batch], mut done: impl FnMut(Duration, Result<(), String>)) {
        let npipes = self.pipes.len();
        let i = self.turn % npipes;
        self.collect(i, batches, &mut done);
        // Each connection walks the stream from its own starting batch.
        let b = (self.turn / npipes + i * batches.len() / npipes) % batches.len();
        let sent = Instant::now();
        match self.pipes[i].send(&batches[b].lines) {
            Ok(base) => self.inflight[i] = Some((b, base, sent)),
            Err(e) => {
                for _ in &batches[b].lines {
                    done(Duration::ZERO, Err(format!("send failed: {e}")));
                }
            }
        }
        self.turn += 1;
    }

    /// One burst: `steps` steps, then collect what is left in flight, so a
    /// burst starts and ends with idle connections and no reply waits out
    /// whatever the caller does between two bursts.
    fn burst(
        &mut self,
        batches: &[Batch],
        steps: usize,
        mut done: impl FnMut(Duration, Result<(), String>),
    ) {
        for _ in 0..steps {
            self.step(batches, &mut done);
        }
        for i in 0..self.pipes.len() {
            self.collect(i, batches, &mut done);
        }
    }

    /// Collect what is still in flight, so the connections close cleanly.
    fn close(mut self) {
        for (pipe, inflight) in self.pipes.iter_mut().zip(&self.inflight) {
            if inflight.is_some() {
                let _ = pipe.recv(HOT_WINDOW, |_, _, _, _| {});
            }
        }
        for pipe in self.pipes {
            pipe.quit();
        }
    }
}

struct HotState {
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    lane: HotLane,
}

impl HotState {
    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.servers[0].addr(), RouterHandle::addr)
    }

    fn shard_addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }
}

fn hot_setup(routed: bool, config: &ServerConfig) -> HotState {
    let mut servers = vec![serve(config.clone()).expect("start server")];
    let mut router = None;
    if routed {
        // A shard's place on the ring follows from its address, and the
        // ports are the kernel's choice. Redraw the second shard until
        // each owns half the graphs, so every run routes the same split.
        let addrs = |servers: &[ServerHandle]| -> Vec<String> {
            servers.iter().map(|s| s.addr().to_string()).collect()
        };
        servers.push(serve(config.clone()).expect("start shard"));
        for _ in 0..64 {
            if balance(&addrs(&servers)) <= 0.5 {
                break;
            }
            let redrawn = serve(config.clone()).expect("start shard");
            std::mem::replace(&mut servers[1], redrawn).shutdown();
        }
        router = Some(
            mis2_svc::route(mis2_svc::RouterConfig {
                shards: addrs(&servers),
                ..Default::default()
            })
            .expect("start router"),
        );
    }
    let addr = router
        .as_ref()
        .map_or_else(|| servers[0].addr(), RouterHandle::addr);
    HotState {
        lane: HotLane::connect(addr),
        servers,
        router,
    }
}

fn hot_teardown(state: HotState) {
    state.lane.close();
    if let Some(router) = state.router {
        router.shutdown();
    }
    for server in state.servers {
        server.shutdown();
    }
}

/// Requests per second of the hot stream on `lane` for about `seconds`:
/// the base of the A/B ratios.
fn hot_rate(lane: &mut HotLane, batches: &[Batch], seconds: f64) -> f64 {
    let start = Instant::now();
    let mut requests = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        lane.step(batches, |_, verdict| {
            verdict.expect("an A/B request answered wrongly");
            requests += 1;
        });
    }
    requests as f64 / start.elapsed().as_secs_f64()
}

/// Throughput of a server configured as `a` over one configured as `b` on
/// the hot stream, the two taking turns in short slices so host drift
/// touches both alike.
fn ab_ratio(a: &ServerConfig, b: &ServerConfig, batches: &[Batch]) -> f64 {
    const SLICES: usize = 6;
    const SLICE_S: f64 = 0.25;
    let (mut sa, mut sb) = (hot_setup(false, a), hot_setup(false, b));
    let (mut ra, mut rb) = (0.0, 0.0);
    for _ in 0..SLICES {
        ra += hot_rate(&mut sa.lane, batches, SLICE_S);
        rb += hot_rate(&mut sb.lane, batches, SLICE_S);
    }
    hot_teardown(sa);
    hot_teardown(sb);
    ra / rb
}

pub fn hot(cx: &Cx, routed: bool) -> Outcome {
    let config = ServerConfig::default();
    let (mut state, setups_s) = timed_setups(|| hot_setup(routed, &config), hot_teardown);
    let addr = state.addr();

    // Oracle: all 18 reply bodies, computed directly on the same suite
    // graphs.
    let (probe_graph, gen_ms) = ms(crate::probes::tiny_mesh);
    let table: HashMap<String, Vec<u8>> = with_pool(cx.cpus, || {
        HOT_GRAPHS
            .iter()
            .flat_map(|name| {
                let g = mis2_graph::suite::build(name, Scale::Tiny);
                hot_lines(name).map(|line| {
                    let want = expected(&line, &g);
                    let body = want.strip_prefix("OK ").expect("an OK line");
                    (line, body.as_bytes().to_vec())
                })
            })
            .collect()
    });
    let batches = hot_batches(cx.seed, &table);

    // Yardstick: the same batches against the harness's echo peer, which
    // answers every request with one fixed payload of the mean reply's
    // length.
    let reply_len = table.values().map(Vec::len).sum::<usize>() / table.len();
    let echo = Echo::start(vec![b'.'; reply_len]);
    let mut echo_lane = HotLane::connect(echo.addr());
    let echo_batches: Vec<Batch> = batches
        .iter()
        .map(|b| Batch {
            lines: b.lines.clone(),
            want: vec![vec![b'.'; reply_len]; b.lines.len()],
        })
        .collect();
    let mut yardstick = || {
        let t = Instant::now();
        echo_lane.burst(&echo_batches, ECHO_BURST, |_, verdict| {
            verdict.expect("the echo peer answered wrongly");
        });
        t.elapsed()
    };

    let before = Snapshot::take(addr);
    let (plain, traced) = measure(
        std::slice::from_mut(&mut state.lane),
        cx,
        &mut yardstick,
        |lane: &mut HotLane, c: &mut Client| {
            let s = c.rec.begin("svc.burst");
            lane.burst(&batches, HOT_BURST, |latency, verdict| {
                c.done(latency, verdict)
            });
            c.rec.end(s);
        },
    );
    let after = Snapshot::take(addr);
    echo_lane.close();
    echo.shutdown();

    // Validity: the run is hot only if nothing was computed or scheduled.
    let (misses, jobs) = (after.since(&before, "misses"), after.since(&before, "jobs"));
    let valid = if misses != 0 || jobs != 0 {
        Err(format!(
            "{misses} cache misses and {jobs} scheduled jobs in a hot run"
        ))
    } else {
        Ok(())
    };

    let mut layers = Readings::new();
    if let Some(traced) = &traced {
        layers.push(("graph.gen_ms", gen_ms));
        layers.extend(traffic_readings(
            &before,
            &after,
            plain.hist.sum_ns() + traced.hist.sum_ns(),
        ));
        if routed {
            // The same stream straight at shard 0: the base of the ratio.
            let mut direct = HotLane::connect(state.servers[0].addr());
            let direct_rate = hot_rate(&mut direct, &batches, 1.5);
            direct.close();
            layers.push(("shard.routed_over_direct", plain.throughput() / direct_rate));
            layers.push(("shard.balance", balance(&state.shard_addrs())));
        } else {
            let threads = ServerConfig {
                io_backend: IoBackend::Threads,
                ..config.clone()
            };
            layers.push((
                "server.threads_over_epoll",
                ab_ratio(&threads, &config, &batches),
            ));
            let silent = ServerConfig {
                metrics: false,
                ..config.clone()
            };
            let on_over_off = ab_ratio(&config, &silent, &batches);
            layers.push(("metrics.overhead_pct", (1.0 - on_over_off) * 100.0));
        }
    }
    let inputs = Value::obj([
        ("keys", Value::from(table.len() as u64)),
        ("connections", Value::from(HOT_PIPES as u64)),
        ("window", Value::from(HOT_WINDOW as u64)),
        ("burst", Value::from(HOT_BURST as u64)),
        ("yardstick_burst", Value::from(ECHO_BURST as u64)),
        ("yardstick_reply_bytes", Value::from(reply_len as u64)),
        (
            "shards",
            Value::from(if routed {
                state.servers.len() as u64
            } else {
                0
            }),
        ),
        (
            "balance",
            Value::from(if routed {
                balance(&state.shard_addrs())
            } else {
                1.0
            }),
        ),
        ("hits", Value::from(after.since(&before, "hits"))),
    ]);
    hot_teardown(state);
    Outcome {
        setups_s,
        plain,
        traced,
        valid,
        layers,
        inputs,
        probe_graph,
        serves_probe_graph: true,
    }
}
