//! Sharded serving: a consistent-hash ring over shard identities plus
//! the `mis2svc route` proxy that fronts N independent `mis2svc` server
//! processes, each owning a slice of the graph keyspace.
//!
//! ## Ownership rule
//!
//! Every compute request names exactly one graph; the graph's *canonical*
//! token ([`shard_key`] — suite names as-is, `.mtx` paths resolved the
//! same way the registry keys them) hashes onto the [`Ring`], and the
//! shard owning the first ring point at or after that hash serves the
//! request. Each shard contributes a fixed set of virtual-node points
//! derived only from its own identity, so growing or shrinking the shard
//! set moves only the keys whose owning arc changed — every other key
//! keeps its shard, its cache entries, and its responses.
//!
//! ## The router
//!
//! [`route`] is not a second server: it binds, stops and defaults its
//! limits through the server's own listener handle, hands the socket to
//! the server's own accept path, and every downstream connection runs the
//! server's own connection machine (the crate-private `conn` module) —
//! the same hellos, framing, window slots, inline `PING`, error strings,
//! `QUIT` drain and write batch, from the same code. What it supplies is the
//! **upstream service** behind that machine's one seam: `Upstream`
//! (shared: the ring and the shard addresses) and `UpConn` (per
//! downstream connection: one pipelined v3 socket per shard, dialed by
//! the first request that needs it). A compute request arrives already
//! holding a window slot; `Upstream::run` hashes it to its shard,
//! assigns a per-shard upstream tag, remembers the downstream
//! `Framing` under that tag, and writes one frame. The shard's
//! `upstream_reader` thread looks the tag up again and delivers the
//! response, re-framed for the downstream protocol, through the
//! connection's `CompletionSink` — exactly where a scheduler completion
//! would deliver on a server. Responses are therefore byte-identical to
//! a single unsharded server's, which the e2e tests and the CI
//! `shard-smoke` leg diff-prove across the full workload sweep.
//!
//! The router's advertised window is clamped to the smallest shard
//! window, so the per-shard in-flight count can never exceed what the
//! shard's own reader will drain — upstream writes never block on shard
//! backpressure while the per-shard lock is held.
//!
//! The router's connections run on the **threads** driver (see
//! `ROUTER_DRIVER` for why), and it records no request metrics of its
//! own: `METRICS` and `STATS` through it are the merged cluster bodies.
//!
//! ## Failure semantics
//!
//! A dead shard fails fast and stays contained: the upstream reader (or a
//! failed upstream write) marks that shard dead, drains its in-flight
//! tags, and answers each with `ERR shard down` under the request's own
//! tag — exactly one answer (and one window-slot release) per poisoned
//! tag, because every insert/remove on the pending map happens under one
//! lock. Requests for keys the dead shard owns keep answering `ERR shard
//! down` immediately; surviving shards are untouched. The dead shard is
//! **redialed** as requests keep arriving for it — paced by capped
//! exponential backoff (50 ms doubling to 2 s) with uniform jitter so a
//! request stream never hot-loops TCP connects and parallel routers
//! don't redial in lockstep — and a successful redial restores service
//! on a fresh connection generation (in-flight tags of the dead one
//! still answer `ERR shard down` exactly once each). A shard that accepts
//! a dial and then says nothing fails it after `HELLO_TIMEOUT`.
//!
//! A downstream connection's upstream sockets live exactly as long as
//! its machine, and the driver keeps the machine until the last in-flight
//! response has been written — so a client that pipelines and then
//! half-closes gets its answers, not `ERR shard down`.
//!
//! For `STATS` and `METRICS` alike, the router asks every shard for its
//! `METRICS` once and merges the parsed expositions once
//! ([`crate::metrics::merge_expositions`]). The cluster `METRICS` body is
//! that merge rendered; the cluster `STATS` line reads the server's
//! counter table out of it — each key in the single-server order — then
//! appends the cluster-only gauges `shards= shards_up= shard_bytes=
//! shard_evictions=`.

use crate::client::Client;
use crate::codec;
use crate::conn::{CompletionSink, Framing, Outgoing};
use crate::metrics::{self, Exposition, Metrics};
use crate::ops;
use crate::proto::{GraphRef, Request};
use crate::server::{stats_line, ConnShared, IoBackend, Listener, Service, SvcStats, COUNTERS};
use mis2_prim::hash::{hash2, splitmix64};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Virtual-node points each shard contributes to the ring. Enough that
/// the largest shard's share of the keyspace stays within a few percent
/// of 1/N, few enough that building and searching the ring is trivial.
pub const VNODES: usize = 64;

/// Hash a key string onto the ring's `u64` circle: bytes folded through
/// `splitmix64` with the length mixed in last, so prefixes don't collide.
fn hash_key(key: &str) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15;
    for &b in key.as_bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    splitmix64(h ^ key.len() as u64)
}

/// The cache-key form a graph reference shards on: suite names as-is,
/// `.mtx` paths canonicalized exactly like [`crate::registry`] keys them
/// (falling back to the literal spelling when the path doesn't resolve),
/// so one graph always lives on one shard no matter how it is spelled.
pub fn shard_key(graph: &GraphRef) -> String {
    graph
        .try_canonical()
        .unwrap_or_else(|| graph.clone())
        .token()
        .to_string()
}

/// A consistent-hash ring: [`VNODES`] points per shard, each derived
/// only from the shard's own identity string, sorted on a `u64` circle.
/// A key is owned by the shard holding the first point at or after the
/// key's hash (wrapping at the top).
///
/// Because a shard's points depend on nothing but its own identity,
/// adding or removing a shard inserts or deletes only *that shard's*
/// points: every key whose owning point survives keeps its owner, which
/// is the rebalancing guarantee the grow/shrink tests pin down.
pub struct Ring {
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Build the ring over the given shard identities (typically their
    /// addresses). Panics on an empty shard set — a ring with no points
    /// cannot own anything.
    pub fn new<S: AsRef<str>>(shard_ids: &[S]) -> Ring {
        assert!(!shard_ids.is_empty(), "ring needs at least one shard");
        let mut points = Vec::with_capacity(shard_ids.len() * VNODES);
        for (idx, id) in shard_ids.iter().enumerate() {
            let base = hash_key(id.as_ref());
            for replica in 0..VNODES as u64 {
                points.push((hash2(splitmix64, base, replica), idx));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// Index (into the constructor's slice) of the shard owning `key`.
    pub fn shard_of(&self, key: &str) -> usize {
        let h = hash_key(key);
        let i = self.points.partition_point(|&(p, _)| p < h);
        let i = if i == self.points.len() { 0 } else { i };
        self.points[i].1
    }
}

/// Router configuration for [`route`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Upstream shard addresses, in ring order. Must be non-empty and
    /// every shard must answer a v3 hello at startup.
    pub shards: Vec<String>,
    /// Maximum concurrent downstream connections (0 = 1024).
    pub max_conns: usize,
    /// Downstream window cap (0 = 64); always clamped to the smallest
    /// shard-advertised window so per-shard in-flight never exceeds what
    /// the shard's reader will drain.
    pub max_inflight: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            max_conns: 0,
            max_inflight: 0,
        }
    }
}

/// A running router. Call [`RouterHandle::shutdown`] to stop it (tests)
/// or [`RouterHandle::wait`] to serve forever (the `mis2svc route` bin).
pub struct RouterHandle {
    listener: Listener,
}

impl RouterHandle {
    /// The address the router actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The router's wire counters (downstream window gauges).
    pub fn svc_stats(&self) -> &Arc<SvcStats> {
        &self.listener.cx.stats
    }

    /// The downstream window cap after clamping to the shard windows.
    pub fn max_inflight(&self) -> usize {
        self.listener.cx.max_inflight
    }

    /// Block forever serving.
    pub fn wait(mut self) {
        self.listener.wait();
    }

    /// Stop accepting, join the accept thread, and hard-close every live
    /// downstream connection so its handler (and that handler's upstream
    /// connections) wind down.
    pub fn shutdown(mut self) {
        self.listener.stop(true);
    }
}

/// The I/O driver the router's connections run on. Pinned to threads, not
/// [`IoBackend::platform_default`]: [`dial`] (a TCP connect plus a hello
/// round trip, on the first request for a shard and on every due redial)
/// and the cluster `STATS`/`METRICS` fetch (one `METRICS` round trip to
/// every shard) **block their caller**. A connection's own reader thread
/// can afford that; the single epoll loop thread, which serves every
/// connection, cannot. Moving those two calls off the caller is what lets
/// this become the platform default — and what lets the threads driver
/// (`threads.rs`, which nothing else imports) be deleted with `IoBackend`.
const ROUTER_DRIVER: IoBackend = IoBackend::Threads;

/// Bind and start the shard router in background threads. Every shard
/// must answer its v3 hello at startup (the advertised windows bound the
/// router's own window); shards may die afterwards — that is the failure
/// mode the router contains per-shard.
pub fn route(cfg: RouterConfig) -> io::Result<RouterHandle> {
    if cfg.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one shard",
        ));
    }
    let (max_conns, mut max_inflight) = Listener::limits(cfg.max_conns, cfg.max_inflight);
    for addr in &cfg.shards {
        // The probe connection drops right here; the shard treats the
        // EOF as a clean close.
        let (_, _, window) = dial(addr, HELLO_TIMEOUT)
            .map_err(|e| io::Error::new(e.kind(), format!("shard {addr}: {e}")))?;
        max_inflight = max_inflight.min(window);
    }
    let service = Service::Upstream(Upstream {
        ring: Ring::new(&cfg.shards),
        addrs: cfg.shards,
    });
    let cx = ConnShared::new(service, Metrics::disabled(0), max_inflight, ROUTER_DRIVER);
    Ok(RouterHandle {
        listener: Listener::bind(&cfg.addr, max_conns, cx)?,
    })
}

/// The upstream service, shared by every downstream connection: which
/// shards there are and which of them owns a key.
pub(crate) struct Upstream {
    ring: Ring,
    addrs: Vec<String>,
}

/// The upstream service's per-connection half: one [`UpShard`] per shard,
/// owned by one downstream connection's machine. Dropping it is the
/// connection's upstream teardown.
pub(crate) struct UpConn {
    shards: Vec<Arc<UpShard>>,
}

impl Upstream {
    /// A downstream connection's upstream set, no socket open yet: the
    /// first request forwarded to a shard dials it. A shard that cannot be
    /// dialed is dead (its keys answer `ERR shard down`) and is redialed
    /// on the backoff cadence as requests keep arriving for it.
    pub(crate) fn connect(&self) -> UpConn {
        UpConn {
            shards: self
                .addrs
                .iter()
                .map(|a| Arc::new(UpShard::new(a)))
                .collect(),
        }
    }

    /// Consistent-hash one parsed compute request to its owning shard and
    /// forward it under the window slot it already holds; the response
    /// (or `ERR shard down`) reaches `sink` framed as `framing`.
    pub(crate) fn run(
        &self,
        conn: &UpConn,
        req: &Request,
        framing: Framing,
        sink: &Arc<dyn CompletionSink>,
    ) {
        let Some((graph, _)) = ops::request_op(req) else {
            // The machine hands over compute requests only; answer
            // anyway rather than poison anything.
            let msg = b"not a compute request";
            return sink.deliver(reply(framing, codec::STATUS_ERR, msg));
        };
        let idx = self.ring.shard_of(&shard_key(graph));
        forward(&conn.shards[idx], &req.to_line(), framing, sink);
    }

    /// Ask every shard for its `METRICS` over a short-lived v1
    /// connection; `None` for a shard that failed or answered garbage.
    /// Both cluster bodies are printed from this one fetch: `METRICS` is
    /// its [`metrics::merge_expositions`] rendered, `STATS` is
    /// [`cluster_stats`].
    pub(crate) fn fetch(&self) -> Vec<Option<Exposition>> {
        let one = |addr: &String| -> Option<Exposition> {
            let mut c = Client::connect(addr.as_str()).ok()?;
            c.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
            let line = c.request("METRICS").ok()?;
            let _ = c.quit();
            let body = line.strip_prefix("OK METRICS ")?;
            metrics::parse_exposition(&metrics::unescape_body(body)).ok()
        };
        self.addrs.iter().map(one).collect()
    }
}

/// The cluster `STATS` line: the counter table read out of the shards'
/// merged exposition, in the single-server key order, then the topology
/// appended at the end:
///
/// ```text
/// shards=<N> shards_up=<K> shard_bytes=b0,b1,… shard_evictions=e0,e1,…
/// ```
///
/// where the comma lists give each shard's own `bytes` / `evictions` in
/// ring order, letting callers attribute load per shard. A dead shard
/// contributes zeros; with every shard dead, every key reads 0.
pub(crate) fn cluster_stats(shards: &[Option<Exposition>]) -> String {
    let merged = metrics::merge_expositions(shards);
    let read = |exp: &Exposition, series: &str| exp.value(series).unwrap_or(0);
    let per_shard = |series: &str| -> String {
        let values: Vec<String> = shards
            .iter()
            .map(|e| e.as_ref().map_or(0, |e| read(e, series)).to_string())
            .collect();
        values.join(",")
    };
    format!(
        "{} shards={} shards_up={} shard_bytes={} shard_evictions={}",
        stats_line(COUNTERS.map(|(_, series)| read(&merged, series))),
        shards.len(),
        read(&merged, "mis2_shards_up"),
        per_shard("mis2_cache_bytes"),
        per_shard("mis2_cache_evictions_total"),
    )
}

impl Drop for UpConn {
    /// Mark every shard closed (no further redials), hard-close the
    /// upstream sockets so their readers unblock, and join the readers of
    /// every generation. The join happens outside the shard lock — a
    /// dying reader takes it to drain its pending tags.
    fn drop(&mut self) {
        for shard in &self.shards {
            let (socket, readers) = {
                let Ok(mut st) = shard.state.lock() else {
                    continue; // a reader panicked under the lock: nothing to save
                };
                st.closed = true;
                (st.writer.take(), std::mem::take(&mut st.readers))
            };
            if let Some(s) = socket {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            for h in readers {
                let _ = h.join();
            }
        }
    }
}

/// The lock-guarded half of one upstream shard connection. Every
/// transition of the pending map — insert on forward, remove on a
/// response, drain on death — happens under this one lock, which is what
/// makes delivery (and therefore window-slot release) exactly-once per
/// tag: a tag leaves the map exactly once, and whoever removes it owns
/// answering it.
struct UpState {
    /// In-flight upstream tags and how to frame each answer downstream.
    pending: HashMap<u64, Framing>,
    /// Next upstream tag (monotonically unique across reconnects, so a
    /// stale socket's late response can never alias a fresh tag).
    next_tag: u64,
    /// Write half of the current shard connection; `None` while the
    /// shard is dead — forwards answer `ERR shard down` immediately
    /// (fail-fast) and redial on the backoff cadence below.
    writer: Option<TcpStream>,
    /// Reused frame buffer: header and request line leave in one write.
    frame: Vec<u8>,
    /// Connection generation: bumped by every successful (re)dial. A
    /// dying reader poisons the shard only if its generation is still
    /// current — a newer socket may already be serving.
    gen: u64,
    /// Reader threads of every generation, joined at teardown.
    readers: Vec<std::thread::JoinHandle<()>>,
    /// Downstream teardown has begun: no further redials.
    closed: bool,
    /// Earliest instant the next redial may happen; `None` = dial freely
    /// (fresh shard, or first forward after a death).
    next_dial_at: Option<Instant>,
    /// Current backoff interval (zero until a dial fails; doubles per
    /// failure up to [`DIAL_BACKOFF_CAP`], resets on success).
    backoff: Duration,
    /// Total dial attempts, successful or not. Seeds the jitter and
    /// bounds the retry cadence under test.
    dials: u64,
}

/// One upstream shard connection owned by one downstream connection.
struct UpShard {
    addr: String,
    state: Mutex<UpState>,
}

impl UpShard {
    /// A shard slot with no connection yet: the first [`forward`] dials
    /// it.
    fn new(addr: &str) -> UpShard {
        UpShard {
            addr: addr.to_string(),
            state: Mutex::new(UpState {
                pending: HashMap::new(),
                next_tag: 0,
                writer: None,
                frame: Vec::new(),
                gen: 0,
                readers: Vec::new(),
                closed: false,
                next_dial_at: None,
                backoff: Duration::ZERO,
                dials: 0,
            }),
        }
    }
}

/// First retry interval after a failed shard dial.
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Retry interval ceiling: a shard that stays down is probed at most
/// every two seconds per downstream connection, forever.
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(2000);

/// How long a dialed shard may take to answer the v3 hello. Without it a
/// shard that accepts and never answers would hang `route()` at startup
/// and, on a redial, the downstream connection's reader forever.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Dial and v3-upgrade one upstream shard socket — the router's one v3
/// handshake. Returns the write half, the buffered read half, and the
/// window the shard advertised; the hello must arrive within
/// `hello_timeout` (cleared again before the socket is handed back).
fn dial(
    addr: &str,
    hello_timeout: Duration,
) -> io::Result<(TcpStream, BufReader<TcpStream>, usize)> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    writer.set_read_timeout(Some(hello_timeout))?;
    let mut reader = BufReader::new(writer.try_clone()?);
    writer.write_all(format!("{}\n", codec::HELLO_V3).as_bytes())?;
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard closed during the hello",
        ));
    }
    let window = codec::parse_hello_ok(line.trim_end_matches(['\r', '\n']))
        .filter(|max| *max > 0)
        .ok_or_else(|| {
            let msg = format!("shard rejected the V3 hello: {}", line.trim_end());
            io::Error::new(io::ErrorKind::InvalidData, msg)
        })?;
    writer.set_read_timeout(None)?;
    Ok((writer, reader, window))
}

/// Record a dial attempt and schedule the earliest next one:
/// exponential backoff doubling to [`DIAL_BACKOFF_CAP`], jittered
/// uniformly into `[backoff/2, backoff]` so N downstream connections
/// (or N routers) chasing one dead shard don't redial in lockstep.
/// Every attempt is paced, even ones whose connect+hello succeed — a
/// flapping shard that accepts and instantly dies must not be redialed
/// per request. Only a delivered response frame (proof of a live shard,
/// see [`upstream_reader`]) resets the cadence.
fn pace_dial(st: &mut UpState, addr: &str) {
    st.dials += 1;
    st.backoff = if st.backoff.is_zero() {
        DIAL_BACKOFF_BASE
    } else {
        (st.backoff * 2).min(DIAL_BACKOFF_CAP)
    };
    let nanos = st.backoff.as_nanos() as u64;
    // splitmix64 over (addr, attempt, wall clock): deterministic inputs
    // alone would synchronize identical routers started together.
    let wall = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    let addr_hash = addr.bytes().fold(0u64, |h, b| splitmix64(h ^ u64::from(b)));
    let r = splitmix64(hash2(splitmix64, addr_hash, st.dials) ^ wall);
    let jittered = nanos / 2 + r % (nanos / 2 + 1);
    st.next_dial_at = Some(Instant::now() + Duration::from_nanos(jittered));
}

/// Try to (re)connect `shard`. On success the fresh socket is installed
/// under a new generation and its reader thread spawned, delivering to
/// `sink`; either way the next attempt is scheduled by [`pace_dial`]. The
/// dial itself runs without the shard lock — responses and poisoning on
/// other generations proceed meanwhile.
fn try_revive(shard: &Arc<UpShard>, sink: &Arc<dyn CompletionSink>) {
    let dialed = dial(&shard.addr, HELLO_TIMEOUT);
    let mut st = shard.state.lock().unwrap();
    // The fresh socket is still paced like a failure until it proves
    // itself with a response frame (the reader resets the cadence then)
    // — so a flapping shard stays backed off.
    pace_dial(&mut st, &shard.addr);
    let Ok((writer, reader, _)) = dialed else {
        return;
    };
    if st.closed {
        return; // downstream teardown raced the dial: drop it
    }
    st.gen += 1;
    let gen = st.gen;
    let (up, sink) = (Arc::clone(shard), Arc::clone(sink));
    if let Ok(h) = std::thread::Builder::new()
        .name("mis2-route-up".into())
        .spawn(move || upstream_reader(reader, up, gen, sink))
    {
        st.writer = Some(writer);
        st.readers.push(h);
    }
    // else: no reader, no connection — stay dead, retry later.
}

/// One upstream response (or synthesized error) as the downstream
/// response it becomes: the wire form a server's own completion would
/// have produced under the same framing.
fn reply(framing: Framing, status: u8, payload: &[u8]) -> Outgoing {
    Outgoing {
        framing,
        resp: ops::Response::from_wire(status, payload),
        span: None,
    }
}

/// Forward one request line to `shard` under an already-held window
/// slot. A dead shard (or a write that kills it) answers `ERR shard
/// down` for this request — and, on a fresh death, for every other tag
/// that was in flight on the shard, exactly once each (the reader thread
/// finds an already-empty map when it notices the same death). Requests
/// hitting a dead shard also pace its revival: at most one redial per
/// jittered backoff interval ([`pace_dial`]), never a connect
/// per request.
fn forward(shard: &Arc<UpShard>, line: &str, framing: Framing, sink: &Arc<dyn CompletionSink>) {
    let mut guard = shard.state.lock().unwrap();
    if guard.writer.is_none()
        && !guard.closed
        && guard.next_dial_at.is_none_or(|at| Instant::now() >= at)
    {
        drop(guard);
        try_revive(shard, sink);
        guard = shard.state.lock().unwrap();
    }
    let st = &mut *guard;
    let Some(writer) = st.writer.as_mut() else {
        drop(guard);
        return sink.deliver(reply(framing, codec::STATUS_ERR, b"shard down"));
    };
    let tag = st.next_tag;
    st.next_tag += 1;
    st.pending.insert(tag, framing);
    // Header and line in one write: under TCP_NODELAY two writes are two
    // syscalls and two segments per forwarded request. (A parsed
    // request's canonical line is never longer than the inbound line it
    // came from, so it fits a frame.)
    st.frame.clear();
    let hdr = codec::encode_header(tag, line.len() as u32, codec::STATUS_OK);
    st.frame.extend_from_slice(&hdr);
    st.frame.extend_from_slice(line.as_bytes());
    if writer.write_all(&st.frame).is_ok() {
        return;
    }
    // The shard died under our pen: poison it here. Draining the map (our
    // own entry included) under the same lock keeps the reader thread —
    // which the shutdown wakes to notice the same death — from ever
    // seeing these tags: one answer, one slot release, per tag.
    if let Some(dead) = st.writer.take() {
        let _ = dead.shutdown(std::net::Shutdown::Both);
    }
    let drained: Vec<Framing> = st.pending.drain().map(|(_, f)| f).collect();
    drop(guard);
    for framing in drained {
        sink.deliver(reply(framing, codec::STATUS_ERR, b"shard down"));
    }
}

/// The per-shard upstream reader: translates response frames back to the
/// downstream protocol, and on shard death (EOF, read error, or teardown
/// shutdown) poisons only this shard — every tag still pending gets `ERR
/// shard down` and its window slot back, the connection keeps serving
/// other shards.
fn upstream_reader(
    mut reader: BufReader<TcpStream>,
    shard: Arc<UpShard>,
    gen: u64,
    sink: Arc<dyn CompletionSink>,
) {
    let mut payload: Vec<u8> = Vec::new();
    let mut proven = false;
    while let Ok(Some((tag, status))) = codec::read_frame_into(&mut reader, &mut payload) {
        let framing = {
            let mut st = shard.state.lock().unwrap();
            // First response frame: the shard is demonstrably alive, so
            // reset the redial cadence it would get on its next death.
            if !proven && st.gen == gen {
                proven = true;
                st.backoff = Duration::ZERO;
                st.next_dial_at = None;
            }
            st.pending.remove(&tag)
        };
        // An unknown tag means the forwarder already answered it (shard
        // died under the write, then revived enough to respond) — it
        // holds no slot, so drop it.
        if let Some(framing) = framing {
            sink.deliver(reply(framing, status, &payload));
        }
    }
    let drained: Vec<Framing> = {
        let mut st = shard.state.lock().unwrap();
        // Poison only our own connection generation: if a redial already
        // installed a fresh socket, its tags are not ours to drain.
        if st.gen != gen {
            return;
        }
        st.writer = None;
        st.pending.drain().map(|(_, f)| f).collect()
    };
    for framing in drained {
        sink.deliver(reply(framing, codec::STATUS_ERR, b"shard down"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:90{i:02}")).collect()
    }

    fn keys() -> Vec<String> {
        (0..512).map(|i| format!("graph_{i}.mtx")).collect()
    }

    #[test]
    fn ring_is_deterministic_and_total() {
        let ring = Ring::new(&ids(3));
        let again = Ring::new(&ids(3));
        for k in keys() {
            let s = ring.shard_of(&k);
            assert!(s < 3);
            assert_eq!(s, again.shard_of(&k), "ownership must be deterministic");
        }
    }

    #[test]
    fn ring_spreads_keys_across_all_shards() {
        let ring = Ring::new(&ids(3));
        let mut counts = [0usize; 3];
        for k in keys() {
            counts[ring.shard_of(&k)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                *c > keys().len() / 10,
                "shard {i} owns {c} of {} keys — far off a fair split {counts:?}",
                keys().len()
            );
        }
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        let three = ids(3);
        let mut four = ids(3);
        four.push("127.0.0.1:9999".into());
        let before = Ring::new(&three);
        let after = Ring::new(&four);
        let mut moved = 0;
        for k in keys() {
            let old = after.shard_of(&k);
            if old != before.shard_of(&k) {
                assert_eq!(
                    four[old], "127.0.0.1:9999",
                    "a key may only move to the shard that joined"
                );
                moved += 1;
            }
        }
        assert!(moved > 0, "the new shard must own something");
        assert!(
            moved < keys().len() / 2,
            "growing by one shard must not reshuffle the world ({moved} moved)"
        );
    }

    #[test]
    fn shrinking_the_ring_only_moves_the_dead_shards_keys() {
        let three = ids(3);
        let two: Vec<String> = vec![three[0].clone(), three[2].clone()];
        let before = Ring::new(&three);
        let after = Ring::new(&two);
        for k in keys() {
            let owner_before = three[before.shard_of(&k)].clone();
            let owner_after = two[after.shard_of(&k)].clone();
            if owner_before != three[1] {
                assert_eq!(
                    owner_before, owner_after,
                    "a surviving shard's keys must not move when another shard leaves"
                );
            }
        }
    }

    #[test]
    fn shard_keys_are_canonical_across_spellings() {
        // Suite names are their own canonical form.
        let a = shard_key(&GraphRef::Suite("ecology2".into()));
        assert_eq!(a, "ecology2");
        // Two spellings of one existing path must shard identically.
        let dir = std::env::temp_dir().join("mis2_shard_key_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        std::fs::write(&path, b"stub").unwrap();
        let plain = path.to_str().unwrap().to_string();
        let dotted = format!(
            "{}/../{}/g.mtx",
            dir.to_str().unwrap(),
            dir.file_name().unwrap().to_str().unwrap()
        );
        assert_eq!(
            shard_key(&GraphRef::Mtx(plain)),
            shard_key(&GraphRef::Mtx(dotted))
        );
        // A missing path falls back to its literal spelling.
        assert_eq!(
            shard_key(&GraphRef::Mtx("no/such/file.mtx".into())),
            "no/such/file.mtx"
        );
    }

    #[test]
    fn dial_gives_up_on_a_shard_that_accepts_and_stays_mute() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // The mute shard: accept, hold the socket, never write a byte.
        let (release, held) = std::sync::mpsc::channel::<()>();
        let mute = std::thread::spawn(move || {
            let _socket = listener.accept().unwrap();
            let _ = held.recv();
        });
        let t0 = Instant::now();
        let err = dial(&addr, Duration::from_millis(100)).expect_err("a mute shard fails the dial");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        // Far under HELLO_TIMEOUT: the timeout passed in is the one applied.
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        drop(release);
        mute.join().unwrap();
    }

    /// A live shard whose exposition carries these label-free series.
    fn shard(series: &[(&str, u64)]) -> Option<Exposition> {
        let samples = series.iter().map(|&(name, value)| metrics::Sample {
            name: name.to_string(),
            labels: Vec::new(),
            value,
        });
        Some(Exposition {
            schema: metrics::SCHEMA,
            samples: samples.collect(),
        })
    }

    /// The `key=value` words of a `STATS` line that `keys` names, in
    /// line order.
    fn picked<'a>(line: &'a str, keys: &[&str]) -> Vec<&'a str> {
        let picked = line
            .split_whitespace()
            .filter(|w| w.split_once('=').is_some_and(|(k, _)| keys.contains(&k)));
        picked.collect()
    }

    #[test]
    fn cluster_stats_sum_keys_and_append_cluster_gauges() {
        let line = cluster_stats(&[
            shard(&[
                ("mis2_cache_graphs", 2),
                ("mis2_cache_bytes", 100),
                ("mis2_cache_evictions_total", 1),
                ("mis2_inflight", 0),
            ]),
            shard(&[
                ("mis2_cache_graphs", 3),
                ("mis2_cache_bytes", 50),
                ("mis2_cache_evictions_total", 4),
                ("mis2_inflight", 2),
            ]),
        ]);
        let keys = ["graphs", "bytes", "evictions", "inflight"];
        assert_eq!(
            picked(&line, &keys),
            ["graphs=5", "bytes=150", "evictions=5", "inflight=2"]
        );
        assert!(
            line.ends_with(
                " derived=0 shards=2 shards_up=2 shard_bytes=100,50 shard_evictions=1,4"
            ),
            "{line}"
        );
        // The grep contract: the FIRST `bytes=` match on the line is the
        // cluster sum, exactly where a single server puts its own.
        let first_bytes = line.split_whitespace().find(|w| w.starts_with("bytes="));
        assert_eq!(first_bytes, Some("bytes=150"));
    }

    #[test]
    fn dead_shards_contribute_zeros_to_cluster_stats() {
        let line = cluster_stats(&[
            shard(&[
                ("mis2_cache_graphs", 2),
                ("mis2_cache_bytes", 100),
                ("mis2_cache_evictions_total", 1),
            ]),
            None,
            shard(&[
                ("mis2_cache_graphs", 1),
                ("mis2_cache_bytes", 7),
                ("mis2_cache_evictions_total", 0),
            ]),
        ]);
        assert!(line.contains(" shards=3 shards_up=2 "), "{line}");
        assert!(line.ends_with("shard_bytes=100,0,7 shard_evictions=1,0,0"));
        let keys = ["graphs", "bytes", "evictions"];
        assert_eq!(
            picked(&line, &keys),
            ["graphs=3", "bytes=107", "evictions=1"]
        );
    }

    #[test]
    fn cluster_stats_take_min_uptime_over_live_shards() {
        let line = cluster_stats(&[
            shard(&[
                ("mis2_jobs_total", 4),
                ("mis2_uptime_seconds", 120),
                ("mis2_requests_total", 10),
            ]),
            None, // a dead shard must not drag uptime to zero
            shard(&[
                ("mis2_jobs_total", 6),
                ("mis2_uptime_seconds", 35),
                ("mis2_requests_total", 7),
            ]),
        ]);
        let keys = ["jobs", "uptime_s", "requests"];
        assert_eq!(
            picked(&line, &keys),
            ["jobs=10", "uptime_s=35", "requests=17"]
        );
    }

    #[test]
    fn router_refuses_an_empty_shard_set() {
        match route(RouterConfig::default()) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("an empty shard set must be refused"),
        }
    }
}
