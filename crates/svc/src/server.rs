//! The loopback TCP server: accepts line-protocol (v1) and binary (v3)
//! connections and pipelines v3's compute requests through the batching
//! scheduler.
//!
//! # One state machine, two I/O drivers, two services
//!
//! The connection path has three parts:
//!
//! * **the connection machine** (`conn`, sans-I/O) — hello negotiation,
//!   v1 lines and v3 frames, window slots, inline `PING`/`STATS`/`METRICS`,
//!   the cache probe, parse and framing errors, the draining `QUIT`, and
//!   the one write batch every reply is encoded into. It names no socket
//!   and no thread.
//! * **two drivers** that feed it bytes ([`ServerConfig::io_backend`]):
//!   `evloop` (one `epoll` readiness loop; the Linux default) and
//!   `threads` (a reader and a writer thread per connection; the only
//!   backend off Linux, and the one that is leaving). Each imports from
//!   the machine and from this module, never from the other driver.
//! * **this module**, the process: configuration, the bound [`serve`]
//!   listener, admission under `--max-conns`, the `Service` a machine
//!   asks (a server's registry and scheduler, or a router's shards —
//!   [`crate::shard::route`]), and the `STATS` / `METRICS` bodies.
//!
//! Every combination produces **bitwise-identical** wire bytes for every
//! request — the e2e suites assert it — because every response is one
//! [`ops::Response`] under one framing, turned into bytes by the one
//! batch encoder. A server and a router also bind, stop and default their
//! limits through one `Listener`.
//!
//! One teardown rule holds on both drivers: a connection's machine — and
//! with it whatever the service hangs off the connection, the router's
//! upstream sockets among it — **outlives its last in-flight response**.
//! A client that pipelines and then half-closes still gets every answer.

use crate::conn::{encode_outgoing, Framing};
use crate::metrics::{self, Metrics};
use crate::ops;
use crate::registry::Registry;
use crate::sched::{SchedConfig, Scheduler};
use crate::shard;
use mis2_graph::Scale;
use mis2_prim::pool;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which I/O engine drives connections. Both backends run the same
/// connection state machine and produce bitwise-identical wire bytes;
/// they differ only in how readiness and completion delivery are
/// scheduled (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// One nonblocking `epoll` readiness loop for every connection
    /// (Linux only; falls back to [`IoBackend::Threads`] elsewhere).
    Epoll,
    /// Reader + writer thread per connection — the portable fallback.
    Threads,
}

impl IoBackend {
    /// The default backend for this platform: epoll where the kernel has
    /// it, threads everywhere else.
    pub fn platform_default() -> IoBackend {
        if cfg!(target_os = "linux") {
            IoBackend::Epoll
        } else {
            IoBackend::Threads
        }
    }

    /// The backend that will actually run: requesting epoll off Linux
    /// silently degrades to threads (the `mis2svc` bin additionally
    /// rejects an *explicit* `--io-backend epoll` there, so silent
    /// degradation only happens for defaulted configs).
    pub fn effective(self) -> IoBackend {
        if cfg!(target_os = "linux") {
            self
        } else {
            IoBackend::Threads
        }
    }

    /// Stable lowercase name, as accepted by `--io-backend` and reported
    /// in the `STATS` tail (`io_backend=`).
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Epoll => "epoll",
            IoBackend::Threads => "threads",
        }
    }
}

impl Default for IoBackend {
    fn default() -> Self {
        IoBackend::platform_default()
    }
}

impl std::str::FromStr for IoBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<IoBackend, String> {
        match s {
            "epoll" => Ok(IoBackend::Epoll),
            "threads" => Ok(IoBackend::Threads),
            other => Err(format!("unknown io backend: {other} (epoll|threads)")),
        }
    }
}

impl std::fmt::Display for IoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the default — read
    /// the actual address from [`ServerHandle::addr`]).
    pub addr: String,
    /// Thread budget shared by concurrently running jobs (0 = all CPUs).
    pub threads: usize,
    /// Scheduler worker-leaders (0 = auto).
    pub workers: usize,
    /// Bounded job-queue capacity (0 = default).
    pub queue_cap: usize,
    /// Maximum concurrent connections; one past the cap is accepted only
    /// to be told `ERR server busy` and dropped (0 = 1024).
    pub max_conns: usize,
    /// Scale suite workloads are built at.
    pub scale: Scale,
    /// Registry memory budget in bytes (0 = unbounded): approximate heap
    /// bytes of interned graphs + cached artifacts; over-budget entries
    /// are evicted artifacts-first in LRU order (see [`Registry`]).
    pub mem_budget: usize,
    /// Per-connection in-flight window: how many requests a pipelined
    /// v3 connection may have outstanding (accepted but response not
    /// yet written) before its reader stops accepting more (0 = 64). v1
    /// connections always run with a window of 1.
    pub max_inflight: usize,
    /// Requests whose total latency (read-complete → write-retired)
    /// meets or exceeds this many milliseconds are captured into the
    /// metrics slow-request ring. 0 captures *every* request (useful
    /// for smoke tests); the default is 500.
    pub slow_ms: u64,
    /// Record per-request metrics (latency histograms, stage spans, the
    /// slow ring). On by default; the repo benchmark turns it off on a
    /// second server to A/B the recording overhead
    /// (`metrics.overhead_pct`).
    pub metrics: bool,
    /// The I/O engine driving connections (`--io-backend`). Defaults to
    /// [`IoBackend::platform_default`]; requesting epoll off Linux runs
    /// threads instead (see [`IoBackend::effective`]).
    pub io_backend: IoBackend,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            workers: 0,
            queue_cap: 0,
            max_conns: 0,
            scale: Scale::Tiny,
            mem_budget: 0,
            max_inflight: 0,
            slow_ms: 500,
            metrics: true,
            io_backend: IoBackend::platform_default(),
        }
    }
}

/// Service-wide wire counters for the pipelined protocol, surfaced through
/// `STATS` next to the scheduler's job counters.
#[derive(Debug, Default)]
pub struct SvcStats {
    /// Requests accepted whose response has not yet been written, summed
    /// over all connections (`STATS` and `METRICS` leave out the scrape
    /// itself, so an idle server reports 0).
    pub inflight: AtomicU64,
    /// Deepest per-connection window ever observed.
    pub peak_inflight: AtomicU64,
    /// Coalesced writer flushes: each is one batch of responses encoded
    /// into one buffer and retired with one write (short writes resumed;
    /// ≥ 1 response per batch; deep windows drive this far below the
    /// response count). The name is the `STATS` / `METRICS` key
    /// consumers already read.
    pub writev_batches: AtomicU64,
    /// Response bytes written to sockets, summed over all connections.
    pub bytes_tx: AtomicU64,
}

impl SvcStats {
    /// Add `slots` newly acquired window slots to the in-flight gauge, the
    /// connection's window holding `depth` with them — the one gauge step
    /// of both drivers (per slot on threads, per burst on epoll).
    pub(crate) fn publish(&self, slots: usize, depth: usize) {
        self.inflight.fetch_add(slots as u64, Ordering::Relaxed);
        self.peak_inflight
            .fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// Owned claim on one connection slot: releases the slot on drop, so the
/// count stays correct on every exit path — handler return, handler
/// *panic*, failed thread spawn, or an over-cap rejection. (Before this
/// guard, a panicking handler skipped its `fetch_sub` and each panic
/// permanently shrank the usable cap until the server wedged at 0.)
///
/// A slot may additionally be *tracked* in a [`ConnTable`]: the same drop
/// guard then also deregisters the connection's socket, so the live-socket
/// table and the slot count can never disagree — the property
/// [`ServerHandle::kill`] (and the shard router's accounting) relies on.
pub(crate) struct ConnSlot {
    conns: Arc<AtomicUsize>,
    tracked: Option<(Arc<ConnTable>, u64)>,
}

impl ConnSlot {
    fn new(conns: Arc<AtomicUsize>) -> ConnSlot {
        ConnSlot {
            conns,
            tracked: None,
        }
    }

    /// Register `stream` in `table` and tie its deregistration to this
    /// guard's drop. A failed `try_clone` (fd exhaustion) just leaves the
    /// connection untracked — `kill()` then can't hard-close it, but slot
    /// accounting is unaffected.
    fn track(mut self, table: &Arc<ConnTable>, stream: &TcpStream) -> ConnSlot {
        if let Some(id) = table.register(stream) {
            self.tracked = Some((Arc::clone(table), id));
        }
        self
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        if let Some((table, id)) = self.tracked.take() {
            table.deregister(id);
        }
        self.conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Sockets of every live connection, keyed by an id minted at accept.
/// Entries leave through the owning [`ConnSlot`]'s drop, so the table
/// tracks exactly the connections still holding a slot; [`kill_all`]
/// hard-closes whatever is left so handler threads unblock from their
/// reads and wind down.
///
/// [`kill_all`]: ConnTable::kill_all
#[derive(Default)]
pub(crate) struct ConnTable {
    next: AtomicU64,
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
}

impl ConnTable {
    pub(crate) fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().unwrap().insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.conns.lock().unwrap().remove(&id);
    }

    pub(crate) fn kill_all(&self) {
        for (_, stream) in self.conns.lock().unwrap().drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The bound listener of a server or a router — its address, stop flag,
/// accept thread, live-connection table and connection context — and the
/// one place either binds, stops and defaults its limits.
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    conn_table: Arc<ConnTable>,
    pub(crate) cx: Arc<ConnShared>,
}

impl Listener {
    /// The configured `(max_conns, max_inflight)` with their defaults
    /// applied: 0 means 1024 connections and 64 requests in flight.
    pub(crate) fn limits(max_conns: usize, max_inflight: usize) -> (usize, usize) {
        let or = |v: usize, default: usize| if v == 0 { default } else { v };
        (or(max_conns, 1024), or(max_inflight, 64))
    }

    /// Bind `addr` and start the accept path of the driver `cx.backend`
    /// names, admitting at most `max_conns` connections at once.
    pub(crate) fn bind(addr: &str, max_conns: usize, cx: ConnShared) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_table = Arc::new(ConnTable::default());
        let cx = Arc::new(cx);
        let (stop2, table2, cx2) = (Arc::clone(&stop), Arc::clone(&conn_table), Arc::clone(&cx));
        let accept = match cx.backend {
            #[cfg(target_os = "linux")]
            IoBackend::Epoll => crate::evloop::spawn(listener, cx2, stop2, table2, max_conns),
            #[cfg(not(target_os = "linux"))]
            IoBackend::Epoll => {
                unreachable!("IoBackend::effective falls back to threads off Linux")
            }
            IoBackend::Threads => crate::threads::spawn(listener, cx2, stop2, table2, max_conns),
        }?;
        Ok(Listener {
            addr,
            stop,
            accept: Some(accept),
            conn_table,
            cx,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the accept thread exits (it never does on its own).
    pub(crate) fn wait(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Stop accepting and join the accept thread; with `kill`, also
    /// `shutdown(Both)` every live connection socket so its reads hit EOF
    /// and it winds down.
    pub(crate) fn stop(&mut self, kill: bool) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.wait();
        if kill {
            self.conn_table.kill_all();
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] (tests) or [`ServerHandle::wait`] (the
/// `mis2svc` bin).
pub struct ServerHandle {
    listener: Listener,
    sched: Arc<Scheduler>,
    registry: Arc<Registry>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The I/O backend actually driving connections (after the
    /// off-Linux fallback).
    pub fn io_backend(&self) -> IoBackend {
        self.listener.cx.backend
    }

    /// The shared graph/artifact registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The service-wide wire counters (in-flight window gauges).
    pub fn svc_stats(&self) -> &Arc<SvcStats> {
        &self.listener.cx.stats
    }

    /// The request-observability registry (histograms, slow ring).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.listener.cx.mx
    }

    /// Block forever serving (the accept loop never returns on its own).
    pub fn wait(mut self) {
        self.listener.wait();
    }

    /// Stop accepting, stop the scheduler (in-flight jobs finish, queued
    /// ones are rejected, later submits get `ERR`), and join the accept
    /// thread. Connection handler threads exit as their clients
    /// disconnect; any still alive only ever see the shut-down scheduler.
    pub fn shutdown(mut self) {
        self.listener.stop(false);
        self.sched.shutdown();
    }

    /// Hard stop, simulating a crashed shard process in-process: stop
    /// accepting, then `shutdown(Both)` every live connection socket so
    /// handler reads hit EOF and in-flight peers (the shard router among
    /// them) see the connection die mid-window instead of winding down
    /// cleanly. Used by the kill-one-shard tests; a standalone `mis2svc`
    /// process gets the same effect from SIGKILL.
    pub fn kill(mut self) {
        self.listener.stop(true);
        self.sched.shutdown();
    }
}

/// What answers a connection's requests: the one seam between the
/// connection machine and the process it runs in. Three things differ
/// between a server and a router — the `STATS` body, the `METRICS` body,
/// and how a compute request is run and its framed response delivered
/// (`ConnMachine::compute`) — and each is one `match` on this enum. The
/// v3 registry probe exists on the local side only.
pub(crate) enum Service {
    /// A server: the registry answers, the scheduler computes.
    Local {
        registry: Arc<Registry>,
        sched: Arc<Scheduler>,
    },
    /// A router: the ring picks the owning shard, the shard computes.
    Upstream(shard::Upstream),
}

/// Everything a connection's state machine needs from its process: the
/// service, the service-wide gauges, the live-connection count (for the
/// `STATS` tail), and the resolved limits. One `Arc<ConnShared>` per
/// server or router, shared by every connection on either backend.
pub(crate) struct ConnShared {
    pub(crate) service: Service,
    pub(crate) stats: Arc<SvcStats>,
    pub(crate) mx: Arc<Metrics>,
    /// Live connection-slot claims (the `--max-conns` counter).
    pub(crate) conns: Arc<AtomicUsize>,
    pub(crate) max_inflight: usize,
    pub(crate) backend: IoBackend,
}

impl ConnShared {
    /// A fresh context: zeroed gauges, no connection yet.
    pub(crate) fn new(
        service: Service,
        mx: Metrics,
        max_inflight: usize,
        backend: IoBackend,
    ) -> ConnShared {
        ConnShared {
            service,
            stats: Arc::default(),
            mx: Arc::new(mx),
            conns: Arc::default(),
            max_inflight,
            backend,
        }
    }
}

/// Record a connection-level failure (over-cap `ERR server busy`, accept
/// error) into the metrics registry as an `other` × `error` outcome —
/// these never travel the request path, so without this they would be
/// invisible to `METRICS`.
fn record_conn_error(mx: &Metrics, key: &str) {
    if !mx.enabled() {
        return;
    }
    let now = Instant::now();
    let span = metrics::Span::fast(Some(now), metrics::Op::Other, metrics::Outcome::Error, key);
    mx.record_batch(span, now);
}

/// Bind and start serving in background threads.
pub fn serve(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let registry = Arc::new(Registry::with_budget(cfg.scale, cfg.mem_budget));
    let sched = Arc::new(Scheduler::new(SchedConfig {
        threads: cfg.threads,
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
    }));
    let mx = if cfg.metrics {
        Metrics::new(cfg.slow_ms)
    } else {
        Metrics::disabled(cfg.slow_ms)
    };
    let (max_conns, max_inflight) = Listener::limits(cfg.max_conns, cfg.max_inflight);
    let service = Service::Local {
        registry: Arc::clone(&registry),
        sched: Arc::clone(&sched),
    };
    let cx = ConnShared::new(service, mx, max_inflight, cfg.io_backend.effective());
    // A failed bind must not leak the scheduler's worker threads.
    let listener = Listener::bind(&cfg.addr, max_conns, cx).inspect_err(|_| sched.shutdown())?;
    Ok(ServerHandle {
        listener,
        sched,
        registry,
    })
}

/// Admit one freshly accepted socket under the `--max-conns` rule — the
/// one definition both drivers' accept paths call. `None` means the
/// connection was over the cap: it has been told `ERR server busy`,
/// counted, and dropped.
pub(crate) fn admit(
    mut stream: TcpStream,
    cx: &ConnShared,
    conn_table: &Arc<ConnTable>,
    max_conns: usize,
) -> Option<(TcpStream, ConnSlot)> {
    // Pipelined responses are many small back-to-back writes; without
    // TCP_NODELAY, Nagle + delayed ACK stalls each batch ~40ms (v1's
    // strict ping-pong never tripped this). The batched writes already
    // coalesce per-batch, so disabling Nagle costs nothing on large
    // responses.
    let _ = stream.set_nodelay(true);
    // Claim the slot *first*, then check the claim against the cap. A
    // load-then-fetch_add shape is a TOCTOU: any concurrent decision
    // based on the loaded value (or a second acceptor) can land two
    // accepts under one observed count and exceed the cap. A claimed slot
    // travels as a drop guard so every path — over-cap rejection, spawn
    // failure, handler return, handler panic — releases exactly once.
    let claimed = cx.conns.fetch_add(1, Ordering::AcqRel) + 1;
    let slot = ConnSlot::new(Arc::clone(&cx.conns));
    if claimed > max_conns {
        record_conn_error(&cx.mx, "busy");
        // The socket is still blocking on either driver, but the busy
        // line is a handful of bytes into a fresh send buffer — it
        // cannot stall an accept loop.
        let mut line = Vec::new();
        encode_outgoing(Framing::Bare, ops::Response::err("server busy"), &mut line);
        let _ = stream.write_all(&line);
        return None; // drops the stream; `slot` releases the claim
    }
    // Only admitted connections enter the kill table; the same drop guard
    // that releases the slot deregisters the socket, so table and count
    // stay in lockstep.
    let slot = slot.track(conn_table, &stream);
    Some((stream, slot))
}

/// A failed `accept` — transient, often fd exhaustion — on either driver:
/// record it and back off 10 ms instead of spinning the core on the
/// error; connections already admitted keep being served.
pub(crate) fn accept_failed(mx: &Metrics) {
    record_conn_error(mx, "accept");
    std::thread::sleep(Duration::from_millis(10));
}

/// Every numeric `STATS` key, in line order, with the `METRICS` series
/// that carries the same value. New keys append at the end: consumers
/// (CI smoke scripts among them) grep for the first `bytes=` match,
/// which must stay the registry's total.
pub const COUNTERS: [(&str, &str); 29] = [
    ("graphs", "mis2_cache_graphs"),
    ("artifacts", "mis2_cache_artifacts"),
    ("hits", "mis2_cache_hits_total"),
    ("misses", "mis2_cache_misses_total"),
    ("bytes", "mis2_cache_bytes"),
    ("mem_budget", "mis2_cache_budget_bytes"),
    ("evictions", "mis2_cache_evictions_total"),
    ("graph_builds", "mis2_graph_builds_total"),
    ("jobs", "mis2_jobs_total"),
    ("queue_wait_us", "mis2_queue_wait_us_total"),
    ("run_us", "mis2_run_us_total"),
    ("panics", "mis2_job_panics_total"),
    ("inflight", "mis2_inflight"),
    ("max_inflight", "mis2_max_inflight"),
    ("peak_inflight", "mis2_peak_inflight"),
    ("workers", "mis2_sched_workers"),
    ("team", "mis2_sched_team"),
    ("pool_spawned", "mis2_pool_spawned"),
    ("pool_contended", "mis2_pool_contended_total"),
    ("resp", "mis2_resp_cached"),
    ("resp_bytes", "mis2_resp_bytes"),
    ("resp_hits", "mis2_resp_hits_total"),
    ("writev_batches", "mis2_writev_batches_total"),
    ("bytes_tx", "mis2_bytes_tx_total"),
    ("queue_wait_count", "mis2_queue_wait_count_total"),
    ("uptime_s", "mis2_uptime_seconds"),
    ("requests", "mis2_requests_total"),
    ("conns", "mis2_conns"),
    ("derived", "mis2_cache_derived_total"),
];

/// The value of every [`COUNTERS`] entry, in table order. The request
/// being answered holds a window slot; `inflight` leaves it out, so an
/// otherwise idle server reports 0.
fn counter_values(
    cx: &ConnShared,
    registry: &Registry,
    sched: &Scheduler,
) -> [u64; COUNTERS.len()] {
    let (svc, mx) = (&*cx.stats, &*cx.mx);
    let r = registry.stats();
    let s = sched.stats();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    [
        r.graphs as u64,
        r.artifacts as u64,
        r.hits,
        r.misses,
        r.bytes as u64,
        r.mem_budget as u64,
        r.evictions,
        r.graph_builds,
        load(&s.jobs),
        load(&s.queue_wait_us),
        load(&s.run_us),
        load(&s.panics),
        load(&svc.inflight).saturating_sub(1),
        cx.max_inflight as u64,
        load(&svc.peak_inflight),
        sched.workers() as u64,
        sched.team() as u64,
        pool::spawned_workers() as u64,
        pool::contended_regions(),
        r.resp as u64,
        r.resp_bytes as u64,
        r.resp_hits,
        load(&svc.writev_batches),
        load(&svc.bytes_tx),
        load(&s.queue_wait_count),
        mx.uptime_s(),
        mx.requests_total(),
        cx.conns.load(Ordering::Relaxed) as u64,
        r.derived,
    ]
}

/// `STATS` followed by ` key=value` for every [`COUNTERS`] entry.
pub(crate) fn stats_line(values: [u64; COUNTERS.len()]) -> String {
    let mut line = String::from("STATS");
    for ((key, _), v) in COUNTERS.iter().zip(values) {
        line.push_str(&format!(" {key}={v}"));
    }
    line
}

/// The `STATS` response body: the counter table, then the one
/// non-numeric key, `io_backend=`. A router prints the cluster line.
pub(crate) fn stats_body(cx: &ConnShared) -> String {
    match &cx.service {
        Service::Local { registry, sched } => {
            let line = stats_line(counter_values(cx, registry, sched));
            format!("{line} io_backend={}", cx.backend.name())
        }
        Service::Upstream(up) => shard::cluster_stats(&up.fetch()),
    }
}

/// The `METRICS` response body: the exposition of [`Metrics::render`]
/// with the counter table as its extra gauges — a router's is its
/// shards' merged exposition — newline-escaped into a single-line wire
/// body (identical on every protocol; `mis2svc client` and the router
/// unescape it back).
pub(crate) fn metrics_body(cx: &ConnShared) -> String {
    let text = match &cx.service {
        Service::Local { registry, sched } => {
            let values = counter_values(cx, registry, sched);
            let extra: Vec<_> = COUNTERS.iter().map(|&(_, s)| s).zip(values).collect();
            cx.mx.render(&extra)
        }
        Service::Upstream(up) => metrics::merge_expositions(&up.fetch()).render(),
    };
    format!("METRICS {}", metrics::escape_body(&text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::{codec, proto};
    use std::io::{BufRead, BufReader};

    #[test]
    fn ping_stats_quit_roundtrip() {
        let h = serve(ServerConfig::default()).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        assert_eq!(c.request("PING").unwrap(), "OK PONG");
        let stats = c.request("STATS").unwrap();
        assert!(stats.starts_with("OK STATS graphs=0"), "{stats}");
        assert_eq!(c.request("QUIT").unwrap(), "OK BYE");
        h.shutdown();
    }

    #[test]
    fn derived_computes_show_in_stats_and_metrics() {
        let h = serve(ServerConfig::default()).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        assert!(c.request("MIS2 ecology2").unwrap().starts_with("OK "));
        assert!(c.request("COARSEN ecology2 2").unwrap().starts_with("OK "));
        let stats = c.request("STATS").unwrap();
        assert!(stats.contains(" misses=2 "), "{stats}");
        assert!(stats.contains(" derived=1 io_backend="), "{stats}");
        let raw = c.request("METRICS").unwrap();
        let body = raw.strip_prefix("OK METRICS ").expect(&raw);
        let exp = crate::metrics::parse_exposition(&crate::metrics::unescape_body(body)).unwrap();
        assert_eq!(exp.value("mis2_cache_derived_total"), Some(1));
        h.shutdown();
    }

    #[test]
    fn malformed_lines_get_err_and_connection_survives() {
        let h = serve(ServerConfig::default()).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        assert!(c.request("NONSENSE").unwrap().starts_with("ERR "));
        assert!(c.request("COARSEN g 0").unwrap().starts_with("ERR "));
        assert_eq!(c.request("PING").unwrap(), "OK PONG");
        h.shutdown();
    }

    /// Slot-accounting proof, run against BOTH I/O backends: over-cap
    /// connections get the busy line and are dropped while the admitted
    /// connection keeps working.
    fn busy_and_dropped_on(backend: IoBackend) {
        let h = serve(ServerConfig {
            max_conns: 1,
            io_backend: backend,
            ..Default::default()
        })
        .unwrap();
        let mut first = Client::connect(h.addr()).unwrap();
        assert_eq!(first.request("PING").unwrap(), "OK PONG");
        // Second connection is over the cap: it gets the busy line (read
        // raw — request() would also succeed, but the connection then
        // closes) and the first connection keeps working.
        {
            use std::io::{BufRead, BufReader};
            let s = std::net::TcpStream::connect(h.addr()).unwrap();
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "ERR server busy");
        }
        assert_eq!(first.request("PING").unwrap(), "OK PONG");
        first.quit().unwrap();
        h.shutdown();
    }

    #[test]
    fn connections_beyond_cap_get_busy_and_dropped_epoll() {
        busy_and_dropped_on(IoBackend::Epoll);
    }

    #[test]
    fn connections_beyond_cap_get_busy_and_dropped_threads() {
        busy_and_dropped_on(IoBackend::Threads);
    }

    /// Read the single `ERR server busy` line an over-cap connection gets.
    fn read_busy_line(addr: std::net::SocketAddr) -> String {
        let s = std::net::TcpStream::connect(addr).unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Slot-accounting proof, run against BOTH I/O backends:
    /// claim-then-verify accounting — a rejected connection must give
    /// its claimed slot back, or every rejection would permanently
    /// shrink the cap. Reject many times at cap 1, then free the slot
    /// and verify a new connection is accepted.
    fn over_cap_release_on(backend: IoBackend) {
        let h = serve(ServerConfig {
            max_conns: 1,
            io_backend: backend,
            ..Default::default()
        })
        .unwrap();
        let mut first = Client::connect(h.addr()).unwrap();
        assert_eq!(first.request("PING").unwrap(), "OK PONG");
        for _ in 0..8 {
            assert_eq!(read_busy_line(h.addr()), "ERR server busy");
        }
        first.quit().unwrap();
        // The freed slot must become claimable again (the handler exits
        // asynchronously after QUIT, so poll briefly).
        let mut ok = false;
        for _ in 0..100 {
            let mut c = Client::connect(h.addr()).unwrap();
            if matches!(c.request("PING").as_deref(), Ok("OK PONG")) {
                ok = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(ok, "slot never became claimable after rejections + QUIT");
        h.shutdown();
    }

    #[test]
    fn over_cap_rejection_releases_its_claimed_slot_epoll() {
        over_cap_release_on(IoBackend::Epoll);
    }

    #[test]
    fn over_cap_rejection_releases_its_claimed_slot_threads() {
        over_cap_release_on(IoBackend::Threads);
    }

    /// Slot-accounting proof, run against BOTH I/O backends: a handler
    /// that panics mid-connection must still release its slot via the
    /// drop guard; before the guard, each panic skipped the decrement
    /// and wedged the server at the cap.
    fn panicking_handler_release_on(backend: IoBackend) {
        let h = serve(ServerConfig {
            max_conns: 1,
            io_backend: backend,
            ..Default::default()
        })
        .unwrap();
        // Each round must reclaim the single slot the previous round's
        // panicked handler held (its release is asynchronous: poll). If a
        // panic leaked the slot, every later round sees only `server busy`
        // and the poll below exhausts — the pre-guard wedge.
        for round in 0..3 {
            let mut reclaimed = false;
            for _ in 0..200 {
                let mut c = Client::connect(h.addr()).unwrap();
                if matches!(c.request("PING").as_deref(), Ok("OK PONG")) {
                    // The injected panic kills the handler before it can
                    // respond: the client sees EOF/reset, the slot must
                    // still come back for the next round.
                    let _ = c.request("PANIC");
                    reclaimed = true;
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(
                reclaimed,
                "round {round}: slot leaked by a panicking handler; server wedged at cap"
            );
        }
        h.shutdown();
    }

    #[test]
    fn panicking_handler_releases_its_connection_slot_epoll() {
        panicking_handler_release_on(IoBackend::Epoll);
    }

    #[test]
    fn panicking_handler_releases_its_connection_slot_threads() {
        panicking_handler_release_on(IoBackend::Threads);
    }

    #[test]
    fn mem_budget_threads_through_to_the_registry() {
        let h = serve(ServerConfig {
            mem_budget: 123_456,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(h.registry().mem_budget(), 123_456);
        let mut c = Client::connect(h.addr()).unwrap();
        let stats = c.request("STATS").unwrap();
        assert!(stats.contains("mem_budget=123456"), "{stats}");
        h.shutdown();
    }

    #[test]
    fn overlong_line_gets_err_and_connection_closes() {
        let h = serve(ServerConfig::default()).unwrap();
        let s = TcpStream::connect(h.addr()).unwrap();
        let mut w = s.try_clone().unwrap();
        // Exactly MAX_LINE + 1 bytes, no newline: one past the cap, and
        // the server consumes every byte we send (no RST racing the
        // response out of the client's receive buffer).
        let blob = vec![b'a'; proto::MAX_LINE + 1];
        w.write_all(&blob).unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(s);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ERR line too long");
        line.clear();
        assert_eq!(r.read_line(&mut line).unwrap(), 0, "server must close");
        h.shutdown();
    }

    #[test]
    fn overlong_line_cut_mid_codepoint_still_gets_the_error() {
        // The byte cap can land inside a multi-byte UTF-8 character; the
        // over-long check must run on raw bytes, before any UTF-8
        // validation, or the promised error never reaches the client.
        let h = serve(ServerConfig::default()).unwrap();
        let s = TcpStream::connect(h.addr()).unwrap();
        let mut w = s.try_clone().unwrap();
        let mut blob = vec![b'a'; proto::MAX_LINE];
        blob.extend_from_slice("é".as_bytes()); // straddles MAX_LINE + 1
        w.write_all(&blob).unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(s);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ERR line too long");
        h.shutdown();
    }

    #[test]
    fn invalid_utf8_line_gets_err_and_connection_survives() {
        let h = serve(ServerConfig::default()).unwrap();
        let s = TcpStream::connect(h.addr()).unwrap();
        let mut w = s.try_clone().unwrap();
        w.write_all(b"MIS2 \xff\xfe\n").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(s);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ERR invalid utf-8");
        // Line boundaries are byte-based, so the connection keeps framing.
        writeln!(w, "PING").unwrap();
        w.flush().unwrap();
        line.clear();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK PONG");
        h.shutdown();
    }

    #[test]
    fn a_line_of_exactly_max_line_bytes_is_still_served() {
        let h = serve(ServerConfig::default()).unwrap();
        let s = TcpStream::connect(h.addr()).unwrap();
        let mut w = s.try_clone().unwrap();
        // "PING" padded with trailing spaces to exactly MAX_LINE content
        // bytes (split_whitespace ignores the padding): at the cap, not
        // over it.
        let mut line = "PING".to_string();
        line.push_str(&" ".repeat(proto::MAX_LINE - line.len()));
        writeln!(w, "{line}").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(s);
        let mut resp = String::new();
        r.read_line(&mut resp).unwrap();
        assert_eq!(resp.trim_end(), "OK PONG");
        h.shutdown();
    }

    #[test]
    fn stats_reports_window_counters() {
        let h = serve(ServerConfig {
            max_inflight: 16,
            ..Default::default()
        })
        .unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        let stats = c.request("STATS").unwrap();
        assert!(
            stats.contains("inflight=0 max_inflight=16"),
            "idle server must report an empty window: {stats}"
        );
        assert!(stats.contains("peak_inflight=1"), "{stats}");
        h.shutdown();
    }

    /// Raw v3 socket for framing tests: hello already exchanged, binary
    /// frames from here on.
    struct RawV3 {
        w: TcpStream,
        r: BufReader<TcpStream>,
    }

    impl RawV3 {
        fn connect(addr: SocketAddr) -> RawV3 {
            let s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            let mut raw = RawV3 {
                w: s.try_clone().unwrap(),
                r: BufReader::new(s),
            };
            writeln!(raw.w, "{}", codec::HELLO_V3).unwrap();
            raw.w.flush().unwrap();
            let mut hello = String::new();
            raw.r.read_line(&mut hello).unwrap();
            assert!(
                codec::parse_hello_ok(hello.trim_end()).is_some(),
                "bad hello response: {hello}"
            );
            raw
        }

        fn send(&mut self, tag: u64, payload: &[u8]) {
            codec::write_frame(&mut self.w, tag, codec::STATUS_OK, payload).unwrap();
            self.w.flush().unwrap();
        }

        fn recv(&mut self) -> codec::Frame {
            codec::read_frame(&mut self.r)
                .unwrap()
                .expect("unexpected EOF")
        }

        fn eof(&mut self) -> bool {
            codec::read_frame(&mut self.r).unwrap().is_none()
        }
    }

    #[test]
    fn v3_hello_upgrades_and_frames_echo_tags() {
        let h = serve(ServerConfig::default()).unwrap();
        let mut c = RawV3::connect(h.addr());
        c.send(1, b"PING");
        let f = c.recv();
        assert_eq!((f.tag, f.status), (1, codec::STATUS_OK));
        assert_eq!(f.payload, b"PONG");
        // A tag no decimal text protocol could carry.
        c.send(u64::MAX, b"STATS");
        let f = c.recv();
        assert_eq!(f.tag, u64::MAX);
        assert!(f.payload.starts_with(b"STATS graphs="), "{}", f.to_line());
        c.send(3, b"QUIT");
        let f = c.recv();
        assert_eq!((f.tag, f.payload.as_slice()), (3, &b"BYE"[..]));
        assert!(c.eof(), "server must close after BYE");
        h.shutdown();
    }

    #[test]
    fn v3_duplicate_tags_are_echoed_verbatim() {
        // Tag uniqueness is the client's responsibility (memcached-opaque
        // semantics): the server answers each request under the tag it
        // came with, duplicates included.
        let h = serve(ServerConfig::default()).unwrap();
        let mut c = RawV3::connect(h.addr());
        c.send(7, b"PING");
        c.send(7, b"PING");
        for _ in 0..2 {
            let f = c.recv();
            assert_eq!((f.tag, f.payload.as_slice()), (7, &b"PONG"[..]));
        }
        h.shutdown();
    }

    #[test]
    fn ping_and_stats_answer_inline_while_compute_is_in_flight() {
        // One scheduler worker, so the cold compute occupies the only
        // leader; PING/STATS must still answer immediately because the
        // reader never queues them.
        let h = serve(ServerConfig {
            threads: 1,
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let mut c = RawV3::connect(h.addr());
        // Cold compute: graph build + solve, orders of magnitude slower
        // than the reader's inline path.
        c.send(1, b"SOLVE StocF-1465 cg");
        c.send(2, b"PING");
        c.send(3, b"STATS");
        let f = c.recv();
        assert_eq!(f.tag, 2, "PING must overtake the compute");
        assert_eq!(f.payload, b"PONG");
        let f = c.recv();
        assert_eq!(f.tag, 3);
        assert!(f.payload.starts_with(b"STATS "), "{}", f.to_line());
        let f = c.recv();
        assert_eq!(f.tag, 1);
        assert!(
            f.to_line().starts_with("OK SOLVE StocF-1465 cg "),
            "{}",
            f.to_line()
        );
        h.shutdown();
    }

    #[test]
    fn v3_responses_arrive_in_completion_order() {
        // Two scheduler workers, a slow compute tagged first and a fast
        // one tagged second: the fast response must arrive first, each
        // under its own tag.
        let h = serve(ServerConfig {
            threads: 2,
            workers: 2,
            ..Default::default()
        })
        .unwrap();
        // The slow job reads a 110 592-vertex mesh from disk and solves on
        // it: two orders of magnitude more work than the fast job's MIS-2
        // of a resident 15 625-vertex graph, so the order holds however
        // many other tests share the CPUs.
        let dir = std::env::temp_dir().join(format!("mis2_svc_order_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mesh.mtx");
        mis2_graph::io::write_graph_file(&mis2_graph::gen::laplace3d(48, 48, 48), &path).unwrap();
        let slow = format!("SOLVE {} gmres", path.display());
        let mut c = RawV3::connect(h.addr());
        // Warm the fast graph through a different op, so tag 2 is a
        // scheduler job on an interned graph — not a cached response the
        // reader would answer inline without ever meeting the scheduler.
        c.send(0, b"COARSEN ecology2 1");
        assert!(c.recv().to_line().starts_with("OK COARSEN "));
        c.send(1, slow.as_bytes());
        c.send(2, b"MIS2 ecology2");
        let f = c.recv();
        assert_eq!(f.tag, 2, "{}", f.to_line());
        assert!(f.to_line().starts_with("OK MIS2 ecology2 "));
        let f = c.recv();
        assert_eq!(f.tag, 1, "{}", f.to_line());
        assert!(
            f.to_line().starts_with(&format!("OK {slow} ")),
            "{}",
            f.to_line()
        );
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v3_parse_failures_carry_the_frame_tag() {
        let h = serve(ServerConfig::default()).unwrap();
        let mut c = RawV3::connect(h.addr());
        for (tag, payload) in [
            (9u64, &b"MIS2"[..]),             // missing graph
            (10, &b"COARSEN ecology2 0"[..]), // bad levels
            (11, &b"FROB x"[..]),             // unknown command
            (12, &b""[..]),                   // empty request
        ] {
            c.send(tag, payload);
            let f = c.recv();
            assert_eq!(f.tag, tag, "{payload:?}");
            assert_eq!(
                f.status,
                codec::STATUS_ERR,
                "{payload:?} -> {}",
                f.to_line()
            );
        }
        // The connection survives all of it.
        c.send(13, b"PING");
        assert_eq!(c.recv().payload, b"PONG");
        h.shutdown();
    }

    #[test]
    fn v3_invalid_utf8_payload_fails_only_that_request() {
        let h = serve(ServerConfig::default()).unwrap();
        let mut c = RawV3::connect(h.addr());
        c.send(5, b"\xff\xfe");
        let f = c.recv();
        assert_eq!((f.tag, f.status), (5, codec::STATUS_ERR));
        assert_eq!(f.payload, b"invalid utf-8");
        // Lengths are explicit, so the stream stays framed.
        c.send(6, b"PING");
        assert_eq!(c.recv().payload, b"PONG");
        h.shutdown();
    }

    #[test]
    fn v3_oversized_header_gets_err_frame_and_close() {
        let h = serve(ServerConfig::default()).unwrap();
        let mut c = RawV3::connect(h.addr());
        let hdr = codec::encode_header(77, (codec::MAX_PAYLOAD + 1) as u32, codec::STATUS_OK);
        c.w.write_all(&hdr).unwrap();
        c.w.flush().unwrap();
        let f = c.recv();
        assert_eq!((f.tag, f.status), (77, codec::STATUS_ERR));
        assert_eq!(f.payload, b"frame too long");
        assert!(c.eof(), "nothing past a hostile header can be framed");
        h.shutdown();
    }

    #[test]
    fn v3_cache_hit_is_served_inline_with_interned_bytes() {
        let h = serve(ServerConfig {
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let mut c = RawV3::connect(h.addr());
        c.send(1, b"MIS2 ecology2");
        let first = c.recv();
        assert_eq!(first.status, codec::STATUS_OK, "{}", first.to_line());
        c.send(2, b"MIS2 ecology2");
        let second = c.recv();
        assert_eq!(first.payload, second.payload, "hit must be byte-identical");
        // The hit bypassed the scheduler: one job, one resp_hit, and the
        // registry still counts it as a plain hit (hits + misses = 2).
        let r = h.registry().stats();
        assert_eq!((r.hits, r.misses, r.resp_hits), (1, 1, 1), "{r:?}");
        let s = h.svc_stats();
        assert!(s.writev_batches.load(Ordering::Relaxed) > 0);
        assert!(s.bytes_tx.load(Ordering::Relaxed) > 0);
        c.send(3, b"QUIT");
        assert_eq!(c.recv().payload, b"BYE");
        h.shutdown();
    }

    #[test]
    fn v3_payloads_are_byte_identical_to_v1_lines() {
        // One server, both protocols: the v3 payload plus its status byte
        // must reassemble to exactly the v1 text line.
        let h = serve(ServerConfig::default()).unwrap();
        let mut v1 = Client::connect(h.addr()).unwrap();
        let mut v3 = RawV3::connect(h.addr());
        for (tag, req) in [
            (1u64, "MIS2 ecology2"),
            (2, "COARSEN ecology2 2"),
            (3, "MIS2 not_a_graph"),
        ] {
            let line = v1.request(req).unwrap();
            v3.send(tag, req.as_bytes());
            let f = v3.recv();
            assert_eq!(f.to_line(), line, "{req}");
        }
        h.shutdown();
    }

    #[test]
    fn repeated_hits_keep_the_hot_key_resident_under_eviction_pressure() {
        // Regression for a v3 fast-path LRU bug: byte-identical repeats
        // were once answered from connection-local state without touching
        // the registry, so the hot key's resp/artifact/graph stamps never
        // refreshed and a tight budget evicted exactly the hottest entry.
        // Every repeat probes the registry, which refreshes all three
        // stamps.
        //
        // Churn distinct COARSEN levels on the *same* graph so the graph
        // stays shared and eviction pressure lands on the artifact
        // segment, where the LRU stamp alone picks the victim. Budget =
        // the hot key's footprint + the largest coarsen artifact + slack:
        // each new coarsen insert overflows, and evicting the *previous*
        // coarsen artifact gets back under — unless the hot artifact's
        // stamp is stale, in which case it is the LRU victim instead.
        let hot = proto::GraphRef::Suite("ecology2".into());
        let (hot_bytes, biggest_cold) = {
            let probe = Registry::new(Scale::Tiny);
            probe.response(&hot, &ops::OpKey::Mis2).unwrap();
            let hot_bytes = probe.stats().bytes;
            probe
                .response(&hot, &ops::OpKey::Coarsen { levels: 3 })
                .unwrap();
            (hot_bytes, probe.stats().bytes - hot_bytes)
        };
        let h = serve(ServerConfig {
            threads: 2,
            mem_budget: hot_bytes + biggest_cold + 4096,
            ..Default::default()
        })
        .unwrap();
        let mut c = RawV3::connect(h.addr());
        let mut tag = 0u64;
        let mut ask = |c: &mut RawV3, req: &str| {
            tag += 1;
            c.send(tag, req.as_bytes());
            let f = c.recv();
            assert_eq!((f.tag, f.status), (tag, codec::STATUS_OK), "{req}");
        };
        // Warm the hot key (miss), then once more (hit).
        ask(&mut c, "MIS2 ecology2");
        ask(&mut c, "MIS2 ecology2");
        // Interleave cold computes with byte-identical hot repeats (each
        // must be an inline hit AND refresh the hot entries' stamps).
        for level in 1..=3 {
            ask(&mut c, &format!("COARSEN ecology2 {level}"));
            ask(&mut c, "MIS2 ecology2");
        }
        let r = h.registry().stats();
        assert!(r.evictions > 0, "budget must actually bite: {r:?}");
        // Hot computed once, each coarsen level once. Had the hot
        // artifact been evicted, a repeat would have re-missed.
        assert_eq!(r.misses, 4, "{r:?}");
        assert!(
            h.registry().try_response(&hot, &ops::OpKey::Mis2).is_some(),
            "hot key must still be resident after the churn: {r:?}"
        );
        c.send(999, b"QUIT");
        assert_eq!(c.recv().payload, b"BYE");
        h.shutdown();
    }

    #[test]
    fn a_panic_mid_burst_gives_back_only_published_gauge_slots() {
        // Eight hits then PANIC in one write: the loop has acquired the
        // hits' slots but not published them when the unwind tears the
        // connection down. Teardown publishes before it gives the queued
        // replies back, so the gauge returns to 0; giving back slots that
        // were never added would wrap it.
        let h = serve(ServerConfig {
            threads: 2,
            io_backend: IoBackend::Epoll,
            ..Default::default()
        })
        .unwrap();
        let mut c = RawV3::connect(h.addr());
        c.send(0, b"MIS2 ecology2");
        assert_eq!(c.recv().status, codec::STATUS_OK);
        let mut burst = Vec::new();
        for tag in 1..=8 {
            burst.extend(codec::encode_frame(tag, codec::STATUS_OK, b"MIS2 ecology2"));
        }
        burst.extend(codec::encode_frame(9, codec::STATUS_OK, b"PANIC"));
        c.w.write_all(&burst).unwrap();
        // Torn down: EOF, after whatever replies a split read let out.
        while let Ok(Some(_)) = codec::read_frame(&mut c.r) {}
        let mut fresh = RawV3::connect(h.addr());
        fresh.send(1, b"STATS");
        let stats = fresh.recv().to_line();
        assert!(stats.contains(" inflight=0 "), "{stats}");
        assert!(stats.contains(" hits=8 "), "the burst was served: {stats}");
        h.shutdown();
    }

    #[test]
    fn compute_request_served_and_cached() {
        let h = serve(ServerConfig {
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        let first = c.request("MIS2 ecology2").unwrap();
        assert!(first.starts_with("OK MIS2 ecology2 size="), "{first}");
        let second = c.request("MIS2 ecology2").unwrap();
        assert_eq!(first, second, "cache hit must be byte-identical");
        let stats = c.request("STATS").unwrap();
        assert!(stats.contains("hits=1 misses=1"), "{stats}");
        h.shutdown();
    }

    #[test]
    fn stats_tail_gains_queue_wait_count_uptime_and_requests() {
        let h = serve(ServerConfig {
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        assert!(c.request("MIS2 ecology2").unwrap().starts_with("OK "));
        let stats = c.request("STATS").unwrap();
        // Appended after bytes_tx= (the append-only STATS tail contract).
        let tail = stats.split(" queue_wait_count=").nth(1).unwrap_or_else(|| {
            panic!("missing queue_wait_count in {stats}");
        });
        assert!(stats.contains("bytes_tx="), "{stats}");
        assert!(tail.contains("uptime_s="), "{stats}");
        assert!(tail.contains("requests="), "{stats}");
        // One job ran, so exactly one wait was counted.
        assert!(
            tail.starts_with("1 "),
            "queue_wait_count should be 1: {stats}"
        );
        h.shutdown();
    }

    #[test]
    fn metrics_round_trips_over_v1_and_counts_requests() {
        let h = serve(ServerConfig {
            threads: 2,
            slow_ms: 0, // capture everything into the slow ring
            ..Default::default()
        })
        .unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        assert!(c.request("MIS2 ecology2").unwrap().starts_with("OK "));
        assert!(c.request("MIS2 ecology2").unwrap().starts_with("OK "));
        assert!(c.request("NONSENSE").unwrap().starts_with("ERR "));
        // Poll: requests are recorded post-write, so the scrape races the
        // writer's bookkeeping by a hair.
        let mut exp = crate::metrics::Exposition::default();
        for _ in 0..100 {
            let raw = c.request("METRICS").unwrap();
            let body = raw.strip_prefix("OK METRICS ").expect(&raw);
            exp = crate::metrics::parse_exposition(&crate::metrics::unescape_body(body)).unwrap();
            if exp.value("mis2_requests_total") >= Some(3) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(exp.schema, crate::metrics::SCHEMA);
        // Histogram _count totals must equal the requests counter (both
        // are recorded in the same place).
        let total: u64 = exp
            .samples
            .iter()
            .filter(|s| s.name == "mis2_request_latency_ns_count")
            .map(|s| s.value)
            .sum();
        assert_eq!(Some(total), exp.value("mis2_requests_total"), "{exp:?}");
        // Per-bucket counts sum to _count for every series.
        for count in exp
            .samples
            .iter()
            .filter(|s| s.name == "mis2_request_latency_ns_count")
        {
            let buckets: u64 = exp
                .samples
                .iter()
                .filter(|s| {
                    s.name == "mis2_request_latency_ns_bucket"
                        && s.label("op") == count.label("op")
                        && s.label("outcome") == count.label("outcome")
                })
                .map(|s| s.value)
                .sum();
            assert_eq!(buckets, count.value, "{count:?}");
        }
        // With --slow-ms 0 the ring captured the MIS2 requests.
        assert!(exp.value("mis2_slow_captured_total").unwrap() >= 3);
        let slow_keys: Vec<_> = exp
            .samples
            .iter()
            .filter(|s| s.name == "mis2_slow_request")
            .filter_map(|s| s.label("key"))
            .collect();
        assert!(slow_keys.contains(&"ecology2"), "{slow_keys:?}");
        // The server's own exposition always says shard="0"; the router
        // rewrites it when merging.
        assert!(exp
            .samples
            .iter()
            .filter(|s| s.name == "mis2_slow_request")
            .all(|s| s.label("shard") == Some("0")));
        h.shutdown();
    }

    #[test]
    fn v1_metrics_and_v3_metrics_bodies_agree_in_shape() {
        // The METRICS body is the same single escaped line on every
        // protocol (the cross-protocol byte-identity contract can't hold
        // for METRICS values, which move between scrapes, but the shape
        // and schema must).
        let h = serve(ServerConfig::default()).unwrap();
        let mut v1 = Client::connect(h.addr()).unwrap();
        let line = v1.request("METRICS").unwrap();
        assert!(
            line.starts_with("OK METRICS # mis2svc metrics schema "),
            "{line}"
        );
        let mut v3 = RawV3::connect(h.addr());
        v3.send(5, b"METRICS");
        let f = v3.recv();
        assert_eq!((f.tag, f.status), (5, codec::STATUS_OK));
        assert!(f.payload.starts_with(b"METRICS # mis2svc metrics schema "));
        let body = std::str::from_utf8(&f.payload).unwrap();
        let exp = crate::metrics::parse_exposition(&crate::metrics::unescape_body(
            body.strip_prefix("METRICS ").unwrap(),
        ))
        .unwrap();
        assert_eq!(exp.schema, crate::metrics::SCHEMA);
        h.shutdown();
    }

    #[test]
    fn disabled_metrics_serve_an_empty_exposition() {
        let h = serve(ServerConfig {
            metrics: false,
            ..Default::default()
        })
        .unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        assert_eq!(c.request("PING").unwrap(), "OK PONG");
        let raw = c.request("METRICS").unwrap();
        let body = raw.strip_prefix("OK METRICS ").expect(&raw);
        let exp = crate::metrics::parse_exposition(&crate::metrics::unescape_body(body)).unwrap();
        assert_eq!(exp.value("mis2_requests_total"), Some(0));
        assert_eq!(exp.value("mis2_slow_captured_total"), Some(0));
        h.shutdown();
    }
}
