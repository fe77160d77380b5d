//! The loopback TCP server: accepts line-protocol (v1) and binary (v3)
//! connections and pipelines v3's compute requests through the batching
//! scheduler.
//!
//! # One state machine, two I/O drivers, two services
//!
//! Protocol behavior lives in ONE place — the shared **connection state
//! machine** (`FrameDecoder` + `ConnMachine`): hello negotiation (the
//! `V3` upgrade), v1 line framing and v3 binary framing, per-request
//! window-slot accounting, inline `PING`/`STATS`/`METRICS`, the
//! zero-serialization cache probe (one compute path for both framings),
//! parse and framing errors, and the draining `QUIT`. The machine is
//! sans-I/O: it consumes framed items
//! extracted from a byte buffer and emits effects through the small
//! `ConnIo` seam (acquire a window slot, enqueue a response, mint a
//! `CompletionSink` for a completion).
//!
//! Two **drivers** feed it bytes ([`ServerConfig::io_backend`]):
//!
//! * **threads** (this module; the portable fallback and the only
//!   backend off Linux) — a **reader** thread per connection feeds the
//!   machine from blocking reads, and a **writer** thread joined by a
//!   bounded response channel retires batches; completions send into the
//!   channel.
//! * **epoll** (the `crate::evloop` module; the Linux default) — one
//!   nonblocking readiness loop drives every connection's machine from
//!   `epoll` events; completions post to a per-loop `eventfd` and become
//!   write-readiness work instead of channel sends.
//!
//! Two **services** answer it (`Service`, the one seam for what differs
//! between a server and a router: the `STATS` body, the `METRICS` body,
//! and "run this compute request, deliver the framed response to this
//! sink"):
//!
//! * **local** ([`serve`]) — the registry answers, the scheduler computes.
//! * **upstream** ([`crate::shard::route`]) — the ring picks a shard, the
//!   shard computes, and the connection's upstream readers deliver.
//!
//! Every combination produces **bitwise-identical** wire bytes for every
//! request — the e2e suites assert it — because every response is one
//! [`ops::Response`] under one `Framing`, turned into bytes by the one
//! batch encoder. A server and a router also bind, stop and default their
//! limits through one `Listener`.
//!
//! One teardown rule holds on both drivers: a connection's machine — and
//! with it whatever the service hangs off the connection, the router's
//! upstream sockets among it — **outlives its last in-flight response**.
//! A client that pipelines and then half-closes still gets every answer.
//! The threads driver waits for the window to empty after its read loop
//! returns; the epoll driver closes a connection only once nothing is
//! held, queued or mid-write.
//!
//! # The threads backend
//!
//! Each connection gets a **reader** thread (the handler) and a **writer**
//! thread joined by a bounded response channel. The reader parses request
//! lines (or, after the `V3` hello, binary frames — see [`crate::codec`])
//! and keeps going while earlier jobs run: `PING`/`STATS` are answered
//! inline (never queued behind compute), `QUIT` drains and says goodbye,
//! and compute requests are submitted to the shared [`Scheduler`] in
//! completion mode — the worker-leader that finishes a job pushes its
//! response straight into the writer channel, so responses are written in
//! *completion* order (tagged, on v3 connections, so the client can
//! reassemble; v1 connections cap the window at 1, which preserves the
//! classic request-order contract). On either protocol a request whose
//! serialized response bytes are already interned in the [`Registry`]
//! never touches the scheduler at all: the reader probes
//! [`Registry::probe`] with the graph token and op borrowed from the
//! request ([`proto::RequestView`]) and forwards the shared bytes
//! directly — the zero-serialization fast path, which allocates nothing
//! (the epoll loop copies them into its wire batch under the probe's
//! lock, see `crate::evloop`).
//!
//! The writer is a **batcher**: it drains the response channel greedily,
//! encodes everything it found into one contiguous buffer and flushes it
//! with one write, so a window's worth of responses retires in
//! O(syscalls), not O(responses). A reply is ~84 bytes on the v3 hit path
//! (measured on `svc_hot`), so interned response bytes are copied like
//! any other body — a v3 hit is a 13-byte header stamp plus a ~71-byte
//! append, a v1 hit the same append between `OK ` and a newline; what
//! interning saves is the render, not the copy.
//!
//! Backpressure is layered: a per-connection in-flight **window**
//! ([`ServerConfig::max_inflight`]) stops the reader when too many
//! responses are outstanding, and the scheduler's bounded queue stops it
//! globally when the whole service is saturated. The window-slot protocol
//! also guarantees completions never block on the response channel: a
//! slot is acquired per request before anything may be sent, and released
//! by the writer only after the response leaves the channel (per batch,
//! after its write — every channel item's slot is still held, so
//! occupancy can never reach capacity (= the window cap) while a send is
//! in flight). Teardown (EOF, error, `QUIT`, over-long line) waits for the
//! window to empty — the writer releases slots even behind a broken
//! socket, so a vanished client cannot wedge it — then drops the machine
//! and the reader's sender and joins the writer: nothing leaks the
//! connection slot and nothing wedges the scheduler.

use crate::codec;
use crate::metrics::{self, Metrics};
use crate::ops;
use crate::proto::{self, RequestView};
use crate::registry::{Registry, RespBytes};
use crate::sched::{SchedConfig, Scheduler};
use crate::shard;
use mis2_graph::Scale;
use mis2_prim::pool;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

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
            IoBackend::Threads => spawn_threads_accept(listener, cx2, stop2, table2, max_conns),
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
/// ([`ConnMachine::submit`]) — and each is one `match` on this enum. The
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
pub(crate) fn record_conn_error(mx: &Metrics, key: &str) {
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

/// The thread-per-connection accept loop: one blocking `accept`, one
/// handler (reader) thread and one writer thread per admitted connection.
fn spawn_threads_accept(
    listener: TcpListener,
    cx: Arc<ConnShared>,
    stop: Arc<AtomicBool>,
    conn_table: Arc<ConnTable>,
    max_conns: usize,
) -> io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("mis2-svc-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else {
                    // Transient (often fd-exhaustion) accept failure:
                    // back off instead of spinning the core; existing
                    // connections keep their handler threads.
                    record_conn_error(&cx.mx, "accept");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                };
                let Some((stream, slot)) = admit(stream, &cx, &conn_table, max_conns) else {
                    continue;
                };
                let cx = Arc::clone(&cx);
                // On spawn failure the closure (and `slot` inside it)
                // is dropped by Builder::spawn, releasing the claim.
                let _ = std::thread::Builder::new()
                    .name("mis2-svc-conn".into())
                    .spawn(move || {
                        let _slot = slot;
                        let _ = handle_connection(stream, &cx);
                    });
            }
        })
}

/// Per-connection in-flight window: counts requests accepted whose
/// response has not yet been written to the socket. The reader acquires a
/// slot per request (blocking at the cap — that is the per-connection
/// backpressure); the writer releases a slot per response it dequeues.
///
/// The slot protocol is what makes scheduler completions safe: a
/// completion only ever sends while its request's slot is held, and the
/// response channel's capacity equals the window cap, so occupancy is
/// always strictly below capacity at the moment of a send — completions
/// (which run on scheduler worker-leaders) can never block on a full
/// channel, no matter how slow or dead the client is.
struct ConnWindow {
    inflight: Mutex<usize>,
    changed: Condvar,
}

impl ConnWindow {
    fn new() -> ConnWindow {
        ConnWindow {
            inflight: Mutex::new(0),
            changed: Condvar::new(),
        }
    }

    /// Block until the window has room under `cap`, then take a slot.
    /// Returns the depth after acquisition (for peak tracking).
    fn acquire(&self, cap: usize) -> usize {
        let mut n = self.inflight.lock().unwrap();
        while *n >= cap {
            n = self.changed.wait(n).unwrap();
        }
        *n += 1;
        *n
    }

    fn release(&self) {
        let mut n = self.inflight.lock().unwrap();
        *n -= 1;
        self.changed.notify_all();
    }

    /// Block until every outstanding response has been written (`QUIT`
    /// waits here so `BYE` is the last line on the wire, teardown so the
    /// machine outlives its last in-flight response).
    fn wait_empty(&self) {
        let mut n = self.inflight.lock().unwrap();
        while *n > 0 {
            n = self.changed.wait(n).unwrap();
        }
    }
}

/// One response travelling from the reader (inline answers) or a
/// scheduler completion into the connection's writer: the response, how
/// it is framed, and the request's metrics span (if recording), which the
/// writer retires after the bytes hit the socket.
pub(crate) struct Outgoing {
    pub(crate) framing: Framing,
    pub(crate) resp: ops::Response,
    pub(crate) span: Option<metrics::Span>,
}

/// Append one reply's wire bytes to the batch buffer — the one encoder
/// both drivers flush from, whether the reply arrives as an
/// [`ops::Response`] ([`encode_outgoing`]) or as interned bytes framed
/// under the registry probe ([`ConnIo::respond_interned`]). The body is
/// copied once, rendered text or interned registry bytes alike
/// (interning skips the render, not the copy).
pub(crate) fn encode_body(framing: Framing, ok: bool, body: &[u8], buf: &mut Vec<u8>) {
    match framing {
        Framing::Bare => {
            buf.extend_from_slice(if ok { b"OK " } else { b"ERR " });
            buf.extend_from_slice(body);
            buf.push(b'\n');
        }
        Framing::V3(tag) => {
            // An over-MAX_PAYLOAD body cannot be framed: the header's u32
            // length would truncate (or advertise a length the peer
            // rejects as Oversized and poisons the connection on). Swap
            // in a per-tag ERR so only this request fails and the stream
            // stays framed.
            let (ok, body) = if body.len() > codec::MAX_PAYLOAD {
                (false, &b"response too large"[..])
            } else {
                (ok, body)
            };
            let status = if ok {
                codec::STATUS_OK
            } else {
                codec::STATUS_ERR
            };
            buf.extend_from_slice(&codec::encode_header(tag, body.len() as u32, status));
            buf.extend_from_slice(body);
        }
    }
}

/// [`encode_body`] of a whole response.
fn encode_outgoing(framing: Framing, resp: ops::Response, buf: &mut Vec<u8>) {
    encode_body(framing, resp.is_ok(), resp.body_bytes(), buf);
}

/// Peel one response into the batch under construction: the span (if
/// any) is parked until the batch's write retires, the response's bytes
/// are appended to the batch buffer.
pub(crate) fn stage_outgoing(item: Outgoing, buf: &mut Vec<u8>, spans: &mut Vec<metrics::Span>) {
    if let Some(span) = item.span {
        spans.push(span);
    }
    encode_outgoing(item.framing, item.resp, buf);
}

/// The writer half of a connection: drains the bounded response channel
/// in greedy batches — one blocking `recv`, then everything `try_recv`
/// yields — encodes the whole batch (text lines and/or binary frames)
/// into one buffer, and retires it with one `write_all`. Window slots
/// are released per batch *after* its write, which both preserves the
/// completion-send safety argument (every channel item's slot is still
/// held) and keeps `QUIT`'s drain honest (`wait_empty` cannot pass until
/// the bytes are on the socket). Responses already queued behind a broken
/// socket are still dequeued and their slots released, so the reader and
/// in-flight completions wind down instead of wedging.
///
/// On the first write failure the whole socket is shut down: the reader
/// may be parked in a read happily accepting new requests for a client
/// that can no longer receive a byte, and the shutdown is what turns its
/// next read into EOF so the connection winds down instead of burning
/// scheduler compute on undeliverable responses.
fn writer_loop(
    rx: Receiver<Outgoing>,
    stream: TcpStream,
    win: &ConnWindow,
    stats: &SvcStats,
    mx: &Metrics,
) {
    let mut out = stream;
    let mut broken = false;
    let mut spans: Vec<metrics::Span> = Vec::new();
    let mut disconnected = false;
    while !disconnected {
        // Park until the next response (or until every sender is gone,
        // which is the teardown signal).
        let Ok(first) = rx.recv() else { break };
        // Allocated per batch, not reused: a reused buffer would leave
        // every idle connection thread pinning its largest batch ever (up
        // to window x MAX_PAYLOAD), and this is one allocation per ~5 KB
        // batch, not per reply. (The epoll loop keeps one spare batch per
        // connection instead, dropped once it outgrows its read
        // high-water mark.)
        let mut buf: Vec<u8> = Vec::new();
        spans.clear();
        let mut batch = 1usize;
        stage_outgoing(first, &mut buf, &mut spans);
        loop {
            match rx.try_recv() {
                Ok(next) => {
                    batch += 1;
                    stage_outgoing(next, &mut buf, &mut spans);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // Retire the batch from the in-flight *gauge* before the write:
        // a client that has read its last response (e.g. BYE) must not
        // observe a stale non-zero gauge just because this thread hasn't
        // run its post-write bookkeeping yet. The window slots — the
        // accounting QUIT's drain actually waits on — are still released
        // only after the bytes are on the socket.
        stats.inflight.fetch_sub(batch as u64, Ordering::Relaxed);
        if !broken {
            match out.write_all(&buf) {
                Ok(()) => {
                    stats.writev_batches.fetch_add(1, Ordering::Relaxed);
                    stats
                        .bytes_tx
                        .fetch_add(buf.len() as u64, Ordering::Relaxed);
                }
                Err(_) => {
                    broken = true;
                    let _ = out.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        if broken {
            // Responses that never reached the socket drop their spans
            // unrecorded: the client never observed them, so the
            // histograms don't either.
            spans.clear();
        }
        for _ in 0..batch {
            win.release();
        }
        // Retire the batch's metric spans with ONE clock read as the
        // shared write-retired stamp and one metrics lock — per-response
        // clocks or locks would put their cost back on the path the
        // batching exists to amortize. Recording runs *after* the window
        // slots are released so it overlaps with the reader's next burst
        // instead of gating admission.
        if !spans.is_empty() {
            mx.record_batch(spans.drain(..), Instant::now());
        }
    }
}

/// How bytes on the wire are framed right now — which is also the whole
/// protocol mode of a connection: newline-terminated lines (v1, until an
/// upgrade hello arrives) or 13-byte-header binary frames (v3, after the
/// `V3` hello).
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum WireMode {
    Lines,
    Frames,
}

/// One framed inbound item extracted from a connection's byte stream,
/// borrowing the decoder's buffer (zero copy).
pub(crate) enum Inbound<'a> {
    /// A complete line, terminating newline stripped (a trailing `\r`
    /// stays attached — the machine trims it, as the old reader did).
    Line(&'a [u8]),
    /// More than [`proto::MAX_LINE`] bytes arrived without a newline:
    /// unframeable, the connection must close after the error.
    OverlongLine,
    /// A complete v3 frame (header already decoded).
    Frame { tag: u64, payload: &'a [u8] },
    /// A v3 header advertising more than [`codec::MAX_PAYLOAD`] bytes:
    /// hostile — nothing past it can be trusted to frame.
    OversizedFrame { tag: u64 },
}

/// Incremental framer shared by both I/O backends: raw socket bytes in,
/// framed [`Inbound`] items out. Framing is byte-based and runs before
/// any UTF-8 validation, so the over-long check fires even when the cap
/// lands mid-codepoint — exactly the semantics the old bounded
/// `take(MAX_LINE+1).read_until` reader had.
pub(crate) struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    pub(crate) fn new() -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Bytes buffered but not yet consumed (the epoll backend's read
    /// high-water check).
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Append freshly read bytes, compacting consumed ones first so the
    /// buffer holds at most one burst plus one partial item.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete item under `mode`, or `None` when more
    /// bytes are needed.
    pub(crate) fn next(&mut self, mode: WireMode) -> Option<Inbound<'_>> {
        let avail = &self.buf[self.pos..];
        match mode {
            WireMode::Lines => {
                // One byte past MAX_LINE without a newline is the proof
                // of an over-long line; a newline inside the window
                // keeps even an exactly-MAX_LINE line served.
                let scan = &avail[..avail.len().min(proto::MAX_LINE + 1)];
                match scan.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        let start = self.pos;
                        self.pos += i + 1;
                        Some(Inbound::Line(&self.buf[start..start + i]))
                    }
                    None if avail.len() > proto::MAX_LINE => {
                        self.pos = self.buf.len();
                        Some(Inbound::OverlongLine)
                    }
                    None => None,
                }
            }
            WireMode::Frames => {
                if avail.len() < codec::HEADER_LEN {
                    return None;
                }
                let hdr: [u8; codec::HEADER_LEN] = avail[..codec::HEADER_LEN]
                    .try_into()
                    .expect("header length");
                let (tag, len, _status) = codec::decode_header(&hdr);
                let len = len as usize;
                if len > codec::MAX_PAYLOAD {
                    self.pos = self.buf.len();
                    return Some(Inbound::OversizedFrame { tag });
                }
                if avail.len() < codec::HEADER_LEN + len {
                    return None;
                }
                let start = self.pos + codec::HEADER_LEN;
                self.pos = start + len;
                Some(Inbound::Frame {
                    tag,
                    payload: &self.buf[start..start + len],
                })
            }
        }
    }

    /// The unterminated final line at EOF, if any — the old blocking
    /// reader served it (`read_until` returns what it got), so both
    /// backends do too. Partial v3 frames die with the connection.
    pub(crate) fn take_remainder(&mut self, mode: WireMode) -> Option<Inbound<'_>> {
        if mode != WireMode::Lines || self.pending() == 0 {
            return None;
        }
        let start = self.pos;
        self.pos = self.buf.len();
        Some(Inbound::Line(&self.buf[start..]))
    }
}

/// Serve one connection until EOF, error, or `QUIT` — the **reader** side
/// of the threads backend.
///
/// The reader feeds the shared [`ConnMachine`] and keeps accepting while
/// earlier jobs run; every response (inline or completed) flows through
/// the bounded channel into the writer thread. On exit the reader waits
/// for the window to empty, drops the machine and its sender, and joins
/// the writer — so teardown drains naturally and the connection slot
/// (held by this thread) is released only after everything is accounted
/// for.
fn handle_connection(stream: TcpStream, cx: &Arc<ConnShared>) -> io::Result<()> {
    let write_stream = stream.try_clone()?;
    let win = Arc::new(ConnWindow::new());
    // Capacity = window cap: see ConnWindow for why this bound makes
    // completion sends non-blocking.
    let (tx, rx) = sync_channel::<Outgoing>(cx.max_inflight);
    let writer = {
        let (win, cx) = (Arc::clone(&win), Arc::clone(cx));
        std::thread::Builder::new()
            .name("mis2-svc-write".into())
            .spawn(move || writer_loop(rx, write_stream, &win, &cx.stats, &cx.mx))?
    };
    let mut io = ThreadIo {
        sink: Arc::new(ThreadSink {
            tx,
            win,
            stats: Arc::clone(&cx.stats),
        }),
    };
    let mut machine = ConnMachine::new();
    let result = read_loop(stream, cx, &mut machine, &mut io);
    // Drain before teardown: the machine (and the upstream sockets a
    // router's machine owns) outlives its last in-flight response, so a
    // client that pipelined and then half-closed still gets every answer.
    // The writer releases slots even behind a broken socket, so a
    // vanished client cannot wedge this wait.
    io.sink.win.wait_empty();
    drop(machine);
    // Drop our sender; every completion has delivered, so the writer
    // sees the channel disconnect and exits.
    drop(io);
    let _ = writer.join();
    result
}

/// The metrics op label of a compute request.
fn span_op(op: &ops::OpKey) -> metrics::Op {
    match op {
        ops::OpKey::Mis2 => metrics::Op::Mis2,
        ops::OpKey::Coarsen { .. } => metrics::Op::Coarsen,
        ops::OpKey::Solve { .. } => metrics::Op::Solve,
    }
}

/// How one response is framed back to the client.
#[derive(Clone, Copy)]
pub(crate) enum Framing {
    /// v1: the bare response line, `OK `/`ERR `, the body and `\n`.
    Bare,
    /// v3: a binary frame under `tag`, the 13-byte header and the body.
    V3(u64),
}

/// What the driver must do after the machine handled one item.
pub(crate) enum Flow {
    /// Keep going.
    Continue,
    /// Stop reading and close once already-queued responses have
    /// flushed (over-long line, hostile frame header).
    Close,
    /// `QUIT`: drain every in-flight response, then send this `BYE`
    /// under one freshly acquired slot as the last bytes on the wire,
    /// and close.
    Quit(Outgoing),
}

/// A backend's completion-delivery handle: scheduler completions (which
/// run on worker-leader threads) and a router's upstream readers hand
/// finished responses here. A sink must never block — the threads backend
/// sends into the response channel under the window-slot guarantee, the
/// epoll backend pushes to an unbounded pending queue and rings an
/// `eventfd` doorbell.
pub(crate) trait CompletionSink: Send + Sync {
    fn deliver(&self, item: Outgoing);
}

/// The machine's window onto its backend: slot acquisition (the
/// per-connection backpressure), inline response delivery, and minting
/// the completion sink scheduler jobs deliver through.
pub(crate) trait ConnIo {
    /// Acquire one window slot under `cap`. The threads backend blocks
    /// here at a full window and bumps the service gauges per slot; the
    /// epoll backend pre-gates item delivery on window room, so its
    /// acquire never waits, and only counts until [`ConnIo::publish`].
    fn acquire(&mut self, cap: usize);
    /// Queue one response for writing under an already-acquired slot.
    fn respond(&mut self, item: Outgoing);
    /// Answer a cache hit from its interned bytes under an
    /// already-acquired slot. Runs under the registry lock
    /// ([`Registry::probe`]), so it must not block: the epoll backend
    /// frames the bytes straight into its wire batch and returns `None`;
    /// the default clones the `Arc` into the response it returns, which
    /// the machine hands to [`ConnIo::respond`] once the lock is released
    /// (on the threads backend that send may wake the writer thread).
    fn respond_interned(
        &mut self,
        framing: Framing,
        bytes: &Arc<RespBytes>,
        span: Option<metrics::Span>,
    ) -> Option<Outgoing> {
        Some(Outgoing {
            framing,
            resp: ops::Response::interned(Arc::clone(bytes)),
            span,
        })
    }
    /// Add the slots acquired since the last call to the service gauges
    /// (`inflight`, `peak_inflight`). The machine calls it before it
    /// renders a `STATS` / `METRICS` body; a backend whose acquire
    /// publishes already (threads) leaves it a no-op.
    fn publish(&mut self) {}
    /// The sink this connection's scheduler completions deliver to.
    fn sink(&self) -> Arc<dyn CompletionSink>;
}

/// The window of a v1 connection: text lines keep the classic
/// one-in-flight, in-order contract.
const V1_WINDOW: usize = 1;

/// The connection state machine both I/O backends drive: hello
/// negotiation (the `V3` upgrade), v1 lines and v3 binary frames,
/// per-request window-slot accounting, inline
/// `PING`/`STATS`/`METRICS`, the zero-serialization cache probe,
/// parse and framing errors, and the draining `QUIT`. Sans-I/O: items
/// come from a [`FrameDecoder`], effects leave through a [`ConnIo`].
///
/// One compute path for both framings: parse the item into a borrowed
/// [`proto::RequestView`], take the window slot, probe
/// [`Registry::probe`] with the view's graph token and op (local service
/// only — a router has no registry), answer a hit inline through
/// [`ConnIo::respond_interned`] under the probe's lock, and build the
/// owned [`proto::Request`] only for a miss, which is submitted. A hit
/// costs no scheduler hop, no re-render and no allocation: one registry
/// lock, one hash of the graph key, and on the epoll backend one copy of
/// the bytes into the wire batch. A miss takes that one probe, as
/// before, and then the owned request. Every hit goes through the
/// probe, so the artifact/graph LRU stamps and the `hits`/`resp_hits`
/// counters refresh per request: a key answered from connection-local
/// state instead would look LRU-coldest and be evicted first under
/// `--mem-budget` pressure.
pub(crate) struct ConnMachine {
    mode: WireMode,
    /// The upstream service's per-connection half (this connection's
    /// shard sockets), opened by its first forwarded request; always
    /// `None` on a server. Dropping the machine tears it down.
    up: Option<shard::UpConn>,
}

impl ConnMachine {
    pub(crate) fn new() -> ConnMachine {
        ConnMachine {
            mode: WireMode::Lines,
            up: None,
        }
    }

    /// The wire framing the decoder should apply to the *next* item.
    pub(crate) fn wire_mode(&self) -> WireMode {
        self.mode
    }

    /// The in-flight window cap in force right now: [`V1_WINDOW`] until
    /// the upgrade, then v3 opens the window to the configured cap.
    pub(crate) fn cap(&self, cx: &ConnShared) -> usize {
        match self.mode {
            WireMode::Lines => V1_WINDOW,
            WireMode::Frames => cx.max_inflight,
        }
    }

    /// Feed one framed item through the protocol. `t0` is the span clock
    /// zero — stamped once per socket read, shared by every item parsed
    /// from that burst (one clock read per syscall, not per request;
    /// `None` when recording is off, so the disabled path pays no clock
    /// reads at all).
    pub(crate) fn handle(
        &mut self,
        item: Inbound<'_>,
        t0: Option<Instant>,
        cx: &ConnShared,
        io: &mut dyn ConnIo,
    ) -> Flow {
        use metrics::{Op, Outcome, Span};
        let (framing, bytes) = match item {
            Inbound::Line(bytes) => (Framing::Bare, bytes),
            Inbound::Frame { tag, payload } => (Framing::V3(tag), payload),
            Inbound::OverlongLine => {
                let resp = ops::Response::err("line too long");
                let span = Span::fast(t0, Op::Other, Outcome::Error, "");
                self.answer(Framing::Bare, resp, span, cx, io);
                return Flow::Close; // the rest of the line is unframeable
            }
            Inbound::OversizedFrame { tag } => {
                // The advertised length is hostile; nothing past this
                // header can be trusted to frame. Answer under the
                // frame's own tag (binary tags always parse) and close —
                // the v3 analog of v1's over-long line.
                let resp = ops::Response::err("frame too long");
                self.answer(Framing::V3(tag), resp, None, cx, io);
                return Flow::Close;
            }
        };
        let Ok(text) = std::str::from_utf8(bytes) else {
            // Line boundaries are byte-based and frame lengths explicit,
            // so the stream stays framed: reject this request, keep the
            // connection.
            let span = Span::fast(t0, Op::Other, Outcome::Error, "");
            self.answer(framing, ops::Response::err("invalid utf-8"), span, cx, io);
            return Flow::Continue;
        };
        let text = text.trim_end_matches(['\r', '\n']);
        // Test-only fault injection, as a v1 line or a v3 payload: lets
        // the unit tests prove a panicking connection still releases its
        // slot on both backends (threads: the handler thread's drop
        // guard; epoll: the loop catches the unwind and tears down only
        // this connection) and gives back exactly the gauge share it
        // holds.
        #[cfg(test)]
        if text == "PANIC" {
            panic!("injected connection-handler panic (test hook)");
        }
        if let Framing::Bare = framing {
            if text.is_empty() {
                return Flow::Continue;
            }
            if text == codec::HELLO_V3 {
                // Upgrade to binary framing: the hello answer is the last
                // *text* line on the wire; from the next byte on, both
                // directions speak 13-byte-header frames.
                let resp = codec::hello_response(cx.max_inflight);
                let span = Span::fast(t0, Op::Other, Outcome::Computed, "");
                self.answer(framing, resp, span, cx, io);
                self.mode = WireMode::Frames;
                return Flow::Continue;
            }
        }
        self.dispatch(RequestView::parse(text), framing, t0, cx, io)
    }

    /// Answer inline under a fresh window slot.
    fn answer(
        &self,
        framing: Framing,
        resp: ops::Response,
        span: Option<metrics::Span>,
        cx: &ConnShared,
        io: &mut dyn ConnIo,
    ) {
        io.acquire(self.cap(cx));
        io.respond(Outgoing {
            framing,
            resp,
            span,
        });
    }

    /// Answer one parsed request, the same way under either framing.
    fn dispatch(
        &mut self,
        parsed: Result<RequestView<'_>, String>,
        framing: Framing,
        t0: Option<Instant>,
        cx: &ConnShared,
        io: &mut dyn ConnIo,
    ) -> Flow {
        use metrics::{Op, Outcome, Span};
        let view = match parsed {
            Ok(RequestView::Quit) => {
                // The driver drains every in-flight response, acquires a
                // fresh slot, and makes this BYE the last bytes on the
                // wire.
                return Flow::Quit(Outgoing {
                    framing,
                    resp: ops::Response::ok_text("BYE".into()),
                    span: Span::fast(t0, Op::Other, Outcome::Computed, ""),
                });
            }
            Ok(view) => view,
            // Parse failures still carry the request's tag, so a
            // pipelining client can correlate the error.
            Err(e) => {
                let span = Span::fast(t0, Op::Other, Outcome::Error, "");
                self.answer(framing, ops::Response::err(&e), span, cx, io);
                return Flow::Continue;
            }
        };
        // Every request takes its window slot first, so a full window
        // backpressures inline answers like compute, and a report counts
        // itself in peak_inflight and leaves itself out of the in-flight
        // gauge (see counter_values).
        io.acquire(self.cap(cx));
        // PING/STATS/METRICS answer inline — never queued behind compute.
        // A report publishes the burst's slots first, so it reads the
        // gauges a per-slot publisher would show.
        let (resp, op) = match view {
            RequestView::Ping => (ops::Response::ok_text("PONG".into()), Op::Other),
            RequestView::Stats => {
                io.publish();
                (ops::Response::ok_text(stats_body(cx)), Op::Stats)
            }
            RequestView::Metrics => {
                io.publish();
                (ops::Response::ok_text(metrics_body(cx)), Op::Metrics)
            }
            RequestView::Compute { graph, op } => {
                self.compute(graph, op, framing, t0, cx, io);
                return Flow::Continue;
            }
            RequestView::Quit => unreachable!("QUIT returned before its slot"),
        };
        io.respond(Outgoing {
            framing,
            resp,
            span: Span::fast(t0, op, Outcome::Computed, ""),
        });
        Flow::Continue
    }

    /// Answer a compute request under its already-acquired slot. Interned
    /// response bytes go straight to the writer (local service only — a
    /// router has no registry to probe): the probe reads the graph token
    /// and op borrowed from the request line and hands the bytes to
    /// [`ConnIo::respond_interned`] under its lock, so a hit allocates
    /// nothing.
    /// The registry counts it as a hit and a resp_hit and refreshes the
    /// entry's LRU stamps, so cache accounting stays exact and the hottest
    /// key is never the eviction victim. Otherwise the owned [`proto::Request`]
    /// is built, the request runs and its response is delivered
    /// through the backend's completion sink — by the scheduler
    /// worker-leader that finishes the job (local), or by the owning
    /// shard's upstream reader (upstream). Either way the delivery runs
    /// on a foreign thread and must not block; the slot the request holds
    /// guarantees it cannot.
    fn compute(
        &mut self,
        graph: &str,
        opkey: ops::OpKey,
        framing: Framing,
        t0: Option<Instant>,
        cx: &ConnShared,
        io: &mut dyn ConnIo,
    ) {
        let req = || RequestView::Compute { graph, op: opkey }.to_request();
        let (registry, sched) = match &cx.service {
            Service::Local { registry, sched } => (registry, sched),
            Service::Upstream(up) => {
                let conn = self.up.get_or_insert_with(|| up.connect());
                return up.run(conn, &req(), framing, &io.sink());
            }
        };
        let op = span_op(&opkey);
        let hit = registry.probe(graph, &opkey, |bytes| {
            // A hit reads no clock: its span is the clock-free one.
            let span = metrics::Span::fast(t0, op, metrics::Outcome::RespHit, graph);
            io.respond_interned(framing, bytes, span)
        });
        if let Some(unframed) = hit {
            if let Some(item) = unframed {
                io.respond(item);
            }
            return;
        }
        // A miss: the parse stage ends here, after the failed probe and
        // the owned request.
        let req = req();
        let mut span = metrics::Span::start(t0, op, graph);
        let stamps = span.as_mut().map(|s| s.attach_job());
        if let Some(s) = &stamps {
            s.stamp_enqueued();
        }
        let (registry, sink) = (Arc::clone(registry), io.sink());
        sched.submit_with(
            Box::new(move || {
                if let Some(s) = &stamps {
                    s.stamp_start();
                }
                let resp = ops::execute_response(&registry, &req);
                if let Some(s) = &stamps {
                    s.stamp_end();
                }
                resp
            }),
            Box::new(move |resp| {
                let mut span = span;
                if let Some(s) = span.as_mut() {
                    s.outcome = if resp.is_ok() {
                        metrics::Outcome::Computed
                    } else {
                        metrics::Outcome::Error
                    };
                }
                sink.deliver(Outgoing {
                    framing,
                    resp,
                    span,
                });
            }),
        );
    }
}

/// The threads backend's completion sink: the bounded response channel
/// (capacity = window cap keeps completion sends non-blocking).
struct ThreadSink {
    tx: SyncSender<Outgoing>,
    win: Arc<ConnWindow>,
    stats: Arc<SvcStats>,
}

impl CompletionSink for ThreadSink {
    /// Send one response into the writer channel under an
    /// already-acquired slot. The send cannot block (see [`ConnWindow`]);
    /// a send error means the writer is already gone, so the slot is
    /// released directly to keep accounting exact (the span dies with the
    /// item — an undeliverable response is not recorded).
    fn deliver(&self, item: Outgoing) {
        if self.tx.send(item).is_err() {
            self.win.release();
            self.stats.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The threads backend's [`ConnIo`]: acquire blocks on the shared
/// [`ConnWindow`], responses go into the writer channel.
struct ThreadIo {
    sink: Arc<ThreadSink>,
}

impl ConnIo for ThreadIo {
    /// Blocks at `cap` (the per-connection backpressure), then records
    /// the slot in the service-wide gauges.
    fn acquire(&mut self, cap: usize) {
        let depth = self.sink.win.acquire(cap);
        let stats = &self.sink.stats;
        stats.inflight.fetch_add(1, Ordering::Relaxed);
        stats
            .peak_inflight
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn respond(&mut self, item: Outgoing) {
        self.sink.deliver(item);
    }

    fn sink(&self) -> Arc<dyn CompletionSink> {
        Arc::clone(&self.sink) as Arc<dyn CompletionSink>
    }
}

/// Bytes pulled from a socket per `read` call, on both backends.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// The threads backend's read driver: blocking chunked reads feeding the
/// shared decoder and machine.
fn read_loop(
    mut stream: TcpStream,
    cx: &ConnShared,
    machine: &mut ConnMachine,
    io: &mut ThreadIo,
) -> io::Result<()> {
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut t0: Option<Instant> = None;
    loop {
        while let Some(item) = dec.next(machine.wire_mode()) {
            match machine.handle(item, t0, cx, io) {
                Flow::Continue => {}
                Flow::Close => return Ok(()),
                Flow::Quit(bye) => return finish_quit(bye, machine, cx, io),
            }
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            // EOF: the old blocking reader served an unterminated final
            // line (`read_until` returns what it got); keep that
            // contract on both backends.
            if let Some(item) = dec.take_remainder(machine.wire_mode()) {
                if let Flow::Quit(bye) = machine.handle(item, t0, cx, io) {
                    return finish_quit(bye, machine, cx, io);
                }
            }
            return Ok(());
        }
        // Span clock zero: stamped once per socket read, shared by every
        // item parsed from the burst.
        t0 = cx.mx.enabled().then(Instant::now);
        dec.push(&chunk[..n]);
    }
}

/// The threads backend's `QUIT` epilogue: drain every in-flight response
/// (so `BYE` is the last bytes on the wire), take a fresh slot, send the
/// goodbye.
fn finish_quit(
    bye: Outgoing,
    machine: &ConnMachine,
    cx: &ConnShared,
    io: &mut ThreadIo,
) -> io::Result<()> {
    io.sink.win.wait_empty();
    io.acquire(machine.cap(cx));
    io.respond(bye);
    Ok(())
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
fn stats_body(cx: &ConnShared) -> String {
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
fn metrics_body(cx: &ConnShared) -> String {
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
    fn oversized_response_body_becomes_a_per_tag_err_frame() {
        // The v3 header's length field is a u32 capped at MAX_PAYLOAD; a
        // body past the cap cannot be framed, so the batcher swaps in a
        // per-tag ERR instead of truncating or poisoning the stream.
        let mut buf = Vec::new();
        let big = ops::Response::ok_text("x".repeat(codec::MAX_PAYLOAD + 1));
        encode_outgoing(Framing::V3(42), big, &mut buf);
        let (f, used) = codec::decode_frame(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!((f.tag, f.status), (42, codec::STATUS_ERR));
        assert_eq!(f.payload, b"response too large");
        // Exactly MAX_PAYLOAD still frames intact.
        buf.clear();
        let max = ops::Response::ok_text("y".repeat(codec::MAX_PAYLOAD));
        encode_outgoing(Framing::V3(7), max, &mut buf);
        let (f, used) = codec::decode_frame(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!((f.tag, f.status), (7, codec::STATUS_OK));
        assert_eq!(f.payload.len(), codec::MAX_PAYLOAD);
    }

    #[test]
    fn encode_body_is_encode_outgoing_byte_for_byte() {
        // One encoder: a hit framed from its interned body and a whole
        // response frame to the same bytes, and those are the wire
        // format — `OK ` / `ERR `, the body and a newline on v1; a codec
        // frame on v3, where a body past MAX_PAYLOAD becomes the per-tag
        // `response too large` ERR.
        let tag = 0x0123_4567_89ab_cdef;
        for framing in [Framing::Bare, Framing::V3(tag)] {
            for ok in [true, false] {
                for len in [0, 70, codec::MAX_PAYLOAD, codec::MAX_PAYLOAD + 1] {
                    let body = "b".repeat(len);
                    let resp = match ok {
                        true => ops::Response::ok_text(body.clone()),
                        false => ops::Response::err(&body),
                    };
                    let (mut direct, mut whole) = (Vec::new(), Vec::new());
                    encode_body(framing, ok, body.as_bytes(), &mut direct);
                    encode_outgoing(framing, resp, &mut whole);
                    let status = if ok {
                        codec::STATUS_OK
                    } else {
                        codec::STATUS_ERR
                    };
                    let wire = match framing {
                        Framing::Bare => {
                            let prefix = if ok { "OK" } else { "ERR" };
                            format!("{prefix} {body}\n").into_bytes()
                        }
                        Framing::V3(_) if len > codec::MAX_PAYLOAD => {
                            codec::encode_frame(tag, codec::STATUS_ERR, b"response too large")
                        }
                        Framing::V3(_) => codec::encode_frame(tag, status, body.as_bytes()),
                    };
                    let v3 = matches!(framing, Framing::V3(_));
                    // `assert!`, not `assert_eq!`: a failure must not
                    // print megabytes of body.
                    assert!(direct == whole, "v3={v3} ok={ok} len={len}");
                    assert!(direct == wire, "v3={v3} ok={ok} len={len}");
                }
            }
        }
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
