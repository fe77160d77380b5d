//! The threads I/O driver: a **reader** thread and a **writer** thread
//! per connection, joined by a bounded response channel — the portable
//! fallback and the only driver off Linux. It is the driver that is
//! leaving: once nothing constructs `IoBackend::Threads`, deleting this
//! file and `IoBackend` is the whole change, because it imports only from
//! the connection machine (`conn`) and the process (`server`).
//!
//! The reader feeds the machine from blocking reads and keeps going while
//! earlier jobs run; compute requests go to the scheduler in completion
//! mode, and the worker-leader that finishes a job sends its response
//! straight into the writer channel, so responses leave in *completion*
//! order (tagged on v3; v1 caps the window at 1, which keeps the classic
//! request order). A cache hit never meets the scheduler: the machine
//! hands the interned bytes' `Arc` to the channel after the probe's lock
//! is released.
//!
//! The writer is a **batcher**: it drains the channel greedily into one
//! [`WireBatch`] and writes it at once, so a window's worth of responses
//! retires in O(syscalls), not O(responses).
//!
//! Backpressure is layered: the per-connection in-flight window
//! ([`crate::server::ServerConfig::max_inflight`]) stops the reader when
//! too many responses are outstanding, and the scheduler's bounded queue
//! stops it when the whole service is saturated. The window-slot protocol
//! also guarantees completions never block on the channel: a slot is
//! acquired per request before anything may be sent, and released by the
//! writer only after its batch is written — every channel item's slot is
//! still held, so occupancy can never reach capacity (= the window cap)
//! while a send is in flight. Teardown (EOF, error, `QUIT`, over-long
//! line) waits for the window to empty — the writer releases slots even
//! behind a broken socket, so a vanished client cannot wedge it — then
//! drops the machine and the reader's sender and joins the writer.

use crate::codec::FrameDecoder;
use crate::conn::{
    CompletionSink, ConnIo, ConnMachine, Flow, Framing, Outgoing, WireBatch, READ_CHUNK,
};
use crate::metrics::{self, Metrics};
use crate::ops;
use crate::registry::RespBytes;
use crate::server::{accept_failed, admit, ConnShared, ConnTable, SvcStats};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The thread-per-connection accept loop: one blocking `accept`, one
/// handler (reader) thread and one writer thread per admitted connection.
pub(crate) fn spawn(
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
                    accept_failed(&cx.mx);
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
/// backpressure); the writer releases a batch's slots once it is written.
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

    fn release(&self, slots: usize) {
        let mut n = self.inflight.lock().unwrap();
        *n -= slots;
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

/// The writer half of a connection: drains the bounded response channel
/// in greedy batches — one blocking `recv`, then everything `try_recv`
/// yields — into one [`WireBatch`] and writes it at once. Window slots
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
    mut out: TcpStream,
    win: &ConnWindow,
    stats: &SvcStats,
    mx: &Metrics,
) {
    let mut broken = false;
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
        let mut batch = WireBatch::default();
        batch.push(first);
        loop {
            match rx.try_recv() {
                Ok(next) => batch.push(next),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        batch.taken(stats);
        // The socket blocks, so `write_some` finishes the batch or fails.
        if !broken && !matches!(batch.write_some(&mut out), Ok(true)) {
            broken = true;
            let _ = out.shutdown(std::net::Shutdown::Both);
        }
        if broken {
            // Responses that never reached the socket drop their spans
            // unrecorded: the client never observed them, so the
            // histograms don't either.
            win.release(batch.count);
        } else {
            batch.written(stats, mx, |slots| win.release(slots));
        }
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
            self.win.release(1);
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
        self.sink.stats.publish(1, depth);
    }

    fn respond(&mut self, item: Outgoing) {
        self.sink.deliver(item);
    }

    /// The `Arc` is cloned into the response here and sent after the
    /// registry lock is released (the send may wake the writer thread).
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

    /// Acquire publishes each slot already.
    fn publish(&mut self) {}

    fn sink(&self) -> Arc<dyn CompletionSink> {
        Arc::clone(&self.sink) as Arc<dyn CompletionSink>
    }
}

/// The threads backend's read driver: blocking chunked reads feeding the
/// shared decoder and machine.
fn read_loop(
    mut stream: TcpStream,
    cx: &ConnShared,
    machine: &mut ConnMachine,
    io: &mut ThreadIo,
) -> io::Result<()> {
    let mut dec = FrameDecoder::default();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut t0: Option<Instant> = None;
    loop {
        let flow = match dec.next(machine.wire_mode()) {
            Some(item) => machine.handle(item, t0, cx, io),
            None => match stream.read(&mut chunk) {
                Ok(0) => machine.eof(&mut dec, t0, cx, io),
                Ok(n) => {
                    // Span clock zero: stamped once per socket read,
                    // shared by every item parsed from the burst.
                    t0 = cx.mx.enabled().then(Instant::now);
                    dec.push(&chunk[..n]);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            },
        };
        match flow {
            Flow::Continue => {}
            Flow::Close => return Ok(()),
            Flow::Quit(bye) => return finish_quit(bye, machine, cx, io),
        }
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
