//! The epoll I/O driver: one nonblocking readiness loop driving every
//! connection's machine (Linux only; the default there).
//!
//! Where the threads driver spends two threads per connection, this
//! module serves them all from **one** loop thread: a raw `epoll`
//! instance (direct `extern "C"` declarations against the already-linked
//! C library — std-only, no crates) watches the listener, every
//! connection socket, and an `eventfd` **doorbell**. Scheduler
//! completions — which run on worker-leader threads — post their
//! finished responses to a shared [`PendingQueue`] and ring the
//! doorbell, so a completion becomes a readiness event instead of a
//! blocking channel send; the loop routes each response into its
//! connection's [`WireBatch`], and a flush retires the batch with plain
//! `write`s from a single offset. C10K-style workloads — thousands of
//! mostly-idle connections, a few active pipelined ones — cost one
//! sleeping thread total instead of thousands.
//!
//! Protocol behavior lives entirely in the connection machine (`conn`),
//! the only module besides `server` this one imports from: this module
//! only decides *when* to read, process, and write. The per-connection
//! window is enforced by **pre-gating**: the loop feeds the machine
//! another item only while the connection's acquired-but-unretired count
//! is under the window cap, so the machine's `acquire` never waits.
//!
//! **A request pays for itself; a burst pays for the rest.** One wake
//! drives each ready connection through one quantum (read, feed the
//! machine, flush). Per request the loop pays the parse, the registry
//! probe and, on a cache hit, one copy of the interned bytes, framed
//! straight into the wire batch under the probe's lock
//! ([`ConnIo::respond_interned`]: no `Arc` clone, no [`Outgoing`]).
//! Everything else is paid once per burst:
//!
//! * **Gauges.** `acquire` only counts; the burst's slots reach
//!   `inflight` / `peak_inflight` in one [`ConnIo::publish`] at the end
//!   of feeding the machine — before a flush takes a batch, before a
//!   `STATS` / `METRICS` body renders, and before teardown gives slots
//!   back — so every gauge value a client can read is the one a
//!   per-slot publisher shows. A batch retires through the same two
//!   steps as the threads writer's ([`WireBatch::taken`],
//!   [`WireBatch::written`]).
//! * **Reads.** A short read or `WouldBlock` ends reading for the
//!   quantum. The poller is level-triggered, so bytes that arrive later
//!   are reported by the next wait rather than found by a read that can
//!   only say `EAGAIN`.
//! * **Buffers.** The fired tokens, the drained completions, the
//!   connections they touched and the read chunk live in buffers the
//!   loop keeps: a wake allocates nothing.
//!
//! **Wait policy.** After a wake that answered at least one cache hit
//! inline, and only while nothing is in flight service-wide, the loop
//! polls `epoll_wait` without blocking for the worker pool's
//! [`SPIN_BUDGET`] (a `spin_loop` hint and a `yield_now` between polls,
//! as an idle pool worker does) before it blocks, so a client's next
//! batch of hits finds it awake instead of paying a cross-CPU wake-up.
//! Every other wake (a completion, a miss, an accept) blocks at once and
//! leaves the CPU to the scheduler's jobs.
//!
//! Teardown invariants: a connection's `epoll` registration is deleted
//! *before* its socket drops (the kill-table holds a dup of the fd, so a
//! close alone would leave a stale registration), responses still queued
//! at death give their (published) gauge increments back, undeliverable
//! completions for dead connections are retired through the pending
//! queue's dead-id path, and a panic inside one connection's machine
//! tears down only that connection. The connection slot itself rides the
//! same [`ConnSlot`] drop guard as the threads backend.

use crate::conn::{
    CompletionSink, ConnIo, ConnMachine, Flow, FrameDecoder, Framing, Outgoing, WireBatch,
    HIGH_WATER, READ_CHUNK,
};
use crate::metrics;
use crate::registry::RespBytes;
use crate::server::{accept_failed, admit, ConnShared, ConnSlot, ConnTable, SvcStats};
use mis2_prim::pool::SPIN_BUDGET;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Raw Linux syscall surface: the handful of epoll/eventfd entry points
/// declared directly against the C library std already links.
mod sys {
    use std::os::fd::RawFd;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    /// Mirror of the kernel's `struct epoll_event`. glibc packs it on
    /// x86-64 (`__EPOLL_PACKED`) so the layout matches the kernel ABI;
    /// other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
    }
}

/// RAII epoll instance.
struct Poller {
    fd: OwnedFd,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let evp = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut sys::EpollEvent
        };
        let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, evp) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// The next readiness batch. With `spin`, poll without blocking for
    /// up to [`SPIN_BUDGET`] first (see the module's wait policy); then
    /// block.
    fn wait(&self, events: &mut Vec<sys::EpollEvent>, spin: bool) -> io::Result<usize> {
        if spin {
            let deadline = Instant::now() + SPIN_BUDGET;
            while Instant::now() < deadline {
                let n = self.poll(events, 0)?;
                if n > 0 {
                    return Ok(n);
                }
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
        self.poll(events, -1)
    }

    /// One `epoll_wait` with `timeout` ms (-1: block), EINTR retried.
    fn poll(&self, events: &mut Vec<sys::EpollEvent>, timeout: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe {
                sys::epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.capacity() as i32,
                    timeout,
                )
            };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            // SAFETY: the kernel initialized the first `rc` events, and
            // rc <= capacity was passed as maxevents.
            unsafe { events.set_len(rc as usize) };
            return Ok(rc as usize);
        }
    }
}

/// The loop's wakeup `eventfd`: scheduler threads ring it after posting
/// a completion; the loop drains it once per readiness event.
struct Doorbell {
    fd: std::fs::File,
}

impl Doorbell {
    fn new() -> io::Result<Doorbell> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Doorbell {
            fd: unsafe { std::fs::File::from_raw_fd(fd) },
        })
    }

    fn ring(&self) {
        // A full counter (EAGAIN) already has the loop's wakeup pending;
        // EBADF cannot happen while any sink holds the queue alive.
        let _ = (&self.fd).write(&1u64.to_ne_bytes());
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.fd).read(&mut buf);
    }

    fn raw(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

/// Completions posted by scheduler worker-leaders, keyed by connection
/// id. Unbounded on purpose: every item already holds a window slot, so
/// occupancy is bounded by `connections × max_inflight`, and a push can
/// never be allowed to block a worker.
struct PendingQueue {
    items: Mutex<Vec<(u64, Outgoing)>>,
    doorbell: Doorbell,
}

impl PendingQueue {
    fn post(&self, id: u64, item: Outgoing) {
        self.items.lock().unwrap().push((id, item));
        self.doorbell.ring();
    }

    /// Swap the posted items into `into` (empty; its capacity goes to
    /// the next posts, so neither side allocates once both have grown).
    /// Drain the doorbell *before* taking the items: a post that lands
    /// after the take always rang after its push, so its wakeup is still
    /// pending and the item is picked up on the next event. (The
    /// reverse order could consume a ring whose item was not yet taken,
    /// stranding it until an unrelated wakeup.)
    fn drain(&self, into: &mut Vec<(u64, Outgoing)>) {
        debug_assert!(into.is_empty());
        self.doorbell.drain();
        std::mem::swap(&mut *self.items.lock().unwrap(), into);
    }
}

/// One connection's completion sink: post to the shared pending queue
/// under this connection's id. Holding the queue (and through it the
/// doorbell fd) alive from scheduler threads is what makes late
/// completions after loop exit safe.
struct EvSink {
    id: u64,
    pending: Arc<PendingQueue>,
}

impl CompletionSink for EvSink {
    fn deliver(&self, item: Outgoing) {
        self.pending.post(self.id, item);
    }
}

/// The epoll backend's [`ConnIo`]: window accounting is plain counters
/// (the loop pre-gates on window room, so acquire never waits) published
/// to the service gauges once per burst, responses are encoded into the
/// batch the next flush takes.
struct EvIo {
    /// Responses acquired but not yet retired by a completed write — the
    /// epoll analog of the threads backend's `ConnWindow` occupancy.
    held: usize,
    /// Slots acquired since the last [`ConnIo::publish`]: their share of
    /// the `inflight` gauge is not added yet.
    unpublished: usize,
    /// A cache hit was answered inline since the loop last looked: the
    /// gate of the loop's spin (see the module's wait policy).
    answered_hit: bool,
    /// The batch under construction. A flush takes it whole and swaps in
    /// the connection's spare (see [`WireBatch::into_spare`]).
    next: WireBatch,
    sink: Arc<EvSink>,
    stats: Arc<SvcStats>,
}

impl ConnIo for EvIo {
    fn acquire(&mut self, _cap: usize) {
        self.held += 1;
        self.unpublished += 1;
    }

    fn respond(&mut self, item: Outgoing) {
        self.next.push(item);
    }

    fn respond_interned(
        &mut self,
        framing: Framing,
        bytes: &Arc<RespBytes>,
        span: Option<metrics::Span>,
    ) -> Option<Outgoing> {
        self.answered_hit = true;
        self.next.push_hit(framing, &bytes.body, span);
        None
    }

    /// `held` only shrinks when a flush retires a batch, and `process`
    /// publishes before every flush, so its value here is the largest
    /// any acquire of the burst saw.
    fn publish(&mut self) {
        if self.unpublished > 0 {
            let slots = std::mem::take(&mut self.unpublished);
            self.stats.publish(slots, self.held);
        }
    }

    fn sink(&self) -> Arc<dyn CompletionSink> {
        Arc::clone(&self.sink) as Arc<dyn CompletionSink>
    }
}

/// Where a connection is in its life: serving, draining for `QUIT`, or
/// flushing its last bytes.
enum ConnState {
    Open,
    /// `QUIT` seen: once everything in flight has retired, the held
    /// goodbye goes out as the last bytes on the wire.
    Draining(Option<Outgoing>),
    /// No more requests will be accepted; flush what's queued and close.
    Closing,
}

/// One connection on the loop: its socket, decoder + machine, window/
/// queue accounting, and the batch currently mid-write.
struct EvConn {
    stream: TcpStream,
    dec: FrameDecoder,
    machine: ConnMachine,
    io: EvIo,
    batch: Option<WireBatch>,
    /// The last retired batch, emptied, waiting to become `io.next`.
    spare: Option<WireBatch>,
    state: ConnState,
    read_closed: bool,
    /// Span clock zero of the most recent socket read (see
    /// `ConnMachine::handle`).
    t0: Option<Instant>,
    /// Event mask currently registered with the poller.
    interest: u32,
    _slot: ConnSlot,
}

impl EvConn {
    /// One quantum of work: read what's available, feed the machine
    /// under window pre-gating, flush queued responses — repeated until
    /// nothing moves. `chunk` is the loop's read buffer. `Err` means the
    /// socket is dead and the caller must tear the connection down.
    fn drive(&mut self, cx: &ConnShared, chunk: &mut [u8]) -> io::Result<()> {
        // Cleared once a read says the socket is drained; the
        // level-triggered poller reports anything newer on its next wait.
        let mut readable = true;
        loop {
            let mut progress = readable && self.fill(cx, chunk, &mut readable);
            progress |= self.process(cx);
            progress |= self.flush(cx)?;
            progress |= self.transition();
            if !progress {
                return Ok(());
            }
        }
    }

    /// Nonblocking reads into the decoder, up to the high-water mark;
    /// a short read or `WouldBlock` clears `readable`. Read errors are
    /// folded into EOF: in-flight responses still flush (mirroring the
    /// threads teardown, where the writer drains after the reader dies),
    /// and the next write surfaces the dead socket.
    fn fill(&mut self, cx: &ConnShared, chunk: &mut [u8], readable: &mut bool) -> bool {
        if self.read_closed || !matches!(self.state, ConnState::Open) {
            return false;
        }
        let mut progress = false;
        while self.dec.pending() < HIGH_WATER {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    progress = true;
                    break;
                }
                Ok(n) => {
                    progress = true;
                    // Span clock zero: stamped once per socket read,
                    // shared by every item parsed from the burst.
                    self.t0 = cx.mx.enabled().then(Instant::now);
                    self.dec.push(&chunk[..n]);
                    if n < chunk.len() {
                        *readable = false; // short read: the socket is drained
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    *readable = false;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.read_closed = true;
                    progress = true;
                    break;
                }
            }
        }
        progress
    }

    /// Feed decoded items to the machine while the window has room (a
    /// full window leaves them waiting in the decoder).
    fn process(&mut self, cx: &ConnShared) -> bool {
        let mut progress = false;
        while matches!(self.state, ConnState::Open) && self.io.held < self.machine.cap(cx) {
            let (machine, io) = (&mut self.machine, &mut self.io);
            let flow = match self.dec.next(machine.wire_mode()) {
                Some(item) => machine.handle(item, self.t0, cx, io),
                None if self.read_closed => machine.eof(&mut self.dec, self.t0, cx, io),
                None => break,
            };
            progress = true;
            match flow {
                Flow::Continue => {}
                Flow::Close => {
                    self.read_closed = true;
                    self.state = ConnState::Closing;
                }
                Flow::Quit(bye) => {
                    self.read_closed = true;
                    self.state = ConnState::Draining(Some(bye));
                }
            }
        }
        self.io.publish();
        progress
    }

    /// Take the encoded batch and push bytes until done or `WouldBlock`;
    /// the window slots (`held`) retire only once the bytes are on the
    /// socket. Its slots are published already: `process` publishes last,
    /// and only `transition` acquires after it, on a drive that goes round
    /// again through `process`.
    fn flush(&mut self, cx: &ConnShared) -> io::Result<bool> {
        let mut progress = false;
        loop {
            if self.batch.is_none() && self.io.next.count > 0 {
                let spare = self.spare.take().unwrap_or_default();
                let batch = std::mem::replace(&mut self.io.next, spare);
                batch.taken(&cx.stats);
                self.batch = Some(batch);
                progress = true;
            }
            let Some(batch) = self.batch.as_mut() else {
                return Ok(progress);
            };
            if !batch.write_some(&mut self.stream)? {
                return Ok(progress); // EPOLLOUT resumes the batch
            }
            let mut batch = self.batch.take().expect("batch in progress");
            let held = &mut self.io.held;
            batch.written(&cx.stats, &cx.mx, |slots| *held -= slots);
            self.spare = batch.into_spare();
            progress = true;
        }
    }

    /// The `QUIT` epilogue: once everything in flight has retired, the
    /// goodbye takes a fresh slot and becomes the last queued response.
    /// (Every reply queued or mid-write holds a slot, so `held == 0`
    /// means nothing is held, queued or mid-write.)
    fn transition(&mut self) -> bool {
        let ConnState::Draining(bye) = &mut self.state else {
            return false;
        };
        if self.io.held > 0 {
            return false;
        }
        let bye = bye.take().expect("goodbye staged exactly once");
        self.io.acquire(1);
        self.io.respond(bye);
        self.state = ConnState::Closing;
        true
    }

    /// Fully drained and flushed: safe to close gracefully.
    fn finished(&self) -> bool {
        matches!(self.state, ConnState::Closing) && self.io.held == 0
    }

    /// The event mask this connection currently needs.
    fn wanted_interest(&self) -> u32 {
        let mut ev = 0;
        if !self.read_closed
            && matches!(self.state, ConnState::Open)
            && self.dec.pending() < HIGH_WATER
        {
            ev |= sys::EPOLLIN;
        }
        if self.batch.is_some() {
            ev |= sys::EPOLLOUT;
        }
        ev
    }
}

/// Poller token of the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Poller token of the completion doorbell.
const DOORBELL_TOKEN: u64 = u64::MAX - 1;

struct EvLoop {
    poller: Poller,
    listener: TcpListener,
    cx: Arc<ConnShared>,
    stop: Arc<AtomicBool>,
    conn_table: Arc<ConnTable>,
    max_conns: usize,
    pending: Arc<PendingQueue>,
    conns: HashMap<u64, EvConn>,
    /// Monotonic connection ids double as poller tokens — never reused,
    /// so a stale event for a closed connection can't alias a new one.
    next_id: u64,
    /// A connection answered a cache hit inline during this wake.
    answered_hit: bool,
    /// Buffers kept across wakes: drained completions, the connections
    /// they touched, and the read chunk every connection reads into.
    completions: Vec<(u64, Outgoing)>,
    touched: Vec<u64>,
    chunk: Box<[u8]>,
}

/// Start the event loop on its own thread (the epoll backend's analog
/// of the threads backend's accept thread; `ServerHandle::shutdown`
/// joins it the same way).
pub(crate) fn spawn(
    listener: TcpListener,
    cx: Arc<ConnShared>,
    stop: Arc<AtomicBool>,
    conn_table: Arc<ConnTable>,
    max_conns: usize,
) -> io::Result<std::thread::JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let pending = Arc::new(PendingQueue {
        items: Mutex::new(Vec::new()),
        doorbell: Doorbell::new()?,
    });
    poller.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN)?;
    poller.add(pending.doorbell.raw(), sys::EPOLLIN, DOORBELL_TOKEN)?;
    let mut lp = EvLoop {
        poller,
        listener,
        cx,
        stop,
        conn_table,
        max_conns,
        pending,
        conns: HashMap::new(),
        next_id: 0,
        answered_hit: false,
        completions: Vec::new(),
        touched: Vec::new(),
        chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
    };
    std::thread::Builder::new()
        .name("mis2-svc-accept".into())
        .spawn(move || lp.run())
}

impl EvLoop {
    fn run(&mut self) {
        let mut events: Vec<sys::EpollEvent> = Vec::with_capacity(256);
        let mut fired: Vec<u64> = Vec::with_capacity(256);
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // Spin only after a wake that answered hits inline, and only
            // with no job to leave the CPU to (see the wait policy).
            let spin = std::mem::take(&mut self.answered_hit)
                && self.cx.stats.inflight.load(Ordering::Relaxed) == 0;
            if self.poller.wait(&mut events, spin).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // Copy tokens out first: handling an event may mutate the
            // connection map.
            fired.clear();
            fired.extend(events.iter().map(|e| e.data));
            for &token in &fired {
                match token {
                    LISTENER_TOKEN => self.accept_burst(),
                    DOORBELL_TOKEN => self.deliver_completions(),
                    id => self.drive_conn(id),
                }
            }
        }
        // Stop: tear down every connection (slots release through their
        // drop guards). In-flight completions posted after this point
        // only touch the pending queue, which scheduler threads keep
        // alive through their sinks.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id, true);
        }
    }

    fn accept_burst(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Level-triggered: returning lets the next wait
                    // report the listener again, after the back-off.
                    accept_failed(&self.cx.mx);
                    return;
                }
            };
            let Some((stream, slot)) = admit(stream, &self.cx, &self.conn_table, self.max_conns)
            else {
                continue;
            };
            if stream.set_nonblocking(true).is_err() {
                continue; // drop; `slot` releases
            }
            let id = self.next_id;
            self.next_id += 1;
            let fd = stream.as_raw_fd();
            let conn = EvConn {
                stream,
                dec: FrameDecoder::new(),
                machine: ConnMachine::new(),
                io: EvIo {
                    held: 0,
                    unpublished: 0,
                    answered_hit: false,
                    next: WireBatch::default(),
                    sink: Arc::new(EvSink {
                        id,
                        pending: Arc::clone(&self.pending),
                    }),
                    stats: Arc::clone(&self.cx.stats),
                },
                batch: None,
                spare: None,
                state: ConnState::Open,
                read_closed: false,
                t0: None,
                interest: sys::EPOLLIN,
                _slot: slot,
            };
            if self.poller.add(fd, sys::EPOLLIN, id).is_err() {
                continue; // drop `conn` (and its slot)
            }
            self.conns.insert(id, conn);
            // The hello (or a whole pipelined burst) may already be
            // readable; don't wait for the next readiness event.
            self.drive_conn(id);
        }
    }

    fn deliver_completions(&mut self) {
        let (mut items, mut touched) = (
            std::mem::take(&mut self.completions),
            std::mem::take(&mut self.touched),
        );
        self.pending.drain(&mut items);
        for (id, item) in items.drain(..) {
            match self.conns.get_mut(&id) {
                Some(conn) => {
                    conn.io.respond(item);
                    if !touched.contains(&id) {
                        touched.push(id);
                    }
                }
                None => {
                    // The connection died while its job ran: the
                    // response is undeliverable, its gauge increment is
                    // ours to give back, and its span dies unrecorded
                    // (the client never observed the response) — the
                    // same contract as the threads writer's broken-
                    // socket drain.
                    self.cx.stats.inflight.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        for &id in &touched {
            self.drive_conn(id);
        }
        touched.clear();
        (self.completions, self.touched) = (items, touched);
    }

    fn drive_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // Panic isolation: a panicking handler (the PANIC test hook, or
        // a real bug reaching the machine) tears down only this
        // connection — its slot releases through the drop guard — while
        // the loop keeps serving everyone else.
        let drove = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            conn.drive(&self.cx, &mut self.chunk)
        }));
        self.answered_hit |= std::mem::take(&mut conn.io.answered_hit);
        if !matches!(drove, Ok(Ok(()))) {
            self.close(id, true);
            return;
        }
        if conn.finished() {
            self.close(id, false);
            return;
        }
        let want = conn.wanted_interest();
        if want == conn.interest {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        conn.interest = want;
        if self.poller.modify(fd, want, id).is_err() {
            self.close(id, true);
        }
    }

    fn close(&mut self, id: u64, abort: bool) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        // Deregister from epoll FIRST: the kill-table's tracked dup
        // keeps the file description alive past our drop, so closing
        // our fd alone would leave a stale registration delivering
        // events under a dangling token.
        let _ = self.poller.del(conn.stream.as_raw_fd());
        if abort {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        // Responses encoded but never taken by a flush still hold their
        // gauge increments: give them back (their spans die unrecorded).
        // A burst a panic cut short has not published its slots yet, so
        // publish first: the give-back below, and the dead-id path for
        // the burst's submitted jobs, subtract only what was added. A
        // batch mid-write already retired its gauge share; completions
        // still in the scheduler come back through the dead-id path.
        conn.io.publish();
        let undrained = conn.io.next.count as u64;
        if undrained > 0 {
            self.cx
                .stats
                .inflight
                .fetch_sub(undrained, Ordering::Relaxed);
        }
        // `conn` drops here: the socket closes and the ConnSlot drop
        // guard releases the connection slot + kill-table entry.
    }
}
