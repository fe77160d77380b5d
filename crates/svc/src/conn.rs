//! The connection machine: everything a connection does that is not I/O.
//!
//! Protocol behavior lives in ONE place, fed by both I/O drivers
//! (`evloop`, `threads`) and answered by either service (a server's
//! registry and scheduler, a router's shards): [`FrameDecoder`] turns
//! bytes into framed [`Inbound`] items, and [`ConnMachine`] runs hello
//! negotiation (the `V3` upgrade), v1 lines and v3 frames, per-request
//! window-slot accounting, inline `PING`/`STATS`/`METRICS`, the
//! zero-serialization cache probe (one compute path for both framings),
//! parse and framing errors, and the draining `QUIT`. Its effects leave
//! through the [`ConnIo`] seam: acquire a window slot, queue a reply,
//! answer a hit from interned bytes, publish gauges, and mint the
//! [`CompletionSink`] a completion delivers to.
//!
//! What both drivers do is written here once:
//!
//! * [`WireBatch`] — every reply is encoded into one batch buffer and
//!   written from a resumable offset. A batch retires in two steps:
//!   [`WireBatch::taken`] (its replies leave the in-flight gauge) and
//!   [`WireBatch::written`] (the write is counted, its window slots are
//!   released, its spans recorded under one clock read).
//! * [`ConnMachine::eof`] — end of input serves an unterminated final
//!   line, then ends the connection, draining first if that line was
//!   `QUIT`.
//!
//! Nothing here names a socket or a thread (`tests/surface.rs` keeps it
//! so). The tests below drive the machine with no socket in scope: byte
//! streams cut at seeded offsets, the real scheduler's completions
//! released in a seeded order.

use crate::codec::{self, FrameDecoder, Inbound, WireMode};
use crate::metrics::{self, Metrics};
use crate::ops;
use crate::proto::RequestView;
use crate::registry::RespBytes;
use crate::server::{metrics_body, stats_body, ConnShared, Service, SvcStats};
use crate::shard;
use std::io::{self, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One response travelling from the machine (inline answers) or a
/// completion into the connection's write batch: the response, how it is
/// framed, and the request's metrics span (if recording), which retires
/// once the bytes hit the socket.
pub(crate) struct Outgoing {
    pub(crate) framing: Framing,
    pub(crate) resp: ops::Response,
    pub(crate) span: Option<metrics::Span>,
}

/// Append one reply's wire bytes to a buffer — the one encoder, whether
/// the reply arrives as an [`ops::Response`] ([`encode_outgoing`]) or as
/// interned bytes framed under the registry probe
/// ([`ConnIo::respond_interned`]). The body is copied once, rendered text
/// or interned registry bytes alike (interning skips the render, not the
/// copy).
pub(crate) fn encode_body(framing: Framing, ok: bool, body: &[u8], buf: &mut Vec<u8>) {
    let status = codec::status_byte(ok);
    match framing {
        Framing::Bare => {
            buf.extend_from_slice(codec::status_prefix(status).as_bytes());
            buf.extend_from_slice(body);
            buf.push(b'\n');
        }
        Framing::V3(tag) => {
            // An over-MAX_PAYLOAD body cannot be framed (`write_frame`
            // refuses it, writing nothing): a per-tag ERR takes its place,
            // so only this request fails and the stream stays framed.
            if codec::write_frame(buf, tag, status, body).is_err() {
                let err = codec::write_frame(buf, tag, codec::STATUS_ERR, b"response too large");
                err.expect("a short body frames");
            }
        }
    }
}

/// [`encode_body`] of a whole response.
pub(crate) fn encode_outgoing(framing: Framing, resp: ops::Response, buf: &mut Vec<u8>) {
    encode_body(framing, resp.is_ok(), resp.body_bytes(), buf);
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

/// A driver's completion-delivery handle: scheduler completions (which
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
    /// (`Registry::probe`), so it must not block: the epoll backend
    /// frames the bytes straight into its wire batch and returns `None`;
    /// the threads backend returns the response, which the machine hands
    /// to [`ConnIo::respond`] once the lock is released.
    fn respond_interned(
        &mut self,
        framing: Framing,
        bytes: &Arc<RespBytes>,
        span: Option<metrics::Span>,
    ) -> Option<Outgoing>;
    /// Add the slots acquired since the last call to the service gauges
    /// (`inflight`, `peak_inflight`). The machine calls it before it
    /// renders a `STATS` / `METRICS` body.
    fn publish(&mut self);
    /// The sink this connection's scheduler completions deliver to.
    fn sink(&self) -> Arc<dyn CompletionSink>;
}

/// The window of a v1 connection: text lines keep the classic
/// one-in-flight, in-order contract.
const V1_WINDOW: usize = 1;

/// The connection state machine both drivers run (see the module docs):
/// items come from a [`FrameDecoder`], effects leave through a [`ConnIo`].
///
/// One compute path for both framings: parse the item into a borrowed
/// [`proto::RequestView`], take the window slot, probe
/// `Registry::probe` with the view's graph token and op (local service
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

    /// End of input — the one EOF step of both drivers. An unterminated
    /// final line is still served (the old blocking reader's
    /// `read_until` returned what it got); a partial v3 frame dies with
    /// the connection. Then the connection ends: [`Flow::Quit`] if that
    /// line was `QUIT`, [`Flow::Close`] otherwise.
    pub(crate) fn eof(
        &mut self,
        dec: &mut FrameDecoder,
        t0: Option<Instant>,
        cx: &ConnShared,
        io: &mut dyn ConnIo,
    ) -> Flow {
        let last = dec.take_remainder(self.mode);
        match last.map(|item| self.handle(item, t0, cx, io)) {
            Some(Flow::Quit(bye)) => Flow::Quit(bye),
            _ => Flow::Close,
        }
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

/// Bytes pulled from a socket per `read` call, on both drivers.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// One coalesced response batch, the one both drivers write: every
/// reply's wire bytes in one buffer, the spans they retire with, and the
/// offset a partial (`WouldBlock`) write resumes from on the next
/// `EPOLLOUT`. On a blocking socket [`WireBatch::write_some`] returns
/// only once the whole batch is written, as `write_all` would.
#[derive(Default)]
pub(crate) struct WireBatch {
    buf: Vec<u8>,
    spans: Vec<metrics::Span>,
    /// Responses in the batch — the window slots it retires on completion.
    pub(crate) count: usize,
    /// Bytes of `buf` the socket has accepted so far.
    sent: usize,
}

impl WireBatch {
    /// Append one response: its span (if any) is parked until the
    /// batch's write retires, its bytes go to the buffer.
    pub(crate) fn push(&mut self, item: Outgoing) {
        self.count += 1;
        self.spans.extend(item.span);
        encode_outgoing(item.framing, item.resp, &mut self.buf);
    }

    /// [`WireBatch::push`] of a cache hit, from its interned body.
    pub(crate) fn push_hit(&mut self, framing: Framing, body: &[u8], span: Option<metrics::Span>) {
        self.count += 1;
        self.spans.extend(span);
        encode_body(framing, true, body, &mut self.buf);
    }

    /// A retired batch, emptied for reuse as the connection's next one so
    /// that a busy connection stops allocating per batch — or `None` when
    /// its buffer has grown past [`HIGH_WATER`], so a connection that
    /// once flushed a large batch and went idle does not keep it.
    pub(crate) fn into_spare(mut self) -> Option<WireBatch> {
        if self.buf.capacity() > HIGH_WATER {
            return None;
        }
        self.buf.clear();
        self.spans.clear();
        self.count = 0;
        self.sent = 0;
        Some(self)
    }

    /// Push more bytes at the socket: `Ok(true)` when the batch is fully
    /// written, `Ok(false)` on `WouldBlock` (wait for `EPOLLOUT`),
    /// `Err` when the socket is dead.
    pub(crate) fn write_some(&mut self, out: &mut impl Write) -> io::Result<bool> {
        while self.sent < self.buf.len() {
            match out.write(&self.buf[self.sent..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes of a response batch",
                    ))
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Retirement, step one: the batch is taken for writing, and its
    /// replies leave the in-flight *gauge* now, before any write — a
    /// client that has read its last reply (e.g. `BYE`) must not observe
    /// a stale non-zero gauge because the driver has not run its
    /// post-write bookkeeping yet. The window slots, which `QUIT`'s drain
    /// waits on, stay held until [`WireBatch::written`].
    pub(crate) fn taken(&self, stats: &SvcStats) {
        stats
            .inflight
            .fetch_sub(self.count as u64, Ordering::Relaxed);
    }

    /// Retirement, step two: the batch is on the socket. Count the write
    /// and its bytes, give its window slots back through `release`, then
    /// record its spans with ONE clock read as the shared write-retired
    /// stamp and one metrics lock — per-response clocks or locks would put
    /// their cost back on the path the batching exists to amortize.
    /// Recording runs after the slots are released, so it overlaps with
    /// the machine's next burst instead of gating admission.
    pub(crate) fn written(&mut self, stats: &SvcStats, mx: &Metrics, release: impl FnOnce(usize)) {
        stats.writev_batches.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_tx
            .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        release(self.count);
        if !self.spans.is_empty() {
            mx.record_batch(self.spans.drain(..), Instant::now());
        }
    }
}

/// Stop pulling bytes off a connection's socket once this many are
/// buffered undecoded — the read-side analog of the window cap, bounding
/// memory against a client that pipelines faster than it drains — and
/// keep no spare batch whose buffer grew past it.
pub(crate) const HIGH_WATER: usize = 256 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use crate::registry::Registry;
    use crate::sched::{SchedConfig, Scheduler};
    use crate::server::IoBackend;
    use mis2_graph::Scale;
    use mis2_prim::hash::splitmix64;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    fn next(rng: &mut u64) -> usize {
        *rng = splitmix64(*rng);
        *rng as usize
    }

    /// A socket stand-in whose every `write` outcome comes off a seeded
    /// schedule: `WouldBlock`, `Interrupted`, or 1..=len bytes accepted.
    /// It checks each accepted byte against the expected stream as it
    /// arrives, so a batch that re-sends or skips bytes fails at the
    /// first wrong one instead of looping.
    struct Scripted<'a> {
        rng: u64,
        expect: &'a [u8],
        got: usize,
    }

    impl Write for Scripted<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            assert!(!buf.is_empty(), "a finished batch offers no bytes");
            match next(&mut self.rng) % 8 {
                0 => return Err(io::ErrorKind::WouldBlock.into()),
                1 => return Err(io::ErrorKind::Interrupted.into()),
                _ => {}
            }
            // Small accepts and whole-buffer accepts both matter.
            let cap = [buf.len(), buf.len().min(40)][next(&mut self.rng) % 2];
            let n = 1 + next(&mut self.rng) % cap;
            let want = self.expect.get(self.got..self.got + n);
            assert_eq!(Some(&buf[..n]), want, "wrong bytes at offset {}", self.got);
            self.got += n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A seeded batch mixing every reply shape — cache hits framed from
    /// their interned body among them, exactly one an over-`MAX_PAYLOAD`
    /// body — and the bytes each reply makes when `codec` encodes it
    /// alone, concatenated.
    fn mixed_batch(rng: &mut u64) -> (WireBatch, Vec<u8>) {
        let mut batch = WireBatch::default();
        let mut expect = Vec::new();
        let n = 2 + next(rng) % 12;
        let oversized_at = next(rng) % n;
        for i in 0..n {
            let tag = next(rng) as u64;
            let text = "r".repeat(next(rng) % 200);
            let kind = if i == oversized_at { 4 } else { next(rng) % 4 };
            if kind == 3 {
                // A cache hit, framed from its interned body.
                let framing = [Framing::Bare, Framing::V3(tag)][next(rng) % 2];
                batch.push_hit(framing, text.as_bytes(), None);
                expect.extend(match framing {
                    Framing::Bare => format!("OK {text}\n").into_bytes(),
                    Framing::V3(_) => codec::encode_frame(tag, codec::STATUS_OK, text.as_bytes()),
                });
                continue;
            }
            let frame = |resp, status, body: &[u8]| {
                let wire = codec::encode_frame(tag, status, body);
                (Framing::V3(tag), resp, wire)
            };
            let (framing, resp, wire) = match kind {
                0 => (
                    Framing::Bare,
                    ops::Response::ok_text(text.clone()),
                    format!("OK {text}\n").into_bytes(),
                ),
                1 => frame(
                    ops::Response::err(&text),
                    codec::STATUS_ERR,
                    text.as_bytes(),
                ),
                2 => {
                    let interned = Arc::new(RespBytes {
                        token: String::new(),
                        body: text.as_bytes().into(),
                    });
                    let resp = ops::Response::interned(interned);
                    frame(resp, codec::STATUS_OK, text.as_bytes())
                }
                _ => {
                    let big = ops::Response::ok_text("x".repeat(codec::MAX_PAYLOAD + 1));
                    frame(big, codec::STATUS_ERR, b"response too large")
                }
            };
            expect.extend(wire);
            batch.push(Outgoing {
                framing,
                resp,
                span: None,
            });
        }
        assert_eq!(batch.count, n);
        (batch, expect)
    }

    #[test]
    fn partial_writes_resume_from_the_sent_offset() {
        let mut blocked = 0usize;
        for seed in 0..1500u64 {
            let mut rng = seed;
            let (mut batch, expect) = mixed_batch(&mut rng);
            let mut out = Scripted {
                rng,
                expect: &expect,
                got: 0,
            };
            // `Ok(false)` any number of times, then `Ok(true)` once.
            while !batch.write_some(&mut out).unwrap() {
                blocked += 1;
                assert!(out.got < expect.len(), "seed {seed}: blocked when done");
            }
            assert_eq!(out.got, expect.len(), "seed {seed}");
            assert_eq!(batch.sent, expect.len(), "seed {seed}");
            // A finished batch stays finished and offers the writer nothing.
            assert!(batch.write_some(&mut out).unwrap());
        }
        assert!(blocked > 1000, "the schedule must exercise resumption");
    }

    #[test]
    fn a_retired_batch_is_reused_unless_it_outgrew_the_high_water_mark() {
        let (mut batch, expect) = mixed_batch(&mut 3);
        assert!(batch.write_some(&mut Vec::new()).unwrap());
        let capacity = batch.buf.capacity();
        let spare = batch.into_spare().expect("a small batch is kept");
        assert_eq!((spare.buf.len(), spare.count, spare.sent), (0, 0, 0));
        assert!(spare.spans.is_empty());
        assert_eq!(spare.buf.capacity(), capacity);
        assert!(capacity >= expect.len());

        let mut big = WireBatch::default();
        big.push(Outgoing {
            framing: Framing::Bare,
            resp: ops::Response::ok_text("x".repeat(HIGH_WATER)),
            span: None,
        });
        assert!(big.buf.capacity() > HIGH_WATER);
        assert!(big.into_spare().is_none());
    }

    #[test]
    fn a_zero_byte_accept_is_write_zero() {
        let (mut batch, _) = mixed_batch(&mut 7);
        // A full `&mut [u8]` accepts `Ok(0)`.
        let err = batch.write_some(&mut &mut [0u8; 0][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(batch.sent, 0);
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

    // ---- The machine with no socket: seeded schedules ---------------------

    /// The suite graphs the scripts compute on: the two cheapest to build,
    /// coarsen and solve at `Scale::Tiny`.
    const GRAPHS: [&str; 2] = ["parabolic_fem", "tmt_sym"];

    /// One schedule in this many starts from a fresh registry, so its
    /// computes miss and come back as real scheduler completions; the
    /// others find the artifacts resident and answer hits inline.
    const COLD_EVERY: u64 = 10;

    /// Completions the harness releases by hand: scheduler worker-leaders
    /// push them, the schedule takes them.
    #[derive(Default)]
    struct Arrivals {
        done: Mutex<Vec<Outgoing>>,
        ready: Condvar,
    }

    impl CompletionSink for Arrivals {
        fn deliver(&self, item: Outgoing) {
            self.done.lock().unwrap().push(item);
            self.ready.notify_all();
        }
    }

    /// The harness's [`ConnIo`]: the epoll loop's accounting (acquire only
    /// counts, under a window the schedule pre-gates; slots reach the gauge
    /// in bursts), and a seeded choice of how a hit is answered: framed
    /// into the batch under the probe, as the epoll loop does, or returned
    /// as a response, as the threads driver does.
    struct SimIo {
        held: usize,
        unpublished: usize,
        frame_hits: bool,
        next: WireBatch,
        sink: Arc<Arrivals>,
        stats: Arc<SvcStats>,
    }

    impl ConnIo for SimIo {
        fn acquire(&mut self, cap: usize) {
            assert!(self.held < cap, "acquire past a pre-gated window");
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
            if self.frame_hits {
                self.next.push_hit(framing, &bytes.body, span);
                return None;
            }
            let resp = ops::Response::interned(Arc::clone(bytes));
            Some(Outgoing {
                framing,
                resp,
                span,
            })
        }

        fn publish(&mut self) {
            let slots = std::mem::take(&mut self.unpublished);
            self.stats.publish(slots, self.held);
        }

        fn sink(&self) -> Arc<dyn CompletionSink> {
            Arc::clone(&self.sink) as Arc<dyn CompletionSink>
        }
    }

    /// Cut `bytes` at seeded offsets: a quarter of the chunks are single
    /// bytes, the rest up to a quarter of the script long.
    fn cut<'a>(bytes: &'a [u8], rng: &mut u64) -> Vec<&'a [u8]> {
        let most = (bytes.len() / 4).max(2);
        let mut chunks = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = match next(rng) % 4 {
                0 => 1,
                _ => 1 + next(rng) % most,
            };
            let end = (at + len).min(bytes.len());
            chunks.push(&bytes[at..end]);
            at = end;
        }
        chunks
    }

    /// Feed `script` to a fresh machine under one seeded schedule and
    /// return the bytes it wrote. Each step is one seeded action: read the
    /// next chunk; feed one item (or take the EOF step once input ran out)
    /// while the window has room; release one arrived completion, picked
    /// by the seed; or write the batch. It ends once the connection is
    /// closed and every slot is back.
    fn run_schedule(script: &[u8], cx: &ConnShared, rng: &mut u64) -> Vec<u8> {
        let chunks = cut(script, rng);
        let mut chunks = chunks.into_iter();
        let sink = Arc::new(Arrivals::default());
        let mut io = SimIo {
            held: 0,
            unpublished: 0,
            frame_hits: next(rng) % 2 == 0,
            next: WireBatch::default(),
            sink: Arc::clone(&sink),
            stats: Arc::clone(&cx.stats),
        };
        let (mut dec, mut machine) = (FrameDecoder::default(), ConnMachine::new());
        let (mut arrived, mut wire) = (Vec::new(), Vec::new());
        let (mut t0, mut eof, mut open, mut bye) = (None, false, true, None);
        loop {
            arrived.append(&mut sink.done.lock().unwrap());
            if !open && io.held == 0 && io.next.count == 0 {
                // The drain is over: a goodbye takes a fresh slot as the
                // last reply; without one, the connection is done.
                let Some(bye) = bye.take() else { return wire };
                io.acquire(machine.cap(cx));
                io.respond(bye);
            }
            let can_feed = open && io.held < machine.cap(cx);
            if arrived.is_empty() && io.next.count == 0 && !(open && (!eof || can_feed)) {
                // Nothing moves until the scheduler delivers.
                let done = sink.done.lock().unwrap();
                let patience = Duration::from_secs(60);
                let (_done, wait) = sink
                    .ready
                    .wait_timeout_while(done, patience, |d| d.is_empty())
                    .unwrap();
                assert!(!wait.timed_out(), "{} slots held, no completion", io.held);
                continue;
            }
            match next(rng) % 4 {
                0 if open && !eof => match chunks.next() {
                    Some(chunk) => {
                        t0 = Some(Instant::now());
                        dec.push(chunk);
                    }
                    None => eof = true,
                },
                1 if can_feed => {
                    let flow = match dec.next(machine.wire_mode()) {
                        Some(item) => machine.handle(item, t0, cx, &mut io),
                        None if eof => machine.eof(&mut dec, t0, cx, &mut io),
                        None => continue,
                    };
                    match flow {
                        Flow::Continue => {}
                        Flow::Close => open = false,
                        Flow::Quit(goodbye) => (open, bye) = (false, Some(goodbye)),
                    }
                }
                2 if !arrived.is_empty() => {
                    let i = next(rng) % arrived.len();
                    io.respond(arrived.swap_remove(i));
                }
                3 if io.next.count > 0 => {
                    io.publish();
                    let mut batch = std::mem::take(&mut io.next);
                    batch.taken(&cx.stats);
                    assert!(batch.write_some(&mut wire).unwrap());
                    let held = &mut io.held;
                    batch.written(&cx.stats, &cx.mx, |slots| *held -= slots);
                }
                _ => {}
            }
        }
    }

    /// The main script — v1 `PING`, the `V3` hello, then pipelined frames
    /// — and the reply each frame's tag must get, `BYE` last. `want` holds
    /// the compute replies in [`GRAPHS`] × (`MIS2`, `COARSEN 2`,
    /// `SOLVE cg`) order.
    fn main_script(requests: &[String], want: &[String]) -> (Vec<u8>, Vec<(u64, String)>) {
        let unknown = RequestView::parse("FROB x").unwrap_err();
        let mut frames: Vec<(&[u8], String)> = vec![(b"PING", "OK PONG".into())];
        for (req, line) in requests.iter().zip(want) {
            frames.push((req.as_bytes(), line.clone()));
        }
        frames.push((requests[0].as_bytes(), want[0].clone())); // may hit
        frames.push((b"MIS2 \xff\xfe", "ERR invalid utf-8".into()));
        frames.push((b"FROB x", format!("ERR {unknown}")));
        frames.push((b"QUIT", "OK BYE".into()));
        let mut script = b"PING\nV3\n".to_vec();
        let mut replies = Vec::new();
        for (tag, (payload, reply)) in (1u64..).zip(frames) {
            script.extend(codec::encode_frame(tag, codec::STATUS_OK, payload));
            replies.push((tag, reply));
        }
        (script, replies)
    }

    /// The main script's wire: the two v1 replies, then every tag answered
    /// exactly once with its reply, `BYE` last.
    fn check_main(wire: &[u8], cx: &ConnShared, replies: &[(u64, String)]) {
        let v1 = format!("OK PONG\n{}\n", codec::hello_ok(cx.max_inflight));
        let mut rest = wire.strip_prefix(v1.as_bytes()).expect("the v1 replies");
        let mut got = Vec::new();
        while !rest.is_empty() {
            let (frame, used) = codec::decode_frame(rest).expect("whole frames");
            got.push((frame.tag, frame.to_line()));
            rest = &rest[used..];
        }
        assert_eq!(got.last(), replies.last(), "BYE is the last reply");
        let mut want = replies.to_vec();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    /// A server's context over `registry` and `sched` with an in-flight
    /// window of `window`.
    fn local(registry: &Arc<Registry>, sched: &Arc<Scheduler>, window: usize) -> ConnShared {
        let service = Service::Local {
            registry: Arc::clone(registry),
            sched: Arc::clone(sched),
        };
        ConnShared::new(
            service,
            Metrics::new(500),
            window,
            IoBackend::platform_default(),
        )
    }

    /// Run the three scripts — the main one, an over-long line, and an
    /// unterminated `QUIT` that only the EOF step serves — under the
    /// schedules of `seeds`, each with a seeded window of 1 to 8. A
    /// failure prints its seed.
    fn drive_schedules(seeds: std::ops::Range<u64>) {
        let requests: Vec<String> = GRAPHS
            .iter()
            .flat_map(|g| {
                [
                    format!("MIS2 {g}"),
                    format!("COARSEN {g} 2"),
                    format!("SOLVE {g} cg"),
                ]
            })
            .collect();
        let fresh = Registry::new(Scale::Tiny);
        let want: Vec<String> = requests
            .iter()
            .map(|r| ops::execute(&fresh, &proto::Request::parse(r).unwrap()))
            .collect();
        let (main, replies) = main_script(&requests, &want);
        let mut overlong = b"PING\n".to_vec();
        overlong.resize(overlong.len() + proto::MAX_LINE + 1, b'a');
        overlong.extend_from_slice(b"PING\n");
        let at_eof = format!("PING\n{}\nQUIT", requests[0]);
        let at_eof_wire = format!("OK PONG\n{}\nOK BYE\n", want[0]);
        let sched = Arc::new(Scheduler::new(SchedConfig { threads: 2 }));
        let mut registry = Arc::new(Registry::new(Scale::Tiny));
        for seed in seeds {
            if seed % COLD_EVERY == 0 {
                registry = Arc::new(Registry::new(Scale::Tiny));
            }
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut rng = splitmix64(seed);
                let window = 1 + next(&mut rng) % 8;
                let scripts: [(&[u8], Option<&[u8]>); 3] = [
                    (&main, None),
                    (&overlong, Some(b"OK PONG\nERR line too long\n")),
                    (at_eof.as_bytes(), Some(at_eof_wire.as_bytes())),
                ];
                for (script, expect) in scripts {
                    let cx = local(&registry, &sched, window);
                    let wire = run_schedule(script, &cx, &mut rng);
                    match expect {
                        None => check_main(&wire, &cx, &replies),
                        Some(expect) => {
                            assert!(wire == expect, "{:?}", String::from_utf8_lossy(&wire))
                        }
                    }
                    assert_eq!(cx.stats.inflight.load(Ordering::Relaxed), 0);
                }
            }));
            if let Err(panic) = ran {
                eprintln!("failing schedule: seed {seed}");
                std::panic::resume_unwind(panic);
            }
        }
        sched.shutdown();
    }

    #[test]
    fn the_machine_answers_every_tag_once_under_seeded_schedules() {
        drive_schedules(0..300);
    }

    #[test]
    #[ignore = "20 000 schedules: run in release, as CI does"]
    fn the_machine_answers_every_tag_once_under_many_schedules() {
        drive_schedules(0..20_000);
    }
}
