//! Yardsticks: fixed loads of the harness's own, read once per round of a
//! workload's ops (`load.rs`), so that an op's time can be stated in units
//! of what the host did with a known amount of similar work at that moment.
//!
//! Why: the sizing host is a two-vCPU guest whose memory system and
//! cross-CPU wake-ups change speed by up to a factor of two, from one op to
//! the next and for minutes at a time, while a dependent arithmetic chain
//! next to them repeats within a few percent. A wall-clock median taken in
//! one run and one taken a minute later differ by more than any bound
//! worth gating on; the same latencies over their adjacent yardstick
//! readings repeat within a few percent.
//!
//! A yardstick runs none of the program: no `mis2_prim` pool, no kernel, no
//! server (the echo peer frames its replies with the two `codec` header
//! functions the load generator itself uses, nothing more). A change to
//! the program therefore cannot move it, and a change that makes the
//! program faster makes every relative figure smaller by the same share.

use mis2_graph::CsrGraph;
use mis2_svc::codec;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering::{self, Relaxed};
use std::sync::atomic::{AtomicBool, AtomicU32};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Adjacency entries one reading of the compute yardstick visits, in whole
/// sweeps over the workload's own graphs: a third to a half of an op's
/// time on the kernel workloads.
const GATHER_ENTRIES: usize = 40_000_000;

/// The compute yardstick: label-propagation sweeps over the workload's own
/// graphs on `cpus` threads, a barrier after every block of rows. A sweep
/// gives every vertex the minimum label among its neighbours, which is the
/// memory access pattern of an MIS-2 round (a gather over the adjacency
/// lists); the barrier is the cross-CPU hand-off every pool region pays.
/// On a large graph the gathers dominate, on a small one the barriers do,
/// as in the ops measured next to it.
pub struct Gather<'a> {
    graphs: Vec<&'a CsrGraph>,
    /// Per graph: the rows at which a block starts, and the row count.
    blocks: Vec<Vec<usize>>,
    cpus: usize,
    sweeps: usize,
    /// Per graph: the two label arrays the sweeps alternate between.
    /// Atomics only so that lanes may write disjoint rows of one array
    /// through a shared reference; every access is `Relaxed` (a plain load
    /// or store on the hosts this runs on) and the barrier orders a
    /// sweep's writes before the next one's reads.
    labels: Vec<[Vec<AtomicU32>; 2]>,
}

impl<'a> Gather<'a> {
    /// `block_entries`: adjacency entries between two barriers, at most (a
    /// barrier also follows every sweep of a graph). The sizing host's cost
    /// of waking a parked thread on the other CPU changes, for minutes at a
    /// time, between a few and some 250 µs; an op that dispatches a hundred
    /// pool regions then takes 25 ms longer, and a yardstick that is to
    /// follow it needs as many hand-offs per unit of its own time. Each
    /// workload passes the value that came closest in its sizing runs.
    pub fn new(graphs: Vec<&'a CsrGraph>, cpus: usize, block_entries: usize) -> Gather<'a> {
        let entries: usize = graphs.iter().map(|g| g.col_idx().len()).sum();
        let labels = graphs
            .iter()
            .map(|g| {
                let init = || -> Vec<AtomicU32> {
                    (0..g.num_vertices() as u32)
                        .map(|v| AtomicU32::new(v.wrapping_mul(0x9E37_79B9)))
                        .collect()
                };
                [init(), init()]
            })
            .collect();
        let blocks = graphs
            .iter()
            .map(|g| {
                let row_ptr = g.row_ptr();
                let mut starts = vec![0];
                while *starts.last().expect("never empty") < g.num_vertices() {
                    let from = *starts.last().expect("never empty");
                    // As many rows as fit in a block, and always one.
                    let fit = row_ptr[from + 1..]
                        .partition_point(|&p| p <= row_ptr[from].saturating_add(block_entries));
                    starts.push(from + fit.max(1));
                }
                starts
            })
            .collect();
        Gather {
            graphs,
            blocks,
            cpus,
            sweeps: GATHER_ENTRIES.div_ceil(entries.max(1)),
            labels,
        }
    }

    /// Sweeps over every graph in one reading.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Barriers in one reading.
    pub fn barriers(&self) -> usize {
        self.sweeps * self.blocks.iter().map(|b| b.len() - 1).sum::<usize>()
    }

    /// One reading: the time the sweeps take.
    pub fn read(&mut self) -> Duration {
        let (cpus, sweeps) = (self.cpus, self.sweeps);
        let barrier = Barrier::new(cpus);
        let work = |lane: usize| {
            // Every sweep of one graph before the next graph, as an op works
            // on one graph at a time and finds it in cache the second time.
            for ((g, blocks), pair) in self.graphs.iter().zip(&self.blocks).zip(&self.labels) {
                let (row_ptr, col_idx) = (g.row_ptr(), g.col_idx());
                for sweep in 0..sweeps {
                    let (src, dst) = (&pair[sweep % 2], &pair[(sweep + 1) % 2]);
                    for block in blocks.windows(2) {
                        let (from, to) = (block[0], block[1]);
                        // Each lane takes the rows that hold its share of
                        // the block's adjacency entries, so hub rows do
                        // not idle the rest.
                        let entries = row_ptr[to] - row_ptr[from];
                        let bound = |lane: usize| match lane {
                            l if l == cpus => to,
                            l => {
                                let share = row_ptr[from] + l * entries / cpus;
                                from + row_ptr[from..to].partition_point(|&p| p < share)
                            }
                        };
                        for v in bound(lane)..bound(lane + 1) {
                            let least = col_idx[row_ptr[v]..row_ptr[v + 1]]
                                .iter()
                                .map(|&u| src[u as usize].load(Relaxed))
                                .fold(src[v].load(Relaxed), u32::min);
                            dst[v].store(least.wrapping_add(sweep as u32), Relaxed);
                        }
                        barrier.wait();
                    }
                }
            }
        };
        let t = Instant::now();
        std::thread::scope(|scope| {
            for lane in 1..cpus {
                let work = &work;
                scope.spawn(move || work(lane));
            }
            work(0);
        });
        t.elapsed()
    }
}

/// The wire yardstick's far end: a v3 endpoint of the harness's own that
/// answers every frame with the same fixed payload after a fixed amount of
/// arithmetic, one write per burst of frames read. Like the server's event
/// loop it is one thread that multiplexes its connections, and the hot
/// workloads' load generator drives it exactly as it drives the server, so
/// a reading pays the same loopback stack, the same wake-ups across CPUs
/// and the same client-side work as the traffic measured next to it, and
/// none of the server's.
pub struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

/// Window the echo peer advertises: a default server's.
const ECHO_WINDOW: usize = 64;
/// Steps of a dependent multiply-add chain the echo peer runs per frame:
/// about what a default server spends answering a cached request (half a
/// microsecond on the sizing host). Without it a reading is all wake-ups
/// and moves with the host's wake-up cost twice as far as the traffic
/// measured next to it; with it the two move together.
const ECHO_STEPS: u32 = 600;

/// `poll(2)`, declared against the C library std already links: the one
/// thing the echo peer needs that std has no call for, waiting on several
/// sockets at once.
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }
    pub const POLLIN: c_short = 1;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Block until one of `fds` is readable (or closed, or in error: a read
/// finds out which); returns which ones.
fn wait_readable(fds: &[RawFd]) -> io::Result<Vec<bool>> {
    let mut polled: Vec<sys::PollFd> = fds
        .iter()
        .map(|&fd| sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    loop {
        // SAFETY: `polled` is a live, exclusively borrowed array of
        // `polled.len()` initialised `pollfd`s for the whole call.
        let n = unsafe { sys::poll(polled.as_mut_ptr(), polled.len() as _, -1) };
        if n >= 0 {
            return Ok(polled.iter().map(|p| p.revents != 0).collect());
        }
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// One connection of the echo peer.
struct EchoConn {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
    /// Whether the v3 hello line has been answered.
    greeted: bool,
}

impl Echo {
    pub fn start(reply: Vec<u8>) -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the echo peer");
        listener
            .set_nonblocking(true)
            .expect("a nonblocking listener");
        let addr = listener.local_addr().expect("the echo peer's address");
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut conns: Vec<EchoConn> = Vec::new();
            let mut out = Vec::new();
            // `shutdown` sets the flag and then connects, so the flag is
            // seen no later than the wake-up that connection causes.
            while !stopped.load(Ordering::Acquire) {
                let fds: Vec<RawFd> = std::iter::once(listener.as_raw_fd())
                    .chain(conns.iter().map(|c| c.stream.as_raw_fd()))
                    .collect();
                let ready = wait_readable(&fds).expect("poll the echo peer's sockets");
                let mut i = 0;
                conns.retain_mut(|conn| {
                    i += 1;
                    // A connection that ended or failed is dropped; its
                    // client has quit or will see the reset.
                    !ready[i] || matches!(conn.serve(&reply, &mut out), Ok(true))
                });
                if ready[0] {
                    while let Ok((stream, _)) = listener.accept() {
                        if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok()
                        {
                            conns.push(EchoConn {
                                stream,
                                buf: vec![0u8; 64 * 1024],
                                filled: 0,
                                greeted: false,
                            });
                        }
                    }
                }
            }
        });
        Echo { addr, stop, thread }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the peer and wait for its thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

impl EchoConn {
    /// Read what has arrived and answer every whole frame in it: the v3
    /// hello first, then a reply frame per request frame, `BYE` for
    /// `QUIT`. `Ok(false)` when the connection is over.
    fn serve(&mut self, reply: &[u8], out: &mut Vec<u8>) -> io::Result<bool> {
        match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => return Ok(false),
            Ok(k) => self.filled += k,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(true)
            }
            Err(e) => return Err(e),
        }
        out.clear();
        let mut parsed = 0;
        let mut quit = false;
        if !self.greeted {
            let Some(end) = self.buf[..self.filled].iter().position(|b| *b == b'\n') else {
                return Ok(true);
            };
            out.extend_from_slice(format!("{}\n", codec::hello_ok(ECHO_WINDOW)).as_bytes());
            parsed = end + 1;
            self.greeted = true;
        }
        while self.filled - parsed >= codec::HEADER_LEN {
            let hdr: &[u8; codec::HEADER_LEN] = self.buf[parsed..parsed + codec::HEADER_LEN]
                .try_into()
                .expect("length checked");
            let (tag, len, _) = codec::decode_header(hdr);
            let total = codec::HEADER_LEN + len as usize;
            assert!(
                total <= self.buf.len() / 2,
                "the harness sends short requests"
            );
            if self.filled - parsed < total {
                break;
            }
            let mut x = std::hint::black_box(tag);
            for _ in 0..ECHO_STEPS {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            std::hint::black_box(x);
            let request = &self.buf[parsed + codec::HEADER_LEN..parsed + total];
            quit = request == b"QUIT";
            let body: &[u8] = if quit { b"BYE" } else { reply };
            out.extend_from_slice(&codec::encode_header(
                tag,
                body.len() as u32,
                codec::STATUS_OK,
            ));
            out.extend_from_slice(body);
            parsed += total;
        }
        // At most one window of short replies is ever owed, far less than
        // a socket buffer holds, so a full buffer is waited out in place.
        let mut sent = 0;
        while sent < out.len() {
            match self.stream.write(&out[sent..]) {
                Ok(k) => sent += k,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.copy_within(parsed..self.filled, 0);
        self.filled -= parsed;
        Ok(!quit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::Pipe;
    use mis2_graph::gen;

    #[test]
    fn gather_reads_whole_sweeps_and_takes_the_minimum() {
        let g = gen::laplace3d(6, 6, 6);
        // 6^3 vertices, 1080 adjacency entries: blocks of at most 100.
        let mut y = Gather::new(vec![&g], 2, 100);
        assert_eq!(
            y.sweeps(),
            GATHER_ENTRIES.div_ceil(g.col_idx().len()),
            "whole sweeps over the graph"
        );
        let blocks = &y.blocks[0];
        assert_eq!((blocks[0], *blocks.last().unwrap()), (0, g.num_vertices()));
        for block in blocks.windows(2) {
            let entries = g.row_ptr()[block[1]] - g.row_ptr()[block[0]];
            assert!(
                block[0] < block[1] && entries <= 100,
                "{block:?}: {entries}"
            );
        }
        assert_eq!(y.barriers(), y.sweeps() * (blocks.len() - 1));
        // One sweep by hand against one sweep of the yardstick.
        y.sweeps = 1;
        let plain = |a: &[AtomicU32]| -> Vec<u32> { a.iter().map(|x| x.load(Relaxed)).collect() };
        let before = plain(&y.labels[0][0]);
        assert!(y.read() > Duration::ZERO);
        let after = plain(&y.labels[0][1]);
        for v in 0..g.num_vertices() {
            let least = g
                .neighbors(v as u32)
                .iter()
                .map(|&u| before[u as usize])
                .fold(before[v], u32::min);
            assert_eq!(after[v], least, "vertex {v}");
        }
        // The lanes' row ranges tile the graph whatever the lane count.
        let mut three = Gather::new(vec![&g], 3, 7);
        three.sweeps = 1;
        three.read();
        assert_eq!(plain(&three.labels[0][1]), after);
    }

    #[test]
    fn echo_answers_every_frame_on_every_connection_with_the_fixed_payload() {
        let echo = Echo::start(b"fixed reply".to_vec());
        let timeout = Duration::from_secs(10);
        let (mut a, window) = Pipe::connect(echo.addr(), timeout).unwrap();
        let (mut b, _) = Pipe::connect(echo.addr(), timeout).unwrap();
        assert_eq!(window, ECHO_WINDOW);
        let lines = vec!["MIS2 ecology2"; 64];
        let base = a.send(&lines).unwrap();
        b.send(&lines[..3]).unwrap();
        let mut tags = Vec::new();
        a.recv(64, |tag, status, body, _| {
            assert_eq!((status, body), (codec::STATUS_OK, &b"fixed reply"[..]));
            tags.push(tag);
        })
        .unwrap();
        assert_eq!(tags, (base..base + 64).collect::<Vec<_>>());
        b.recv(3, |_, _, body, _| assert_eq!(body, b"fixed reply"))
            .unwrap();
        a.quit();
        b.quit();
        echo.shutdown();
    }
}
