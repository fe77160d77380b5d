//! The window gauges a client reads in `STATS`, pinned over one
//! pipelined v3 connection on both I/O backends: a burst of eight cache
//! hits and a `STATS` in one write, a second such burst after the client
//! has drained only part of the first, and a `STATS` on its own once
//! everything is read. `inflight`, `peak_inflight`, `hits` and
//! `resp_hits` are literals on the epoll backend, whose one loop thread
//! reads the whole burst and answers it before it writes a byte. On the
//! threads backend the writer thread drains while the reader is still
//! answering: its window gauges are bounded, and only its cache counters
//! and the idle gauge are exact.

use mis2::svc::{codec, IoBackend, ServerConfig};
use mis2_graph::Scale;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const HIT: &[u8] = b"MIS2 ecology2";
const HITS_PER_BURST: u64 = 8;

/// `(inflight, peak_inflight, hits, resp_hits)` of the burst-one `STATS`,
/// the burst-two `STATS` and the idle `STATS`, as the epoll backend
/// reports them. A report leaves its own window slot out of `inflight`
/// and counts it in `peak_inflight`.
const EPOLL: [[u64; 4]; 3] = [[8, 9, 8, 8], [8, 9, 16, 16], [0, 9, 16, 16]];

/// Upper bounds of the same `(inflight, peak_inflight)` on the threads
/// backend: the epoll literals plus the earlier replies its writer may
/// not have taken off the channel yet (`inflight`) or released after
/// their write (`peak_inflight`, which can include replies the client
/// already read) — the warm-up reply before burst one, the burst-one
/// replies before burst two.
const THREADS_MAX: [[u64; 2]; 3] = [[8, 10], [8 + 5, 9 + 9], [0, 9 + 9]];

struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        let s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        let mut c = Conn {
            w: s.try_clone().unwrap(),
            r: BufReader::new(s),
        };
        writeln!(c.w, "{}", codec::HELLO_V3).unwrap();
        let mut hello = String::new();
        c.r.read_line(&mut hello).unwrap();
        assert!(codec::parse_hello_ok(hello.trim_end()).is_some(), "{hello}");
        c
    }

    /// Eight hits tagged from `first`, then `STATS`, in one write.
    fn burst(&mut self, first: u64) {
        let mut wire = Vec::new();
        for tag in first..first + HITS_PER_BURST {
            wire.extend(codec::encode_frame(tag, codec::STATUS_OK, HIT));
        }
        let stats_tag = first + HITS_PER_BURST;
        wire.extend(codec::encode_frame(stats_tag, codec::STATUS_OK, b"STATS"));
        self.w.write_all(&wire).unwrap();
    }

    fn recv(&mut self) -> codec::Frame {
        let f = codec::read_frame(&mut self.r).unwrap().expect("a reply");
        assert_eq!(f.status, codec::STATUS_OK, "{}", f.to_line());
        f
    }

    /// Read `n` replies, returning the gauges of the one `STATS` among them.
    fn drain(&mut self, n: usize) -> Option<[u64; 4]> {
        let mut stats = None;
        for _ in 0..n {
            let f = self.recv();
            if f.payload.starts_with(b"STATS ") {
                stats = Some(gauges(&f.to_line()));
            }
        }
        stats
    }
}

fn gauges(stats: &str) -> [u64; 4] {
    ["inflight", "peak_inflight", "hits", "resp_hits"].map(|key| {
        stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key}= in {stats}"))
    })
}

/// The three `STATS` readings of the script on a fresh server.
fn readings(backend: IoBackend) -> [[u64; 4]; 3] {
    let h = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        io_backend: backend,
        ..Default::default()
    })
    .unwrap();
    let mut c = Conn::open(h.addr());
    // The one miss, answered before the bursts, so each burst is all hits.
    c.w.write_all(&codec::encode_frame(0, codec::STATUS_OK, HIT))
        .unwrap();
    assert!(c.recv().payload.starts_with(HIT));
    c.burst(1);
    // Partial drain: half the hits, then the second burst.
    assert_eq!(c.drain(4), None);
    c.burst(10);
    let first = c.drain(5).expect("burst-one STATS");
    let second = c.drain(9).expect("burst-two STATS");
    c.w.write_all(&codec::encode_frame(19, codec::STATUS_OK, b"STATS"))
        .unwrap();
    let idle = c.drain(1).expect("idle STATS");
    h.shutdown();
    [first, second, idle]
}

#[test]
fn pipelined_hit_bursts_report_fixed_gauges_on_epoll() {
    assert_eq!(readings(IoBackend::Epoll), EPOLL);
}

#[test]
fn pipelined_hit_bursts_report_bounded_gauges_on_threads() {
    let got = readings(IoBackend::Threads);
    for ((got, max), want) in got.iter().zip(THREADS_MAX).zip(EPOLL) {
        assert!(got[0] <= max[0], "inflight: {got:?} against {max:?}");
        assert!(
            (1..=max[1]).contains(&got[1]),
            "peak: {got:?} against {max:?}"
        );
        assert_eq!(got[2..], want[2..], "hits, resp_hits");
    }
}
