//! The hot workloads' load generator: a v3 connection whose send and
//! receive halves are separate calls, so that one client thread can keep a
//! batch in flight on each of several connections.
//!
//! Why not `V3Client::request_many` on one connection: client and server
//! then strictly take turns, one CPU is always idle, and every batch pays
//! two wake-ups of an idle CPU. How long the host takes to wake one changed
//! by minutes on the machine this was sized on (the same build read 480k and
//! 950k requests a second). Why not one `V3Client` per thread on two
//! connections: three busy threads on two CPUs, and latency then depends on
//! which two the scheduler happens to pair (p50 56 µs with p99 2 ms, or p50
//! 111 µs with p99 0.23 ms, from run to run). One thread alternating
//! between two connections keeps a batch queued at the server while the
//! client handles the other's replies, with two threads on two CPUs.
//! (Polling the sockets instead of sleeping on them, and four connections
//! instead of two, were tried: both read faster and less steadily.)
//!
//! Frames are built with `codec::encode_header` and parsed with
//! `codec::decode_header`; replies are handed to the caller as byte slices
//! of the read buffer, so the generator allocates nothing per request.

use mis2_svc::codec;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Pipe {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
    /// `buf[parsed..filled]` holds bytes read but not yet handed out.
    parsed: usize,
    filled: usize,
    next_tag: u64,
}

impl Pipe {
    /// Connect and upgrade to v3; returns the pipe and the window the
    /// server advertises. A reply that takes longer than `timeout` is an
    /// error.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<(Pipe, usize)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        (&stream).write_all(format!("{}\n", codec::HELLO_V3).as_bytes())?;
        // The hello reply is the last text line on the wire; read it byte
        // by byte so nothing of the binary stream is buffered away.
        let mut line = String::new();
        BufReader::with_capacity(1, &stream).read_line(&mut line)?;
        let window = codec::parse_hello_ok(line.trim_end())
            .filter(|w| *w > 0)
            .ok_or_else(|| {
                io::Error::new(ErrorKind::InvalidData, format!("v3 hello refused: {line}"))
            })?;
        Ok((
            Pipe {
                stream,
                out: Vec::new(),
                buf: vec![0; 64 * 1024],
                parsed: 0,
                filled: 0,
                next_tag: 0,
            },
            window,
        ))
    }

    /// Write one frame per line in a single burst; returns the first tag.
    /// The caller keeps the batch within the server's window.
    pub fn send<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<u64> {
        let base = self.next_tag;
        self.out.clear();
        for line in lines {
            let payload = line.as_ref().as_bytes();
            assert!(payload.len() <= codec::MAX_PAYLOAD, "request too long");
            self.out.extend_from_slice(&codec::encode_header(
                self.next_tag,
                payload.len() as u32,
                codec::STATUS_OK,
            ));
            self.out.extend_from_slice(payload);
            self.next_tag += 1;
        }
        (&self.stream).write_all(&self.out)?;
        Ok(base)
    }

    /// Read `n` reply frames, calling `on_frame(tag, status, payload,
    /// arrived)` for each in wire order; `arrived` is the clock read after
    /// the `read` call that completed the frame.
    pub fn recv(
        &mut self,
        n: usize,
        mut on_frame: impl FnMut(u64, u8, &[u8], Instant),
    ) -> io::Result<()> {
        let mut arrived = Instant::now();
        let mut got = 0;
        while got < n {
            let have = self.filled - self.parsed;
            let need = if have < codec::HEADER_LEN {
                codec::HEADER_LEN
            } else {
                let hdr: &[u8; codec::HEADER_LEN] = self.buf
                    [self.parsed..self.parsed + codec::HEADER_LEN]
                    .try_into()
                    .expect("length checked");
                let (tag, len, status) = codec::decode_header(hdr);
                let total = codec::HEADER_LEN + len as usize;
                if len as usize > codec::MAX_PAYLOAD {
                    return Err(io::Error::new(ErrorKind::InvalidData, "oversized reply"));
                }
                if have >= total {
                    let body = &self.buf[self.parsed + codec::HEADER_LEN..self.parsed + total];
                    on_frame(tag, status, body, arrived);
                    self.parsed += total;
                    got += 1;
                    continue;
                }
                total
            };
            // Not a whole frame yet: make room for it, then read more.
            if self.parsed + need > self.buf.len() {
                self.buf.copy_within(self.parsed..self.filled, 0);
                self.filled -= self.parsed;
                self.parsed = 0;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            match (&self.stream).read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(k) => {
                    self.filled += k;
                    arrived = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.parsed == self.filled {
            self.parsed = 0;
            self.filled = 0;
        }
        Ok(())
    }

    /// Polite close: a framed `QUIT`, answered `BYE` after everything in
    /// flight has drained.
    pub fn quit(mut self) {
        if self.send(&["QUIT"]).is_ok() {
            let _ = self.recv(1, |_, _, _, _| {});
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_round_trips_and_tags_map_replies_to_requests() {
        let server = mis2_svc::serve(mis2_svc::ServerConfig::default()).unwrap();
        let (mut pipe, window) = Pipe::connect(server.addr(), Duration::from_secs(10)).unwrap();
        assert_eq!(window, 64);
        let lines: Vec<String> = (0..window)
            .map(|i| {
                if i % 2 == 0 {
                    "PING".into()
                } else {
                    "NOPE".into()
                }
            })
            .collect();
        for round in 0..3u64 {
            let sent = Instant::now();
            let base = pipe.send(&lines).unwrap();
            assert_eq!(base, round * window as u64);
            let mut seen = vec![false; window];
            pipe.recv(window, |tag, status, body, arrived| {
                let i = (tag - base) as usize;
                assert!(!seen[i], "tag {tag} answered twice");
                seen[i] = true;
                assert!(arrived >= sent);
                if i.is_multiple_of(2) {
                    assert_eq!((status, body), (codec::STATUS_OK, &b"PONG"[..]));
                } else {
                    assert_eq!(status, codec::STATUS_ERR);
                }
            })
            .unwrap();
            assert!(seen.iter().all(|s| *s));
        }
        pipe.quit();
        server.shutdown();
    }

    #[test]
    fn two_pipes_hold_a_batch_in_flight_each() {
        let server = mis2_svc::serve(mis2_svc::ServerConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        let (mut a, _) = Pipe::connect(server.addr(), timeout).unwrap();
        let (mut b, _) = Pipe::connect(server.addr(), timeout).unwrap();
        let lines = vec!["PING"; 8];
        a.send(&lines).unwrap();
        b.send(&lines).unwrap();
        let mut count = 0;
        b.recv(8, |_, status, _, _| {
            assert_eq!(status, codec::STATUS_OK);
            count += 1;
        })
        .unwrap();
        a.recv(8, |_, _, _, _| count += 1).unwrap();
        assert_eq!(count, 16);
        a.quit();
        b.quit();
        server.shutdown();
    }

    #[test]
    fn a_silent_peer_times_out() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut hello = [0u8; 3];
            s.read_exact(&mut hello).unwrap();
            s.write_all(b"OK V3 max_inflight=4\n").unwrap();
            // Hold the socket open and say nothing more.
            let mut rest = Vec::new();
            let _ = s.read_to_end(&mut rest);
        });
        let (mut pipe, window) = Pipe::connect(addr, Duration::from_millis(100)).unwrap();
        assert_eq!(window, 4);
        pipe.send(&["PING"]).unwrap();
        let err = pipe.recv(1, |_, _, _, _| {}).unwrap_err();
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{err}"
        );
        drop(pipe);
        peer.join().unwrap();
    }
}
