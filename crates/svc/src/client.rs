//! Protocol clients, one per protocol: the blocking v1 [`Client`] (one
//! request line out, one response line back — what `mis2svc client`
//! wraps for a person) and the binary v3 [`V3Client`], which keeps a
//! window of tagged frames ([`crate::codec`]) in flight and reassembles
//! responses by tag — what every program that pipelines uses.
//!
//! Both are used by the e2e tests, the `mis2svc` bin, and the CI smoke
//! legs. The `V3` upgrade is one function, which [`V3Client::connect`]
//! and the router's shard dials both call.

use crate::codec;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Read one response line, distinguishing the three ways it can go wrong:
/// a clean EOF before any byte (server closed between responses), a
/// truncated line (server died mid-response), or a plain I/O error —
/// which includes `WouldBlock`/`TimedOut` when a read timeout is set.
fn read_response_line(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection (clean EOF before a response line)",
        ));
    }
    if !response.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "server closed the connection mid-line (truncated response: {:?})",
                response.trim_end()
            ),
        ));
    }
    Ok(response.trim_end_matches(['\r', '\n']).to_string())
}

/// The error returned by `request` calls after an earlier request on the
/// same connection already failed: a read error (timeout included) can
/// leave consumed-but-unparsed bytes behind, so the line framing can no
/// longer be trusted — reconnect instead of retrying.
fn poisoned_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        "connection poisoned by an earlier request error; reconnect",
    )
}

/// Connect to `addr` and upgrade to v3, for [`V3Client`] and the
/// router's shard dials alike: write the hello, read the answer as a
/// whole line (cut off by EOF is an error), and return the two halves and
/// the server's `max_inflight` (0 or a refused answer is `InvalidData`).
/// `hello_timeout` bounds the wait for the answer only.
pub(crate) fn connect_v3<A: ToSocketAddrs>(
    addr: A,
    hello_timeout: Option<Duration>,
) -> io::Result<(TcpStream, BufReader<TcpStream>, usize)> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    writer.set_read_timeout(hello_timeout)?;
    let mut reader = BufReader::new(writer.try_clone()?);
    writer.write_all(format!("{}\n", codec::HELLO_V3).as_bytes())?;
    let hello = read_response_line(&mut reader)?;
    let max = codec::parse_hello_ok(&hello)
        .filter(|max| *max > 0)
        .ok_or_else(|| {
            let msg = format!("server rejected the V3 hello: {hello}");
            io::Error::new(io::ErrorKind::InvalidData, msg)
        })?;
    writer.set_read_timeout(None)?;
    Ok((writer, reader, max))
}

/// A connected blocking (v1) protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    poisoned: bool,
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            poisoned: false,
        })
    }

    /// Bound how long a [`Client::request`] may block waiting for the
    /// response (`None` = forever, the default). With a timeout set, a
    /// hung server surfaces as an `io::Error` of kind
    /// `WouldBlock`/`TimedOut` instead of parking the client for good.
    /// A timeout may fire after part of a response line was already
    /// consumed, so the connection is **poisoned** on any request error:
    /// later `request` calls fail fast instead of reading desynchronized
    /// frames — reconnect to recover.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one request line and block for its response line. A server
    /// that closes before responding yields `UnexpectedEof`, with the
    /// error text distinguishing a clean close from a truncated line.
    /// Any error poisons the connection (see
    /// [`Client::set_read_timeout`]).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        let attempt = (|| {
            // One buffer, one `write`: the stream is unbuffered and
            // `TCP_NODELAY`, so `writeln!` would put the line and its `\n`
            // on the wire as two segments, and a server that answers and
            // closes between them resets the connection.
            self.writer.write_all(format!("{line}\n").as_bytes())?;
            read_response_line(&mut self.reader)
        })();
        if attempt.is_err() {
            self.poisoned = true;
        }
        attempt
    }

    /// Polite close: `QUIT` and drop the connection.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.request("QUIT")?;
        Ok(())
    }
}

/// A v3 binary-frame client: writes a *window* of tagged frames
/// ([`crate::codec`]) before the first response is read, reads responses
/// as they arrive — in completion order, not request order — and
/// reassembles them by tag. No response-line parsing, just fixed-offset
/// header reads.
///
/// The connection upgrades at construction time (`V3` text hello; the
/// server's `OK V3 max_inflight=N` answer is the last text line on the
/// wire); the window is clamped to the advertised `max_inflight`, so the
/// client never sends a request the server's reader would refuse to
/// accept into its window. Responses come back as frames whose status
/// byte replaces the `OK `/`ERR ` prefix; [`V3Client::request_many`]
/// renders each back to its v1-equivalent text line, which keeps every
/// caller (tests, bin sweeps, benches) byte-comparable across both
/// protocols.
pub struct V3Client {
    // Buffered: a window refill becomes one write syscall at the flush,
    // not one per frame.
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_tag: u64,
    window: usize,
    poisoned: bool,
    latencies_ns: Vec<u64>,
}

impl V3Client {
    /// Connect and upgrade to v3 framing (the crate's one `V3` upgrade),
    /// keeping up to `window` requests in flight (clamped to
    /// `1..=server max_inflight`).
    pub fn connect<A: ToSocketAddrs>(addr: A, window: usize) -> io::Result<V3Client> {
        let (stream, reader, server_max) = connect_v3(addr, None)?;
        Ok(V3Client {
            writer: BufWriter::new(stream),
            reader,
            next_tag: 0,
            window: window.clamp(1, server_max),
            poisoned: false,
            latencies_ns: Vec::new(),
        })
    }

    /// Client-observed latency of each request in the **last completed**
    /// [`V3Client::request_many`] batch, in nanoseconds, indexed like the
    /// batch's lines. Measured from the moment the request was written
    /// into the pipeline to the moment its response was reassembled — so
    /// it includes queueing behind the window. Copy the slice out before
    /// `quit()`, which consumes the client.
    pub fn last_latencies_ns(&self) -> &[u64] {
        &self.latencies_ns
    }

    /// The effective window after clamping to the server's cap.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Bound how long a read for the next frame may block (`None` =
    /// forever, the default).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send every request as a frame, keeping up to `window` in flight,
    /// and return the responses **in request order**, rendered to their
    /// v1 text form (`OK <body>` / `ERR <body>`) — the wire order is
    /// completion order; the tags are what put them back.
    ///
    /// Tags are assigned from this client's private counter, so they are
    /// unique across the connection's lifetime; a response carrying an
    /// unknown or already-answered tag is a protocol error surfaced as
    /// `InvalidData`. Any error poisons the connection — un-retired tags
    /// may still be in flight, so the framing can no longer be trusted;
    /// later calls fail fast and the caller should reconnect.
    pub fn request_many<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<Vec<String>> {
        if self.poisoned {
            return Err(poisoned_error());
        }
        let attempt = self.request_many_inner(lines);
        if attempt.is_err() {
            self.poisoned = true;
        }
        attempt
    }

    fn request_many_inner<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<Vec<String>> {
        let mut results: Vec<Option<String>> = Vec::with_capacity(lines.len());
        results.resize_with(lines.len(), || None);
        // Tags are assigned consecutively from this client's counter, so a
        // response's index is `tag - base` — pure arithmetic, no per-batch
        // tag map. Out-of-range or already-answered tags are still
        // protocol errors.
        let base_tag = self.next_tag;
        let mut payload: Vec<u8> = Vec::new();
        let mut sent_at: Vec<Instant> = Vec::with_capacity(lines.len());
        self.latencies_ns.clear();
        self.latencies_ns.resize(lines.len(), 0);
        let mut sent = 0;
        let mut received = 0;
        while received < lines.len() {
            // Refill the window, batching the frames into one flush.
            let mut wrote = false;
            while sent < lines.len() && sent - received < self.window {
                let tag = self.next_tag;
                self.next_tag += 1;
                codec::write_frame(
                    &mut self.writer,
                    tag,
                    codec::STATUS_OK,
                    lines[sent].as_ref().as_bytes(),
                )?;
                sent_at.push(Instant::now());
                sent += 1;
                wrote = true;
            }
            if wrote {
                self.writer.flush()?;
            }
            // Take the next frame (blocking), then drain every response
            // already sitting in the read buffer before refilling: the
            // server's writer retires responses in coalesced batches, so
            // consuming the whole batch here turns the refill into one
            // equally wide write burst instead of a one-frame-per-
            // response ping-pong — fewer syscalls on both ends.
            loop {
                // The payload buffer is reused across the whole batch.
                let (tag, status) = codec::read_frame_into(&mut self.reader, &mut payload)?
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-batch",
                        )
                    })?;
                let index = tag
                    .checked_sub(base_tag)
                    .map(|i| i as usize)
                    .filter(|i| *i < sent && results[*i].is_none())
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("response frame for unknown or duplicate tag {tag}"),
                        )
                    })?;
                results[index] = Some(codec::status_line(status, &payload));
                self.latencies_ns[index] = sent_at[index].elapsed().as_nanos() as u64;
                received += 1;
                // Another frame's header already buffered? Keep draining.
                if received >= sent || self.reader.buffer().len() < codec::HEADER_LEN {
                    break;
                }
            }
        }
        Ok(results.into_iter().map(|r| r.unwrap()).collect())
    }

    /// Single-request convenience over [`V3Client::request_many`].
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        Ok(self.request_many(&[line])?.pop().unwrap())
    }

    /// Polite close: framed `QUIT` (the server drains every in-flight
    /// response first, so `BYE` is the last frame) and drop the
    /// connection.
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.request("QUIT")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A fake server that accepts one connection, reads one request line,
    /// feeds the client `response` verbatim, and closes.
    fn fake_server(response: &'static [u8]) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Consume the request up to its newline: closing with bytes
            // unread makes the kernel send RST, which the client would see
            // as `ConnectionReset` instead of the EOF under test.
            let mut request = Vec::new();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            reader.read_until(b'\n', &mut request).unwrap();
            s.write_all(response).unwrap();
            // Drop closes the connection.
        });
        addr
    }

    #[test]
    fn a_request_reaches_the_server_as_one_read() {
        // A server that takes its time: it is parked in its one `read`
        // before the request is written and handles exactly what that read
        // returned. A request written as line-then-newline wakes it with
        // the line alone.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            let n = std::io::Read::read(&mut s, &mut buf).unwrap();
            tx.send(buf[..n].to_vec()).unwrap();
            s.write_all(b"OK PONG\n").unwrap();
        });
        let mut c = Client::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(c.request("PING").unwrap(), "OK PONG");
        assert_eq!(rx.recv().unwrap(), b"PING\n");
        server.join().unwrap();
    }

    #[test]
    fn clean_eof_and_truncation_are_distinguished() {
        let mut eof = Client::connect(fake_server(b"")).unwrap();
        let e = eof.request("PING").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(e.to_string().contains("clean EOF"), "{e}");

        let mut cut = Client::connect(fake_server(b"OK PON")).unwrap();
        let e = cut.request("PING").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(e.to_string().contains("truncated"), "{e}");
    }

    #[test]
    fn a_hello_answer_cut_off_by_eof_fails_the_upgrade() {
        let e = connect_v3(fake_server(b"OK V3 max_inflight=4"), None).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(e.to_string().contains("truncated"), "{e}");
        let (_, _, max) = connect_v3(fake_server(b"OK V3 max_inflight=4\n"), None).unwrap();
        assert_eq!(max, 4);
    }

    #[test]
    fn read_timeout_unparks_a_client_on_a_hung_server() {
        // A listener that accepts and then never responds.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().unwrap());
        let mut c = Client::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let e = c.request("PING").unwrap_err();
        assert!(
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "hung server must surface as a timeout, got: {e}"
        );
        // The timeout may have consumed part of a response line, so the
        // connection is poisoned: a retry must fail fast rather than read
        // desynchronized frames.
        let e = c.request("PING").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
        assert!(e.to_string().contains("poisoned"), "{e}");
        drop(hold);
    }
}
