//! The binary v3 frame codec: length-prefixed frames with a fixed
//! little-endian header, no per-frame text parsing.
//!
//! ## Frame layout
//!
//! Every v3 frame — request and response alike — is a fixed 13-byte
//! header followed by exactly `len` payload bytes:
//!
//! ```text
//! offset  size  field    encoding
//! ------  ----  -------  --------------------------------------------
//!      0     8  tag      u64, little-endian (client-chosen, echoed)
//!      8     4  len      u32, little-endian (payload byte count)
//!     12     1  status   u8: 0 = OK, 1 = ERR (0 on requests)
//!     13   len  payload  raw bytes
//! ```
//!
//! A *request* payload is the v1 request text (`MIS2 ecology2`,
//! `COARSEN g 3`, ... — see [`crate::proto`]); a *response* payload is
//! the v1 response body, i.e. everything after the `OK ` / `ERR ` prefix,
//! with the prefix folded into the `status` byte. That makes the mapping
//! between a v3 frame and its v1 line mechanical ([`status_line`], the
//! one place the prefix is spelled), which is how the e2e tests and the
//! CI v3 smoke leg prove every v3 payload byte-identical to the v1 text.
//!
//! Every frame reader — the server's [`FrameDecoder`] (which frames v1
//! lines too), [`decode_frame`] and [`read_frame_into`] — decodes the
//! header and bounds its length through one private borrowing parser, so
//! they cannot disagree on a frame (`tests/svc_inbound_mutator.rs`).
//!
//! ## Negotiation
//!
//! A connection upgrades by sending the text hello line [`HELLO_V3`]
//! (`V3`) as its first line; the server answers the *text* line
//! `OK V3 max_inflight=<n>` ([`hello_ok`]) and both directions switch to
//! binary frames from the next byte on. v1 connections are unchanged
//! and mix freely with v3 on one server — the framing mode is
//! per-connection. Every client-side upgrade is one function in
//! [`crate::client`].
//!
//! The codec itself is payload-agnostic: tags and arbitrary payload bytes
//! round-trip unchanged ([`encode_frame`] / [`decode_frame`] are exact
//! inverses, property-tested), while the *server* additionally requires
//! request payloads to be UTF-8 text and caps payloads at
//! [`MAX_PAYLOAD`] bytes — an oversized header is answered with an ERR
//! frame under its own tag (a binary tag is eight bytes at a fixed
//! offset: it always parses, so every error can be correlated) and the
//! connection closes, because nothing past a hostile length can be
//! trusted to frame — the same contract as v1's over-long line.
//!
//! ## Why binary
//!
//! A text protocol parses every line and re-renders every response into
//! a fresh `String`. The v3 header is stamped and read with fixed-offset
//! little-endian loads, and a cached response is copied from the
//! registry's interned bytes (see [`crate::registry`]) — a hit is a
//! header stamp plus an ~71-byte append to the batch buffer, zero
//! serialization.

use crate::{ops, proto};
use std::fmt;
use std::io::{self, BufRead, Write};

/// The untagged text hello line that upgrades a connection to v3 binary
/// framing.
pub const HELLO_V3: &str = "V3";

/// Fixed header size in bytes: `u64` tag + `u32` len + `u8` status.
pub const HEADER_LEN: usize = 13;

/// `status` byte of a successful response (and of every request).
pub const STATUS_OK: u8 = 0;

/// `status` byte of an error response.
pub const STATUS_ERR: u8 = 1;

/// Maximum payload bytes the server accepts or emits in one frame — the
/// same bound as v1's [`proto::MAX_LINE`], for the same reason: a
/// hostile header must not make the server allocate without limit.
pub const MAX_PAYLOAD: usize = proto::MAX_LINE;

/// One decoded v3 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub tag: u64,
    pub status: u8,
    pub payload: Vec<u8>,
}

impl Frame {
    /// Render the frame back to its v1 text line ([`status_line`]): the
    /// mechanical inverse mapping the e2e diffs rely on.
    pub fn to_line(&self) -> String {
        status_line(self.status, &self.payload)
    }
}

/// The status byte of a response that succeeded (`ok`) or failed.
pub(crate) fn status_byte(ok: bool) -> u8 {
    if ok {
        STATUS_OK
    } else {
        STATUS_ERR
    }
}

/// The v1 prefix of a status byte: `OK ` for [`STATUS_OK`], `ERR ` for
/// anything else — the one place the prefix is spelled.
pub(crate) fn status_prefix(status: u8) -> &'static str {
    if status == STATUS_OK {
        "OK "
    } else {
        "ERR "
    }
}

/// The v1 text line (`OK <body>` / `ERR <body>`, no newline) of a
/// response's status byte and body. Invalid UTF-8 is replaced, not
/// trusted: this also runs on untrusted input.
pub fn status_line(status: u8, body: &[u8]) -> String {
    [status_prefix(status), &String::from_utf8_lossy(body)].concat()
}

/// Why a byte buffer failed to decode as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header + advertised payload require.
    Truncated { need: usize, have: usize },
    /// The header advertises a payload larger than [`MAX_PAYLOAD`].
    Oversized { len: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: payload {len} > max {MAX_PAYLOAD}")
            }
        }
    }
}

/// Stamp a header. Fixed-offset little-endian stores — no formatting, no
/// allocation.
pub fn encode_header(tag: u64, len: u32, status: u8) -> [u8; HEADER_LEN] {
    let mut hdr = [0u8; HEADER_LEN];
    hdr[0..8].copy_from_slice(&tag.to_le_bytes());
    hdr[8..12].copy_from_slice(&len.to_le_bytes());
    hdr[12] = status;
    hdr
}

/// Read a header back: `(tag, len, status)`.
pub fn decode_header(hdr: &[u8; HEADER_LEN]) -> (u64, u32, u8) {
    let tag = u64::from_le_bytes(hdr[0..8].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(hdr[8..12].try_into().expect("4 bytes"));
    (tag, len, hdr[12])
}

/// [`write_frame`] into a fresh buffer (a test and bench convenience).
/// Panics where `write_frame` errs: on a payload past [`MAX_PAYLOAD`].
pub fn encode_frame(tag: u64, status: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame(&mut buf, tag, status, payload).unwrap_or_else(|e| panic!("{e}"));
    buf
}

/// A v3 header as [`parse_frame`] reads it.
#[derive(Clone, Copy, Default)]
struct Header {
    tag: u64,
    len: usize,
    status: u8,
}

/// The front of a byte buffer, read by [`parse_frame`].
enum Parsed<'a> {
    /// Fewer than [`HEADER_LEN`] bytes.
    NoHeader,
    /// A header within [`MAX_PAYLOAD`], and its payload once all of it
    /// is in the buffer.
    Frame(Header, Option<&'a [u8]>),
    /// A header past [`MAX_PAYLOAD`]: nothing after it frames.
    Oversized(Header),
}

/// The v3 frame rule, written once: decode the header at the front of
/// `buf` and bound its length by [`MAX_PAYLOAD`], copying nothing.
fn parse_frame(buf: &[u8]) -> Parsed<'_> {
    let Some(hdr) = buf.first_chunk::<HEADER_LEN>() else {
        return Parsed::NoHeader;
    };
    let (tag, len, status) = decode_header(hdr);
    let header = Header {
        tag,
        len: len as usize,
        status,
    };
    if header.len > MAX_PAYLOAD {
        return Parsed::Oversized(header);
    }
    Parsed::Frame(header, buf.get(HEADER_LEN..HEADER_LEN + header.len))
}

/// Decode one frame from the front of `buf`, returning it and the bytes
/// consumed. Exact inverse of [`encode_frame`] for any tag, status, and
/// payload bytes (property-tested); rejects truncated buffers and
/// headers advertising more than [`MAX_PAYLOAD`].
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    let (h, payload) = match parse_frame(buf) {
        Parsed::Frame(h, payload) => (h, payload),
        Parsed::NoHeader => (Header::default(), None),
        Parsed::Oversized(h) => return Err(FrameError::Oversized { len: h.len }),
    };
    let (need, have) = (HEADER_LEN + h.len, buf.len());
    let Some(payload) = payload else {
        return Err(FrameError::Truncated { need, have });
    };
    let frame = Frame {
        tag: h.tag,
        status: h.status,
        payload: payload.to_vec(),
    };
    Ok((frame, need))
}

/// How a connection's bytes are framed: v1 lines until the [`HELLO_V3`]
/// hello, v3 frames after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMode {
    Lines,
    Frames,
}

/// One framed inbound item extracted from a connection's byte stream,
/// borrowing the decoder's buffer (zero copy).
#[derive(Debug, PartialEq, Eq)]
pub enum Inbound<'a> {
    /// A complete line, terminating newline stripped (a trailing `\r`
    /// stays attached — the connection machine trims it).
    Line(&'a [u8]),
    /// More than [`proto::MAX_LINE`] bytes arrived without a newline:
    /// unframeable, the connection must close after the error.
    OverlongLine,
    /// A complete v3 frame (a request's status byte carries nothing).
    Frame { tag: u64, payload: &'a [u8] },
    /// A v3 header advertising more than [`MAX_PAYLOAD`] bytes: nothing
    /// past it can be trusted to frame.
    OversizedFrame { tag: u64 },
}

/// The server's incremental framer, fed by both I/O drivers: raw socket
/// bytes in, framed [`Inbound`] items out. Framing is byte-based and
/// runs before any UTF-8 validation, so the over-long check fires even
/// when the cap lands mid-codepoint.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// Bytes buffered but not yet consumed (the epoll backend's read
    /// high-water check).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Append freshly read bytes, compacting consumed ones first so the
    /// buffer holds at most one burst plus one partial item.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete item under `mode`, or `None` when more
    /// bytes are needed.
    pub fn next(&mut self, mode: WireMode) -> Option<Inbound<'_>> {
        let avail = &self.buf[self.pos..];
        match mode {
            WireMode::Lines => {
                // One byte past MAX_LINE without a newline is the proof
                // of an over-long line; a newline inside the window
                // keeps even an exactly-MAX_LINE line served.
                let scan = &avail[..avail.len().min(proto::MAX_LINE + 1)];
                match scan.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        self.pos += i + 1;
                        Some(Inbound::Line(&avail[..i]))
                    }
                    None if avail.len() > proto::MAX_LINE => {
                        self.pos = self.buf.len();
                        Some(Inbound::OverlongLine)
                    }
                    None => None,
                }
            }
            WireMode::Frames => match parse_frame(avail) {
                Parsed::Frame(Header { tag, len, .. }, Some(payload)) => {
                    self.pos += HEADER_LEN + len;
                    Some(Inbound::Frame { tag, payload })
                }
                Parsed::Oversized(Header { tag, .. }) => {
                    self.pos = self.buf.len();
                    Some(Inbound::OversizedFrame { tag })
                }
                Parsed::Frame(_, None) | Parsed::NoHeader => None,
            },
        }
    }

    /// The unterminated final line at EOF, if any — a v1 client that
    /// closes without a final newline still gets its last line served.
    /// Partial v3 frames die with the connection.
    pub fn take_remainder(&mut self, mode: WireMode) -> Option<Inbound<'_>> {
        if mode != WireMode::Lines || self.pending() == 0 {
            return None;
        }
        let start = self.pos;
        self.pos = self.buf.len();
        Some(Inbound::Line(&self.buf[start..]))
    }
}

/// Read one whole frame (header + payload) from a stream; `Ok(None)` is a
/// clean EOF between frames, EOF inside a frame is `UnexpectedEof`, and
/// an oversized header is `InvalidData`.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let mut payload = Vec::new();
    let head = read_frame_into(r, &mut payload)?;
    Ok(head.map(|(tag, status)| Frame {
        tag,
        status,
        payload,
    }))
}

/// [`read_frame`] without the per-frame allocation: the payload lands in
/// the caller's buffer (cleared and refilled), and only `(tag, status)`
/// is returned. This is the hot-loop read for clients pulling a window's
/// worth of responses. The buffer grows with the bytes that arrive, not
/// with the length a header claims, so a header lying about its length
/// costs no more memory than the bytes behind it.
pub fn read_frame_into(
    r: &mut impl BufRead,
    payload: &mut Vec<u8>,
) -> io::Result<Option<(u64, u8)>> {
    if r.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let mut hdr = [0u8; HEADER_LEN];
    r.read_exact(&mut hdr)?;
    let h = match parse_frame(&hdr) {
        Parsed::Frame(h, _) => h,
        Parsed::Oversized(h) => {
            let e = FrameError::Oversized { len: h.len };
            return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
        }
        Parsed::NoHeader => unreachable!("a whole header was read"),
    };
    payload.clear();
    while payload.len() < h.len {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let n = chunk.len().min(h.len - payload.len());
        payload.extend_from_slice(&chunk[..n]);
        r.consume(n);
    }
    Ok(Some((h.tag, h.status)))
}

/// Write one frame (client convenience; callers batch via `BufWriter`).
///
/// Rejects payloads over [`MAX_PAYLOAD`] with `InvalidData` *before*
/// writing anything: encoding one would truncate the length through the
/// `u32` cast (or advertise a length the peer rejects as `Oversized`),
/// desynchronizing the stream and poisoning the connection. Refusing at
/// encode time keeps the failure scoped to the one oversized request.
pub fn write_frame(w: &mut impl Write, tag: u64, status: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Oversized { len: payload.len() }.to_string(),
        ));
    }
    w.write_all(&encode_header(tag, payload.len() as u32, status))?;
    w.write_all(payload)
}

/// The server's *text* answer to the [`HELLO_V3`] hello: `OK V3
/// max_inflight=<n>`, advertising the per-connection in-flight window
/// cap. Binary framing starts on the next byte.
pub fn hello_ok(max_inflight: usize) -> String {
    hello_response(max_inflight).to_line()
}

/// [`hello_ok`] as the response the server sends.
pub(crate) fn hello_response(max_inflight: usize) -> ops::Response {
    ops::Response::ok_text(format!("{HELLO_V3} max_inflight={max_inflight}"))
}

/// Parse the window cap out of a [`hello_ok`] line; `None` if the line is
/// not the v3 hello answer (its first word after `OK` must be exactly
/// [`HELLO_V3`]).
pub fn parse_hello_ok(line: &str) -> Option<usize> {
    let mut words = line.strip_prefix("OK ")?.split(' ');
    if words.next() != Some(HELLO_V3) {
        return None;
    }
    words
        .find_map(|f| f.strip_prefix("max_inflight="))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        for (tag, len, status) in [
            (0u64, 0u32, STATUS_OK),
            (42, 17, STATUS_ERR),
            (u64::MAX, u32::MAX, 7),
        ] {
            let hdr = encode_header(tag, len, status);
            assert_eq!(decode_header(&hdr), (tag, len, status));
        }
    }

    #[test]
    fn header_is_little_endian_at_fixed_offsets() {
        let hdr = encode_header(0x0102_0304_0506_0708, 0x0A0B_0C0D, 0xEE);
        assert_eq!(
            &hdr[0..8],
            &[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]
        );
        assert_eq!(&hdr[8..12], &[0x0D, 0x0C, 0x0B, 0x0A]);
        assert_eq!(hdr[12], 0xEE);
    }

    #[test]
    fn frame_round_trips_through_encode_decode() {
        let f = Frame {
            tag: 99,
            status: STATUS_OK,
            payload: b"MIS2 ecology2".to_vec(),
        };
        let buf = encode_frame(f.tag, f.status, &f.payload);
        let (got, used) = decode_frame(&buf).unwrap();
        assert_eq!(got, f);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn truncated_and_oversized_buffers_are_rejected() {
        let buf = encode_frame(7, STATUS_OK, b"hello");
        for cut in 0..buf.len() {
            assert!(
                matches!(decode_frame(&buf[..cut]), Err(FrameError::Truncated { .. })),
                "cut at {cut} must be truncated"
            );
        }
        let big = encode_header(1, (MAX_PAYLOAD + 1) as u32, STATUS_OK);
        assert!(matches!(
            decode_frame(&big),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn frames_render_back_to_v1_lines() {
        let ok = Frame {
            tag: 1,
            status: STATUS_OK,
            payload: b"PONG".to_vec(),
        };
        assert_eq!(ok.to_line(), "OK PONG");
        let err = Frame {
            tag: 2,
            status: STATUS_ERR,
            payload: b"nope".to_vec(),
        };
        assert_eq!(err.to_line(), "ERR nope");
    }

    #[test]
    fn stream_reads_distinguish_clean_eof_from_mid_frame_death() {
        let buf = encode_frame(3, STATUS_OK, b"xyz");
        let mut full = io::Cursor::new(buf.clone());
        let f = read_frame(&mut full).unwrap().unwrap();
        assert_eq!(
            (f.tag, f.status, f.payload.as_slice()),
            (3, STATUS_OK, &b"xyz"[..])
        );
        assert!(read_frame(&mut full).unwrap().is_none(), "clean EOF");

        let mut cut = io::Cursor::new(buf[..HEADER_LEN - 2].to_vec());
        let e = read_frame(&mut cut).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn write_frame_accepts_exactly_max_payload() {
        let payload = vec![0x5A_u8; MAX_PAYLOAD];
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, STATUS_OK, &payload).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + MAX_PAYLOAD);
        let (f, used) = decode_frame(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!((f.tag, f.status), (9, STATUS_OK));
        assert_eq!(f.payload, payload);
    }

    #[test]
    fn write_frame_rejects_one_past_max_payload_without_writing() {
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        let mut buf = Vec::new();
        let e = write_frame(&mut buf, 9, STATUS_OK, &payload).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(
            buf.is_empty(),
            "an oversized payload must not desynchronize the stream"
        );
    }

    #[test]
    #[should_panic(expected = "oversized frame")]
    fn encode_frame_panics_past_max_payload() {
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        let _ = encode_frame(1, STATUS_OK, &payload);
    }

    #[test]
    fn hello_round_trips_the_window_cap() {
        let line = hello_ok(64);
        assert_eq!(line, "OK V3 max_inflight=64");
        assert_eq!(parse_hello_ok(&line), Some(64));
        assert_eq!(parse_hello_ok("OK PONG max_inflight=64"), None);
        assert_eq!(parse_hello_ok("ERR nope"), None);
    }

    #[test]
    fn the_hello_answer_names_v3_as_a_whole_word() {
        assert_eq!(parse_hello_ok("OK V3x max_inflight=4"), None);
        assert_eq!(parse_hello_ok("OK V31 max_inflight=4"), None);
        assert_eq!(parse_hello_ok("OK V3 max_inflight=4"), Some(4));
    }
}
