//! The three parsers that take untrusted bytes, under a seeded,
//! structure-aware mutator: v3 frames (`codec::FrameDecoder`, the
//! server's framer, against `codec::decode_frame` and
//! `codec::read_frame_into`), v1 request lines (`FrameDecoder` in line
//! mode, then `proto::RequestView::parse`) and `.mtx` text
//! (`mis2_graph::io::read_coo`).
//!
//! Each seed builds a well-formed input from the format's grammar, then
//! applies a few mutations that know where its fields are: a frame's
//! length set to a boundary value, a number in a request or a size line
//! swapped for one past a limit, bytes flipped, cut, spliced or repeated.
//! Every parser must answer `Ok` or `Err`, never panic, and allocate at
//! most the stated multiple of its input length ([`FRAME_BOUND`],
//! [`LINE_BOUND`], [`MTX_BOUND`]), counted by this binary's global
//! allocator on the parsing thread. The three frame readers must agree
//! item for item and on where the stream ends: cleanly, cut short, or at
//! an oversized header.
//!
//! A failure prints `failing seed N` for the parser it broke. Tier-1 runs
//! [`SEEDS`] seeds per parser; the long form runs [`LONG_SEEDS`]:
//! `cargo test --release -q --test svc_inbound_mutator -- --ignored`.

use mis2::svc::codec::{self, FrameDecoder, FrameError, Inbound, WireMode, HEADER_LEN};
use mis2::svc::proto::{RequestView, MAX_LINE};
use mis2_graph::io::read_coo;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor};

const SEEDS: u64 = 300;
const LONG_SEEDS: u64 = 200_000;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// The system allocator, counting the bytes each thread asks for: a
/// fresh allocation counts its size, a reallocation what it grows by.
struct Counting;

thread_local! {
    static ASKED: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = ASKED.try_with(|a| a.set(a.get().saturating_add(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return what it returned with the bytes it asked for.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ASKED.with(Cell::get);
    let r = f();
    (r, ASKED.with(Cell::get) - before)
}

/// `k · len + c` bytes: what a parser may ask for on `len` input bytes.
struct Bound {
    k: usize,
    c: usize,
}

impl Bound {
    fn check(&self, what: &str, asked: usize, len: usize) {
        let most = self.k * len + self.c;
        assert!(
            asked <= most,
            "{what} asked for {asked} bytes on {len} input bytes, at most {} · len + {} = {most}",
            self.k,
            self.c
        );
    }
}

/// The three frame readers, over the whole stream: the payloads they
/// copy, the framer's buffer (grown by doubling, so at most twice what
/// was pushed), and the one error that ends a stream.
const FRAME_BOUND: Bound = Bound { k: 2, c: 256 };

/// `RequestView::parse` of one line: an `Ok` allocates nothing (asserted
/// exactly); an error allocates its message, which quotes at most one
/// token of the line.
const LINE_BOUND: Bound = Bound { k: 2, c: 256 };

/// `read_coo`: one `String` per line, the header's tokens, and the
/// entries (16 bytes each, two per symmetric entry line of at least four
/// bytes, in a vector grown by doubling).
const MTX_BOUND: Bound = Bound { k: 32, c: 1024 };

// ---------------------------------------------------------------------------
// Seeded generation and mutation
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
    }

    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// Byte-level mutations any format gets: flip, insert, delete, repeat
/// and cut.
fn mutate_bytes(rng: &mut Rng, buf: &mut Vec<u8>) {
    let at = rng.below(buf.len() + 1);
    match rng.below(5) {
        0 if at < buf.len() => buf[at] ^= 1 << rng.below(8),
        1 => {
            let junk = *rng.pick(&[&b"\n"[..], b"\r\n", b" ", b"\t", b"\xFF", b"\0", b"%"]);
            buf.splice(at..at, junk.iter().copied());
        }
        2 => {
            let end = (at + 1 + rng.below(8)).min(buf.len());
            buf.drain(at.min(end)..end);
        }
        3 => {
            let end = (at + 1 + rng.below(32)).min(buf.len());
            let piece = buf[at.min(end)..end].to_vec();
            buf.splice(at..at, piece);
        }
        _ => buf.truncate(at),
    }
}

/// Numbers at and past the limits the parsers check.
const EDGE_NUMBERS: [&str; 12] = [
    "0",
    "1",
    "-1",
    "7",
    "33",
    "65536",
    "4294967295",
    "4294967296",
    "99999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "1e3",
];

/// The token-level mutation: swap one run of digits for an edge number.
fn mutate_number(rng: &mut Rng, buf: &mut Vec<u8>) {
    let runs: Vec<(usize, usize)> = {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < buf.len() {
            if buf[i].is_ascii_digit() {
                let start = i;
                while i < buf.len() && buf[i].is_ascii_digit() {
                    i += 1;
                }
                runs.push((start, i));
            } else {
                i += 1;
            }
        }
        runs
    };
    if runs.is_empty() {
        return mutate_bytes(rng, buf);
    }
    let (start, end) = *rng.pick(&runs);
    let with = rng.pick(&EDGE_NUMBERS).as_bytes();
    buf.splice(start..end, with.iter().copied());
}

/// Sets a failing parser's seed on its panic message.
struct SeedGuard(&'static str, u64);

impl Drop for SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}: failing seed {}", self.0, self.1);
        }
    }
}

// ---------------------------------------------------------------------------
// v3 frames
// ---------------------------------------------------------------------------

const REQUESTS: [&str; 10] = [
    "MIS2 ecology2",
    "COARSEN af_shell7 3",
    "SOLVE tmt_sym cg",
    "SOLVE g.mtx gmres",
    "STATS",
    "METRICS",
    "PING",
    "QUIT",
    "V3",
    "",
];

/// A well-formed stream of frames, then a few mutations. Header offsets
/// are remembered so a length field can be set on purpose.
fn frame_stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0xF4A3);
    let mut buf = Vec::new();
    let mut headers = Vec::new();
    for _ in 0..1 + rng.below(8) {
        headers.push(buf.len());
        let payload: Vec<u8> = if rng.chance(3) {
            (0..rng.below(40)).map(|_| rng.next() as u8).collect()
        } else {
            rng.pick(&REQUESTS).as_bytes().to_vec()
        };
        let tag = if rng.chance(2) {
            rng.below(16) as u64
        } else {
            rng.next()
        };
        let status = *rng.pick(&[codec::STATUS_OK, codec::STATUS_ERR, 0xFF]);
        buf.extend_from_slice(&codec::encode_frame(tag, status, &payload));
    }
    for _ in 0..rng.below(4) {
        if rng.chance(2) {
            let at = *rng.pick(&headers);
            let small = rng.below(64) as u32;
            let max = codec::MAX_PAYLOAD as u32;
            let len = *rng.pick(&[0, 1, small, max, max + 1, u32::MAX]);
            if at + HEADER_LEN <= buf.len() {
                buf[at + 8..at + 12].copy_from_slice(&len.to_le_bytes());
            }
        } else {
            mutate_bytes(&mut rng, &mut buf);
        }
    }
    buf
}

/// How a frame stream ended.
#[derive(Debug, PartialEq, Eq)]
enum End {
    /// At a frame boundary, with nothing left.
    Clean,
    /// Mid-frame: more bytes were needed.
    Cut,
    /// At an oversized header, carrying that header's tag.
    Oversized(u64),
}

type Item = (u64, Vec<u8>);

fn tag_at(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[..8].try_into().unwrap())
}

/// `decode_frame` from the front, frame after frame; statuses beside.
fn by_decode_frame(buf: &[u8]) -> (Vec<Item>, Vec<u8>, End) {
    let (mut items, mut statuses, mut rest) = (Vec::new(), Vec::new(), buf);
    loop {
        if rest.is_empty() {
            return (items, statuses, End::Clean);
        }
        let (got, asked) = counted(|| codec::decode_frame(rest));
        match got {
            Ok((frame, used)) => {
                FRAME_BOUND.check("decode_frame", asked, used);
                assert_eq!(used, HEADER_LEN + frame.payload.len());
                items.push((frame.tag, frame.payload));
                statuses.push(frame.status);
                rest = &rest[used..];
            }
            Err(FrameError::Truncated { need, have }) => {
                assert_eq!(asked, 0, "a truncated frame allocates nothing");
                assert!(need > have && have == rest.len(), "{need} {have}");
                return (items, statuses, End::Cut);
            }
            Err(FrameError::Oversized { len }) => {
                assert!(len > codec::MAX_PAYLOAD);
                return (items, statuses, End::Oversized(tag_at(rest)));
            }
        }
    }
}

/// `read_frame_into` over a stream of the same bytes, one reused buffer.
fn by_read_frame_into(buf: &[u8]) -> (Vec<Item>, Vec<u8>, End) {
    let (mut items, mut statuses) = (Vec::new(), Vec::new());
    let mut cursor = Cursor::new(buf);
    let mut payload = Vec::new();
    let mut asked = 0;
    let end = loop {
        let at = cursor.position() as usize;
        let (got, a) = counted(|| codec::read_frame_into(&mut cursor, &mut payload));
        asked += a;
        match got {
            Ok(Some((tag, status))) => {
                items.push((tag, payload.clone()));
                statuses.push(status);
            }
            Ok(None) => break End::Clean,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break End::Cut,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                break End::Oversized(tag_at(&buf[at..]))
            }
            Err(e) => panic!("read_frame_into: unexpected error {e}"),
        }
    };
    FRAME_BOUND.check("read_frame_into", asked, buf.len());
    (items, statuses, end)
}

/// The server's framer, fed the bytes in seeded chunks as reads would
/// deliver them, drained after every push.
fn by_frame_decoder(buf: &[u8], seed: u64) -> (Vec<Item>, End) {
    let mut rng = Rng::new(seed, 0xDEC0);
    let mut dec = FrameDecoder::default();
    let mut items = Vec::new();
    let mut asked = 0;
    let mut fed = 0;
    while fed < buf.len() {
        let n = (1 + rng.below(24)).min(buf.len() - fed);
        asked += counted(|| dec.push(&buf[fed..fed + n])).1;
        fed += n;
        loop {
            let (next, a) = counted(|| dec.next(WireMode::Frames));
            asked += a;
            match next {
                Some(Inbound::Frame { tag, payload }) => items.push((tag, payload.to_vec())),
                Some(Inbound::OversizedFrame { tag }) => {
                    FRAME_BOUND.check("FrameDecoder", asked, buf.len());
                    assert_eq!(dec.pending(), 0, "an oversized header ends the stream");
                    return (items, End::Oversized(tag));
                }
                Some(other) => panic!("a line item in frame mode: {other:?}"),
                None => break,
            }
        }
    }
    FRAME_BOUND.check("FrameDecoder", asked, buf.len());
    let end = if dec.pending() == 0 {
        End::Clean
    } else {
        End::Cut
    };
    (items, end)
}

fn check_frames(seed: u64) {
    let _guard = SeedGuard("v3 frames", seed);
    let buf = frame_stream(seed);
    let (items, statuses, end) = by_decode_frame(&buf);
    let (streamed, streamed_statuses, streamed_end) = by_read_frame_into(&buf);
    assert_eq!(streamed, items, "read_frame_into vs decode_frame items");
    assert_eq!(streamed_statuses, statuses);
    assert_eq!(streamed_end, end, "read_frame_into vs decode_frame end");
    let (decoded, decoded_end) = by_frame_decoder(&buf, seed);
    assert_eq!(decoded, items, "FrameDecoder vs decode_frame items");
    assert_eq!(decoded_end, end, "FrameDecoder vs decode_frame end");
}

// ---------------------------------------------------------------------------
// v1 lines
// ---------------------------------------------------------------------------

const GRAPHS: [&str; 7] = [
    "ecology2",
    "af_shell7",
    "Laplace3D_100",
    "g.mtx",
    "./dir/../g.mtx",
    "no_such_graph",
    "ünïcödé",
];

/// A well-formed stream of request lines from the grammar, then a few
/// mutations; one seed in sixteen also carries a line past `MAX_LINE`.
fn line_stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0x11E5);
    let mut buf = Vec::new();
    for _ in 0..1 + rng.below(8) {
        let g = *rng.pick(&GRAPHS);
        let line = match rng.below(8) {
            0 => format!("MIS2 {g}"),
            1 => format!("COARSEN {g} {}", 1 + rng.below(9)),
            2 => format!("SOLVE {g} {}", rng.pick(&["cg", "gmres", "bicg"])),
            3 => "STATS".into(),
            4 => "METRICS".into(),
            5 => "PING".into(),
            6 => "QUIT".into(),
            _ => "V3".into(),
        };
        buf.extend_from_slice(line.as_bytes());
        buf.extend_from_slice(if rng.chance(4) { b"\r\n" } else { b"\n" });
    }
    for _ in 0..rng.below(4) {
        if rng.chance(2) {
            mutate_number(&mut rng, &mut buf);
        } else {
            mutate_bytes(&mut rng, &mut buf);
        }
    }
    if rng.chance(16) {
        let at = rng.below(buf.len() + 1);
        let long = MAX_LINE - 2 + rng.below(5);
        buf.splice(at..at, std::iter::repeat_n(b'x', long));
    }
    buf
}

/// One line served the way the connection machine serves it: UTF-8
/// first, then the trailing `\r` trimmed, then the grammar.
fn parse_line(line: &[u8]) {
    let Ok(text) = std::str::from_utf8(line) else {
        return;
    };
    let text = text.trim_end_matches('\r');
    let (view, asked) = counted(|| RequestView::parse(text));
    match view {
        Ok(_) => assert_eq!(asked, 0, "{text:?} parsed but allocated {asked} bytes"),
        Err(_) => LINE_BOUND.check("RequestView::parse", asked, text.len()),
    }
}

/// The framer's line items against the stream split at its newlines:
/// every line up to `MAX_LINE` in order, the first longer one ends the
/// stream as over-long, and an unterminated tail is the EOF remainder.
fn check_lines(seed: u64) {
    let _guard = SeedGuard("v1 lines", seed);
    let buf = line_stream(seed);
    let mut want: Vec<Option<&[u8]>> = Vec::new();
    let mut tail: Option<&[u8]> = None;
    let segments: Vec<&[u8]> = buf.split(|&b| b == b'\n').collect();
    for (i, seg) in segments.iter().enumerate() {
        if seg.len() > MAX_LINE {
            want.push(None);
            break;
        }
        if i + 1 == segments.len() {
            tail = Some(*seg).filter(|s| !s.is_empty());
        } else {
            want.push(Some(seg));
        }
    }

    let mut rng = Rng::new(seed, 0x5EED);
    let mut dec = FrameDecoder::default();
    let mut got: Vec<Option<Vec<u8>>> = Vec::new();
    let mut fed = 0;
    let mut asked = 0;
    'feed: while fed < buf.len() {
        let n = (1 + rng.below(4096)).min(buf.len() - fed);
        asked += counted(|| dec.push(&buf[fed..fed + n])).1;
        fed += n;
        loop {
            let (item, a) = counted(|| dec.next(WireMode::Lines));
            asked += a;
            match item {
                None => break,
                Some(Inbound::Line(line)) => {
                    parse_line(line);
                    got.push(Some(line.to_vec()));
                }
                Some(Inbound::OverlongLine) => {
                    got.push(None);
                    break 'feed;
                }
                Some(other) => panic!("a frame item in line mode: {other:?}"),
            }
        }
    }
    FRAME_BOUND.check("FrameDecoder (lines)", asked, buf.len());
    let want_lines: Vec<Option<Vec<u8>>> = want.iter().map(|l| l.map(<[u8]>::to_vec)).collect();
    assert_eq!(got, want_lines, "line items");
    if got.last() != Some(&None) {
        let rest = dec.take_remainder(WireMode::Lines);
        assert_eq!(rest, tail.map(Inbound::Line), "EOF remainder");
        if let Some(Inbound::Line(line)) = rest {
            parse_line(line);
        }
    }
}

// ---------------------------------------------------------------------------
// .mtx text
// ---------------------------------------------------------------------------

/// A well-formed Matrix Market file, then a few mutations.
fn mtx_text(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0x3A7);
    let field = *rng.pick(&["pattern", "pattern", "real", "integer", "Real", "complex"]);
    let symmetry = *rng.pick(&["general", "symmetric", "symmetric", "skew-symmetric"]);
    let n = 1 + rng.below(6);
    let nnz = rng.below(8);
    let mut text = format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n");
    if rng.chance(3) {
        text.push_str("% a comment\n\n");
    }
    text.push_str(&format!("{n} {n} {nnz}\n"));
    for _ in 0..nnz {
        let (r, c) = (1 + rng.below(n), 1 + rng.below(n));
        match field {
            "pattern" => text.push_str(&format!("{r} {c}\n")),
            _ => text.push_str(&format!("{r} {c} {}.5\n", rng.below(100))),
        }
    }
    let mut buf = text.into_bytes();
    for _ in 0..rng.below(4) {
        if rng.chance(2) {
            mutate_number(&mut rng, &mut buf);
        } else {
            mutate_bytes(&mut rng, &mut buf);
        }
    }
    buf
}

fn check_mtx(seed: u64) {
    let _guard = SeedGuard(".mtx text", seed);
    let buf = mtx_text(seed);
    let (coo, asked) = counted(|| read_coo(Cursor::new(&buf)));
    MTX_BOUND.check("read_coo", asked, buf.len());
    if let Ok(coo) = coo {
        let n = coo.nrows.max(coo.ncols);
        assert!(coo.entries.iter().all(|&(r, c, _)| (r.max(c) as usize) < n));
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn v3_frame_readers_agree_and_stay_bounded() {
    (0..SEEDS).for_each(check_frames);
}

#[test]
fn v1_lines_frame_and_parse_within_bounds() {
    (0..SEEDS).for_each(check_lines);
}

#[test]
fn mtx_text_reads_within_bounds() {
    (0..SEEDS).for_each(check_mtx);
}

#[test]
#[ignore = "long form; run in release"]
fn long_form_every_parser() {
    for seed in 0..LONG_SEEDS {
        check_frames(seed);
        check_lines(seed);
        check_mtx(seed);
    }
}
