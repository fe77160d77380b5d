//! Matrix Market I/O.
//!
//! The paper's 15 non-synthetic matrices come from the SuiteSparse
//! collection, which distributes Matrix Market (`.mtx`) files. This module
//! reads the `matrix coordinate` format (real / integer / pattern; general,
//! symmetric or skew-symmetric) into a [`CsrGraph`] so the benchmarks can
//! run on the real inputs when they are available locally; the synthetic
//! suite ([`crate::suite`]) stands in otherwise. Every graph the service is
//! asked for by path comes through here.
//!
//! # The read path
//!
//! The input is read once. Lines are taken in place from the reader's
//! buffer (a line is copied only when it straddles two fills), and one
//! tokenizer reads every entry line into `(row, col, value)` for a sink:
//!
//! * [`read_coo`] keeps the triplets, with symmetric entries mirrored;
//! * [`read_graph`] keeps each off-diagonal entry once, as a `(row, col)`
//!   pair, and hands the pairs to [`CsrGraph::from_edges`]: both
//!   orientations are bucketed by source with one stable counting sort
//!   (counted and placed in parallel when the file has many entries per
//!   row), and the graph is built in the bucket's own arrays. A file in
//!   [`write_graph`]'s order (lower triangle, rows ascending) leaves every
//!   row sorted and free of duplicates, so no row is sorted and nothing
//!   moves. The diagonal is dropped, matching how KokkosKernels consumes
//!   these matrices for MIS-2.
//!
//! The common entry line (two runs of ASCII digits, a value token of
//! printable ASCII, spaces, tabs or `\r` between them) is read in one pass
//! over its bytes. Every other line (a comment, `+2`, a U+00A0 separator,
//! an extra token) is read by `str` rules (`split_whitespace`,
//! `str::parse`), and values always are (`str::parse::<f64>`), so a file
//! reads token for token as it would through `BufRead::lines`. Tests hold
//! the two forms to each other: a line carried across two fills is read by
//! `str` rules, so reading through one-byte fills is the `str`-rules
//! reference.
//!
//! # What is checked
//!
//! * Every line must be UTF-8, or the read fails with an `InvalidData`
//!   [`MmError::Io`]. Lines are checked in file order with the entry
//!   lines, so the first bad line is the one reported.
//! * The size line is checked, not trusted: dimensions must fit
//!   [`VertexId`] and bound every index, memory grows with the entry lines
//!   read rather than with the declared count, and the file must hold
//!   exactly as many entry lines as it declares.
//! * [`read_graph`] asks the allocator for its rows-sized arrays
//!   fallibly before it builds them, since a size line may declare rows
//!   no entry touches: the bucket's offsets, plus the per-chunk counts
//!   when the count pass splits. It splits only with several entries per
//!   row per chunk ([`mis2_prim::bucket::chunks`]), so a size line that
//!   declares many rows over few entries never gets per-chunk counts.
//!
//! # What it costs
//!
//! One pass over the bytes, 8 bytes per off-diagonal entry for the pairs,
//! and `from_edges`' two bucket passes over both orientations and one
//! pass over the rows. The repo benchmark's traced `svc_cold` (2 vCPUs, 11
//! runs) reads its 6.1 MB mesh file in 17–31 ms (`graph.mtx_read_ms`) and
//! interns it in 21–31 ms (`registry.graph_load_ms`). With a `String` per
//! line, a triplet list and two symmetrizations that took 106–181 ms and
//! 96–151 ms.

use crate::csr::{CsrGraph, VertexId};
use mis2_prim::par;
use mis2_prim::rows::ROW_BLOCK;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    Io(std::io::Error),
    /// Malformed header or unsupported format variant.
    Format(String),
    /// Entry line failed to parse.
    Parse {
        line: usize,
        msg: String,
    },
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Format(m) => write!(f, "format error: {m}"),
            MmError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Parsed Matrix Market data, pre-CSR: dimensions and (row, col, value)
/// triplets with symmetric entries already expanded.
#[derive(Debug, Clone)]
pub struct CooMatrix {
    pub nrows: usize,
    pub ncols: usize,
    pub entries: Vec<(u32, u32, f64)>,
}

/// Read a Matrix Market file from any reader. The size line is checked,
/// not trusted: dimensions must fit [`VertexId`], memory grows with the
/// entry lines read rather than with the declared count, and the file
/// must hold exactly as many entry lines as it declares.
pub fn read_coo<R: BufRead>(mut reader: R) -> Result<CooMatrix, MmError> {
    coo_from(&mut reader)
}

/// Read a Matrix Market file as an undirected structural graph: the pattern
/// is symmetrized and diagonal entries are dropped.
pub fn read_graph<R: BufRead>(mut reader: R) -> Result<CsrGraph, MmError> {
    graph_from(&mut reader)
}

/// Read a graph from a `.mtx` file on disk.
pub fn read_graph_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, MmError> {
    let f = std::fs::File::open(path)?;
    graph_from(&mut BufReader::with_capacity(1 << 16, f))
}

// The readers proper take `dyn BufRead` (called once per fill), so each is
// compiled once, here, whatever reader type a caller passes, and no
// caller's own code moves with them: instantiated in the repo benchmark's
// crate, a generic reader shifted its yardstick loop's speed by 9–16 %.

fn coo_from(reader: &mut dyn BufRead) -> Result<CooMatrix, MmError> {
    let mut entries = Vec::new();
    let (nrows, ncols) = read_entries(reader, |h, r, c, v| {
        entries.push((r, c, v));
        if h.symmetric && r != c {
            entries.push((c, r, if h.skew { -v } else { v }));
        }
    })?;
    Ok(CooMatrix {
        nrows,
        ncols,
        entries,
    })
}

fn graph_from(reader: &mut dyn BufRead) -> Result<CsrGraph, MmError> {
    // Each off-diagonal entry once, in file order: the bucket adds the
    // other orientation, whatever the header's symmetry.
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let (nrows, ncols) = read_entries(reader, |_, r, c, _| {
        if r != c {
            edges.push((r, c));
        }
    })?;
    if nrows != ncols {
        return Err(MmError::Format(format!(
            "graph requires a square matrix, got {nrows}x{ncols}"
        )));
    }
    // Per declared row the build holds the bucket's `nrows + 1` offsets
    // (they become `row_ptr`), plus one 8-byte count per chunk when the
    // count pass splits, which it does only with several entries per row.
    // A size line may declare rows no entry touches, so the edge list
    // does not bound them, and a failed `vec!` aborts the process. Ask
    // the allocator first, fallibly.
    let chunks = mis2_prim::bucket::chunks(nrows, edges.len());
    let per_row = if chunks > 1 { 1 + chunks } else { 1 };
    let rows_fit = nrows
        .checked_add(1)
        .and_then(|n| n.checked_mul(per_row))
        .is_some_and(|n| Vec::<usize>::new().try_reserve_exact(n).is_ok());
    if !rows_fit {
        return Err(MmError::Format(format!(
            "size line declares {nrows} rows, more than can be allocated"
        )));
    }
    Ok(CsrGraph::from_edges(nrows, &edges))
}

/// The header's field and symmetry, as the sinks need them.
struct Header {
    pattern: bool,
    symmetric: bool,
    skew: bool,
}

/// The one reader under both sinks: checks the header, the size line and
/// every entry line, hands each entry to `sink` as 0-based `(row, col,
/// value)` (`1.0` for a pattern), and returns the declared dimensions.
///
/// Lines are read in place from the reader's buffer; one that straddles
/// two fills is gathered in `carry`, the only copy.
fn read_entries(
    reader: &mut dyn BufRead,
    mut sink: impl FnMut(&Header, VertexId, VertexId, f64),
) -> Result<(usize, usize), MmError> {
    let mut scan = Scan::default();
    let mut carry = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let mut rest = chunk;
        if !carry.is_empty() {
            let end = line_end(rest).unwrap_or(rest.len());
            carry.extend_from_slice(&rest[..end]);
            rest = &rest[end..];
            if carry.ends_with(b"\n") {
                scan.line(&carry, &mut sink)?;
                carry.clear();
            }
        }
        loop {
            rest = &rest[scan.quick_entries(rest, &mut sink)?..];
            let Some(end) = line_end(rest) else { break };
            scan.line(&rest[..end], &mut sink)?;
            rest = &rest[end..];
        }
        carry.extend_from_slice(rest);
        let used = chunk.len();
        reader.consume(used);
    }
    if !carry.is_empty() {
        scan.line(&carry, &mut sink)?;
    }
    scan.finish()
}

/// What the lines read so far have declared.
#[derive(Default)]
struct Scan {
    /// Lines read so far.
    lines: usize,
    header: Option<Header>,
    /// Rows, columns and entry count, from the size line.
    dims: Option<(usize, usize, usize)>,
    /// Entry lines read so far.
    read: usize,
}

impl Scan {
    /// Read the entry lines at the front of `buf` that take
    /// [`quick_entry`]'s one pass, and return their length.
    fn quick_entries(
        &mut self,
        buf: &[u8],
        sink: &mut impl FnMut(&Header, VertexId, VertexId, f64),
    ) -> Result<usize, MmError> {
        let (Some(h), Some((nr, nc, _))) = (&self.header, self.dims) else {
            return Ok(0);
        };
        let mut at = 0;
        while let Some((r, c, value, used)) = quick_entry(&buf[at..], h.pattern) {
            self.lines += 1;
            self.read += 1;
            entry(h, (nr, nc), self.lines, (r, c), Some(value), sink)?;
            at += used;
        }
        Ok(at)
    }

    /// Read one line (with its `\n`, when it has one) by `str` rules.
    fn line(
        &mut self,
        bytes: &[u8],
        sink: &mut impl FnMut(&Header, VertexId, VertexId, f64),
    ) -> Result<(), MmError> {
        self.lines += 1;
        let line = self.lines;
        let Some(h) = &self.header else {
            self.header = Some(parse_header(bytes)?);
            return Ok(());
        };
        let text = std::str::from_utf8(bytes).map_err(|_| invalid_utf8())?;
        let mut toks = text.split_whitespace().map(str::as_bytes).peekable();
        if toks.peek().is_none_or(|t| t[0] == b'%') {
            return Ok(()); // blank or comment
        }
        let mut next = |what| field(toks.next(), line, what, index);
        let Some((nr, nc, _)) = self.dims else {
            // The size line: the first that is not a comment.
            let (nr, nc, nnz) = (next("rows")?, next("cols")?, next("nnz")?);
            if nr.max(nc) > VertexId::MAX as usize {
                return Err(MmError::Format(format!(
                    "dimensions {nr}x{nc} exceed the {} vertex ids available",
                    VertexId::MAX
                )));
            }
            // The count is untrusted input, so nothing is reserved for
            // it: the sinks grow with the lines that arrive, and the count
            // is checked against them at the end.
            self.dims = Some((nr, nc, nnz));
            return Ok(());
        };
        self.read += 1;
        let (r, c) = (next("row index")?, next("col index")?);
        entry(h, (nr, nc), line, (r, c), toks.next(), sink)
    }

    /// The declared dimensions, once the whole input is read.
    fn finish(self) -> Result<(usize, usize), MmError> {
        if self.header.is_none() {
            return Err(MmError::Format("empty file".into()));
        }
        let (nrows, ncols, nnz) = self
            .dims
            .ok_or_else(|| MmError::Format("missing size line".into()))?;
        if self.read != nnz {
            return Err(MmError::Format(format!(
                "size line declares {nnz} entries, file has {}",
                self.read
            )));
        }
        Ok((nrows, ncols))
    }
}

/// Check entry `(r, c)` (1-based) of line `line` against the size line's
/// dimensions, read its value token, and hand it to `sink`.
fn entry(
    h: &Header,
    (nr, nc): (usize, usize),
    line: usize,
    (r, c): (usize, usize),
    value: Option<&[u8]>,
    sink: &mut impl FnMut(&Header, VertexId, VertexId, f64),
) -> Result<(), MmError> {
    if r == 0 || c == 0 || r > nr || c > nc {
        return Err(MmError::Parse {
            line,
            msg: format!("index ({r},{c}) out of bounds ({nr}x{nc})"),
        });
    }
    let v = if h.pattern {
        1.0
    } else {
        field(value, line, "value", parse_value)?
    };
    sink(h, (r - 1) as VertexId, (c - 1) as VertexId, v);
    Ok(())
}

/// The length of `buf`'s first line with its `\n`, if it has a `\n`.
fn line_end(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n').map(|i| i + 1)
}

/// The common entry line, in one pass over its bytes: two runs of ASCII
/// digits and, for a value file, one token of printable ASCII, each
/// preceded by spaces, tabs or `\r`, which may also end the line before
/// its `\n`. Returns the two indices, the value token (empty for a
/// pattern) and the line's length. Anything else (a comment, a sign, a
/// long index, another separator, an extra token, no `\n` in `buf`) is
/// `None`, and the line is read by `str` rules instead.
fn quick_entry(buf: &[u8], pattern: bool) -> Option<(usize, usize, &[u8], usize)> {
    let r = quick_index(buf, 0)?;
    let c = quick_index(buf, r.1)?;
    let (value, at) = if pattern {
        (&buf[..0], c.1)
    } else {
        let start = skip_blanks(buf, c.1);
        let len = buf[start..]
            .iter()
            .position(|&b| !b.is_ascii_graphic())
            .filter(|&len| len > 0)?;
        (&buf[start..start + len], start + len)
    };
    let at = skip_blanks(buf, at);
    (*buf.get(at)? == b'\n').then_some((r.0, c.0, value, at + 1))
}

/// A run of ASCII digits after the blanks at `at`, ended by a blank or
/// `\n`: its value and where it ends. A run past `usize` is `None`, and
/// its line is read by `str` rules, which report it. Read through
/// `str::parse` instead, the indices took the benchmark's mesh file from
/// a 28 to a 54 ms load (medians of 15, 2 vCPUs).
fn quick_index(buf: &[u8], at: usize) -> Option<(usize, usize)> {
    let start = skip_blanks(buf, at);
    let (mut n, mut end) = (0usize, start);
    while let Some(d) = buf
        .get(end)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
    {
        n = n.checked_mul(10)?.checked_add(d as usize)?;
        end += 1;
    }
    if end == start || !matches!(buf.get(end)?, b' ' | b'\t' | b'\r' | b'\n') {
        return None;
    }
    Some((n, end))
}

fn skip_blanks(buf: &[u8], mut at: usize) -> usize {
    while matches!(buf.get(at), Some(b' ' | b'\t' | b'\r')) {
        at += 1;
    }
    at
}

/// `%%MatrixMarket matrix coordinate <field> <symmetry>`: the first line,
/// less its `\n` and then a `\r`, as `BufRead::lines` yields it.
fn parse_header(bytes: &[u8]) -> Result<Header, MmError> {
    let line = match bytes.strip_suffix(b"\n") {
        Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
        None => bytes,
    };
    let header = std::str::from_utf8(line).map_err(|_| invalid_utf8())?;
    let toks: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(MmError::Format(format!("bad header: {header}")));
    }
    if toks[2] != "coordinate" {
        return Err(MmError::Format(format!("unsupported storage: {}", toks[2])));
    }
    let field = toks[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(MmError::Format(format!("unsupported field: {field}")));
    }
    let symmetry = toks[4].as_str();
    if !matches!(symmetry, "general" | "symmetric" | "skew-symmetric") {
        return Err(MmError::Format(format!("unsupported symmetry: {symmetry}")));
    }
    Ok(Header {
        pattern: field == "pattern",
        symmetric: symmetry != "general",
        skew: symmetry == "skew-symmetric",
    })
}

/// The error `BufRead::lines` gives for a line that is not UTF-8.
fn invalid_utf8() -> MmError {
    MmError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// A token read by `parse`, or the entry error naming `what`.
fn field<T>(
    tok: Option<&[u8]>,
    line: usize,
    what: &str,
    parse: fn(&[u8]) -> Option<T>,
) -> Result<T, MmError> {
    let err = |msg| MmError::Parse { line, msg };
    let tok = tok.ok_or_else(|| err(format!("missing {what}")))?;
    parse(tok).ok_or_else(|| err(format!("bad {what}")))
}

/// An index or count, as `usize::from_str` reads it.
fn index(tok: &[u8]) -> Option<usize> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

fn parse_value(tok: &[u8]) -> Option<f64> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

/// Write a graph as a `pattern symmetric` Matrix Market file (lower
/// triangle only, 1-based indices).
pub fn write_graph<W: Write>(g: &CsrGraph, mut out: W) -> std::io::Result<()> {
    write_to(g, &mut out)
}

/// Write a graph to a `.mtx` file on disk.
pub fn write_graph_file<P: AsRef<Path>>(g: &CsrGraph, path: P) -> std::io::Result<()> {
    write_to(g, &mut std::fs::File::create(path)?)
}

// Like the readers, the writer proper takes `dyn Write`, so it is compiled
// once, here, and moves no caller's code.
//
// Rows are formatted in blocks of `ROW_BLOCK`, in parallel, one buffer
// each; the size line needs the blocks' entry counts, so it is written
// after they are all formatted, and the buffers follow in row order.
fn write_to(g: &CsrGraph, out: &mut dyn Write) -> std::io::Result<()> {
    let n = g.num_vertices();
    let blocks: Vec<(usize, Vec<u8>)> = par::map_blocks(n.div_ceil(ROW_BLOCK), |b| {
        let mut count = 0;
        let mut buf = Vec::new();
        let (mut row_digits, mut col_digits) = ([0u8; 20], [0u8; 20]);
        for v in b * ROW_BLOCK..n.min((b + 1) * ROW_BLOCK) {
            // Rows are sorted and loop-free: the lower triangle is the
            // prefix below the row's own id.
            let row = g.neighbors(v as VertexId);
            let lower = &row[..row.partition_point(|&u| (u as usize) < v)];
            let head = decimal(v + 1, &mut row_digits);
            for &u in lower {
                buf.extend_from_slice(head);
                buf.push(b' ');
                buf.extend_from_slice(decimal(u as usize + 1, &mut col_digits));
                buf.push(b'\n');
            }
            count += lower.len();
        }
        (count, buf)
    });
    let nnz_lower: usize = blocks.iter().map(|(count, _)| count).sum();
    let header = format!(
        "%%MatrixMarket matrix coordinate pattern symmetric\n% written by mis2-graph\n{n} {n} {nnz_lower}\n"
    );
    out.write_all(header.as_bytes())?;
    for (_, buf) in &blocks {
        out.write_all(buf)?;
    }
    out.flush()
}

/// `x` in decimal, written into the tail of `digits`.
fn decimal(mut x: usize, digits: &mut [u8; 20]) -> &[u8] {
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            return &digits[i..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::io::Cursor;

    #[test]
    fn read_pattern_symmetric() {
        let mtx = "\
%%MatrixMarket matrix coordinate pattern symmetric
% a triangle
3 3 3
2 1
3 1
3 2
";
        let g = read_graph(Cursor::new(mtx)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2));
    }

    #[test]
    fn read_real_general_drops_diagonal() {
        let mtx = "\
%%MatrixMarket matrix coordinate real general
3 3 5
1 1 4.0
1 2 -1.0
2 1 -1.0
2 2 4.0
3 3 4.0
";
        let g = read_graph(Cursor::new(mtx)).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn read_coo_keeps_values() {
        let mtx = "\
%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 2.0
2 2 2.0
2 1 -1.0
";
        let coo = read_coo(Cursor::new(mtx)).unwrap();
        assert_eq!(coo.nrows, 2);
        // symmetric off-diagonal expands to both directions
        assert_eq!(coo.entries.len(), 4);
        assert!(coo.entries.contains(&(1, 0, -1.0)));
        assert!(coo.entries.contains(&(0, 1, -1.0)));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_graph(Cursor::new("%%NotMatrixMarket\n")).is_err());
        assert!(read_graph(Cursor::new(
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n"
        ))
        .is_err());
    }

    #[test]
    fn rejects_out_of_bounds_index() {
        let mtx = "\
%%MatrixMarket matrix coordinate pattern general
2 2 1
3 1
";
        assert!(matches!(
            read_graph(Cursor::new(mtx)),
            Err(MmError::Parse { .. })
        ));
    }

    #[test]
    fn a_lying_entry_count_is_a_format_error_not_an_allocation() {
        // Declared counts no machine can allocate: nothing is reserved
        // for them, and the one entry line present is what gets counted.
        for mtx in [
            "%%MatrixMarket matrix coordinate pattern general\n3 3 99999999999999\n2 1\n"
                .to_string(),
            format!(
                "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 {}\n2 1\n",
                u64::MAX
            ),
        ] {
            match read_graph(Cursor::new(mtx)) {
                Err(MmError::Format(m)) => assert!(m.contains("file has 1"), "{m}"),
                other => panic!("expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_lying_row_count_is_a_format_error_not_an_allocation() {
        // Ids in range, no entries: the entry reserve is empty, and only
        // the rows-sized arrays of the CSR build could abort.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n4294967294 4294967294 0\n";
        match read_graph(Cursor::new(mtx)) {
            Err(MmError::Format(m)) => assert!(m.contains("can be allocated"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
        // Isolated vertices stay legal.
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n5 5 1\n2 1\n";
        let g = read_graph(Cursor::new(mtx)).unwrap();
        assert_eq!((g.num_vertices(), g.num_edges()), (5, 1));
    }

    #[test]
    fn rejects_dimensions_past_the_vertex_id_range() {
        let mtx = format!(
            "%%MatrixMarket matrix coordinate pattern general\n{n} {n} 1\n{n} 1\n",
            n = VertexId::MAX as u64 + 1
        );
        assert!(matches!(
            read_coo(Cursor::new(mtx)),
            Err(MmError::Format(_))
        ));
    }

    #[test]
    fn rejects_fewer_or_more_entries_than_declared() {
        let fewer = "%%MatrixMarket matrix coordinate pattern general\n3 3 3\n2 1\n3 1\n";
        let more = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n2 1\n3 1\n";
        for mtx in [fewer, more] {
            match read_coo(Cursor::new(mtx)) {
                Err(MmError::Format(m)) => assert!(m.contains("file has 2"), "{m}"),
                other => panic!("expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_rectangular_for_graph() {
        let mtx = "\
%%MatrixMarket matrix coordinate pattern general
2 3 1
1 1
";
        assert!(read_graph(Cursor::new(mtx)).is_err());
    }

    /// What one input gives: `read_coo`'s triplets in order (`{:?}` each,
    /// space-separated) and `read_graph`'s undirected edges, or the one
    /// error both report, as displayed (variant, message and line).
    enum Want {
        Ok {
            n: usize,
            coo: &'static str,
            edges: &'static [(VertexId, VertexId)],
        },
        Err(&'static str),
    }

    const PG: &str = "%%MatrixMarket matrix coordinate pattern general\n";
    const PS: &str = "%%MatrixMarket matrix coordinate pattern symmetric\n";
    const RG: &str = "%%MatrixMarket matrix coordinate real general\n";
    const UTF8: &str = "I/O error: stream did not contain valid UTF-8";

    fn pinned_inputs() -> Vec<(&'static str, Vec<u8>, Want)> {
        let text = |parts: &[&str]| parts.concat().into_bytes();
        let bytes = |parts: &[&[u8]]| parts.concat();
        vec![
            (
                "signed and zero-padded indices",
                text(&[PS, "3 3 2\n+2 1\n003 002\n"]),
                Want::Ok {
                    n: 3,
                    coo: "(1, 0, 1.0) (0, 1, 1.0) (2, 1, 1.0) (1, 2, 1.0)",
                    edges: &[(1, 0), (2, 1)],
                },
            ),
            (
                "tab, vertical tab and form feed separators",
                text(&[PS, "3\t3\t2\n2\t1\n3\x0B\x0C1\n"]),
                Want::Ok {
                    n: 3,
                    coo: "(1, 0, 1.0) (0, 1, 1.0) (2, 0, 1.0) (0, 2, 1.0)",
                    edges: &[(1, 0), (2, 0)],
                },
            ),
            (
                "CRLF line ends",
                text(&[PS.trim_end(), "\r\n3 3 2\r\n2 1\r\n3 2\r\n"]),
                Want::Ok {
                    n: 3,
                    coo: "(1, 0, 1.0) (0, 1, 1.0) (2, 1, 1.0) (1, 2, 1.0)",
                    edges: &[(1, 0), (2, 1)],
                },
            ),
            (
                "trailing extra tokens",
                text(&[PG, "3 3 2 extra\n2 1 7\n1 3 x \u{FC}\n"]),
                Want::Ok {
                    n: 3,
                    coo: "(1, 0, 1.0) (0, 2, 1.0)",
                    edges: &[(1, 0), (0, 2)],
                },
            ),
            (
                "blank and % lines between entries, no final newline",
                text(&[PS, "3 3 2\n2 1\n\n   \n% note\n \t%indented\n3 1"]),
                Want::Ok {
                    n: 3,
                    coo: "(1, 0, 1.0) (0, 1, 1.0) (2, 0, 1.0) (0, 2, 1.0)",
                    edges: &[(1, 0), (2, 0)],
                },
            ),
            (
                "U+00A0, U+2003 and U+0085 separators",
                text(&[PS, "3 3 2\n2\u{A0}1\n3 \u{2003}2\u{85}\n"]),
                Want::Ok {
                    n: 3,
                    coo: "(1, 0, 1.0) (0, 1, 1.0) (2, 1, 1.0) (1, 2, 1.0)",
                    edges: &[(1, 0), (2, 1)],
                },
            ),
            (
                "real values 1e3, nan and -.5",
                text(&[RG, "2 2 3\n1 2 1e3\n2 1 nan\n2 2 -.5\n"]),
                Want::Ok {
                    n: 2,
                    coo: "(0, 1, 1000.0) (1, 0, NaN) (1, 1, -0.5)",
                    edges: &[(0, 1)],
                },
            ),
            (
                "skew-symmetric values mirror negated",
                text(&[
                    "%%MatrixMarket matrix coordinate real skew-symmetric\n",
                    "3 3 2\n2 1 1.5\n3 3 2\n",
                ]),
                Want::Ok {
                    n: 3,
                    coo: "(1, 0, 1.5) (0, 1, -1.5) (2, 2, 2.0)",
                    edges: &[(1, 0)],
                },
            ),
            (
                "general, both orientations, out of order and repeated",
                text(&[PG, "4 4 6\n3 1\n1 3\n2 4\n4 2\n3 1\n2 2\n"]),
                Want::Ok {
                    n: 4,
                    coo: "(2, 0, 1.0) (0, 2, 1.0) (1, 3, 1.0) (3, 1, 1.0) (2, 0, 1.0) (1, 1, 1.0)",
                    edges: &[(0, 2), (1, 3)],
                },
            ),
            (
                "empty file",
                Vec::new(),
                Want::Err("format error: empty file"),
            ),
            (
                "header ended by CR alone keeps the CR",
                text(&["%%NotMatrixMarket\r"]),
                Want::Err("format error: bad header: %%NotMatrixMarket\r"),
            ),
            (
                "header ended by CRLF loses it",
                text(&["%%MatrixMarket matrix array real general\r\n"]),
                Want::Err("format error: unsupported storage: array"),
            ),
            (
                "no size line",
                text(&[PG, "% only a comment\n"]),
                Want::Err("format error: missing size line"),
            ),
            (
                "bad size line",
                text(&[PG, "3 x 1\n"]),
                Want::Err("parse error at line 2: bad cols"),
            ),
            (
                "20-digit index",
                text(&[PG, "3 3 1\n99999999999999999999 1\n"]),
                Want::Err("parse error at line 3: bad row index"),
            ),
            (
                "one index",
                text(&[PG, "3 3 1\n% c\n2\n"]),
                Want::Err("parse error at line 4: missing col index"),
            ),
            (
                "zero index",
                text(&[PG, "3 3 1\n0 1\n"]),
                Want::Err("parse error at line 3: index (0,1) out of bounds (3x3)"),
            ),
            (
                "negative index",
                text(&[PG, "3 3 1\n-2 1\n"]),
                Want::Err("parse error at line 3: bad row index"),
            ),
            (
                "NUL and U+001F are not separators",
                text(&[PG, "3 3 2\n2 1\x1F\n3\x001\n"]),
                Want::Err("parse error at line 3: bad col index"),
            ),
            (
                "bad value",
                text(&[RG, "3 3 1\n2 1 x\n"]),
                Want::Err("parse error at line 3: bad value"),
            ),
            (
                "missing value",
                text(&[RG, "3 3 1\n2 1\n"]),
                Want::Err("parse error at line 3: missing value"),
            ),
            (
                "out of bounds is checked before the value",
                text(&[RG, "3 3 1\n4 1 x\n"]),
                Want::Err("parse error at line 3: index (4,1) out of bounds (3x3)"),
            ),
            (
                "invalid UTF-8 in a comment",
                bytes(&[PG.as_bytes(), b"% caf\xE9\n3 3 1\n2 1\n"]),
                Want::Err(UTF8),
            ),
            (
                "invalid UTF-8 in the header",
                bytes(&[b"%%MatrixMarket matrix coordinate pattern g\xFFeneral\n3 3 0\n"]),
                Want::Err(UTF8),
            ),
            (
                "a bad entry line before invalid UTF-8 is reported",
                bytes(&[PG.as_bytes(), b"3 3 2\n2 x\n% \xFF\n3 1\n"]),
                Want::Err("parse error at line 3: bad col index"),
            ),
            (
                "invalid UTF-8 before a bad entry line is reported",
                bytes(&[PG.as_bytes(), b"3 3 2\n% \xFF\n2 x\n"]),
                Want::Err(UTF8),
            ),
            (
                "too many entries",
                text(&[PS, "3 3 1\n2 1\n3 1\n"]),
                Want::Err("format error: size line declares 1 entries, file has 2"),
            ),
        ]
    }

    #[test]
    fn every_pinned_input_gives_its_graph_or_error() {
        for (name, input, want) in pinned_inputs() {
            let coo = read_coo(Cursor::new(&input));
            let graph = read_graph(Cursor::new(&input));
            match want {
                Want::Ok {
                    n,
                    coo: triplets,
                    edges,
                } => {
                    let coo = coo.unwrap_or_else(|e| panic!("{name}: read_coo: {e}"));
                    let shown: Vec<String> = coo.entries.iter().map(|t| format!("{t:?}")).collect();
                    assert_eq!(shown.join(" "), triplets, "{name}: triplets");
                    let g = graph.unwrap_or_else(|e| panic!("{name}: read_graph: {e}"));
                    assert_eq!(g, CsrGraph::from_edges(n, edges), "{name}: graph");
                }
                Want::Err(shown) => {
                    for got in [coo.map(|_| ()), graph.map(|_| ())] {
                        let e = got.expect_err(name);
                        assert_eq!(e.to_string(), shown, "{name}");
                        if shown == UTF8 {
                            assert!(
                                matches!(&e, MmError::Io(io) if io.kind() == std::io::ErrorKind::InvalidData),
                                "{name}: {e:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Lines cut across the reader's fills read as whole lines: every
    /// pinned input, through buffers of a few bytes, reads as in one fill.
    #[test]
    fn lines_straddling_fills_read_as_in_one_fill() {
        let coo = |r: Result<CooMatrix, MmError>| r.map(|c| format!("{:?}", c.entries));
        let graph = |r: Result<CsrGraph, MmError>| r.map(|g| format!("{g:?}"));
        let shown = |r: Result<String, MmError>| r.unwrap_or_else(|e| e.to_string());
        let mut written = Vec::new();
        write_graph(&gen::laplace3d(4, 3, 3), &mut written).unwrap();
        let inputs = pinned_inputs()
            .into_iter()
            .map(|(name, input, _)| (name, input));
        for (name, input) in inputs.chain([("written", written)]) {
            let whole = (
                shown(coo(read_coo(Cursor::new(&input)))),
                shown(graph(read_graph(Cursor::new(&input)))),
            );
            for cap in [1, 2, 3, 7, 16] {
                let cut = (
                    shown(coo(read_coo(BufReader::with_capacity(cap, &input[..])))),
                    shown(graph(read_graph(BufReader::with_capacity(cap, &input[..])))),
                );
                assert_eq!(cut, whole, "{name}, fills of {cap} bytes");
            }
        }
    }

    /// Every entry line of up to four bytes over an alphabet of digits,
    /// the bytes either side of them, blanks, other separators and signs
    /// reads the same in one fill (the one-pass form, where it applies) as
    /// through one-byte fills, which carry every line to the `str` rules.
    #[test]
    fn short_entry_lines_read_the_same_by_either_path() {
        let alphabet = b"12/: \t\r\0\x0B%+.e";
        let shown = |r: Result<CooMatrix, MmError>| match r {
            Ok(c) => format!("{:?}", c.entries),
            Err(e) => e.to_string(),
        };
        let mut lines: Vec<Vec<u8>> = vec![Vec::new()];
        for len in 1..=4 {
            let mut longer = Vec::new();
            for line in lines.iter().filter(|l| l.len() == len - 1) {
                for &b in alphabet {
                    longer.push([&line[..], &[b]].concat());
                }
            }
            lines.extend(longer);
        }
        for head in [PG, RG] {
            for line in &lines {
                let input = [head.as_bytes(), b"2 2 1\n", line, b"\n"].concat();
                let one_fill = shown(read_coo(Cursor::new(&input)));
                let carried = shown(read_coo(BufReader::with_capacity(1, &input[..])));
                assert_eq!(one_fill, carried, "{:?}", String::from_utf8_lossy(line));
            }
        }
    }

    /// `write_graph`'s bytes, pinned as length and fingerprint (a
    /// splitmix64 fold over the bytes): a mesh, a jittered mesh with hubs,
    /// an R-MAT over several row blocks, an edgeless graph, and a graph
    /// that is not symmetric, whose size line still counts exactly the
    /// lower entries written.
    #[test]
    fn written_files_keep_their_bytes() {
        let lopsided =
            CsrGraph::from_csr(5, vec![0, 2, 3, 3, 6, 7], vec![3, 4, 0, 0, 1, 4, 2]).unwrap();
        let cases = [
            (
                "laplace3d(4, 3, 3)",
                gen::laplace3d(4, 3, 3),
                499,
                0xff7c_0c58_b660_df63,
            ),
            (
                "mesh3d(600, ...)",
                gen::mesh3d(600, 12, 0.05, 2, 20, 2, 40, 9),
                25_442,
                0xe45a_c51f_512a_2f8f,
            ),
            (
                "rmat(10, 8, ...)",
                gen::rmat(10, 8, 0.57, 0.19, 0.19, 3),
                42_847,
                0xf8a8_72e4_86b6_bbbc,
            ),
            ("empty(3)", CsrGraph::empty(3), 81, 0xce03_faab_4565_e911),
            ("lopsided", lopsided, 97, 0xea82_c3a1_7af6_54cb),
        ];
        for (name, g, len, print) in cases {
            let mut bytes = Vec::new();
            write_graph(&g, &mut bytes).unwrap();
            let fold = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                mis2_prim::hash::splitmix64(h ^ b as u64)
            });
            assert_eq!((bytes.len(), fold), (len, print), "{name}");
            if name == "lopsided" {
                assert!(bytes.windows(7).any(|w| w == b"\n5 5 4\n"), "{name}");
            }
        }
    }

    #[test]
    fn roundtrip() {
        let g = gen::erdos_renyi(40, 80, 11);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_structured() {
        let g = gen::laplace3d(5, 4, 3);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }
}
