//! Matrix Market I/O.
//!
//! The paper's 15 non-synthetic matrices come from the SuiteSparse
//! collection, which distributes Matrix Market (`.mtx`) files. This module
//! reads the `matrix coordinate` format (real / integer / pattern; general
//! or symmetric) into a [`CsrGraph`] so the benchmarks can run on the real
//! inputs when they are available locally; the synthetic suite
//! ([`crate::suite`]) stands in otherwise.
//!
//! Reading a graph symmetrizes the pattern and drops the diagonal, matching
//! how KokkosKernels consumes these matrices for MIS-2.

use crate::csr::{CsrGraph, VertexId};
use std::io::{BufRead, BufReader, BufWriter, Write};
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
pub fn read_coo<R: BufRead>(reader: R) -> Result<CooMatrix, MmError> {
    let mut lines = reader.lines().enumerate();

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (_, header) = lines
        .next()
        .ok_or_else(|| MmError::Format("empty file".into()))?;
    let header = header?;
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
    let pattern = field == "pattern";
    let symmetric = symmetry != "general";

    // Size line: first non-comment line.
    let mut dims: Option<(usize, usize, usize)> = None;
    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
    let mut read = 0usize; // entry lines seen so far
    for (lineno, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        if dims.is_none() {
            let nr: usize = parse_tok(&mut it, lineno, "rows")?;
            let nc: usize = parse_tok(&mut it, lineno, "cols")?;
            let nnz: usize = parse_tok(&mut it, lineno, "nnz")?;
            if nr.max(nc) > VertexId::MAX as usize {
                return Err(MmError::Format(format!(
                    "dimensions {nr}x{nc} exceed the {} vertex ids available",
                    VertexId::MAX
                )));
            }
            // The count is untrusted input, so nothing is reserved for
            // it: the entries grow with the lines that arrive, and the
            // count is checked against them at the end.
            dims = Some((nr, nc, nnz));
            continue;
        }
        read += 1;
        let (nr, nc, _) = dims.unwrap();
        let r: usize = parse_tok(&mut it, lineno, "row index")?;
        let c: usize = parse_tok(&mut it, lineno, "col index")?;
        if r == 0 || c == 0 || r > nr || c > nc {
            return Err(MmError::Parse {
                line: lineno + 1,
                msg: format!("index ({r},{c}) out of bounds ({nr}x{nc})"),
            });
        }
        let v: f64 = if pattern {
            1.0
        } else {
            parse_tok(&mut it, lineno, "value")?
        };
        let (r, c) = ((r - 1) as u32, (c - 1) as u32);
        entries.push((r, c, v));
        if symmetric && r != c {
            entries.push((c, r, if symmetry == "skew-symmetric" { -v } else { v }));
        }
    }
    let (nrows, ncols, nnz) = dims.ok_or_else(|| MmError::Format("missing size line".into()))?;
    if read != nnz {
        return Err(MmError::Format(format!(
            "size line declares {nnz} entries, file has {read}"
        )));
    }
    Ok(CooMatrix {
        nrows,
        ncols,
        entries,
    })
}

fn parse_tok<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    lineno: usize,
    what: &str,
) -> Result<T, MmError> {
    it.next()
        .ok_or_else(|| MmError::Parse {
            line: lineno + 1,
            msg: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| MmError::Parse {
            line: lineno + 1,
            msg: format!("bad {what}"),
        })
}

/// Read a Matrix Market file as an undirected structural graph: the pattern
/// is symmetrized and diagonal entries are dropped.
pub fn read_graph<R: BufRead>(reader: R) -> Result<CsrGraph, MmError> {
    let coo = read_coo(reader)?;
    if coo.nrows != coo.ncols {
        return Err(MmError::Format(format!(
            "graph requires a square matrix, got {}x{}",
            coo.nrows, coo.ncols
        )));
    }
    // `from_edges` holds about three arrays of `nrows + 1` offsets at
    // once (bucket offsets and cursor, then row pointers and block row
    // ends). A size line may declare rows no entry touches, so `read_coo`'s
    // entry reserve does not bound them, and a failed `vec!` aborts the
    // process. Ask the allocator first, fallibly.
    let rows_fit = coo
        .nrows
        .checked_add(1)
        .and_then(|n| n.checked_mul(3))
        .is_some_and(|n| Vec::<usize>::new().try_reserve_exact(n).is_ok());
    if !rows_fit {
        return Err(MmError::Format(format!(
            "size line declares {} rows, more than can be allocated",
            coo.nrows
        )));
    }
    let edges: Vec<(VertexId, VertexId)> = coo
        .entries
        .iter()
        .filter(|(r, c, _)| r != c)
        .map(|&(r, c, _)| (r, c))
        .collect();
    Ok(CsrGraph::from_edges(coo.nrows, &edges))
}

/// Read a graph from a `.mtx` file on disk.
pub fn read_graph_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, MmError> {
    let f = std::fs::File::open(path)?;
    read_graph(BufReader::new(f))
}

/// Write a graph as a `pattern symmetric` Matrix Market file (lower
/// triangle only, 1-based indices).
pub fn write_graph<W: Write>(g: &CsrGraph, out: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(out);
    writeln!(w, "%%MatrixMarket matrix coordinate pattern symmetric")?;
    writeln!(w, "% written by mis2-graph")?;
    let nnz_lower: usize = (0..g.num_vertices() as VertexId)
        .map(|v| g.neighbors(v).iter().filter(|&&u| u <= v).count())
        .sum();
    writeln!(w, "{} {} {}", g.num_vertices(), g.num_vertices(), nnz_lower)?;
    for v in 0..g.num_vertices() as VertexId {
        for &u in g.neighbors(v) {
            if u <= v {
                writeln!(w, "{} {}", v + 1, u + 1)?;
            }
        }
    }
    w.flush()
}

/// Write a graph to a `.mtx` file on disk.
pub fn write_graph_file<P: AsRef<Path>>(g: &CsrGraph, path: P) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_graph(g, f)
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
