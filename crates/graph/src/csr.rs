//! Compressed sparse row (CSR/CRS) graph storage.
//!
//! The paper's algorithms all operate on undirected graphs stored in the CRS
//! sparse-matrix layout (Section V-D): the adjacency list of each vertex is
//! contiguous, so the per-vertex neighbor loops coalesce on GPUs and
//! cache-stream on CPUs.
//!
//! Invariants maintained by every constructor:
//!
//! * `row_ptr.len() == n + 1`, `row_ptr[0] == 0`, monotonically non-decreasing,
//!   `row_ptr[n] == col_idx.len()`;
//! * every column index is `< n`;
//! * each row is strictly sorted (no duplicate edges);
//! * **no explicit self-loops** — the MIS-2 kernels add the implicit
//!   self-contribution themselves (Lemma IV.1 of the paper assumes
//!   self-loops; storing them would only waste bandwidth);
//! * the graph is symmetric (undirected): `(u,v)` present iff `(v,u)` is.

use mis2_prim::{par, rows};
use std::fmt;

/// Vertex index type. The paper packs vertex ids into 32 bits; all supported
/// graphs have fewer than 2^32 vertices.
pub type VertexId = u32;

/// Errors from CSR validation/construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `row_ptr` has wrong length or wrong first/last element.
    BadRowPtr(String),
    /// A column index is out of bounds.
    ColOutOfBounds { row: usize, col: VertexId, n: usize },
    /// A row is not strictly sorted (unsorted or duplicate entries).
    UnsortedRow { row: usize },
    /// An explicit self-loop was found.
    SelfLoop { row: usize },
    /// The adjacency structure is not symmetric.
    NotSymmetric { u: VertexId, v: VertexId },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadRowPtr(msg) => write!(f, "bad row_ptr: {msg}"),
            GraphError::ColOutOfBounds { row, col, n } => {
                write!(f, "column {col} out of bounds (n = {n}) in row {row}")
            }
            GraphError::UnsortedRow { row } => {
                write!(f, "row {row} is not strictly sorted")
            }
            GraphError::SelfLoop { row } => write!(f, "self loop at vertex {row}"),
            GraphError::NotSymmetric { u, v } => {
                write!(f, "edge ({u},{v}) present but ({v},{u}) missing")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected graph in CSR form. See module docs for invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<VertexId>,
}

impl CsrGraph {
    /// Graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            n,
            row_ptr: vec![0; n + 1],
            col_idx: Vec::new(),
        }
    }

    /// Build from raw CSR arrays, validating every invariant except symmetry
    /// (which is `O(E log d)` and opt-in via [`CsrGraph::validate_symmetric`]).
    pub fn from_csr(
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<VertexId>,
    ) -> Result<Self, GraphError> {
        if row_ptr.len() != n + 1 {
            return Err(GraphError::BadRowPtr(format!(
                "length {} != n+1 = {}",
                row_ptr.len(),
                n + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(GraphError::BadRowPtr("row_ptr[0] != 0".into()));
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(GraphError::BadRowPtr(format!(
                "row_ptr[n] = {} != col_idx.len() = {}",
                row_ptr[n],
                col_idx.len()
            )));
        }
        for v in 0..n {
            if row_ptr[v] > row_ptr[v + 1] {
                return Err(GraphError::BadRowPtr(format!("row_ptr decreases at {v}")));
            }
            let row = &col_idx[row_ptr[v]..row_ptr[v + 1]];
            for (k, &c) in row.iter().enumerate() {
                if (c as usize) >= n {
                    return Err(GraphError::ColOutOfBounds { row: v, col: c, n });
                }
                if c as usize == v {
                    return Err(GraphError::SelfLoop { row: v });
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(GraphError::UnsortedRow { row: v });
                }
            }
        }
        Ok(CsrGraph {
            n,
            row_ptr,
            col_idx,
        })
    }

    /// Build from an edge list. Edges are interpreted as undirected: both
    /// directions are stored. Self-loops and duplicates are silently dropped.
    /// Construction is parallel and deterministic.
    ///
    /// Both orientations are bucketed by source with one stable counting
    /// sort. When every row leaves the bucket strictly ascending (a lower
    /// triangle in row order, as a Matrix Market file or a sorted edge list
    /// gives it), the bucket's arrays are the CSR, with nothing copied or
    /// sorted; otherwise only the rows that are unsorted or repeated get
    /// sorted and deduplicated. Either way the arrays are exact-size.
    ///
    /// ```
    /// use mis2_graph::CsrGraph;
    /// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
    /// assert_eq!(g.neighbors(1), &[0, 2]);
    /// assert_eq!(g.num_edges(), 2);
    /// ```
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let (offsets, targets) = bucket_edges(n, edges);
        let strictly_ascending = |v: usize| {
            targets[offsets[v]..offsets[v + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])
        };
        if (0..n).all(strictly_ascending) {
            return CsrGraph {
                n,
                row_ptr: offsets,
                col_idx: targets,
            };
        }
        Self::from_row_blocks(
            n,
            || (),
            |_, v, row| {
                let start = row.len();
                row.extend_from_slice(&targets[offsets[v]..offsets[v + 1]]);
                if !strictly_ascending(v) {
                    sort_dedup_from(row, start);
                }
            },
        )
    }

    /// Assemble from per-vertex neighbor lists written in row blocks
    /// ([`mis2_prim::rows::assemble`]): `row(state, v, out)` appends `v`'s
    /// sorted, deduplicated, loop-free neighbors to `out`, whose tail from
    /// `out.len()` on entry is the row under construction. Used by the
    /// builders and generators that guarantee the invariants themselves.
    pub(crate) fn from_row_blocks<S>(
        n: usize,
        scratch: impl Fn() -> S + Sync,
        row: impl Fn(&mut S, usize, &mut Vec<VertexId>) + Sync,
    ) -> Self {
        let (row_ptr, col_idx, _) = rows::assemble::<(), S>(n, scratch, |state, v, buf| {
            let start = buf.cols.len();
            row(state, v, &mut buf.cols);
            let new = &buf.cols[start..];
            debug_assert!(new.windows(2).all(|w| w[0] < w[1]), "row {v} unsorted");
            debug_assert!(new.iter().all(|&w| (w as usize) < n && w as usize != v));
        });
        CsrGraph {
            n,
            row_ptr,
            col_idx,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of *directed* edge slots (2x the undirected edge count). This
    /// matches the paper's `|E|` column, which counts stored nonzeros.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_idx.len() / 2
    }

    /// Neighbor list of `v` (sorted, no self-loop).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.col_idx[self.row_ptr[v as usize]..self.row_ptr[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]
    }

    /// Raw row-pointer array (`n + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[VertexId] {
        &self.col_idx
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.col_idx.len() as f64 / self.n as f64
        }
    }

    /// Maximum degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        let degrees = par::map_range(0..self.n, |v| self.row_ptr[v + 1] - self.row_ptr[v]);
        mis2_prim::det_max(&degrees).unwrap_or(0)
    }

    /// Minimum degree (0 for an empty graph).
    pub fn min_degree(&self) -> usize {
        let degrees = par::map_range(0..self.n, |v| self.row_ptr[v + 1] - self.row_ptr[v]);
        mis2_prim::det_min(&degrees).unwrap_or(0)
    }

    /// True if edge `(u, v)` exists (binary search in `u`'s row).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Approximate heap footprint in bytes: the capacity of the two CSR
    /// arrays. Used by memory-bounded caches (e.g. the `mis2-svc`
    /// registry) to account graphs against a byte budget; it ignores
    /// allocator slack and the `O(1)` struct header.
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.capacity() * std::mem::size_of::<usize>()
            + self.col_idx.capacity() * std::mem::size_of::<VertexId>()
    }

    /// Check structural symmetry: `(u,v)` present implies `(v,u)` present.
    pub fn validate_symmetric(&self) -> Result<(), GraphError> {
        let bad = par::find_map_range(0..self.n as VertexId, |u| {
            self.neighbors(u)
                .iter()
                .find(|&&v| !self.has_edge(v, u))
                .map(|&v| GraphError::NotSymmetric { u, v })
        });
        match bad {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Summary statistics (the left half of the paper's Table II).
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            num_vertices: self.n,
            num_directed_edges: self.num_directed_edges(),
            avg_degree: self.avg_degree(),
            max_degree: self.max_degree(),
            min_degree: self.min_degree(),
        }
    }
}

/// Both directions of every non-loop edge, bucketed by source vertex:
/// `targets[offsets[v]..offsets[v + 1]]` are `v`'s endpoints in input
/// order, duplicates included.
pub(crate) fn bucket_edges(
    n: usize,
    edges: &[(VertexId, VertexId)],
) -> (Vec<usize>, Vec<VertexId>) {
    let directed = edges.iter().filter(|&&(u, v)| {
        assert!((u as usize) < n && (v as usize) < n, "edge out of bounds");
        u != v
    });
    mis2_prim::bucket_by_key(n, directed.flat_map(|&(u, v)| [(u, v), (v, u)]))
}

/// Sort and deduplicate `row[start..]` in place.
pub(crate) fn sort_dedup_from(row: &mut Vec<VertexId>, start: usize) {
    row[start..].sort_unstable();
    let mut kept = start;
    for i in start..row.len() {
        if kept == start || row[kept - 1] != row[i] {
            row[kept] = row[i];
            kept += 1;
        }
    }
    row.truncate(kept);
}

/// Graph summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub num_vertices: usize,
    pub num_directed_edges: usize,
    pub avg_degree: f64,
    pub max_degree: usize,
    pub min_degree: usize,
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|V| = {}, |E| = {}, avg deg = {:.2}, max deg = {}, min deg = {}",
            self.num_vertices,
            self.num_directed_edges,
            self.avg_degree,
            self.max_degree,
            self.min_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_directed_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.max_degree(), 0);
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn from_edges_triangle() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn from_edges_drops_self_loops_and_dups() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
    }

    #[test]
    fn from_csr_validates() {
        // Good input.
        let g = CsrGraph::from_csr(2, vec![0, 1, 2], vec![1, 0]).unwrap();
        assert_eq!(g.num_edges(), 1);
        // Bad row_ptr length.
        assert!(matches!(
            CsrGraph::from_csr(2, vec![0, 2], vec![1, 0]),
            Err(GraphError::BadRowPtr(_))
        ));
        // Column out of bounds.
        assert!(matches!(
            CsrGraph::from_csr(2, vec![0, 1, 2], vec![5, 0]),
            Err(GraphError::ColOutOfBounds { .. })
        ));
        // Self loop.
        assert!(matches!(
            CsrGraph::from_csr(2, vec![0, 1, 2], vec![0, 0]),
            Err(GraphError::SelfLoop { row: 0 })
        ));
        // Unsorted row.
        assert!(matches!(
            CsrGraph::from_csr(3, vec![0, 2, 3, 4], vec![2, 1, 0, 0]),
            Err(GraphError::UnsortedRow { row: 0 })
        ));
        // Duplicate entry counts as unsorted (strict ordering).
        assert!(matches!(
            CsrGraph::from_csr(3, vec![0, 2, 3, 4], vec![1, 1, 0, 0]),
            Err(GraphError::UnsortedRow { row: 0 })
        ));
    }

    #[test]
    fn symmetry_violation_detected() {
        // (0,1) without (1,0): col list for vertex 1 points at 2 instead.
        let g = CsrGraph::from_csr(3, vec![0, 1, 2, 3], vec![1, 2, 1]).unwrap();
        assert!(g.validate_symmetric().is_err());
    }

    #[test]
    fn stats_path_graph() {
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(10, &edges);
        let s = g.stats();
        assert_eq!(s.num_vertices, 10);
        assert_eq!(s.num_directed_edges, 18);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.min_degree, 1);
        assert!((s.avg_degree - 1.8).abs() < 1e-12);
    }

    #[test]
    fn has_edge() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn from_edges_in_row_order_or_not_gives_one_graph_bytes_included() {
        // The lower triangle in row order takes the bucket as it stands;
        // the same edges reversed, with repeats and a loop, re-assemble
        // every row. Both give the generator's graph, at exact size.
        let g = crate::gen::erdos_renyi(300, 1500, 5);
        let lower: Vec<(VertexId, VertexId)> = (0..300)
            .flat_map(|v| {
                g.neighbors(v)
                    .iter()
                    .filter(move |&&u| u < v)
                    .map(move |&u| (v, u))
            })
            .collect();
        let mut messy: Vec<_> = lower.iter().rev().copied().collect();
        messy.extend_from_slice(&lower[..100]);
        messy.push((3, 3));
        for edges in [&lower, &messy] {
            let built = CsrGraph::from_edges(300, edges);
            assert_eq!(built, g);
            assert_eq!(built.heap_bytes(), g.heap_bytes());
            assert_eq!(
                built.heap_bytes(),
                301 * std::mem::size_of::<usize>() + g.num_directed_edges() * 4
            );
        }
    }

    #[test]
    #[should_panic(expected = "edge out of bounds")]
    fn from_edges_rejects_out_of_bounds() {
        CsrGraph::from_edges(3, &[(0, 7)]);
    }

    #[test]
    fn large_from_edges_deterministic() {
        let edges: Vec<(u32, u32)> = (0..50_000u64)
            .map(|i| {
                let h = mis2_prim::hash::splitmix64(i);
                ((h % 1000) as u32, ((h >> 32) % 1000) as u32)
            })
            .collect();
        let g1 = CsrGraph::from_edges(1000, &edges);
        let g2 = mis2_prim::pool::with_pool(1, || CsrGraph::from_edges(1000, &edges));
        assert_eq!(g1, g2);
        g1.validate_symmetric().unwrap();
    }
}
