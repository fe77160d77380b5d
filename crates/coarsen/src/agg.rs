//! The [`Aggregation`] structure and its validity checks.
//!
//! An aggregation (graph coarsening) partitions the vertices into disjoint
//! connected groups ("aggregates"); each aggregate becomes one vertex of
//! the coarse graph. All schemes in this crate produce a *complete*
//! partition — every vertex is assigned — matching the guarantee the paper
//! derives from MIS-2 maximality (Section III-B).

use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::{cells, par};
use std::fmt;
use std::sync::atomic::Ordering::Relaxed;

/// Sentinel for not-yet-aggregated vertices during construction.
pub const UNAGGREGATED: u32 = u32::MAX;

/// A complete aggregation of a graph's vertices.
#[derive(Debug, PartialEq, Eq)]
pub struct Aggregation {
    /// `labels[v]` = aggregate id in `0..num_aggregates`.
    pub labels: Vec<u32>,
    /// Number of aggregates.
    pub num_aggregates: usize,
    /// The root vertex that seeded each aggregate (u32::MAX when the
    /// aggregate was created without a root, e.g. leftover singletons).
    pub roots: Vec<VertexId>,
}

impl Aggregation {
    /// Approximate heap footprint in bytes (capacity of the label and
    /// root arrays) for memory-bounded caches.
    pub fn heap_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<u32>()
            + self.roots.capacity() * std::mem::size_of::<VertexId>()
    }
}

impl Clone for Aggregation {
    /// Keeps `roots`' capacity (the schemes push roots one by one, so it
    /// exceeds the length): a clone is charged the same
    /// [`Aggregation::heap_bytes`] as its source, and a memory-bounded
    /// cache sees the same pressure whether it computed a value or copied
    /// it.
    fn clone(&self) -> Self {
        let mut roots = Vec::with_capacity(self.roots.capacity());
        roots.extend_from_slice(&self.roots);
        Aggregation {
            labels: self.labels.clone(),
            num_aggregates: self.num_aggregates,
            roots,
        }
    }
}

/// Aggregation defects found by [`Aggregation::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggViolation {
    /// A vertex was never assigned.
    Unassigned { v: VertexId },
    /// A label is out of range.
    BadLabel { v: VertexId, label: u32 },
    /// An aggregate has no members.
    EmptyAggregate { agg: u32 },
    /// An aggregate does not induce a connected subgraph.
    Disconnected { agg: u32 },
}

impl fmt::Display for AggViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggViolation::Unassigned { v } => write!(f, "vertex {v} unassigned"),
            AggViolation::BadLabel { v, label } => write!(f, "vertex {v} has label {label}"),
            AggViolation::EmptyAggregate { agg } => write!(f, "aggregate {agg} empty"),
            AggViolation::Disconnected { agg } => write!(f, "aggregate {agg} disconnected"),
        }
    }
}

impl std::error::Error for AggViolation {}

impl Aggregation {
    /// Number of vertices in each aggregate.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.num_aggregates];
        for &l in &self.labels {
            if l != UNAGGREGATED {
                s[l as usize] += 1;
            }
        }
        s
    }

    /// Mean aggregate size (the coarsening rate).
    pub fn mean_size(&self) -> f64 {
        if self.num_aggregates == 0 {
            0.0
        } else {
            self.labels.len() as f64 / self.num_aggregates as f64
        }
    }

    /// Validate that this is a complete partition into non-empty, connected
    /// aggregates of `g`.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), AggViolation> {
        let n = g.num_vertices();
        assert_eq!(self.labels.len(), n, "label array length mismatch");
        for v in 0..n {
            let l = self.labels[v];
            if l == UNAGGREGATED {
                return Err(AggViolation::Unassigned { v: v as VertexId });
            }
            if l as usize >= self.num_aggregates {
                return Err(AggViolation::BadLabel {
                    v: v as VertexId,
                    label: l,
                });
            }
        }
        let sizes = self.sizes();
        for (a, &s) in sizes.iter().enumerate() {
            if s == 0 {
                return Err(AggViolation::EmptyAggregate { agg: a as u32 });
            }
        }
        // Connectivity: BFS within each aggregate, seeded at each
        // aggregate's first member.
        let mut first = vec![VertexId::MAX; self.num_aggregates];
        for v in 0..n {
            let a = self.labels[v] as usize;
            if first[a] == VertexId::MAX {
                first[a] = v as VertexId;
            }
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for (a, &s) in first.iter().enumerate() {
            let mut count = 0usize;
            queue.clear();
            queue.push_back(s);
            seen[s as usize] = true;
            while let Some(v) = queue.pop_front() {
                count += 1;
                for &w in g.neighbors(v) {
                    if !seen[w as usize] && self.labels[w as usize] as usize == a {
                        seen[w as usize] = true;
                        queue.push_back(w);
                    }
                }
            }
            if count != sizes[a] {
                return Err(AggViolation::Disconnected { agg: a as u32 });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Construction steps shared by the schemes: `claim` roots aggregates,
// `join_leftovers` attaches what the roots left (Algorithm 3 phase 3, D2C),
// and `sweep_pockets` roots what nothing could reach.
// ---------------------------------------------------------------------------

/// Unaggregated neighbours a root needs: Algorithm 3's phase 2 rejects a
/// secondary root with fewer (it would cause fill-in during smoothing), and
/// D2C's "sufficiently many unaggregated neighbors" rule is the same one.
pub(crate) const MIN_UNAGG_NEIGHBORS: usize = 2;

/// Root `roots[k]` takes label `base + k`, and so does each of its
/// neighbours that is still [`UNAGGREGATED`]: the one step that gives a
/// root's label to its neighbours (Algorithm 2, both phases of Algorithm
/// 3, each color wave of D2C). The roots of one call share no unaggregated neighbour — MIS-2
/// roots are at least 3 apart, phase 2's are an MIS-2 of the unaggregated
/// subgraph, and one color of a distance-2 coloring is distance-2
/// independent — so each slot has at most one writer and the result is
/// that of a serial loop. Through relaxed cells a set that breaks this
/// changes which root a neighbour joins, but cannot race: each root keeps
/// itself and each aggregate stays a star.
pub(crate) fn claim(g: &CsrGraph, labels: &mut [u32], roots: &[VertexId], base: u32) {
    let cells = cells::u32_cells(labels);
    par::for_each_indexed(roots, |k, &v| {
        let label = base + k as u32;
        cells[v as usize].store(label, Relaxed);
        for &w in g.neighbors(v) {
            let _ = cells[w as usize].compare_exchange(UNAGGREGATED, label, Relaxed, Relaxed);
        }
    });
}

/// The aggregate adjacent to `v` with maximum coupling (number of `v`'s
/// neighbors in it); ties go to the smaller aggregate by `sizes`, then to
/// the smaller id. `None` when no neighbor is aggregated.
///
/// Allocation-free: each sweep of the row finds the smallest aggregate id
/// above the previous one and its coupling, so the candidates arrive in
/// ascending id and a tie keeps the one already held. `O(deg · k)` for `k`
/// adjacent aggregates, as a candidate list would be.
pub(crate) fn max_coupling(
    g: &CsrGraph,
    v: VertexId,
    labels: &[u32],
    sizes: &[u32],
) -> Option<u32> {
    let row = g.neighbors(v);
    let mut best: Option<(u32, u32)> = None; // (agg, coupling)
    let mut floor = 0u32; // every id below it has been a candidate
    loop {
        // Selects, not branches: which label is smallest is data, not
        // pattern. While `a` is UNAGGREGATED, `c` counts nothing used.
        let (mut a, mut c) = (UNAGGREGATED, 0u32);
        for &w in row {
            let l = labels[w as usize];
            let lower = (l >= floor) & (l < a);
            c = if lower { 1 } else { c + (l == a) as u32 };
            a = if lower { l } else { a };
        }
        if a == UNAGGREGATED {
            return best.map(|(a, _)| a);
        }
        let better =
            best.is_none_or(|(b, bc)| c > bc || (c == bc && sizes[a as usize] < sizes[b as usize]));
        if better {
            best = Some((a, c));
        }
        floor = a + 1;
    }
}

/// The smallest aggregate among the `labels` of `v`'s neighbors, if any.
pub(crate) fn smallest_adjacent(g: &CsrGraph, v: VertexId, labels: &[u32]) -> Option<u32> {
    let near = g.neighbors(v).iter().map(|&w| labels[w as usize]);
    near.filter(|&l| l != UNAGGREGATED).min()
}

/// Every unaggregated vertex joins its [`max_coupling`] aggregate
/// (Algorithm 3 phase 3). Coupling and aggregate sizes are computed
/// against the labels frozen on entry, which is what keeps the step
/// parallel **and** deterministic. Vertices with no aggregated neighbor
/// stay unaggregated.
pub(crate) fn join_leftovers(g: &CsrGraph, labels: &mut [u32], num_aggregates: usize) {
    let tent = labels.to_vec();
    let mut sizes = vec![0u32; num_aggregates];
    for &l in &tent {
        if l != UNAGGREGATED {
            sizes[l as usize] += 1;
        }
    }
    par::for_each_mut_indexed(labels, |v, label| {
        if *label == UNAGGREGATED {
            if let Some(a) = max_coupling(g, v as VertexId, &tent, &sizes) {
                *label = a;
            }
        }
    });
}

/// Sweep the pockets [`join_leftovers`] could not reach (no adjacent
/// aggregate at all) into deterministic aggregates rooted at their
/// smallest vertex. Sequential: it touches only the rare remainder —
/// isolated vertices and tiny components.
pub(crate) fn sweep_pockets(g: &CsrGraph, labels: &mut [u32], roots: &mut Vec<VertexId>) {
    for v in 0..g.num_vertices() as VertexId {
        if labels[v as usize] != UNAGGREGATED {
            continue;
        }
        // Join any adjacent aggregate formed earlier in this sweep (keeps
        // pockets of size 2 together) ...
        labels[v as usize] = smallest_adjacent(g, v, labels).unwrap_or_else(|| {
            // ... or root a new aggregate.
            roots.push(v);
            (roots.len() - 1) as u32
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_graph::gen;

    #[test]
    fn valid_partition() {
        // Path 0-1-2-3: aggregates {0,1} and {2,3}.
        let g = gen::path(4);
        let a = Aggregation {
            labels: vec![0, 0, 1, 1],
            num_aggregates: 2,
            roots: vec![0, 2],
        };
        a.validate(&g).unwrap();
        assert_eq!(a.sizes(), vec![2, 2]);
        assert_eq!(a.mean_size(), 2.0);
    }

    #[test]
    fn max_coupling_prefers_coupling_then_size_then_id() {
        // Vertex 0 is the hub of a star; `labels[w]` is leaf w's aggregate.
        let g = gen::star(8);
        let un = UNAGGREGATED;
        let pick = |labels: &[u32], sizes: &[u32]| max_coupling(&g, 0, labels, sizes);
        // Aggregate 3 holds two leaves, 1 and 2 one each.
        let labels = [un, 3, 1, 3, un, 2, un, un];
        assert_eq!(pick(&labels, &[5, 5, 5, 5]), Some(3));
        // 1 and 3 tie on coupling 2: the smaller aggregate wins, then the
        // smaller id.
        let labels = [un, 3, 1, 3, 1, 2, un, un];
        assert_eq!(pick(&labels, &[5, 6, 5, 4]), Some(3));
        assert_eq!(pick(&labels, &[5, 4, 5, 6]), Some(1));
        assert_eq!(pick(&labels, &[5, 4, 5, 4]), Some(1));
        // No aggregated neighbour.
        assert_eq!(pick(&[un; 8], &[]), None);
    }

    #[test]
    fn detects_unassigned() {
        let g = gen::path(3);
        let a = Aggregation {
            labels: vec![0, UNAGGREGATED, 0],
            num_aggregates: 1,
            roots: vec![0],
        };
        assert!(matches!(
            a.validate(&g),
            Err(AggViolation::Unassigned { v: 1 })
        ));
    }

    #[test]
    fn detects_bad_label() {
        let g = gen::path(2);
        let a = Aggregation {
            labels: vec![0, 5],
            num_aggregates: 1,
            roots: vec![0],
        };
        assert!(matches!(a.validate(&g), Err(AggViolation::BadLabel { .. })));
    }

    #[test]
    fn detects_empty_aggregate() {
        let g = gen::path(2);
        let a = Aggregation {
            labels: vec![0, 0],
            num_aggregates: 2,
            roots: vec![0, 1],
        };
        assert!(matches!(
            a.validate(&g),
            Err(AggViolation::EmptyAggregate { agg: 1 })
        ));
    }

    #[test]
    fn detects_disconnected_aggregate() {
        // Path 0-1-2: {0, 2} is not connected.
        let g = gen::path(3);
        let a = Aggregation {
            labels: vec![0, 1, 0],
            num_aggregates: 2,
            roots: vec![0, 1],
        };
        assert!(matches!(
            a.validate(&g),
            Err(AggViolation::Disconnected { agg: 0 })
        ));
    }
}
