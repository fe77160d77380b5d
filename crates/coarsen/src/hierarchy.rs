//! Multilevel coarsening: quotient graphs and recursive hierarchies.
//!
//! Two consumers:
//!
//! * **Cluster Gauss-Seidel** (Algorithm 4 line 3) coarsens once and colors
//!   the coarse graph — [`quotient_graph`] builds that coarse graph.
//! * **Multilevel partitioning / analysis** (Gilbert et al., cited as the
//!   paper's other application): coarsen recursively until the graph is
//!   small — [`coarsen_recursive`]. Such clients re-coarsen one graph
//!   level by level, so [`extend`] resumes the same loop from an MIS-2 or
//!   a shorter hierarchy the caller already holds.

use crate::agg::Aggregation;
use crate::mis2_agg::{mis2_aggregation_from, mis2_aggregation_with};
use mis2_core::{Mis2Config, Mis2Result};
use mis2_graph::CsrGraph;

/// The coarse (quotient) graph of an aggregation: one vertex per aggregate,
/// an edge between two aggregates iff some original edge crosses them.
pub fn quotient_graph(g: &CsrGraph, agg: &Aggregation) -> CsrGraph {
    mis2_graph::ops::quotient(g, &agg.labels, agg.num_aggregates)
}

/// One level of a multilevel hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Level {
    /// The graph at this level (level 0 = input graph).
    pub graph: CsrGraph,
    /// Aggregation used to produce the *next* level (`None` on the
    /// coarsest level).
    pub agg: Option<Aggregation>,
}

impl Level {
    /// Approximate heap footprint in bytes of this level (graph plus
    /// aggregation) for memory-bounded caches.
    pub fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes() + self.agg.as_ref().map_or(0, |a| a.heap_bytes())
    }
}

/// Approximate heap footprint in bytes of a whole hierarchy (the
/// finest-to-coarsest `Vec<Level>` returned by [`coarsen_recursive`]).
pub fn hierarchy_heap_bytes(levels: &[Level]) -> usize {
    levels.iter().map(Level::heap_bytes).sum()
}

/// Recursively coarsen with Algorithm 3 until `min_vertices` is reached or
/// `max_levels` produced. Returns the levels from finest to coarsest.
pub fn coarsen_recursive(g: &CsrGraph, min_vertices: usize, max_levels: usize) -> Vec<Level> {
    extend(g, &[], None, min_vertices, max_levels)
}

/// [`coarsen_recursive`] resumed from what the caller already holds, with
/// the same result bit for bit (every step is deterministic):
///
/// * `prefix` — an earlier `coarsen_recursive(g, min_vertices, k)` with
///   `k <= max_levels`, or empty. Its levels are cloned and the loop
///   carries on from its coarsest graph, the one level without an
///   aggregation yet. A prefix that had already stopped (small enough, or
///   no progress) stops again at once and comes back unchanged.
/// * `mis2` — `mis2_core::mis2` of the graph the loop resumes from (`g`
///   itself under an empty prefix): phase 1 of that level's aggregation.
///
/// The result is charged the same [`hierarchy_heap_bytes`] from any start:
/// levels are pushed one by one, prefix or not, so the vector grows the
/// same way, and [`Aggregation`]'s `Clone` keeps its capacities.
pub fn extend(
    g: &CsrGraph,
    prefix: &[Level],
    mut mis2: Option<&Mis2Result>,
    min_vertices: usize,
    max_levels: usize,
) -> Vec<Level> {
    let mut levels: Vec<Level> = Vec::new();
    let mut cur = match prefix.split_last() {
        Some((coarsest, finer)) => {
            debug_assert!(coarsest.agg.is_none(), "prefix ends in a finished level");
            for level in finer {
                levels.push(level.clone());
            }
            coarsest.graph.clone()
        }
        None => g.clone(),
    };
    let cfg = Mis2Config::default();
    while levels.len() + 1 < max_levels && cur.num_vertices() > min_vertices {
        let agg = match mis2.take() {
            Some(m1) => mis2_aggregation_from(&cur, &cfg, m1),
            None => mis2_aggregation_with(&cur, &cfg),
        };
        if agg.num_aggregates >= cur.num_vertices() {
            break; // no progress (e.g. edgeless graph)
        }
        let coarse = quotient_graph(&cur, &agg);
        levels.push(Level {
            graph: cur,
            agg: Some(agg),
        });
        cur = coarse;
    }
    levels.push(Level {
        graph: cur,
        agg: None,
    });
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_graph::gen;

    #[test]
    fn quotient_of_path() {
        // Path 0-1-2-3 with aggregates {0,1}, {2,3} -> coarse path of 2.
        let g = gen::path(4);
        let agg = Aggregation {
            labels: vec![0, 0, 1, 1],
            num_aggregates: 2,
            roots: vec![0, 2],
        };
        let q = quotient_graph(&g, &agg);
        assert_eq!(q.num_vertices(), 2);
        assert_eq!(q.num_edges(), 1);
        assert!(q.has_edge(0, 1));
    }

    #[test]
    fn quotient_no_self_loops() {
        let g = gen::laplace2d(10, 10);
        let agg = crate::mis2_agg::mis2_aggregation(&g);
        let q = quotient_graph(&g, &agg);
        q.validate_symmetric().unwrap();
        for v in 0..q.num_vertices() as u32 {
            assert!(!q.has_edge(v, v));
        }
    }

    #[test]
    fn quotient_connectivity_preserved() {
        // A connected graph coarsens to a connected graph.
        let g = gen::laplace3d(6, 6, 6);
        let agg = crate::mis2_agg::mis2_aggregation(&g);
        let q = quotient_graph(&g, &agg);
        let (nc, _) = mis2_graph::ops::connected_components(&q);
        assert_eq!(nc, 1);
    }

    #[test]
    fn recursive_coarsening_shrinks() {
        let g = gen::laplace2d(30, 30);
        let levels = coarsen_recursive(&g, 10, 10);
        assert!(levels.len() >= 3, "only {} levels", levels.len());
        for w in levels.windows(2) {
            assert!(w[1].graph.num_vertices() < w[0].graph.num_vertices());
        }
        let coarsest = levels.last().unwrap();
        assert!(coarsest.graph.num_vertices() <= 30, "coarsest too big");
        assert!(coarsest.agg.is_none());
    }

    #[test]
    fn recursion_stops_on_small_input() {
        let g = gen::path(5);
        let levels = coarsen_recursive(&g, 10, 10);
        assert_eq!(levels.len(), 1);
    }

    #[test]
    fn extend_from_any_start_equals_from_scratch() {
        // Same levels and the same charged bytes, whether the loop starts
        // from the graph, from its MIS-2 or from a shorter hierarchy —
        // one that already stopped (k = 5, 6 here) included.
        let g = gen::laplace2d(30, 30);
        let mis2 = mis2_core::mis2(&g);
        let scratch: Vec<Vec<Level>> = (1..=6).map(|n| coarsen_recursive(&g, 10, n)).collect();
        assert_eq!(scratch[5].len(), 4, "the 30x30 grid ends at four levels");
        for (n, want) in (1..=6).zip(&scratch) {
            let from_mis2 = extend(&g, &[], Some(&mis2), 10, n);
            let from_prefixes = scratch[..n - 1].iter().map(|p| extend(&g, p, None, 10, n));
            for got in [from_mis2].into_iter().chain(from_prefixes) {
                assert_eq!(&got, want);
                assert_eq!(got.capacity(), want.capacity());
                assert_eq!(hierarchy_heap_bytes(&got), hierarchy_heap_bytes(want));
            }
        }
    }

    #[test]
    fn max_levels_respected() {
        let g = gen::laplace2d(40, 40);
        let levels = coarsen_recursive(&g, 2, 3);
        assert!(levels.len() <= 3);
    }
}
