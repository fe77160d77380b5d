//! Algorithm 2 — basic MIS-2 coarsening (Bell et al. / ViennaCL scheme).
//!
//! Each MIS-2 vertex becomes a root and claims its direct neighbors
//! (`agg::claim`, the step Algorithm 3 and D2C root with too);
//! leftover vertices (at distance exactly 2 from some root, guaranteed by
//! maximality) join an adjacent aggregate "arbitrarily". For determinism we
//! resolve "arbitrarily" as the smallest adjacent aggregate id — Bell's GPU
//! implementation used whichever thread won the race.
//!
//! The paper notes (Section II) that this coarsening "tends to produce
//! irregularly shaped aggregates" on structured problems, increasing solver
//! iterations — which is what Algorithm 3 ([`crate::mis2_agg`]) fixes and
//! Table V quantifies (MIS2 Basic: 49 CG iterations vs MIS2 Agg: 22).

use crate::agg::{claim, smallest_adjacent, Aggregation, UNAGGREGATED};
use mis2_core::Mis2Result;
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::par;

/// Algorithm 2 with a freshly computed MIS-2.
pub fn mis2_basic(g: &CsrGraph) -> Aggregation {
    let m = mis2_core::mis2(g);
    mis2_basic_from(g, &m)
}

/// Algorithm 2 from a precomputed MIS-2 (so Figure 7 can time MIS-2 and
/// coarsening with either MIS-2 implementation).
pub fn mis2_basic_from(g: &CsrGraph, m: &Mis2Result) -> Aggregation {
    let n = g.num_vertices();
    let num_aggregates = m.in_set.len();
    let mut labels = vec![UNAGGREGATED; n];

    // Phase 1: roots and their neighbors, aggregate ids in MIS order
    // (sorted by vertex id — deterministic).
    claim(g, &mut labels, &m.in_set, 0);

    // Phase 2: leftovers join the smallest adjacent aggregate. By MIS-2
    // maximality every leftover is at distance 2 from a root, i.e. adjacent
    // to a phase-1 vertex, so one pass reading the phase-1 labels suffices.
    let phase1 = labels.clone();
    par::for_each_mut_indexed(&mut labels, |v, label| {
        if *label == UNAGGREGATED {
            *label = smallest_adjacent(g, v as VertexId, &phase1).unwrap_or(UNAGGREGATED);
        }
    });

    Aggregation {
        labels,
        num_aggregates,
        roots: m.in_set.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_graph::gen;

    #[test]
    fn covers_path() {
        let g = gen::path(20);
        let a = mis2_basic(&g);
        a.validate(&g).unwrap();
        assert!(
            a.num_aggregates >= 4 && a.num_aggregates <= 7,
            "{}",
            a.num_aggregates
        );
    }

    #[test]
    fn covers_random() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(300, 900, seed);
            let a = mis2_basic(&g);
            a.validate(&g).unwrap();
        }
    }

    #[test]
    fn covers_grid() {
        let g = gen::laplace3d(8, 8, 8);
        let a = mis2_basic(&g);
        a.validate(&g).unwrap();
        // 7-pt stencil: aggregates are roughly root + 6 neighbors + a few
        // leftovers -> coarsening rate between 5 and 13.
        let rate = a.mean_size();
        assert!(rate > 4.0 && rate < 14.0, "rate {rate}");
    }

    #[test]
    fn roots_take_own_aggregate() {
        let g = gen::laplace2d(10, 10);
        let m = mis2_core::mis2(&g);
        let a = mis2_basic_from(&g, &m);
        for (idx, &r) in a.roots.iter().enumerate() {
            assert_eq!(a.labels[r as usize] as usize, idx);
        }
    }

    #[test]
    fn root_neighbors_join_root() {
        let g = gen::star(8);
        let a = mis2_basic(&g);
        a.validate(&g).unwrap();
        assert_eq!(a.num_aggregates, 1);
        assert!(a.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn deterministic() {
        let g = gen::erdos_renyi(500, 2000, 4);
        let a = mis2_basic(&g);
        let b = mis2_prim::pool::with_pool(1, || mis2_basic(&g));
        assert_eq!(a, b);
    }

    #[test]
    fn edgeless_graph_all_singletons() {
        let g = CsrGraph::empty(5);
        let a = mis2_basic(&g);
        a.validate(&g).unwrap();
        assert_eq!(a.num_aggregates, 5);
    }
}
