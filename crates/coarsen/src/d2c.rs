//! Distance-2-coloring based aggregation — the "Serial D2C" and "NB D2C"
//! baselines of Table V.
//!
//! The vertices of one color class of a distance-2 coloring form a
//! (non-maximal) distance-2 independent set, so MueLu can sweep colors and
//! root aggregates wave by wave:
//!
//! * for each color `c` in increasing order: every still-unaggregated
//!   vertex of color `c` with at least `MIN_UNAGG_NEIGHBORS` unaggregated
//!   neighbors roots an aggregate with those neighbors through
//!   `agg::claim`, the step Algorithms 2 and 3 root with
//!   (conflict-free within a color: two same-colored vertices are at
//!   distance > 2, so they share no neighbor);
//! * leftovers join an adjacent aggregate.
//!
//! "Serial D2C" uses a sequential coloring (reverse-offloaded to host in
//! MueLu); "NB D2C" uses the parallel net-based coloring. MueLu's leftover
//! join races threads, which is why Table V marks both nondeterministic;
//! this reimplementation resolves the join deterministically but keeps the
//! paper's classification in `repro table5` (counts: `tests/repro.rs`).

use crate::agg::{
    claim, join_leftovers, sweep_pockets, Aggregation, MIN_UNAGG_NEIGHBORS, UNAGGREGATED,
};
use mis2_color::{color_d2_serial, color_d2_speculative, ColorSets, Coloring};
use mis2_graph::{CsrGraph, VertexId};

/// Aggregation driven by a distance-2 coloring.
pub fn d2c_aggregation(g: &CsrGraph, coloring: &Coloring) -> Aggregation {
    let n = g.num_vertices();
    let sets = ColorSets::build(coloring);
    let mut labels = vec![UNAGGREGATED; n];
    let mut roots: Vec<VertexId> = Vec::new();

    for c in 0..sets.num_colors() {
        let members = sets.members(c);
        // Root candidates of this color (read-only pass over labels).
        let candidates: Vec<VertexId> = mis2_prim::compact::par_filter(members, |&v| {
            labels[v as usize] == UNAGGREGATED
                && g.neighbors(v)
                    .iter()
                    .filter(|&&w| labels[w as usize] == UNAGGREGATED)
                    .count()
                    >= MIN_UNAGG_NEIGHBORS
        });
        // Same-colored roots share no neighbor (see `claim`).
        claim(g, &mut labels, &candidates, roots.len() as u32);
        roots.extend_from_slice(&candidates);
    }

    // Leftovers join the adjacent aggregate with max coupling, as in
    // Algorithm 3 phase 3; pockets with no adjacent aggregate are swept.
    join_leftovers(g, &mut labels, roots.len());
    sweep_pockets(g, &mut labels, &mut roots);

    let num_aggregates = roots.len();
    Aggregation {
        labels,
        num_aggregates,
        roots,
    }
}

/// "Serial D2C": sequential distance-2 coloring + parallel aggregation.
pub fn serial_d2c_aggregation(g: &CsrGraph) -> Aggregation {
    let coloring = color_d2_serial(g);
    d2c_aggregation(g, &coloring)
}

/// "NB D2C": parallel net-based distance-2 coloring + parallel aggregation.
/// Uses the speculative coloring, like the production implementation the
/// paper classifies as nondeterministic.
pub fn nb_d2c_aggregation(g: &CsrGraph) -> Aggregation {
    let coloring = color_d2_speculative(g);
    d2c_aggregation(g, &coloring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_graph::gen;

    #[test]
    fn covers_grid_both_flavors() {
        let g = gen::laplace3d(7, 7, 7);
        let a = serial_d2c_aggregation(&g);
        a.validate(&g).unwrap();
        let b = nb_d2c_aggregation(&g);
        b.validate(&g).unwrap();
    }

    #[test]
    fn covers_random() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(300, 900, seed);
            serial_d2c_aggregation(&g).validate(&g).unwrap();
            nb_d2c_aggregation(&g).validate(&g).unwrap();
        }
    }

    #[test]
    fn covers_sparse_with_pockets() {
        let g = gen::erdos_renyi(200, 80, 1);
        serial_d2c_aggregation(&g).validate(&g).unwrap();
    }

    #[test]
    fn same_color_roots_never_conflict() {
        // Structural property underpinning the parallel claim phase: no
        // vertex ends up with a label that is not one of its neighbors'
        // roots or its own.
        let g = gen::laplace2d(15, 15);
        let a = nb_d2c_aggregation(&g);
        a.validate(&g).unwrap();
        for v in 0..g.num_vertices() as u32 {
            let l = a.labels[v as usize];
            let root = a.roots[l as usize];
            let ok = root == v || g.neighbors(v).iter().any(|&w| a.labels[w as usize] == l);
            assert!(ok, "vertex {v} disconnected from aggregate {l}");
        }
    }

    #[test]
    fn deterministic_given_coloring() {
        let g = gen::erdos_renyi(400, 1600, 5);
        let coloring = mis2_color::color_d2(&g, 1);
        let a = d2c_aggregation(&g, &coloring);
        let b = mis2_prim::pool::with_pool(1, || d2c_aggregation(&g, &coloring));
        assert_eq!(a, b);
    }

    #[test]
    fn an_invalid_coloring_still_covers_every_vertex() {
        // Every vertex one color: same-colored roots are adjacent and share
        // neighbors, and the 8 000 candidates of that color claim on the
        // pool. Through relaxed cells which root a neighbor joins may vary,
        // but each root keeps itself and each aggregate stays a star.
        let g = gen::laplace3d(20, 20, 20);
        let coloring = Coloring::from_colors(vec![0; g.num_vertices()], 1);
        for pool in [1, 3] {
            let a = mis2_prim::pool::with_pool(pool, || d2c_aggregation(&g, &coloring));
            a.validate(&g).unwrap();
        }
    }

    #[test]
    fn isolated_vertices() {
        let g = CsrGraph::empty(3);
        let a = serial_d2c_aggregation(&g);
        a.validate(&g).unwrap();
        assert_eq!(a.num_aggregates, 3);
    }
}
