//! Sequential greedy aggregation — the "Serial Agg" baseline of Table V.
//!
//! Models MueLu's original host-side aggregation (derived from ML's
//! non-MIS-2 scheme with Wiesner's enhancements): a greedy sweep roots an
//! aggregate at every vertex whose whole neighborhood is still free, then
//! leftovers join the adjacent aggregate with the strongest coupling.
//! Entirely sequential — deterministic, but the paper's Table V shows its
//! aggregation phase is ~20-30x slower than the device-resident schemes.

use crate::agg::{max_coupling, Aggregation, UNAGGREGATED};
use mis2_graph::{CsrGraph, VertexId};

/// Sequential greedy aggregation.
pub fn serial_aggregation(g: &CsrGraph) -> Aggregation {
    let n = g.num_vertices();
    let mut labels = vec![UNAGGREGATED; n];
    let mut roots: Vec<VertexId> = Vec::new();
    let mut sizes: Vec<u32> = Vec::new();

    // Pass 1: root wherever the full closed neighborhood is free.
    for v in 0..n as VertexId {
        if labels[v as usize] != UNAGGREGATED {
            continue;
        }
        if g.neighbors(v)
            .iter()
            .all(|&w| labels[w as usize] == UNAGGREGATED)
        {
            let a = roots.len() as u32;
            labels[v as usize] = a;
            let mut size = 1;
            for &w in g.neighbors(v) {
                labels[w as usize] = a;
                size += 1;
            }
            roots.push(v);
            sizes.push(size);
        }
    }

    // Pass 2: leftovers join by max coupling (ties -> smaller aggregate,
    // then smaller id). Sequential, so sizes update as we go — this is the
    // behavior of the host algorithm, and it is still deterministic.
    for v in 0..n as VertexId {
        if labels[v as usize] != UNAGGREGATED {
            continue;
        }
        match max_coupling(g, v, &labels, &sizes) {
            Some(a) => {
                labels[v as usize] = a;
                sizes[a as usize] += 1;
            }
            None => {
                // Isolated pocket: new singleton aggregate (pass 1 only
                // skips a vertex when a neighbor is aggregated, so this
                // happens only for isolated vertices).
                let a = roots.len() as u32;
                labels[v as usize] = a;
                roots.push(v);
                sizes.push(1);
            }
        }
    }

    let num_aggregates = roots.len();
    Aggregation {
        labels,
        num_aggregates,
        roots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_graph::gen;

    #[test]
    fn covers_grid() {
        let g = gen::laplace3d(7, 7, 7);
        let a = serial_aggregation(&g);
        a.validate(&g).unwrap();
    }

    #[test]
    fn covers_random() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(300, 600, seed);
            let a = serial_aggregation(&g);
            a.validate(&g).unwrap();
        }
    }

    #[test]
    fn first_vertex_roots_first_aggregate() {
        let g = gen::path(10);
        let a = serial_aggregation(&g);
        assert_eq!(a.roots[0], 0);
        assert_eq!(a.labels[0], 0);
        assert_eq!(a.labels[1], 0);
    }

    #[test]
    fn deterministic() {
        let g = gen::erdos_renyi(400, 1600, 7);
        assert_eq!(serial_aggregation(&g), serial_aggregation(&g));
    }

    #[test]
    fn isolated_vertices() {
        let g = CsrGraph::empty(3);
        let a = serial_aggregation(&g);
        a.validate(&g).unwrap();
        assert_eq!(a.num_aggregates, 3);
    }

    #[test]
    fn coarsening_rate_reasonable() {
        let g = gen::laplace2d(20, 20);
        let a = serial_aggregation(&g);
        a.validate(&g).unwrap();
        assert!(a.mean_size() >= 3.0, "rate {}", a.mean_size());
    }
}
