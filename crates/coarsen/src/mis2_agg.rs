//! Algorithm 3 — three-phase MIS-2 aggregation (the paper's "MIS2 Agg").
//!
//! The Kokkos Kernels scheme, a parallel and deterministic version of ML's
//! sequential MIS-2 aggregation (Tuminaro & Tong):
//!
//! * **Phase 1**: compute MIS-2, make each member a root, aggregate it with
//!   its direct neighbors (as Algorithm 2).
//! * **Phase 2**: compute a *second* MIS-2 on the subgraph induced by the
//!   unaggregated vertices; each member with at least 2 unaggregated
//!   neighbors becomes a secondary root (smaller candidates are rejected —
//!   they would cause fill-in during smoothing).
//! * **Phase 3**: every remaining vertex joins the adjacent aggregate with
//!   maximum *coupling* (number of neighbors in that aggregate), breaking
//!   ties toward the smaller aggregate. Coupling and sizes are computed
//!   against the frozen "tentative" labels from the end of phase 2, which
//!   is what keeps this phase parallel **and** deterministic.
//!
//! One completion detail the paper leaves implicit: a phase-2 reject (a
//! secondary MIS-2 root with < 2 unaggregated neighbors) can leave a small
//! pocket of vertices none of whom touch any aggregate. After the paper's
//! phase 3 we sweep such pockets into deterministic singleton/pair
//! aggregates rooted at their smallest vertex (phase 3b below); this only
//! triggers on degenerate graphs (isolated vertices, tiny components) and
//! keeps the partition total.
//!
//! Both MIS-2 calls run on the engine's two fused per-round passes (see
//! [`mis2_core::engine`]); the phase-2 call in particular benefits, since
//! the induced unaggregated subgraph is small and a worklist of at most
//! one dispatch block runs inline with no region wake-up. Aggregation
//! output is byte-identical to the seed engine's because the engine
//! itself is.

use crate::agg::{absorb_root_neighbors, join_leftovers, sweep_pockets, Aggregation, UNAGGREGATED};
use mis2_core::{mis2_with_config, Mis2Config, Mis2Result};
use mis2_graph::{ops, CsrGraph, VertexId};
use mis2_prim::par;
use mis2_prim::SharedMut;

/// Algorithm 3 with the default MIS-2 configuration.
///
/// ```
/// let g = mis2_graph::gen::laplace2d(12, 12);
/// let agg = mis2_coarsen::mis2_aggregation(&g);
/// agg.validate(&g).unwrap();              // complete, connected partition
/// assert!(agg.num_aggregates < g.num_vertices() / 3);
/// ```
pub fn mis2_aggregation(g: &CsrGraph) -> Aggregation {
    mis2_aggregation_with(g, &Mis2Config::default())
}

/// Algorithm 3 with an explicit MIS-2 configuration (both MIS-2 calls use
/// it; phase 2 perturbs the seed so the two runs are independent).
pub fn mis2_aggregation_with(g: &CsrGraph, cfg: &Mis2Config) -> Aggregation {
    mis2_aggregation_from(g, cfg, &mis2_with_config(g, cfg))
}

/// Algorithm 3 from an already-computed phase-1 MIS-2: the paper's
/// Algorithm 3 *starts from* Algorithm 1's output, so a caller that holds
/// it (a cache, a timing harness) need not pay for it again. `m1` must be
/// `mis2_with_config(g, cfg)`; [`mis2_aggregation_with`] is this function
/// on exactly that, so the two agree bit for bit.
pub fn mis2_aggregation_from(g: &CsrGraph, cfg: &Mis2Config, m1: &Mis2Result) -> Aggregation {
    let n = g.num_vertices();
    assert_eq!(m1.is_in.len(), n, "MIS-2 mask length mismatch");
    let mut labels = vec![UNAGGREGATED; n];
    let mut roots: Vec<VertexId> = Vec::new();

    // ---- Phase 1: primary MIS-2 roots + their neighbors -----------------
    for (a, &r) in m1.in_set.iter().enumerate() {
        labels[r as usize] = a as u32;
        roots.push(r);
    }
    absorb_root_neighbors(g, &mut labels);

    // ---- Phase 2: secondary MIS-2 on the unaggregated subgraph ----------
    let keep: Vec<bool> = par::map(&labels, |&l| l == UNAGGREGATED);
    let (sub, new_to_old) = ops::induced_subgraph(g, &keep);
    if sub.num_vertices() > 0 {
        let cfg2 = Mis2Config {
            seed: cfg.seed ^ 0xA66E_57A7,
            ..*cfg
        };
        let m2 = mis2_with_config(&sub, &cfg2);
        // Secondary roots need >= 2 unaggregated neighbors. All neighbors of
        // an unaggregated vertex that are unaggregated appear in `sub`, so
        // the subgraph degree *is* the unaggregated-neighbor count.
        let accepted: Vec<VertexId> = m2
            .in_set
            .iter()
            .copied()
            .filter(|&v2| sub.degree(v2) >= 2)
            .collect();
        let base = roots.len() as u32;
        for (k, &v2) in accepted.iter().enumerate() {
            let v = new_to_old[v2 as usize];
            labels[v as usize] = base + k as u32;
            roots.push(v);
        }
        // Aggregate the secondary roots' unaggregated neighbors. Secondary
        // roots are distance >= 3 apart in `sub`, so no unaggregated vertex
        // neighbors two of them: conflict-free.
        {
            let lw = SharedMut::new(&mut labels);
            par::for_each_indexed(&accepted, |k, &v2| {
                let label = base + k as u32;
                for &w2 in sub.neighbors(v2) {
                    let w = new_to_old[w2 as usize];
                    unsafe { lw.write(w as usize, label) };
                }
            });
        }
    }

    // ---- Phase 3: join leftovers by max coupling -------------------------
    join_leftovers(g, &mut labels, roots.len());

    // ---- Phase 3b: sweep pockets with no adjacent aggregate -------------
    sweep_pockets(g, &mut labels, &mut roots);

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
        let g = gen::laplace3d(8, 8, 8);
        let a = mis2_aggregation(&g);
        a.validate(&g).unwrap();
    }

    #[test]
    fn covers_random() {
        for seed in 0..4 {
            let g = gen::erdos_renyi(400, 1200, seed);
            let a = mis2_aggregation(&g);
            a.validate(&g).unwrap();
        }
    }

    #[test]
    fn covers_sparse_random_with_pockets() {
        // Very sparse graphs exercise phase 3b (isolated vertices, tiny
        // components).
        for seed in 0..4 {
            let g = gen::erdos_renyi(300, 150, seed);
            let a = mis2_aggregation(&g);
            a.validate(&g).unwrap();
        }
    }

    #[test]
    fn isolated_vertices_become_singletons() {
        let g = CsrGraph::empty(4);
        let a = mis2_aggregation(&g);
        a.validate(&g).unwrap();
        assert_eq!(a.num_aggregates, 4);
    }

    #[test]
    fn secondary_phase_adds_regular_aggregates() {
        // Algorithm 3's phase 2 roots *additional* aggregates in the gaps
        // between phase-1 aggregates instead of stuffing leftovers into
        // them (Algorithm 2's behavior, which produces the irregular
        // shapes the paper calls out). So MIS2 Agg has at least as many
        // aggregates as MIS2 Basic, with a tighter size distribution.
        let g = gen::laplace3d(10, 10, 10);
        let basic = crate::basic::mis2_basic(&g);
        let agg = mis2_aggregation(&g);
        agg.validate(&g).unwrap();
        assert!(
            agg.num_aggregates >= basic.num_aggregates,
            "agg {} vs basic {}",
            agg.num_aggregates,
            basic.num_aggregates
        );
        // Size-distribution regularity: the largest aggregate of MIS2 Agg
        // should not exceed MIS2 Basic's largest.
        let max_basic = basic.sizes().into_iter().max().unwrap();
        let max_agg = agg.sizes().into_iter().max().unwrap();
        assert!(max_agg <= max_basic, "max sizes {max_agg} vs {max_basic}");
    }

    #[test]
    fn deterministic_across_threads() {
        let g = gen::laplace2d(25, 25);
        let a = mis2_aggregation(&g);
        let b = mis2_prim::pool::with_pool(1, || mis2_aggregation(&g));
        let c = mis2_prim::pool::with_pool(4, || mis2_aggregation(&g));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn from_a_given_mis2_equals_from_scratch() {
        // The graph families of the `AggScheme` suite, under the default
        // and a reseeded unpacked configuration.
        let graphs = [
            gen::laplace3d(6, 6, 6),
            gen::laplace2d(12, 12),
            gen::erdos_renyi(200, 600, 1),
            gen::path(50),
            CsrGraph::empty(0),
        ];
        let configs = [
            Mis2Config::default(),
            Mis2Config {
                seed: 77,
                packed: false,
                ..Mis2Config::default()
            },
        ];
        for g in &graphs {
            for cfg in &configs {
                let m1 = mis2_with_config(g, cfg);
                let from = mis2_aggregation_from(g, cfg, &m1);
                assert_eq!(from, mis2_aggregation_with(g, cfg));
                // What a memory-bounded cache charges, too.
                assert_eq!(from.heap_bytes(), from.clone().heap_bytes());
            }
        }
    }

    #[test]
    fn roots_consistent() {
        let g = gen::laplace3d(6, 6, 6);
        let a = mis2_aggregation(&g);
        assert_eq!(a.roots.len(), a.num_aggregates);
        for (idx, &r) in a.roots.iter().enumerate() {
            assert_eq!(
                a.labels[r as usize] as usize, idx,
                "root {r} lost its aggregate"
            );
        }
    }

    #[test]
    fn covers_powerlaw_and_deterministic() {
        // R-MAT under the aggregation: hub-heavy phase 1, then a sparse
        // phase-2 subgraph whose lists are a single inline block.
        let g = gen::rmat(11, 8, 0.6, 0.2, 0.1, 42);
        let a = mis2_aggregation(&g);
        a.validate(&g).unwrap();
        let s = mis2_prim::pool::with_pool(1, || mis2_aggregation(&g));
        let p = mis2_prim::pool::with_pool(8, || mis2_aggregation(&g));
        assert_eq!(a, s);
        assert_eq!(a, p);
    }

    #[test]
    fn path_coarsening_rate() {
        let g = gen::path(100);
        let a = mis2_aggregation(&g);
        a.validate(&g).unwrap();
        // Aggregates on a path span 3-5 vertices.
        assert!(a.mean_size() >= 2.5, "rate {}", a.mean_size());
    }
}
