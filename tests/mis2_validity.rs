//! Cross-crate validity tests: Algorithm 1 (all configurations), the Bell
//! baseline and the Lemma IV.2 reduction (Bell's MIS-1 of `G²`) must
//! produce valid MIS-2 sets on every graph family the generators can
//! produce, and Bell at k = 1 valid MIS-1 sets.

use mis2::prelude::*;
use mis2_core::{bell_mis_k, verify_mis1};
use mis2_graph::{gen, ops};

fn family_zoo(seed: u64) -> Vec<(String, CsrGraph)> {
    vec![
        ("path".into(), gen::path(200)),
        ("cycle".into(), gen::cycle(201)),
        ("star".into(), gen::star(100)),
        ("complete".into(), gen::complete(40)),
        (
            "erdos_renyi_sparse".into(),
            gen::erdos_renyi(400, 500, seed),
        ),
        (
            "erdos_renyi_dense".into(),
            gen::erdos_renyi(300, 4000, seed),
        ),
        ("laplace2d".into(), gen::laplace2d(20, 25)),
        ("laplace3d".into(), gen::laplace3d(8, 9, 10)),
        ("elasticity3d".into(), gen::elasticity3d(5, 5, 5, 3)),
        ("rmat".into(), gen::rmat(9, 8, 0.57, 0.19, 0.19, seed)),
        ("regularish".into(), gen::random_regular_ish(500, 6, seed)),
        ("honeycomb".into(), mis2_graph::suite::honeycomb(20, 20)),
        (
            "mesh3d".into(),
            gen::mesh3d(4000, 18, 0.05, 3, 40, 4, 20, seed),
        ),
        ("empty".into(), CsrGraph::empty(50)),
        ("single".into(), CsrGraph::empty(1)),
    ]
}

#[test]
fn algorithm1_valid_on_all_families() {
    for seed in 0..2u64 {
        for (name, g) in family_zoo(seed) {
            let r = mis2::mis2(&g);
            verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("{name} (seed {seed}): {e}"));
        }
    }
}

#[test]
fn bell_baseline_valid_on_all_families() {
    for (name, g) in family_zoo(1) {
        let r = bell_mis2(&g, 3);
        verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn oracle_valid_on_all_families() {
    for (name, g) in family_zoo(2) {
        let g2 = ops::square(&g);
        let r = bell_mis_k(&g2, 1, 5);
        verify_mis1(&g2, &r.is_in).unwrap_or_else(|e| panic!("{name}: G²: {e}"));
        verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(r, bell_mis2(&g, 5), "{name}: MIS-1(G²) != MIS-2(G)");
    }
}

#[test]
fn mis1_valid_on_all_families() {
    for (name, g) in family_zoo(3) {
        let r = bell_mis_k(&g, 1, 7);
        verify_mis1(&g, &r.is_in).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn every_engine_config_valid_on_zoo_sample() {
    let g = gen::erdos_renyi(600, 2400, 9);
    for priorities in [
        PriorityScheme::Fixed,
        PriorityScheme::XorHash,
        PriorityScheme::XorStar,
    ] {
        for use_worklists in [false, true] {
            for packed in [false, true] {
                let cfg = Mis2Config {
                    priorities,
                    use_worklists,
                    packed,
                    seed: 0,
                };
                let r = mis2_with_config(&g, &cfg);
                verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
            }
        }
    }
}

#[test]
fn suite_graphs_produce_valid_mis2() {
    for (name, g) in mis2_graph::suite::build_all(Scale::Tiny) {
        let r = mis2::mis2(&g);
        verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Sanity on the quality metric: a maximal D2 set on a bounded-degree
        // graph cannot be vanishingly small: |MIS2| * (1 + d + d^2) >= |V|.
        let d = g.max_degree();
        let bound = g.num_vertices() / (1 + d + d * d);
        assert!(
            r.size() >= bound.max(1),
            "{name}: size {} < bound {bound}",
            r.size()
        );
    }
}

#[test]
fn disconnected_graph_handled() {
    // Two components + isolated vertices.
    let mut edges = Vec::new();
    for i in 0..50u32 {
        if i + 1 < 50 {
            edges.push((i, i + 1));
        }
    }
    for i in 60..110u32 {
        if i + 1 < 110 {
            edges.push((i, i + 1));
        }
    }
    let g = CsrGraph::from_edges(120, &edges);
    let r = mis2::mis2(&g);
    verify_mis2(&g, &r.is_in).unwrap();
    // Isolated vertices 110..120 must all be IN.
    for v in 110..120 {
        assert!(r.is_in[v], "isolated vertex {v} not IN");
    }
}
