//! Section IV of the paper, checked empirically:
//!
//! * Lemma IV.1/IV.2 — `MIS-1(G²)` is a valid `MIS-2(G)`, stated as an
//!   identity: Bell's MIS-1 of `ops::square(g)` *is* Bell's MIS-2 of `g`,
//!   set, rounds and history, since the radius-1 minimum in `G²` is the
//!   radius-2 minimum in `G`;
//! * Algorithm 1 finishes in O(log V) iterations in expectation;
//! * Table III's shape — MIS-2 size proportional to |V| for a fixed
//!   problem family, iteration growth ~1-2 per 4-8x size increase;
//! * an oracle beyond validity — with `PriorityScheme::Fixed` the order
//!   `(priority, id)` never changes between rounds, so Algorithm 1 is the
//!   parallel greedy MIS of Blelloch, Fineman & Shun on `G²`, whose result
//!   *is* the lexicographically-first set sequential greedy builds. (A
//!   vertex within distance 2 of a fresh `IN` turns `OUT` a round late and
//!   blocks its later neighbours meanwhile; that delays decisions, never
//!   changes one: a vertex enters only once every earlier vertex within
//!   distance 2 is `OUT`, and only an `IN` within distance 2 makes one.)
//!   The serial spec must give that set too, so the engine's bitwise
//!   oracle is itself checked against an independent one.

use mis2::prelude::*;
use mis2_core::tuple::id_bits;
use mis2_core::{bell_mis_k, spec, verify_mis1};
use mis2_graph::{gen, ops, suite};
use mis2_prim::hash::splitmix64;
use mis2_prim::pool::with_pool;

/// Lemma IV.2 on `g` at `seed`: Bell's MIS-1 of `G²` is an MIS-1 of `G²`,
/// an MIS-2 of `G`, and equals Bell's MIS-2 of `G` in full.
fn assert_lemma_iv2(g: &CsrGraph, seed: u64) -> Mis2Result {
    let g2 = ops::square(g);
    let r = bell_mis_k(&g2, 1, seed);
    verify_mis1(&g2, &r.is_in).unwrap();
    verify_mis2(g, &r.is_in).unwrap();
    assert_eq!(
        r,
        bell_mis2(g, seed),
        "MIS-1(G²) != MIS-2(G) at seed {seed}"
    );
    r
}

#[test]
fn lemma_iv2_oracle_agrees_with_direct_verification() {
    for seed in 0..5u64 {
        assert_lemma_iv2(&gen::erdos_renyi(300, 900, seed), seed);
    }
}

#[test]
fn square_graph_distance_semantics() {
    // G² adjacency == distance <= 2 in G (the heart of Lemma IV.1).
    let g = gen::erdos_renyi(120, 360, 3);
    let g2 = ops::square(&g);
    for v in 0..g.num_vertices() as u32 {
        let two_hop = ops::neighborhood(&g, v, 2);
        assert_eq!(g2.neighbors(v), two_hop.as_slice(), "vertex {v}");
    }
}

#[test]
fn mis1_of_square_is_mis2_size_class() {
    // Both MIS-1(G²) and Algorithm 1 produce maximal D2 sets, so both are
    // within the classic factor of each other on bounded-degree graphs.
    let g = gen::laplace3d(10, 10, 10);
    let direct = mis2::mis2(&g);
    let oracle = assert_lemma_iv2(&g, 0);
    let ratio = direct.size() as f64 / oracle.size() as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "{} vs {}",
        direct.size(),
        oracle.size()
    );
}

#[test]
fn iterations_grow_logarithmically() {
    // Quadrupling |V| repeatedly should add O(1) iterations per step
    // (expected O(log V) total).
    let mut previous = 0usize;
    let mut max_step = 0isize;
    for k in [8usize, 16, 32, 64] {
        let g = gen::laplace2d(k, k);
        let r = mis2::mis2(&g);
        if previous > 0 {
            max_step = max_step.max(r.iterations as isize - previous as isize);
        }
        previous = r.iterations;
    }
    assert!(max_step <= 3, "iteration growth per 4x size: {max_step}");
    // Absolute bound: ~c log2(V) with a generous c.
    let g = gen::laplace2d(64, 64);
    let r = mis2::mis2(&g);
    let logv = (g.num_vertices() as f64).log2();
    assert!(
        (r.iterations as f64) < 2.5 * logv,
        "{} iterations vs 2.5 log2(V) = {:.1}",
        r.iterations,
        2.5 * logv
    );
}

#[test]
fn table3_shape_size_proportional_to_v() {
    // For a fixed family, |MIS-2| / |V| is nearly constant as the grid
    // grows (paper Table III: 9.17%, 9.16%, 9.07%, 9.00% for Laplace).
    let fracs: Vec<f64> = [(20, 20, 20), (40, 20, 20), (40, 40, 20)]
        .iter()
        .map(|&(x, y, z)| {
            let g = gen::laplace3d(x, y, z);
            let r = mis2::mis2(&g);
            r.size() as f64 / g.num_vertices() as f64
        })
        .collect();
    let min = fracs.iter().cloned().fold(f64::MAX, f64::min);
    let max = fracs.iter().cloned().fold(f64::MIN, f64::max);
    assert!(max / min < 1.15, "MIS-2 fraction drifted: {fracs:?}");
}

#[test]
fn high_degree_family_has_smaller_fraction() {
    // Paper: Elasticity (avg deg 81) ~0.7% vs Laplace (avg deg 7) ~9%.
    let lap = {
        let g = gen::laplace3d(12, 12, 12);
        mis2::mis2(&g).size() as f64 / g.num_vertices() as f64
    };
    let ela = {
        let g = gen::elasticity3d(7, 7, 7, 3);
        mis2::mis2(&g).size() as f64 / g.num_vertices() as f64
    };
    assert!(lap > 4.0 * ela, "laplace {lap:.4} vs elasticity {ela:.4}");
}

#[test]
fn mis1_of_square_is_bell_mis2_on_grid() {
    // The reduction on a 2D mesh, where G² has 4x the edges of G.
    let g = gen::laplace2d(40, 40);
    for seed in 0..3u64 {
        let r = assert_lemma_iv2(&g, seed);
        let logv = (g.num_vertices() as f64).log2();
        assert!(
            (r.iterations as f64) < 2.5 * logv,
            "{} rounds",
            r.iterations
        );
    }
}

#[test]
fn work_bound_per_iteration_touches_each_edge_once() {
    // Indirect check of the O(V + E) per-iteration bound: with worklists,
    // the sum over iterations of undecided counts is far below
    // iterations * V on structured problems (the paper's motivation for
    // optimization V-B).
    let g = gen::laplace3d(12, 12, 12);
    let r = mis2::mis2(&g);
    let total_processed: usize = r.history.iter().map(|h| h.undecided).sum();
    let dense_equivalent = r.iterations * g.num_vertices();
    assert!(
        total_processed * 2 < dense_equivalent,
        "worklists saved nothing: {total_processed} vs {dense_equivalent}"
    );
}

#[test]
fn torus_removes_boundary_effects_in_mis_fraction() {
    // On a periodic 7-pt grid every vertex has degree exactly 6, so the
    // MIS-2 fraction is slightly below the open-grid value (no low-degree
    // boundary vertices to pack extra members into).
    let open = gen::laplace3d(16, 16, 16);
    let torus = gen::torus3d(16, 16, 16, &gen::OFFSETS_7PT);
    let f_open = mis2::mis2(&open).size() as f64 / open.num_vertices() as f64;
    let f_torus = mis2::mis2(&torus).size() as f64 / torus.num_vertices() as f64;
    assert!(f_torus <= f_open, "torus {f_torus:.4} vs open {f_open:.4}");
    // Both in the Laplace regime (~9%).
    assert!((0.05..0.13).contains(&f_torus));
}

/// Sequential greedy MIS-1 on `G² = ops::square(g)`, visiting vertices in
/// increasing `(fixed priority, id)` — the order Algorithm 1's tuples
/// realize, the priority truncated to the bits a packed tuple keeps. It
/// shares no code with Algorithm 1 or the spec: the distance-2 rows are
/// the squared graph's, built by `ops`.
fn greedy_mis2_in_fixed_order(g: &CsrGraph, seed: u64) -> Vec<bool> {
    let n = g.num_vertices();
    let g2 = ops::square(g);
    let prio_mask = u64::MAX >> id_bits(n);
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_by_key(|&v| (PriorityScheme::Fixed.priority(seed, 0, v) & prio_mask, v));
    let mut is_in = vec![false; n];
    let mut blocked = vec![false; n];
    for v in order {
        if !blocked[v as usize] {
            is_in[v as usize] = true;
            for &w in g2.neighbors(v) {
                blocked[w as usize] = true;
            }
        }
    }
    is_in
}

fn assert_engine_is_greedy(name: &str, g: &CsrGraph, seed: u64) {
    let want = greedy_mis2_in_fixed_order(g, seed);
    assert!(
        spec::mis2(g, PriorityScheme::Fixed, seed).is_in == want,
        "{name}: the spec is not the lexicographically-first set (seed {seed})"
    );
    for packed in [true, false] {
        let cfg = Mis2Config {
            priorities: PriorityScheme::Fixed,
            packed,
            seed,
            ..Mis2Config::default()
        };
        for threads in [1, 3] {
            let got = with_pool(threads, || mis2_with_config(g, &cfg));
            assert!(
                got.is_in == want,
                "{name}: not the lexicographically-first set (seed {seed}, packed {packed}, {threads} threads)"
            );
        }
    }
}

#[test]
fn fixed_priorities_give_the_sequential_greedy_set() {
    for (name, g) in suite::build_all(Scale::Tiny) {
        assert_engine_is_greedy(name, &g, 0);
    }
    // Arbitrary small graphs, drawn the way `tests/proptests.rs` draws
    // them: isolated vertices, duplicate edges and self-loops included.
    for case in 0..64u64 {
        let mut s = splitmix64(0x62_EED ^ case);
        let mut next = |bound: usize| {
            s = splitmix64(s);
            (s % bound as u64) as usize
        };
        let n = 2 + next(118);
        let edges: Vec<(u32, u32)> = (0..next(400))
            .map(|_| (next(n) as u32, next(n) as u32))
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        assert_engine_is_greedy(&format!("case {case}"), &g, case);
    }
}
