//! Property-based tests over the core invariants, driven by a small
//! deterministic case generator (the container builds offline, so the
//! `proptest` crate is replaced by explicit splitmix64-seeded sampling —
//! same properties, reproducible cases):
//!
//! * Algorithm 1 produces a valid MIS-2 on arbitrary graphs;
//! * determinism: thread count never changes the result;
//! * packed tuples preserve the lexicographic comparison;
//! * aggregation is a complete partition into connected aggregates;
//! * Lemma IV.2: Bell's MIS-1 of `G²` is its MIS-2 of `G`, in full;
//! * colorings are proper;
//! * the parallel scan equals the sequential prefix sum.

use mis2::prelude::*;
use mis2_core::tuple::{id_bits, Packed, TupleRepr, Unpacked};
use mis2_core::{bell_mis_k, verify_mis1};
use mis2_prim::hash::splitmix64;

/// Deterministic stream of pseudo-random u64s for one test case.
struct Rng(u64);

impl Rng {
    fn new(test: u64, case: u64) -> Self {
        Rng(splitmix64(test.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

const CASES: u64 = 64;

/// A random undirected graph with `2..max_n` vertices and `0..max_m`
/// candidate edges (duplicates and self-loops are dropped by the builder).
fn arb_graph(rng: &mut Rng, max_n: usize, max_m: usize) -> CsrGraph {
    let n = rng.range(2, max_n);
    let m = rng.range(0, max_m);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.range(0, n) as u32, rng.range(0, n) as u32))
        .collect();
    CsrGraph::from_edges(n, &edges)
}

#[test]
fn mis2_always_valid() {
    for case in 0..CASES {
        let g = arb_graph(&mut Rng::new(1, case), 120, 400);
        let r = mis2::mis2(&g);
        assert!(verify_mis2(&g, &r.is_in).is_ok(), "case {case}");
    }
}

#[test]
fn mis2_valid_for_any_seed() {
    for case in 0..CASES {
        let mut rng = Rng::new(2, case);
        let g = arb_graph(&mut rng, 80, 200);
        let seed = rng.next();
        let r = mis2_with_config(
            &g,
            &Mis2Config {
                seed,
                ..Default::default()
            },
        );
        assert!(verify_mis2(&g, &r.is_in).is_ok(), "case {case} seed {seed}");
    }
}

#[test]
fn bell_always_valid() {
    for case in 0..CASES {
        let mut rng = Rng::new(3, case);
        let g = arb_graph(&mut rng, 100, 300);
        let r = bell_mis2(&g, rng.next());
        assert!(verify_mis2(&g, &r.is_in).is_ok(), "case {case}");
    }
}

#[test]
fn mis2_thread_count_invariant() {
    for case in 0..CASES / 4 {
        let g = arb_graph(&mut Rng::new(4, case), 100, 300);
        let a = mis2_prim::pool::with_pool(1, || mis2::mis2(&g));
        let b = mis2_prim::pool::with_pool(3, || mis2::mis2(&g));
        assert_eq!(a.in_set, b.in_set, "case {case}");
    }
}

#[test]
fn packed_tuple_order_matches_unpacked() {
    for case in 0..CASES * 4 {
        let mut rng = Rng::new(5, case);
        let n = rng.range(2, 1_000_000);
        let bits = id_bits(n);
        let mask = if bits == 64 {
            0
        } else {
            (1u64 << (64 - bits)) - 1
        };
        let (q1, q2) = (rng.next() & mask, rng.next() & mask);
        let (id1, id2) = (rng.range(0, 1000) as u32, rng.range(0, 1000) as u32);
        let a = Packed::undecided(q1, id1, bits);
        let b = Packed::undecided(q2, id2, bits);
        let ua = Unpacked::undecided(q1, id1, bits);
        let ub = Unpacked::undecided(q2, id2, bits);
        assert_eq!(a.cmp(&b), ua.cmp(&ub), "case {case}");
        // Sentinels bracket everything.
        assert!(a > Packed::IN && a < Packed::OUT, "case {case}");
    }
}

#[test]
fn aggregation_is_connected_partition() {
    for case in 0..CASES {
        let g = arb_graph(&mut Rng::new(6, case), 100, 300);
        let a = mis2_aggregation(&g);
        assert!(a.validate(&g).is_ok(), "case {case}");
        assert_eq!(a.labels.len(), g.num_vertices());
    }
}

#[test]
fn basic_coarsening_is_connected_partition() {
    for case in 0..CASES {
        let g = arb_graph(&mut Rng::new(7, case), 100, 300);
        let a = mis2_basic(&g);
        assert!(a.validate(&g).is_ok(), "case {case}");
    }
}

#[test]
fn d1_coloring_proper() {
    for case in 0..CASES {
        let mut rng = Rng::new(8, case);
        let g = arb_graph(&mut rng, 100, 300);
        let c = color_d1(&g, rng.next());
        assert!(
            mis2_color::verify_coloring_d1(&g, &c.colors).is_ok(),
            "case {case}"
        );
        assert!(c.num_colors as usize <= g.max_degree() + 1, "case {case}");
    }
}

#[test]
fn d2_coloring_proper() {
    for case in 0..CASES {
        let mut rng = Rng::new(9, case);
        let g = arb_graph(&mut rng, 60, 150);
        let c = color_d2(&g, rng.next());
        assert!(
            mis2_color::verify_coloring_d2(&g, &c.colors).is_ok(),
            "case {case}"
        );
    }
}

#[test]
fn scan_matches_sequential() {
    for case in 0..CASES {
        let mut rng = Rng::new(10, case);
        let len = rng.range(0, 5000);
        let v: Vec<usize> = (0..len).map(|_| rng.range(0, 1000)).collect();
        let (got, total) = mis2_prim::scan::exclusive_scan(&v);
        let mut run = 0usize;
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(got[i], run, "case {case} index {i}");
            run += x;
        }
        assert_eq!(total, run, "case {case}");
    }
}

#[test]
fn par_filter_matches_sequential() {
    for case in 0..CASES {
        let mut rng = Rng::new(11, case);
        let len = rng.range(0, 5000);
        let v: Vec<u32> = (0..len).map(|_| rng.next() as u32).collect();
        let got = mis2_prim::compact::par_filter(&v, |&x| x % 3 == 0);
        let want: Vec<u32> = v.iter().copied().filter(|&x| x % 3 == 0).collect();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn quotient_graph_well_formed() {
    for case in 0..CASES {
        let g = arb_graph(&mut Rng::new(12, case), 80, 240);
        let agg = mis2_aggregation(&g);
        let q = mis2_coarsen::quotient_graph(&g, &agg);
        assert_eq!(q.num_vertices(), agg.num_aggregates, "case {case}");
        assert!(q.validate_symmetric().is_ok(), "case {case}");
        // Oracle: the construction `quotient_graph` used before it built
        // rows per aggregate — the cross-aggregate pairs through
        // `from_edges`, which counts, scatters and sort-dedups them.
        let mut cross = Vec::new();
        for v in 0..g.num_vertices() as u32 {
            let la = agg.labels[v as usize];
            for &w in g.neighbors(v) {
                let lb = agg.labels[w as usize];
                if la < lb {
                    cross.push((la, lb));
                }
            }
        }
        let want = CsrGraph::from_edges(agg.num_aggregates, &cross);
        assert_eq!(q, want, "case {case}");
    }
}

#[test]
fn spgemm_identity_is_identity() {
    for case in 0..CASES {
        let n = Rng::new(13, case).range(1, 60);
        let i = CsrMatrix::identity(n);
        let c = mis2_sparse::spgemm(&i, &i);
        assert_eq!(c, i, "case {case}");
    }
}

#[test]
fn bell_mis1_valid() {
    for case in 0..CASES {
        let mut rng = Rng::new(14, case);
        let g = arb_graph(&mut rng, 100, 300);
        let r = bell_mis_k(&g, 1, rng.next());
        assert!(verify_mis1(&g, &r.is_in).is_ok(), "case {case}");
    }
}

#[test]
fn oracle_matches_lemma() {
    // Lemma IV.2 as an identity: Bell's MIS-1 of G² is an MIS-1 of G², an
    // MIS-2 of G, and Bell's MIS-2 of G in full.
    for case in 0..CASES {
        let mut rng = Rng::new(15, case);
        let g = arb_graph(&mut rng, 60, 150);
        let seed = rng.next();
        let g2 = mis2::graph::ops::square(&g);
        let r = bell_mis_k(&g2, 1, seed);
        assert!(verify_mis1(&g2, &r.is_in).is_ok(), "case {case}: G²");
        assert!(verify_mis2(&g, &r.is_in).is_ok(), "case {case}");
        assert_eq!(r, bell_mis2(&g, seed), "case {case}");
    }
}

#[test]
fn mtx_roundtrip_is_identity_and_byte_stable() {
    // write -> read must reproduce the graph exactly: a CsrGraph is
    // already symmetric with no self-loops, so the reader's
    // symmetrization + diagonal-drop normalization is idempotent on
    // anything the writer emits. A second write must also be
    // byte-identical to the first (stable serialization).
    use mis2::graph::io;
    use std::io::Cursor;
    for case in 0..CASES {
        let mut rng = Rng::new(16, case);
        let g = arb_graph(&mut rng, 90, 350);
        let mut buf = Vec::new();
        io::write_graph(&g, &mut buf).unwrap();
        let g2 = io::read_graph(Cursor::new(&buf)).unwrap();
        assert_eq!(g, g2, "case {case}: write->read must be the identity");
        let mut buf2 = Vec::new();
        io::write_graph(&g2, &mut buf2).unwrap();
        assert_eq!(buf, buf2, "case {case}: serialization must be byte-stable");
    }
}

#[test]
fn mtx_read_normalizes_arbitrary_coordinate_files() {
    // Hand-rolled Matrix Market input with duplicates, self-loops and
    // one-directional entries: reading symmetrizes and drops diagonals,
    // so a round-trip through write->read afterwards is a fixed point.
    use mis2::graph::io;
    use std::io::Cursor;
    for case in 0..CASES {
        let mut rng = Rng::new(17, case);
        let n = rng.range(2, 40);
        let m = rng.range(0, 120);
        let mut mtx = format!("%%MatrixMarket matrix coordinate pattern general\n{n} {n} {m}\n");
        for _ in 0..m {
            let r = rng.range(1, n + 1);
            let c = rng.range(1, n + 1);
            mtx.push_str(&format!("{r} {c}\n"));
        }
        let g = io::read_graph(Cursor::new(mtx.as_bytes())).unwrap();
        g.validate_symmetric()
            .unwrap_or_else(|e| panic!("case {case}: read graph asymmetric: {e}"));
        for v in 0..g.num_vertices() as u32 {
            assert!(!g.has_edge(v, v), "case {case}: self-loop survived read");
        }
        let mut buf = Vec::new();
        io::write_graph(&g, &mut buf).unwrap();
        let g2 = io::read_graph(Cursor::new(&buf)).unwrap();
        assert_eq!(g, g2, "case {case}: normalization must be idempotent");
    }
}
