//! Algorithms 2 and 3 equal their serial specifications
//! ([`mis2_coarsen::spec`]) bit for bit: labels, roots and
//! `num_aggregates`, for every Figure 2 ladder config, at pools
//! {1, 2, 3, 5, 8}. The spec runs once per graph and config; every pool
//! size must give its answer.
//!
//! The graphs are those of `tests/proptests.rs`' aggregation properties
//! (the same generator and case streams) and those of
//! `tests/coarsen_golden.rs`: a mesh, an R-MAT and Laplace3D 24³.

use mis2_coarsen::{mis2_aggregation_with, mis2_basic, spec, Aggregation};
use mis2_core::Mis2Config;
use mis2_graph::{gen, CsrGraph};
use mis2_prim::hash::splitmix64;
use mis2_prim::pool::with_pool;

const POOLS: [usize; 5] = [1, 2, 3, 5, 8];

fn assert_same(name: &str, what: &str, got: &Aggregation, want: &Aggregation) {
    assert_eq!(got.labels, want.labels, "{name}: {what}: labels");
    assert_eq!(got.roots, want.roots, "{name}: {what}: roots");
    assert_eq!(got.num_aggregates, want.num_aggregates, "{name}: {what}");
}

/// Algorithm 2, and Algorithm 3 under every ladder config, against the
/// spec at every pool size.
fn assert_equals_spec(name: &str, g: &CsrGraph) {
    let want = spec::basic(g);
    for pool in POOLS {
        let got = with_pool(pool, || mis2_basic(g));
        assert_same(name, &format!("Algorithm 2 at pool {pool}"), &got, &want);
    }
    for (label, cfg) in Mis2Config::ladder() {
        let want = spec::mis2_agg(g, &cfg);
        for pool in POOLS {
            let got = with_pool(pool, || mis2_aggregation_with(g, &cfg));
            let what = format!("Algorithm 3, {label}, at pool {pool}");
            assert_same(name, &what, &got, &want);
        }
    }
}

/// `tests/proptests.rs`' case stream: splitmix64 keyed by test and case.
struct Rng(u64);

impl Rng {
    fn new(test: u64, case: u64) -> Self {
        Rng(splitmix64(test.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case))
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.0 = splitmix64(self.0);
        lo + (self.0 % (hi - lo) as u64) as usize
    }
}

/// `tests/proptests.rs`' `arb_graph`.
fn arb_graph(rng: &mut Rng, max_n: usize, max_m: usize) -> CsrGraph {
    let n = rng.range(2, max_n);
    let m = rng.range(0, max_m);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.range(0, n) as u32, rng.range(0, n) as u32))
        .collect();
    CsrGraph::from_edges(n, &edges)
}

#[test]
fn the_proptest_graphs_aggregate_as_the_spec() {
    // Test ids 6 and 7 are the two aggregation properties' streams.
    for test in [6, 7] {
        for case in 0..64 {
            let g = arb_graph(&mut Rng::new(test, case), 100, 300);
            assert_equals_spec(&format!("test {test} case {case}"), &g);
        }
    }
}

#[test]
fn the_golden_mesh_aggregates_as_the_spec() {
    assert_equals_spec("mesh", &gen::mesh3d(20_000, 22, 0.02, 2, 40, 3, 26, 5));
}

#[test]
fn the_golden_rmat_aggregates_as_the_spec() {
    assert_equals_spec("rmat_13", &gen::rmat(13, 8, 0.57, 0.19, 0.19, 7));
}

#[test]
fn the_golden_grid_aggregates_as_the_spec() {
    assert_equals_spec("laplace3d_24", &gen::laplace3d(24, 24, 24));
}
