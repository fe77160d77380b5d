//! The Bell/Dalton/Olson MIS-k algorithm — the CUSP / ViennaCL baseline.
//!
//! Bell, Dalton and Olson ("Exposing fine-grained parallelism in algebraic
//! multigrid methods", SISC 2012) compute a maximal distance-k independent
//! set directly, without forming `G^k`: each vertex carries a fixed random
//! tuple `T_v = (status, rand, id)`; every outer iteration propagates the
//! neighborhood minimum `k` times (so each vertex learns the radius-k
//! minimum) and then decides:
//!
//! * `M^k_v == T_v`  — `v` is the radius-k minimum: mark `IN`;
//! * `M^k_v.status == IN` — an `IN` vertex lies within distance k: mark
//!   `OUT`.
//!
//! Differences from Algorithm 1 that the paper's Section V optimizations
//! remove: priorities are chosen **once** (dependency chains can serialize
//! progress — Table I "Fixed"), **all** vertices are processed every
//! iteration (no worklists), and tuples are explicit 3-field structs.
//!
//! This implementation is the comparison target for Figure 6 (CUSP) and,
//! combined with basic coarsening, Figure 7 (ViennaCL), plus the "KK vs
//! CUSP vs ViennaCL" quality comparison of Table IV. Like everything in
//! this crate it is deterministic: "random" tuples come from xorshift\* of
//! the vertex id.

use crate::engine::{Mis2Result, RoundStats};
use crate::tuple::{Status3, TupleRepr, Unpacked};
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::hash::{hash2, xorshift64_star};
use mis2_prim::{compact, par};

/// Compute a maximal distance-`k` independent set with Bell's algorithm.
///
/// `seed` selects the random stream (CUSP and ViennaCL would each draw
/// their own random numbers; different seeds model that).
pub fn bell_mis_k(g: &CsrGraph, k: usize, seed: u64) -> Mis2Result {
    assert!(k >= 1, "distance must be >= 1");
    let n = g.num_vertices();

    // Fixed random tuples (status starts Undecided).
    let mut t: Vec<Unpacked> = par::map_range(0..n as u32, |v| Unpacked {
        status: Status3::Undecided,
        priority: hash2(xorshift64_star, seed, v as u64),
        id: v,
    });

    // Propagation buffers.
    let mut cur: Vec<Unpacked> = vec![Unpacked::OUT; n];
    let mut nxt: Vec<Unpacked> = vec![Unpacked::OUT; n];
    let mut history = Vec::new();
    // `(undecided, in)` vertex counts of `t`.
    let tally = |t: &[Unpacked]| {
        par::map_reduce(
            t,
            |x| (x.is_undecided() as usize, x.is_in() as usize),
            (0, 0),
            |a, b| (a.0 + b.0, a.1 + b.1),
        )
    };
    let (mut undecided, mut ins) = (n, 0);

    while undecided > 0 {
        // M^0 = T.
        par::for_each_mut_indexed(&mut cur, |i, c| *c = t[i]);
        // k propagation rounds: M^i_v = min(M^{i-1}_w : w in adj(v) ∪ {v}).
        for _ in 0..k {
            par::for_each_mut_indexed(&mut nxt, |v, mv| {
                let near = g.neighbors(v as VertexId).iter().map(|&w| cur[w as usize]);
                *mv = near.fold(cur[v], |m, x| m.min(x));
            });
            std::mem::swap(&mut cur, &mut nxt);
        }

        // Decide: T_v's new status reads only T_v and M^k_v.
        par::for_each_mut_indexed(&mut t, |v, tv| {
            if tv.is_undecided() {
                if cur[v] == *tv {
                    tv.status = Status3::In;
                } else if cur[v].is_in() {
                    tv.status = Status3::Out;
                }
            }
        });

        let (left, now_in) = tally(&t);
        let newly_in = now_in - ins;
        let newly_out = undecided - left - newly_in;
        history.push(RoundStats {
            undecided,
            newly_in,
            newly_out,
        });
        // Progress guarantee: the globally minimal undecided tuple either
        // becomes IN (no IN vertex within distance k) or is knocked OUT by
        // one, so at least one vertex is decided per iteration.
        debug_assert!(newly_in + newly_out > 0, "Bell iteration made no progress");
        (undecided, ins) = (left, now_in);
    }

    let is_in: Vec<bool> = par::map(&t, |x| x.is_in());
    let in_set = compact::par_filter_indices(&is_in, |&b| b);
    Mis2Result {
        in_set,
        is_in,
        iterations: history.len(),
        history,
    }
}

/// Bell's algorithm at k = 2 — the exact configuration CUSP's MIS-2 uses.
///
/// ```
/// let g = mis2_graph::gen::laplace2d(10, 10);
/// let r = mis2_core::bell_mis2(&g, 0);
/// mis2_core::verify_mis2(&g, &r.is_in).unwrap();
/// ```
pub fn bell_mis2(g: &CsrGraph, seed: u64) -> Mis2Result {
    bell_mis_k(g, 2, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_mis1, verify_mis2};
    use mis2_graph::gen;

    #[test]
    fn empty() {
        let g = CsrGraph::empty(0);
        assert_eq!(bell_mis2(&g, 0).size(), 0);
    }

    #[test]
    fn edgeless() {
        let g = CsrGraph::empty(7);
        let r = bell_mis2(&g, 0);
        assert_eq!(r.size(), 7);
    }

    #[test]
    fn k1_is_valid_mis1() {
        let g = gen::erdos_renyi(300, 900, 5);
        let r = bell_mis_k(&g, 1, 0);
        verify_mis1(&g, &r.is_in).unwrap();
    }

    #[test]
    fn k2_is_valid_mis2() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(400, 1200, seed);
            let r = bell_mis2(&g, seed);
            verify_mis2(&g, &r.is_in).unwrap();
        }
    }

    #[test]
    fn k2_valid_on_structured() {
        let g = gen::laplace3d(9, 9, 9);
        let r = bell_mis2(&g, 0);
        verify_mis2(&g, &r.is_in).unwrap();
        assert!(r.size() > 20);
    }

    #[test]
    fn k3_is_distance3_independent() {
        let g = gen::laplace2d(20, 20);
        let r = bell_mis_k(&g, 3, 0);
        // Check pairwise distance > 3 via 3-hop neighborhoods.
        for &u in &r.in_set {
            let near = mis2_graph::ops::neighborhood(&g, u, 3);
            for &w in &near {
                assert!(!r.is_in[w as usize], "{u} and {w} within distance 3");
            }
        }
        // Maximality at distance 3: every vertex within 3 hops of the set.
        for v in 0..g.num_vertices() as u32 {
            let covered = r.is_in[v as usize]
                || mis2_graph::ops::neighborhood(&g, v, 3)
                    .iter()
                    .any(|&w| r.is_in[w as usize]);
            assert!(covered, "vertex {v} uncovered");
        }
    }

    #[test]
    fn deterministic() {
        let g = gen::laplace3d(8, 8, 8);
        let a = bell_mis2(&g, 42);
        let b = bell_mis2(&g, 42);
        assert_eq!(a.in_set, b.in_set);
        let c = mis2_prim::pool::with_pool(1, || bell_mis2(&g, 42));
        assert_eq!(a.in_set, c.in_set);
    }

    #[test]
    fn seeds_give_different_sets_similar_sizes() {
        let g = gen::laplace3d(10, 10, 10);
        let a = bell_mis2(&g, 1);
        let b = bell_mis2(&g, 2);
        assert_ne!(a.in_set, b.in_set);
        let ratio = a.size() as f64 / b.size() as f64;
        assert!(
            ratio > 0.8 && ratio < 1.25,
            "sizes {} vs {}",
            a.size(),
            b.size()
        );
    }

    #[test]
    fn fixed_priorities_typically_need_more_iterations() {
        // The Section V-A claim, smoke-tested: on a mid-size mesh the
        // xorshift* refresh converges at least as fast as fixed priorities.
        let g = gen::laplace3d(12, 12, 12);
        let bell = bell_mis2(&g, 0);
        let kk = crate::engine::mis2(&g);
        assert!(
            kk.iterations <= bell.iterations + 2,
            "kk {} vs bell {}",
            kk.iterations,
            bell.iterations
        );
    }
}
