//! Generalized deterministic MIS-k: Algorithm 1 extended to arbitrary
//! distance k.
//!
//! Algorithm 1 computes the radius-2 minimum by one Refresh Column pass
//! (radius-1 minima `M_v`) plus a decide pass that consults neighbors'
//! `M_w`. The same idea telescopes: `k - 1` min-propagation passes give
//! every vertex the radius-`(k-1)` minimum, and the decide pass extends it
//! to radius `k`. With fresh xorshift\* priorities per iteration this keeps
//! Algorithm 1's expected `O(log V)` iterations and determinism while
//! generalizing Bell's MIS-k the way the paper's optimizations generalize
//! its k = 2 case (Section V-E explicitly frames them as reusable).
//!
//! For `k = 2` this is exactly Algorithm 1 (without worklists, which do not
//! generalize cleanly: the column-status invalidation radius grows with k);
//! [`crate::engine`] remains the production k = 2 path.

use crate::engine::{Mis2Result, RoundStats};
use crate::priority::PriorityScheme;
use crate::tuple::{id_bits, Packed, TupleRepr};
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::par;
use mis2_prim::{compact, SharedMut};

/// Compute a maximal distance-`k` independent set with per-iteration
/// priorities (deterministic, parallel).
///
/// ```
/// let g = mis2_graph::gen::path(10);
/// // Distance-3 MIS of a 10-path has 2-3 members.
/// let r = mis2_core::mis_k(&g, 3, 0);
/// assert!(r.size() >= 2 && r.size() <= 3);
/// ```
pub fn mis_k(g: &CsrGraph, k: usize, seed: u64) -> Mis2Result {
    assert!(k >= 1, "distance must be >= 1");
    let n = g.num_vertices();
    if n == 0 {
        return Mis2Result {
            in_set: vec![],
            is_in: vec![],
            iterations: 0,
            history: vec![],
        };
    }
    let bits = id_bits(n);
    let prio_mask: u64 = ((1u128 << (64 - bits)) - 1) as u64;
    let scheme = PriorityScheme::XorStar;

    let mut t: Vec<Packed> = vec![Packed::OUT; n];
    let mut m: Vec<Packed> = vec![Packed::OUT; n];
    let mut m_next: Vec<Packed> = vec![Packed::OUT; n];
    let mut history = Vec::new();
    let mut iter: u64 = 0;

    // Initial priorities.
    {
        let tw = SharedMut::new(&mut t);
        par::for_range(0..n as VertexId, |v| {
            let p = scheme.priority(seed, 0, v) & prio_mask;
            unsafe { tw.write(v as usize, Packed::undecided(p, v, bits)) };
        });
    }

    loop {
        let undecided = par::count(&t, |x| x.is_undecided());
        if undecided == 0 {
            break;
        }

        // Propagate the neighborhood minimum. The decide pass below adds
        // one more hop of radius when it consults neighbors' M (k >= 2),
        // so `k - 1` passes suffice; for k = 1 the decide pass only reads
        // the vertex's own M, so one pass is needed here.
        // An IN minimum is translated to the OUT sentinel at the *end* of
        // propagation (not before, as IN must keep winning mins).
        let passes = if k == 1 { 1 } else { k - 1 };
        m.copy_from_slice(&t);
        for _round in 0..passes {
            {
                let mw = SharedMut::new(&mut m_next);
                let m_ref: &[Packed] = &m;
                par::for_range(0..n as VertexId, |v| {
                    let mut mv = m_ref[v as usize];
                    for &w in g.neighbors(v) {
                        mv = mv.min(m_ref[w as usize]);
                    }
                    unsafe { mw.write(v as usize, mv) };
                });
            }
            std::mem::swap(&mut m, &mut m_next);
        }
        // Translate "saw an IN tuple" into the permanent OUT broadcast,
        // exactly like Algorithm 1's line 19-21.
        par::for_each_mut(&mut m, |mv| {
            if mv.is_in() {
                *mv = Packed::OUT;
            }
        });

        // Decide: v IN iff every closed-neighborhood M equals T_v
        // (v is the radius-k strict minimum); OUT iff any M is OUT
        // (an IN vertex within distance k).
        let (newly_in, newly_out) = {
            let tw = SharedMut::new(&mut t);
            let m_ref: &[Packed] = &m;
            par::map_reduce_range(
                0..n as VertexId,
                |v| {
                    let tv = unsafe { tw.read(v as usize) };
                    if !tv.is_undecided() {
                        return (0usize, 0usize);
                    }
                    let mv = m_ref[v as usize];
                    let mut any_out = mv.is_out();
                    let mut all_eq = mv == tv;
                    // For k = 1 the radius-1 minimum is already in M_v;
                    // consulting neighbors would add a hop.
                    if k >= 2 && !any_out {
                        for &w in g.neighbors(v) {
                            let mw_ = m_ref[w as usize];
                            if mw_.is_out() {
                                any_out = true;
                                break;
                            }
                            if mw_ != tv {
                                all_eq = false;
                            }
                        }
                    }
                    if any_out {
                        unsafe { tw.write(v as usize, Packed::OUT) };
                        (0, 1)
                    } else if all_eq {
                        unsafe { tw.write(v as usize, Packed::IN) };
                        (1, 0)
                    } else {
                        (0, 0)
                    }
                },
                (0, 0),
                |a, b| (a.0 + b.0, a.1 + b.1),
            )
        };

        iter += 1;
        history.push(RoundStats {
            undecided,
            newly_in,
            newly_out,
        });
        debug_assert!(newly_in + newly_out > 0, "MIS-k iteration stalled");

        // Fresh priorities for the still-undecided.
        {
            let tw = SharedMut::new(&mut t);
            par::for_range(0..n as VertexId, |v| {
                let cur = unsafe { tw.read(v as usize) };
                if cur.is_undecided() {
                    let p = scheme.priority(seed, iter, v) & prio_mask;
                    unsafe { tw.write(v as usize, Packed::undecided(p, v, bits)) };
                }
            });
        }
    }

    let is_in: Vec<bool> = par::map(&t, |x| x.is_in());
    let in_set = compact::par_filter_indices(&is_in, |&b| b);
    Mis2Result {
        in_set,
        is_in,
        iterations: iter as usize,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_mis1, verify_mis2};
    use mis2_graph::{gen, ops};

    /// Direct distance-k verification via capped BFS.
    fn verify_mis_k(g: &CsrGraph, is_in: &[bool], k: usize) {
        for u in 0..g.num_vertices() as u32 {
            let near = ops::neighborhood(g, u, k);
            if is_in[u as usize] {
                for &w in &near {
                    assert!(
                        !is_in[w as usize],
                        "{u} and {w} both IN within distance {k}"
                    );
                }
            } else {
                let covered = near.iter().any(|&w| is_in[w as usize]);
                assert!(covered, "vertex {u} not within distance {k} of the set");
            }
        }
    }

    #[test]
    fn k1_matches_mis1_semantics() {
        let g = gen::erdos_renyi(300, 900, 4);
        let r = mis_k(&g, 1, 0);
        verify_mis1(&g, &r.is_in).unwrap();
    }

    #[test]
    fn k2_matches_algorithm1_semantics() {
        let g = gen::erdos_renyi(300, 900, 5);
        let r = mis_k(&g, 2, 0);
        verify_mis2(&g, &r.is_in).unwrap();
    }

    #[test]
    fn k2_equals_engine_without_worklists() {
        // Same priorities, same decide rule: mis_k(2) must equal the engine
        // in its no-worklist configuration.
        let g = gen::laplace2d(20, 20);
        let r1 = mis_k(&g, 2, 0);
        let r2 = crate::engine::mis2_with_config(
            &g,
            &crate::engine::Mis2Config {
                use_worklists: false,
                ..Default::default()
            },
        );
        assert_eq!(r1.in_set, r2.in_set);
        assert_eq!(r1.iterations, r2.iterations);
    }

    #[test]
    fn k3_and_k4_valid() {
        for k in [3usize, 4] {
            let g = gen::laplace2d(15, 15);
            let r = mis_k(&g, k, 0);
            verify_mis_k(&g, &r.is_in, k);
        }
    }

    #[test]
    fn k_larger_than_diameter_yields_single_vertex() {
        let g = gen::path(10); // diameter 9
        let r = mis_k(&g, 20, 0);
        assert_eq!(r.size(), 1);
    }

    #[test]
    fn set_size_decreases_with_k() {
        let g = gen::laplace2d(20, 20);
        let sizes: Vec<usize> = (1..=4).map(|k| mis_k(&g, k, 0).size()).collect();
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "sizes should shrink with k: {sizes:?}");
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let g = gen::erdos_renyi(500, 1500, 2);
        let a = mis2_prim::pool::with_pool(1, || mis_k(&g, 3, 7));
        let b = mis2_prim::pool::with_pool(4, || mis_k(&g, 3, 7));
        assert_eq!(a.in_set, b.in_set);
    }

    #[test]
    fn empty_graph() {
        assert_eq!(mis_k(&CsrGraph::empty(0), 3, 0).size(), 0);
    }
}
