//! Deterministic parallel Jones–Plassmann coloring, at distance 1 or 2.
//!
//! Each round, an uncolored vertex whose `(hash, id)` priority is the strict
//! maximum among the uncolored vertices of its neighborhood (one hop for
//! [`color_d1`], two for [`crate::d2::color_d2`]) claims the smallest color
//! its neighborhood does not hold. The winners of a round lie outside each
//! other's neighborhoods, so they pick their colors in a map over the
//! previous round's color array: the result is independent of thread count.

use crate::Coloring;
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::hash::{hash2, xorshift64_star};
use mis2_prim::{compact, par};

pub(crate) const UNCOLORED: u32 = u32::MAX;

/// `f(w)` for every `w` within `HOPS` (1 or 2) hops of `v` other than `v`,
/// repeats possible, until `f` returns `false`; whether it never did.
#[inline]
pub(crate) fn all_near<const HOPS: usize>(
    g: &CsrGraph,
    v: VertexId,
    mut f: impl FnMut(VertexId) -> bool,
) -> bool {
    g.neighbors(v)
        .iter()
        .all(|&w| f(w) && (HOPS == 1 || g.neighbors(w).iter().all(|&x| x == v || f(x))))
}

/// The Jones–Plassmann rounds over `HOPS`-hop neighborhoods. Priorities
/// are hashed once per vertex.
pub(crate) fn jones_plassmann<const HOPS: usize>(g: &CsrGraph, seed: u64) -> Coloring {
    let n = g.num_vertices();
    let prios: Vec<u64> = par::map_range(0..n as u64, |v| hash2(xorshift64_star, seed, v));
    let pr = |v: VertexId| (prios[v as usize], v);
    let mut colors = vec![UNCOLORED; n];
    let mut wl: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rounds = 0usize;
    while !wl.is_empty() {
        rounds += 1;
        let winners = compact::par_filter(&wl, |&v| {
            let pv = pr(v);
            all_near::<HOPS>(g, v, |w| colors[w as usize] != UNCOLORED || pr(w) < pv)
        });
        debug_assert!(!winners.is_empty(), "JP round stalled");
        let picked = par::map(&winners, |&v| {
            free_color::<HOPS>(g, v, |w| colors[w as usize])
        });
        for (&v, c) in winners.iter().zip(picked) {
            colors[v as usize] = c;
        }
        wl = compact::par_filter(&wl, |&v| colors[v as usize] == UNCOLORED);
    }
    Coloring::from_colors(colors, rounds)
}

/// Smallest color that `color` gives no vertex within `HOPS` hops of `v`.
#[inline]
pub(crate) fn free_color<const HOPS: usize>(
    g: &CsrGraph,
    v: VertexId,
    color: impl Fn(VertexId) -> u32,
) -> u32 {
    let mut used = Vec::new();
    all_near::<HOPS>(g, v, |w| {
        let c = color(w);
        if c != UNCOLORED {
            used.push(c);
        }
        true
    });
    smallest_free(&mut used)
}

/// Smallest color not present in `used`, which it sorts and deduplicates.
#[inline]
fn smallest_free(used: &mut Vec<u32>) -> u32 {
    used.sort_unstable();
    used.dedup();
    let mut c = 0u32;
    for &u in used.iter() {
        if u == c {
            c += 1;
        } else if u > c {
            break;
        }
    }
    c
}

/// Deterministic parallel distance-1 coloring.
///
/// ```
/// let g = mis2_graph::gen::cycle(6);
/// let c = mis2_color::color_d1(&g, 0);
/// mis2_color::verify_coloring_d1(&g, &c.colors).unwrap();
/// assert!(c.num_colors <= 3);
/// ```
pub fn color_d1(g: &CsrGraph, seed: u64) -> Coloring {
    jones_plassmann::<1>(g, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_coloring_d1;
    use mis2_graph::gen;

    #[test]
    fn empty_graph() {
        let c = color_d1(&CsrGraph::empty(0), 0);
        assert_eq!(c.num_colors, 0);
    }

    #[test]
    fn edgeless_one_color() {
        let c = color_d1(&CsrGraph::empty(5), 0);
        assert_eq!(c.num_colors, 1);
        assert!(c.colors.iter().all(|&x| x == 0));
    }

    #[test]
    fn complete_graph_n_colors() {
        let g = gen::complete(6);
        let c = color_d1(&g, 0);
        assert_eq!(c.num_colors, 6);
        verify_coloring_d1(&g, &c.colors).unwrap();
    }

    #[test]
    fn path_two_colors_or_so() {
        let g = gen::path(50);
        let c = color_d1(&g, 0);
        verify_coloring_d1(&g, &c.colors).unwrap();
        assert!(c.num_colors <= 3, "{} colors on a path", c.num_colors);
    }

    #[test]
    fn valid_on_random_graphs() {
        for seed in 0..4u64 {
            let g = gen::erdos_renyi(300, 1200, seed);
            let c = color_d1(&g, seed);
            verify_coloring_d1(&g, &c.colors).unwrap();
            // Greedy bound: at most max_degree + 1 colors.
            assert!(c.num_colors as usize <= g.max_degree() + 1);
        }
    }

    #[test]
    fn valid_on_grid() {
        let g = gen::laplace3d(8, 8, 8);
        let c = color_d1(&g, 0);
        verify_coloring_d1(&g, &c.colors).unwrap();
        assert!(c.num_colors <= 7);
    }

    #[test]
    fn deterministic_across_threads() {
        let g = gen::erdos_renyi(1000, 5000, 3);
        let a = mis2_prim::pool::with_pool(1, || color_d1(&g, 0));
        let b = mis2_prim::pool::with_pool(4, || color_d1(&g, 0));
        assert_eq!(a, b);
    }

    #[test]
    fn smallest_free_logic() {
        assert_eq!(smallest_free(&mut vec![]), 0);
        assert_eq!(smallest_free(&mut vec![0, 1, 2]), 3);
        assert_eq!(smallest_free(&mut vec![1, 2]), 0);
        assert_eq!(smallest_free(&mut vec![0, 2, 3]), 1);
        assert_eq!(smallest_free(&mut vec![2, 0, 0, 1, 5]), 3);
    }
}
