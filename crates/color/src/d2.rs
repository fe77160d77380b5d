//! Distance-2 ("net-based") graph coloring.
//!
//! A distance-2 coloring assigns distinct colors to any two vertices within
//! distance <= 2. The vertices of a given color therefore form a
//! **distance-2 independent set** (not necessarily maximal) — which is
//! exactly why MueLu's D2C aggregation baselines (Table V "Serial D2C",
//! "NB D2C") can use each color class as a wave of aggregate roots.
//!
//! * [`color_d2`] — deterministic parallel Jones–Plassmann over two-hop
//!   neighborhoods (the parallel "net-based" coloring of Taş et al. that
//!   the paper cites for NB D2C); the round loop is [`crate::jp`]'s.
//! * [`color_d2_serial`] — sequential greedy (Serial D2C's coloring step).

use crate::jp::{all_near, free_color, jones_plassmann, UNCOLORED};
use crate::Coloring;
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::{compact, par};

/// Deterministic parallel distance-2 coloring (Jones–Plassmann over
/// two-hop neighborhoods).
pub fn color_d2(g: &CsrGraph, seed: u64) -> Coloring {
    jones_plassmann::<2>(g, seed)
}

/// Speculative parallel distance-2 coloring with conflict resolution — the
/// fast, **nondeterministic** scheme the "NB D2C" baseline of Table V uses
/// in practice (Taş et al. greedy, as wrapped by MueLu): every uncolored
/// vertex speculatively claims the smallest color not visible in its
/// two-hop neighborhood; conflicts (same color within distance 2) uncolor
/// the lower-id endpoint and retry.
pub fn color_d2_speculative(g: &CsrGraph, _seed: u64) -> Coloring {
    use std::sync::atomic::{AtomicU32, Ordering};
    let n = g.num_vertices();
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let mut wl: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rounds = 0usize;
    while !wl.is_empty() {
        rounds += 1;
        let color = |w: VertexId| colors[w as usize].load(Ordering::Relaxed);
        par::for_each(&wl, |&v| {
            colors[v as usize].store(free_color::<2>(g, v, color), Ordering::Relaxed);
        });
        wl = compact::par_filter(&wl, |&v| {
            let cv = color(v);
            let conflict = !all_near::<2>(g, v, |w| !(w > v && color(w) == cv));
            if conflict {
                colors[v as usize].store(UNCOLORED, Ordering::Relaxed);
            }
            conflict
        });
    }
    let colors: Vec<u32> = colors.into_iter().map(|a| a.into_inner()).collect();
    Coloring::from_colors(colors, rounds)
}

/// Sequential greedy distance-2 coloring in natural vertex order.
pub fn color_d2_serial(g: &CsrGraph) -> Coloring {
    let n = g.num_vertices();
    let mut colors = vec![UNCOLORED; n];
    for v in 0..n as VertexId {
        colors[v as usize] = free_color::<2>(g, v, |w| colors[w as usize]);
    }
    Coloring::from_colors(colors, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_coloring_d2;
    use mis2_graph::gen;

    #[test]
    fn path_needs_three_colors() {
        // On a path, vertices at distance 1 and 2 conflict: chromatic
        // number of P_n^2 is 3 for n >= 3.
        let g = gen::path(30);
        for c in [color_d2(&g, 0), color_d2_serial(&g)] {
            verify_coloring_d2(&g, &c.colors).unwrap();
            assert!(c.num_colors >= 3 && c.num_colors <= 4, "{}", c.num_colors);
        }
    }

    #[test]
    fn star_all_leaves_differ() {
        // Every pair of leaves is at distance 2: n colors needed.
        let g = gen::star(10);
        let c = color_d2(&g, 0);
        verify_coloring_d2(&g, &c.colors).unwrap();
        assert_eq!(c.num_colors, 10);
    }

    #[test]
    fn valid_on_random() {
        for seed in 0..3u64 {
            let g = gen::erdos_renyi(150, 450, seed);
            let c = color_d2(&g, seed);
            verify_coloring_d2(&g, &c.colors).unwrap();
            let cs = color_d2_serial(&g);
            verify_coloring_d2(&g, &cs.colors).unwrap();
        }
    }

    #[test]
    fn valid_on_grid() {
        let g = gen::laplace2d(15, 15);
        let c = color_d2(&g, 0);
        verify_coloring_d2(&g, &c.colors).unwrap();
        // 2D 5-pt stencil squared has degree <= 12; greedy stays within 13.
        assert!(c.num_colors <= 13);
    }

    #[test]
    fn deterministic_across_threads() {
        let g = gen::erdos_renyi(400, 1200, 9);
        let a = mis2_prim::pool::with_pool(1, || color_d2(&g, 1));
        let b = mis2_prim::pool::with_pool(4, || color_d2(&g, 1));
        assert_eq!(a, b);
    }

    #[test]
    fn color_classes_are_d2_independent_sets() {
        // The property D2C aggregation relies on.
        let g = gen::laplace2d(12, 12);
        let c = color_d2(&g, 0);
        for color in 0..c.num_colors {
            let members: Vec<u32> = (0..g.num_vertices() as u32)
                .filter(|&v| c.colors[v as usize] == color)
                .collect();
            for &u in &members {
                let near = mis2_graph::ops::neighborhood(&g, u, 2);
                for &w in &near {
                    assert!(
                        c.colors[w as usize] != color,
                        "{u} and {w} share color {color} at distance <= 2"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        assert_eq!(color_d2(&CsrGraph::empty(0), 0).num_colors, 0);
        assert_eq!(color_d2_serial(&CsrGraph::empty(0)).num_colors, 0);
        assert_eq!(color_d2_speculative(&CsrGraph::empty(0), 0).num_colors, 0);
    }

    #[test]
    fn speculative_valid_on_random_and_grid() {
        for seed in 0..3u64 {
            let g = gen::erdos_renyi(150, 450, seed);
            let c = color_d2_speculative(&g, seed);
            verify_coloring_d2(&g, &c.colors).unwrap();
        }
        let g = gen::laplace2d(15, 15);
        let c = color_d2_speculative(&g, 0);
        verify_coloring_d2(&g, &c.colors).unwrap();
    }

    #[test]
    fn speculative_single_thread_one_round() {
        let g = gen::erdos_renyi(200, 600, 1);
        let c = mis2_prim::pool::with_pool(1, || color_d2_speculative(&g, 0));
        verify_coloring_d2(&g, &c.colors).unwrap();
        assert_eq!(c.rounds, 1);
    }
}
