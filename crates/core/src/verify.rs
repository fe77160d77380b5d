//! Verification of (distance-1 and distance-2) maximal independent sets.
//!
//! The checks are O(V + E):
//!
//! * `cnt[v]` = number of `IN` vertices among `adj(v)`.
//! * **Distance-2 independence**: an `IN` vertex `u` must have (a) no `IN`
//!   neighbor and (b) `cnt[w] <= 1` for every neighbor `w` (the single
//!   permitted `IN` neighbor of `w` being `u` itself — any second one would
//!   lie at distance 2 from `u` through `w`).
//! * **Distance-2 maximality**: every vertex must be `IN`, have an `IN`
//!   neighbor, or have a neighbor with an `IN` neighbor.

use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::par;
use std::fmt;

/// A verification failure, pinpointing a witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MisViolation {
    /// Two set members within the forbidden distance.
    NotIndependent {
        u: VertexId,
        v: VertexId,
        distance: usize,
    },
    /// A vertex that could still be added to the set.
    NotMaximal { v: VertexId },
    /// Mask length does not match the graph.
    BadMask { expected: usize, got: usize },
}

impl fmt::Display for MisViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MisViolation::NotIndependent { u, v, distance } => {
                write!(f, "vertices {u} and {v} are both IN at distance {distance}")
            }
            MisViolation::NotMaximal { v } => {
                write!(f, "vertex {v} could be added to the set (not maximal)")
            }
            MisViolation::BadMask { expected, got } => {
                write!(f, "mask length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for MisViolation {}

/// Count of IN vertices among each vertex's neighbors, scattered from the
/// members: adjacency is symmetric, so `w` appears in `adj(u)` exactly
/// when `u` appears in `adj(w)`, and the walk touches Σ deg(IN) entries
/// instead of every edge.
fn in_neighbor_counts(g: &CsrGraph, is_in: &[bool]) -> Vec<u32> {
    let mut cnt = vec![0u32; g.num_vertices()];
    for u in (0..g.num_vertices()).filter(|&u| is_in[u]) {
        for &w in g.neighbors(u as VertexId) {
            cnt[w as usize] += 1;
        }
    }
    cnt
}

/// Verify that `is_in` is a maximal distance-2 independent set of `g`.
pub fn verify_mis2(g: &CsrGraph, is_in: &[bool]) -> Result<(), MisViolation> {
    let n = g.num_vertices();
    if is_in.len() != n {
        return Err(MisViolation::BadMask {
            expected: n,
            got: is_in.len(),
        });
    }
    let cnt = in_neighbor_counts(g, is_in);

    // Independence.
    if let Some(viol) = par::find_map_range(0..n as VertexId, |u| {
        if !is_in[u as usize] {
            return None;
        }
        for &w in g.neighbors(u) {
            if is_in[w as usize] {
                return Some(MisViolation::NotIndependent {
                    u,
                    v: w,
                    distance: 1,
                });
            }
            if cnt[w as usize] > 1 {
                // Find the concrete distance-2 witness.
                let other = g
                    .neighbors(w)
                    .iter()
                    .copied()
                    .find(|&x| x != u && is_in[x as usize])
                    .expect("cnt > 1 implies another IN neighbor");
                return Some(MisViolation::NotIndependent {
                    u,
                    v: other,
                    distance: 2,
                });
            }
        }
        None
    }) {
        return Err(viol);
    }

    // Maximality.
    if let Some(viol) = par::find_map_range(0..n as VertexId, |v| {
        if is_in[v as usize] || cnt[v as usize] > 0 {
            return None;
        }
        if g.neighbors(v).iter().any(|&w| cnt[w as usize] > 0) {
            return None;
        }
        Some(MisViolation::NotMaximal { v })
    }) {
        return Err(viol);
    }
    Ok(())
}

/// Verify that `is_in` is a maximal (distance-1) independent set of `g`.
pub fn verify_mis1(g: &CsrGraph, is_in: &[bool]) -> Result<(), MisViolation> {
    let n = g.num_vertices();
    if is_in.len() != n {
        return Err(MisViolation::BadMask {
            expected: n,
            got: is_in.len(),
        });
    }
    if let Some(viol) = par::find_map_range(0..n as VertexId, |u| {
        if is_in[u as usize] {
            g.neighbors(u)
                .iter()
                .find(|&&w| is_in[w as usize])
                .map(|&w| MisViolation::NotIndependent {
                    u,
                    v: w,
                    distance: 1,
                })
        } else if !g.neighbors(u).iter().any(|&w| is_in[w as usize]) {
            Some(MisViolation::NotMaximal { v: u })
        } else {
            None
        }
    }) {
        return Err(viol);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_graph::gen;

    fn mask(n: usize, members: &[u32]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &v in members {
            m[v as usize] = true;
        }
        m
    }

    #[test]
    fn accepts_valid_mis2_on_path() {
        // Path 0..6: {0, 3, 6} are pairwise at distance 3.
        let g = gen::path(7);
        verify_mis2(&g, &mask(7, &[0, 3, 6])).unwrap();
    }

    #[test]
    fn rejects_distance1_violation() {
        let g = gen::path(7);
        let err = verify_mis2(&g, &mask(7, &[0, 1])).unwrap_err();
        assert!(
            matches!(err, MisViolation::NotIndependent { distance: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_distance2_violation() {
        let g = gen::path(7);
        let err = verify_mis2(&g, &mask(7, &[0, 2, 5])).unwrap_err();
        assert!(
            matches!(err, MisViolation::NotIndependent { distance: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_non_maximal() {
        // Path of 7: {0} leaves vertices 3..6 at distance > 2.
        let g = gen::path(7);
        let err = verify_mis2(&g, &mask(7, &[0])).unwrap_err();
        assert!(matches!(err, MisViolation::NotMaximal { .. }), "{err}");
    }

    #[test]
    fn rejects_empty_set_on_nonempty_graph() {
        let g = gen::path(3);
        assert!(verify_mis2(&g, &mask(3, &[])).is_err());
    }

    #[test]
    fn accepts_empty_graph() {
        let g = CsrGraph::empty(0);
        verify_mis2(&g, &[]).unwrap();
    }

    #[test]
    fn rejects_bad_mask_length() {
        let g = gen::path(5);
        assert!(matches!(
            verify_mis2(&g, &[true, false]),
            Err(MisViolation::BadMask { .. })
        ));
    }

    #[test]
    fn mis1_checks() {
        let g = gen::path(5);
        // {0, 2, 4} is a valid MIS-1 of a 5-path.
        verify_mis1(&g, &mask(5, &[0, 2, 4])).unwrap();
        // {0, 1} violates independence.
        assert!(matches!(
            verify_mis1(&g, &mask(5, &[0, 1])),
            Err(MisViolation::NotIndependent { distance: 1, .. })
        ));
        // {0} is not maximal.
        assert!(matches!(
            verify_mis1(&g, &mask(5, &[0])),
            Err(MisViolation::NotMaximal { .. })
        ));
    }

    #[test]
    fn scattered_counts_equal_gathered_counts_on_random_masks() {
        use mis2_prim::hash::splitmix64;
        let graphs = [
            gen::erdos_renyi(300, 1200, 1),
            gen::rmat(9, 8, 0.57, 0.19, 0.19, 2),
            gen::laplace3d(7, 6, 5),
            gen::star(40),
            CsrGraph::empty(5),
        ];
        let mut rng = 7u64;
        for g in &graphs {
            let n = g.num_vertices();
            // Densities from empty to full: most masks are not an MIS-2.
            for per_mille in [0u64, 5, 50, 300, 700, 1000] {
                let is_in: Vec<bool> = (0..n)
                    .map(|_| {
                        rng = splitmix64(rng);
                        rng % 1000 < per_mille
                    })
                    .collect();
                let gathered: Vec<u32> = (0..n as VertexId)
                    .map(|v| {
                        g.neighbors(v)
                            .iter()
                            .filter(|&&w| is_in[w as usize])
                            .count() as u32
                    })
                    .collect();
                assert_eq!(in_neighbor_counts(g, &is_in), gathered, "{per_mille}‰");
            }
        }
    }

    #[test]
    fn star_center_or_all_leaves() {
        let g = gen::star(6);
        // The center alone is a valid MIS-2.
        verify_mis2(&g, &mask(6, &[0])).unwrap();
        // A single leaf also dominates everything within distance 2.
        verify_mis2(&g, &mask(6, &[3])).unwrap();
        // Two leaves are at distance 2 through the hub.
        assert!(verify_mis2(&g, &mask(6, &[1, 2])).is_err());
    }
}
