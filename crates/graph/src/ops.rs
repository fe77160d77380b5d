//! Graph operations: squaring (G²), induced subgraphs, quotient graphs,
//! connected components, degree histograms.
//!
//! `square` implements the reduction behind Lemma IV.2 of the paper:
//! an MIS-1 of `G²` (with self-loops) is a valid MIS-2 of `G`. The tests
//! state the lemma with it as an identity: Bell's MIS-1 of `G²` is Bell's
//! MIS-2 of `G`.

use crate::csr::{CsrGraph, VertexId};

/// `G²`: vertices `u != v` adjacent iff a path of length 1 or 2 connects
/// them in `g` (self-loops excluded, consistent with [`CsrGraph`]'s
/// invariants — callers treat the self relation implicitly).
///
/// Cost is `O(sum_v (d(v) + sum_{w in N(v)} d(w)))`, plus an `O(|V|)` stamp
/// array per block of `ROW_BLOCK` rows; intended for tests and oracles, not
/// for the production MIS-2 path (avoiding exactly this blow-up is the
/// point of Bell's direct MIS-k scheme the paper builds on).
pub fn square(g: &CsrGraph) -> CsrGraph {
    let n = g.num_vertices();
    // One stamp per vertex per row block, like `spgemm`'s accumulator:
    // `seen[x] == v` once row `v` holds `x` (or `x` is `v`), so a vertex
    // reached by several paths is pushed once and only the row is sorted.
    CsrGraph::from_row_blocks(
        n,
        || vec![VertexId::MAX; n],
        |seen, v, row| {
            let v = v as VertexId;
            let start = row.len();
            seen[v as usize] = v;
            for &w in g.neighbors(v) {
                for &x in std::iter::once(&w).chain(g.neighbors(w)) {
                    if seen[x as usize] != v {
                        seen[x as usize] = v;
                        row.push(x);
                    }
                }
            }
            row[start..].sort_unstable();
        },
    )
}

/// Induced subgraph on the vertices where `keep[v]` is true.
///
/// Returns `(subgraph, new_to_old)`; `new_to_old[i]` is the original id of
/// subgraph vertex `i`. Vertices keep their relative order, so the mapping
/// is deterministic.
pub fn induced_subgraph(g: &CsrGraph, keep: &[bool]) -> (CsrGraph, Vec<VertexId>) {
    let n = g.num_vertices();
    assert_eq!(keep.len(), n, "mask length mismatch");
    let new_to_old = mis2_prim::compact::par_filter_indices(keep, |&k| k);
    let mut old_to_new = vec![VertexId::MAX; n];
    for (new, &old) in new_to_old.iter().enumerate() {
        old_to_new[old as usize] = new as VertexId;
    }
    // Rows inherit sorted order because old_to_new is monotone. Whether a
    // neighbor is kept is a coin flip the branch predictor loses, so every
    // image is stored and the row's end only advances past the kept ones.
    let sub = CsrGraph::from_row_blocks(
        new_to_old.len(),
        || (),
        |_, new, row| {
            let nbrs = g.neighbors(new_to_old[new]);
            let mut end = row.len();
            row.resize(end + nbrs.len(), 0);
            for &w in nbrs {
                let image = old_to_new[w as usize];
                row[end] = image;
                end += (image != VertexId::MAX) as usize;
            }
            row.truncate(end);
        },
    );
    (sub, new_to_old)
}

/// Quotient graph of a vertex partition: one vertex per part, an edge
/// between two parts iff some edge of `g` crosses them. `labels[v]` is
/// `v`'s part, in `0..nc`.
///
/// Built per part, not per edge: members are counting-sorted by label, and
/// each part gathers its members' foreign neighbor labels into one row. A
/// label already in the row — or the part's own — is recognised by a stamp
/// (`seen[label] == a`, one array per row block), so only the survivors
/// are sorted: a part meets each neighboring label once per crossing edge,
/// many times over.
pub fn quotient(g: &CsrGraph, labels: &[u32], nc: usize) -> CsrGraph {
    assert_eq!(labels.len(), g.num_vertices(), "label length mismatch");
    assert!(
        labels.iter().all(|&l| (l as usize) < nc),
        "label out of range"
    );
    let (offsets, members) = mis2_prim::bucket_by_key(nc, labels.iter().copied().zip(0u32..));
    CsrGraph::from_row_blocks(
        nc,
        || vec![u32::MAX; nc],
        |seen, a, row| {
            let start = row.len();
            seen[a] = a as u32;
            for &v in &members[offsets[a]..offsets[a + 1]] {
                for &w in g.neighbors(v) {
                    let l = labels[w as usize];
                    if seen[l as usize] != a as u32 {
                        seen[l as usize] = a as u32;
                        row.push(l);
                    }
                }
            }
            row[start..].sort_unstable();
        },
    )
}

/// Connected components via BFS. Returns `(component_count, labels)` with
/// labels in `0..component_count`, assigned in order of the smallest vertex
/// id in each component (deterministic).
pub fn connected_components(g: &CsrGraph) -> (usize, Vec<u32>) {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut ncomp = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if label[s] != u32::MAX {
            continue;
        }
        label[s] = ncomp;
        queue.push_back(s as VertexId);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = ncomp;
                    queue.push_back(w);
                }
            }
        }
        ncomp += 1;
    }
    (ncomp as usize, label)
}

/// Degree histogram: `hist[d]` = number of vertices with degree `d`.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let maxd = g.max_degree();
    let mut hist = vec![0usize; maxd + 1];
    for v in 0..g.num_vertices() {
        hist[g.degree(v as VertexId)] += 1;
    }
    hist
}

/// All vertices within distance `<= k` of `v` (excluding `v` itself),
/// sorted. Small-`k` BFS used by verification code and tests.
pub fn neighborhood(g: &CsrGraph, v: VertexId, k: usize) -> Vec<VertexId> {
    let mut seen = std::collections::HashSet::new();
    seen.insert(v);
    let mut frontier = vec![v];
    let mut out = Vec::new();
    for _ in 0..k {
        let mut next = Vec::new();
        for &u in &frontier {
            for &w in g.neighbors(u) {
                if seen.insert(w) {
                    next.push(w);
                    out.push(w);
                }
            }
        }
        frontier = next;
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn square_of_path() {
        // Path 0-1-2-3: G² adds (0,2), (1,3).
        let g = gen::path(4);
        let g2 = square(&g);
        assert_eq!(g2.neighbors(0), &[1, 2]);
        assert_eq!(g2.neighbors(1), &[0, 2, 3]);
        assert_eq!(g2.neighbors(2), &[0, 1, 3]);
        assert_eq!(g2.neighbors(3), &[1, 2]);
        g2.validate_symmetric().unwrap();
    }

    #[test]
    fn square_no_self_loops() {
        let g = gen::cycle(6);
        let g2 = square(&g);
        for v in 0..6u32 {
            assert!(!g2.has_edge(v, v));
            assert_eq!(g2.degree(v), 4); // ±1, ±2 on a 6-cycle
        }
    }

    #[test]
    fn square_matches_bfs_definition() {
        let g = gen::erdos_renyi(60, 120, 5);
        let g2 = square(&g);
        for v in 0..60u32 {
            let want = neighborhood(&g, v, 2);
            assert_eq!(g2.neighbors(v), want.as_slice(), "vertex {v}");
        }
    }

    #[test]
    fn induced_subgraph_basic() {
        // Path 0-1-2-3-4, keep {0, 1, 3, 4}: edges (0,1) and (3,4) survive.
        let g = gen::path(5);
        let keep = [true, true, false, true, true];
        let (sub, map) = induced_subgraph(&g, &keep);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(map, vec![0, 1, 3, 4]);
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1)); // old (0,1)
        assert!(sub.has_edge(2, 3)); // old (3,4)
        assert!(!sub.has_edge(1, 2)); // old (1,3) was not an edge
        sub.validate_symmetric().unwrap();
    }

    #[test]
    fn induced_subgraph_empty_mask() {
        let g = gen::cycle(5);
        let (sub, map) = induced_subgraph(&g, &[false; 5]);
        assert_eq!(sub.num_vertices(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn induced_subgraph_full_mask_is_identity() {
        let g = gen::erdos_renyi(50, 100, 1);
        let (sub, map) = induced_subgraph(&g, &[true; 50]);
        assert_eq!(&sub, &g);
        assert_eq!(map, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn quotient_of_path() {
        // Path 0-1-2-3-4 with parts {0,1}, {2}, {3,4} -> coarse path of 3.
        let g = gen::path(5);
        let q = quotient(&g, &[0, 0, 1, 2, 2], 3);
        assert_eq!(q, CsrGraph::from_edges(3, &[(0, 1), (1, 2)]));
    }

    /// Oracle: the deduplicated cross-part edge list through `from_edges`.
    fn quotient_by_edge_list(g: &CsrGraph, labels: &[u32], nc: usize) -> CsrGraph {
        let mut cross: Vec<(VertexId, VertexId)> = Vec::new();
        for v in 0..g.num_vertices() as u32 {
            for &w in g.neighbors(v) {
                let (la, lb) = (labels[v as usize], labels[w as usize]);
                if la < lb {
                    cross.push((la, lb));
                }
            }
        }
        CsrGraph::from_edges(nc, &cross)
    }

    #[test]
    fn quotient_matches_the_cross_edge_list() {
        // Part 6 is left empty on purpose.
        let g = gen::erdos_renyi(300, 1200, 7);
        let labels: Vec<u32> = (0..300u32).map(|v| (v * 7 + v / 11) % 6).collect();
        let q = quotient(&g, &labels, 7);
        assert_eq!(q, quotient_by_edge_list(&g, &labels, 7));
        assert_eq!(q.degree(6), 0);
        q.validate_symmetric().unwrap();
    }

    #[test]
    fn quotient_over_several_row_blocks_with_an_empty_part_in_each() {
        use mis2_prim::rows::ROW_BLOCK;
        let nc = 3 * ROW_BLOCK + 7;
        let empty = |l: u32| l as usize % ROW_BLOCK == ROW_BLOCK - 1;
        let live: Vec<u32> = (0..nc as u32).filter(|&l| !empty(l)).collect();
        let g = gen::erdos_renyi(6000, 30_000, 11);
        let labels: Vec<u32> = (0..6000u64)
            .map(|v| live[(mis2_prim::hash::splitmix64(v) % live.len() as u64) as usize])
            .collect();
        let want = quotient_by_edge_list(&g, &labels, nc);
        for pool in [1usize, 2, 5] {
            let q = mis2_prim::pool::with_pool(pool, || quotient(&g, &labels, nc));
            assert_eq!(q, want, "pool {pool}");
            assert_eq!(q.heap_bytes(), want.heap_bytes(), "pool {pool}");
        }
        assert!((0..nc as u32).all(|l| !empty(l) || want.degree(l) == 0));
        assert!(want.num_edges() > nc);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn quotient_rejects_a_label_past_the_part_count() {
        quotient(&gen::path(3), &[0, 1, 2], 2);
    }

    #[test]
    fn components_of_disjoint_paths() {
        // Two paths: 0-1-2 and 3-4.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let (nc, labels) = connected_components(&g);
        assert_eq!(nc, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn components_isolated_vertices() {
        let g = CsrGraph::empty(4);
        let (nc, labels) = connected_components(&g);
        assert_eq!(nc, 4);
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn histogram_star() {
        let g = gen::star(5);
        let h = degree_histogram(&g);
        assert_eq!(h[1], 4); // leaves
        assert_eq!(h[4], 1); // hub
    }

    #[test]
    fn neighborhood_distances() {
        let g = gen::path(7);
        assert_eq!(neighborhood(&g, 3, 1), vec![2, 4]);
        assert_eq!(neighborhood(&g, 3, 2), vec![1, 2, 4, 5]);
        assert_eq!(neighborhood(&g, 0, 2), vec![1, 2]);
    }
}
