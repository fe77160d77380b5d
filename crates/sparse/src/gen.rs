//! Sparse matrix generators for the solver experiments.
//!
//! * [`laplace3d_matrix`] / [`laplace2d_matrix`] — the standard finite
//!   difference Poisson operators (Galeri's `Laplace3D`), used for the
//!   Table V multigrid experiment exactly as in the paper ("a 100^3
//!   Laplace3D problem generated by MueLu").
//! * [`elasticity3d_matrix`] — an SPD operator on the Elasticity3D 27-point
//!   / 3-dof pattern. Galeri assembles true linear elasticity; we
//!   substitute a weighted graph Laplacian with the same sparsity pattern
//!   and strong diagonal coupling (see DESIGN.md §5 — the experiments using
//!   it test solver plumbing and aggregation quality on the same structure,
//!   not elasticity physics).
//! * [`spd_from_graph`] — SPD diagonally-dominant operator on an arbitrary
//!   graph (used to make solvable systems out of the suite stand-ins for
//!   Table VI).

use crate::csr_matrix::CsrMatrix;
use mis2_graph::{gen as ggen, CsrGraph};
use mis2_prim::par;

/// 7-point Laplacian: diagonal 6, off-diagonal -1, Dirichlet boundary
/// (boundary rows keep the full diagonal, making the operator SPD).
pub fn laplace3d_matrix(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let g = ggen::laplace3d(nx, ny, nz);
    from_graph_with_diag(&g, 6.0)
}

/// 5-point Laplacian: diagonal 4, off-diagonal -1, Dirichlet boundary.
pub fn laplace2d_matrix(nx: usize, ny: usize) -> CsrMatrix {
    let g = ggen::laplace2d(nx, ny);
    from_graph_with_diag(&g, 4.0)
}

/// SPD stand-in for Galeri's Elasticity3D: the 27-point, 3-dof pattern with
/// off-diagonal -1 (same-node dof coupling -0.5) and a diagonal that
/// dominates the absolute row sum by 5%.
pub fn elasticity3d_matrix(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let dof = 3;
    let g = ggen::elasticity3d(nx, ny, nz, dof);
    let n = g.num_vertices();
    let rows: Vec<(Vec<u32>, Vec<f64>)> = par::map_range(0..n, |v| {
        let nbrs = g.neighbors(v as u32);
        let mut cols = Vec::with_capacity(nbrs.len() + 1);
        let mut vals = Vec::with_capacity(nbrs.len() + 1);
        let mut row_sum = 0.0f64;
        let node = v / dof;
        let mut inserted_diag = false;
        for &w in nbrs {
            let wv: f64 = if (w as usize) / dof == node {
                -0.5
            } else {
                -1.0
            };
            if (w as usize) > v && !inserted_diag {
                cols.push(v as u32);
                vals.push(0.0); // patched below
                inserted_diag = true;
            }
            cols.push(w);
            vals.push(wv);
            row_sum += wv.abs();
        }
        if !inserted_diag {
            cols.push(v as u32);
            vals.push(0.0);
        }
        let d = row_sum * 1.05 + 1e-3;
        let diag_pos = cols.iter().position(|&c| c == v as u32).unwrap();
        vals[diag_pos] = d;
        (cols, vals)
    });
    CsrMatrix::from_sorted_rows(n, n, rows)
}

/// Graph Laplacian with a fixed diagonal value: `A = diag(d) - adjacency`.
/// With `d` at least the maximum degree this is SPD (strictly dominant on
/// boundary rows).
pub fn from_graph_with_diag(g: &CsrGraph, d: f64) -> CsrMatrix {
    let n = g.num_vertices();
    // Row v is v's sorted neighbor list with v itself spliced in, so it
    // starts v entries later than in the graph: the three arrays are filled
    // in place, with no per-row vectors.
    let row_ptr: Vec<usize> = g
        .row_ptr()
        .iter()
        .enumerate()
        .map(|(v, &p)| p + v)
        .collect();
    let nnz = g.num_directed_edges() + n;
    let mut col_idx: Vec<u32> = Vec::with_capacity(nnz);
    let mut values = vec![-1.0; nnz];
    for v in 0..n as u32 {
        let nbrs = g.neighbors(v);
        let below = nbrs.partition_point(|&w| w < v);
        values[col_idx.len() + below] = d;
        col_idx.extend_from_slice(&nbrs[..below]);
        col_idx.push(v);
        col_idx.extend_from_slice(&nbrs[below..]);
    }
    CsrMatrix::from_csr(n, n, row_ptr, col_idx, values)
        .expect("a graph's rows are sorted and loop-free, so each row stays sorted")
}

/// SPD diagonally dominant matrix on an arbitrary undirected graph:
/// symmetric random off-diagonal weights in `[-1, -0.1]`, diagonal = 1.05 *
/// absolute row sum + 0.01.
pub fn spd_from_graph(g: &CsrGraph, seed: u64) -> CsrMatrix {
    let n = g.num_vertices();
    // Symmetric weight for edge (u, v): hash of the unordered pair.
    let w = |u: u32, v: u32| -> f64 {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let h = mis2_prim::hash::splitmix64(seed ^ ((a as u64) << 32 | b as u64));
        -0.1 - 0.9 * ((h % 1024) as f64 / 1023.0)
    };
    let rows: Vec<(Vec<u32>, Vec<f64>)> = par::map_range(0..n, |v| {
        let nbrs = g.neighbors(v as u32);
        let mut cols = Vec::with_capacity(nbrs.len() + 1);
        let mut vals = Vec::with_capacity(nbrs.len() + 1);
        let mut row_sum = 0.0f64;
        let mut placed = false;
        for &u in nbrs {
            if (u as usize) > v && !placed {
                cols.push(v as u32);
                vals.push(0.0);
                placed = true;
            }
            let wv = w(v as u32, u);
            cols.push(u);
            vals.push(wv);
            row_sum += wv.abs();
        }
        if !placed {
            cols.push(v as u32);
            vals.push(0.0);
        }
        let diag_pos = cols.iter().position(|&c| c == v as u32).unwrap();
        vals[diag_pos] = row_sum * 1.05 + 0.01;
        (cols, vals)
    });
    CsrMatrix::from_sorted_rows(n, n, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace3d_matrix_shape() {
        let a = laplace3d_matrix(4, 4, 4);
        assert_eq!(a.nrows(), 64);
        assert!(a.is_symmetric(1e-14));
        assert_eq!(a.get(0, 0), 6.0);
        assert_eq!(a.get(0, 1), -1.0);
        // Interior row sums to zero off-diagonal count 6: 6 - 6 = 0; corner
        // rows are strictly dominant.
        let (cols, vals) = a.row(0);
        assert_eq!(cols.len(), 4); // corner: diag + 3 neighbors
        let s: f64 = vals.iter().sum();
        assert!(s > 0.0, "corner row strictly dominant");
    }

    #[test]
    fn laplace2d_matrix_spd_smoke() {
        let a = laplace2d_matrix(5, 5);
        assert!(a.is_symmetric(1e-14));
        // x^T A x > 0 for a few random x.
        for seed in 0..5u64 {
            let x: Vec<f64> = (0..25)
                .map(|i| (mis2_prim::hash::splitmix64(seed * 100 + i) % 200) as f64 / 100.0 - 1.0)
                .collect();
            let ax = a.spmv(&x);
            let xtax = crate::kernels::dot(&x, &ax);
            if crate::kernels::norm2(&x) > 1e-9 {
                assert!(xtax > 0.0, "not positive definite (seed {seed})");
            }
        }
    }

    #[test]
    fn elasticity_matrix_symmetric_dominant() {
        let a = elasticity3d_matrix(3, 3, 3);
        assert_eq!(a.nrows(), 81);
        assert!(a.is_symmetric(1e-12));
        // Strict diagonal dominance.
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            let mut offsum = 0.0;
            let mut diag = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == r {
                    diag = v;
                } else {
                    offsum += v.abs();
                }
            }
            assert!(diag > offsum, "row {r} not dominant");
        }
    }

    #[test]
    fn spd_from_graph_dominant_and_symmetric() {
        let g = ggen::erdos_renyi(100, 300, 3);
        let a = spd_from_graph(&g, 17);
        assert!(a.is_symmetric(1e-12));
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            let diag = a.get(r, r as u32);
            let offsum: f64 = cols
                .iter()
                .zip(vals)
                .filter(|(&c, _)| c as usize != r)
                .map(|(_, &v)| v.abs())
                .sum();
            assert!(diag > offsum, "row {r}");
        }
    }

    #[test]
    fn from_graph_with_diag_matches_its_triplets() {
        // Rows whose diagonal lands first, last and in the middle, an
        // isolated vertex (diagonal only) and an empty graph.
        let mut edges = vec![(0, 4), (0, 5), (2, 5), (3, 5), (1, 2), (2, 3)];
        edges.extend((0..40u32).map(|i| (7 + i % 13, 7 + (i * 5 + 1) % 13)));
        for g in [CsrGraph::from_edges(21, &edges), CsrGraph::empty(0)] {
            let mut coo = Vec::new();
            for v in 0..g.num_vertices() as u32 {
                coo.push((v, v, 2.5));
                coo.extend(g.neighbors(v).iter().map(|&w| (v, w, -1.0)));
            }
            let n = g.num_vertices();
            assert_eq!(
                from_graph_with_diag(&g, 2.5),
                CsrMatrix::from_coo(n, n, &coo)
            );
        }
    }

    #[test]
    fn pattern_matches_graph() {
        let g = ggen::laplace2d(4, 4);
        let a = from_graph_with_diag(&g, 4.0);
        let g2 = a.to_graph();
        assert_eq!(g, g2);
    }
}
