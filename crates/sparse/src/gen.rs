//! Sparse matrix generators for the solver experiments.
//!
//! * [`laplace3d_matrix`] / [`laplace2d_matrix`] — the standard finite
//!   difference Poisson operators (Galeri's `Laplace3D`), used for the
//!   Table V multigrid experiment exactly as in the paper ("a 100^3
//!   Laplace3D problem generated by MueLu").
//! * [`elasticity3d_matrix`] — an SPD operator on the Elasticity3D 27-point
//!   / 3-dof pattern. Galeri assembles true linear elasticity; we
//!   substitute a weighted graph Laplacian with the same sparsity pattern
//!   and strong diagonal coupling (the substitution policy in
//!   `mis2_graph::suite`'s module doc — the experiments using it test
//!   solver plumbing and aggregation quality on the same structure, not
//!   elasticity physics).
//! * [`from_graph_with_diag`] / [`GraphLaplacian`] — `diag(d) - adjacency`
//!   of a graph, assembled (Table V's operator) or applied matrix-free
//!   (what a served `SOLVE` runs).
//! * [`spd_from_graph`] — SPD diagonally-dominant operator on an arbitrary
//!   graph (used to make solvable systems out of the suite stand-ins for
//!   Table VI).

use crate::csr_matrix::CsrMatrix;
use crate::kernels::Operator;
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
    let same_node = |v: u32, w: u32| v as usize / dof == w as usize / dof;
    dominant_from_graph(&g, |v, w| if same_node(v, w) { -0.5 } else { -1.0 }, 1e-3)
}

/// Off-diagonal `weight(v, w)` on every edge of `g` and, spliced in at its
/// sorted place, a diagonal of 1.05 × the absolute row sum + `shift`.
fn dominant_from_graph(
    g: &CsrGraph,
    weight: impl Fn(u32, u32) -> f64 + Sync,
    shift: f64,
) -> CsrMatrix {
    let n = g.num_vertices();
    CsrMatrix::from_row_blocks(
        n,
        n,
        || (),
        |_, v, out| {
            let v = v as u32;
            let nbrs = g.neighbors(v);
            let below = nbrs.partition_point(|&w| w < v);
            let diag_pos = out.vals.len() + below;
            let mut row_sum = 0.0f64;
            for (k, &w) in nbrs.iter().enumerate() {
                if k == below {
                    out.cols.push(v);
                    out.vals.push(0.0); // patched below
                }
                let wv = weight(v, w);
                out.cols.push(w);
                out.vals.push(wv);
                row_sum += wv.abs();
            }
            if below == nbrs.len() {
                out.cols.push(v);
                out.vals.push(0.0);
            }
            out.vals[diag_pos] = row_sum * 1.05 + shift;
        },
    )
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

/// [`from_graph_with_diag`]`(g, diag)` as an [`Operator`], applied straight
/// off the graph: no `col_idx` / `values` copy is assembled, and the `-1.0`
/// of every off-diagonal entry is a subtraction. `apply_into` performs the
/// IEEE operations of `spmv_into` on the assembled matrix in the same
/// order, so the two agree bit for bit (`tests::graph_laplacian_*`).
pub struct GraphLaplacian<'g> {
    g: &'g CsrGraph,
    diag: f64,
    /// `split[v]` = how many of `v`'s neighbours sort below `v`: where the
    /// diagonal term falls in row `v`. Found once here — a binary search
    /// per row per apply costs more than the stored `-1.0`s it saves.
    split: Vec<u32>,
}

impl<'g> GraphLaplacian<'g> {
    pub fn new(g: &'g CsrGraph, diag: f64) -> Self {
        let split = par::map_range(0..g.num_vertices(), |v| {
            g.neighbors(v as u32).partition_point(|&w| (w as usize) < v) as u32
        });
        GraphLaplacian { g, diag, split }
    }
}

impl Operator for GraphLaplacian<'_> {
    fn nrows(&self) -> usize {
        self.g.num_vertices()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows(), "x length mismatch");
        assert_eq!(y.len(), self.nrows(), "y length mismatch");
        par::for_each_mut_indexed(y, |v, yv| {
            let (below, above) = self.g.neighbors(v as u32).split_at(self.split[v] as usize);
            let mut acc = 0.0;
            for &c in below {
                acc -= x[c as usize];
            }
            acc += self.diag * x[v];
            for &c in above {
                acc -= x[c as usize];
            }
            *yv = acc;
        });
    }
}

/// SPD diagonally dominant matrix on an arbitrary undirected graph:
/// symmetric random off-diagonal weights in `[-1, -0.1]`, diagonal = 1.05 *
/// absolute row sum + 0.01.
pub fn spd_from_graph(g: &CsrGraph, seed: u64) -> CsrMatrix {
    // Symmetric weight for edge (u, v): hash of the unordered pair.
    let w = |u: u32, v: u32| -> f64 {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let h = mis2_prim::hash::splitmix64(seed ^ ((a as u64) << 32 | b as u64));
        -0.1 - 0.9 * ((h % 1024) as f64 / 1023.0)
    };
    dominant_from_graph(g, w, 0.01)
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

    /// `GraphLaplacian::apply_into` against `spmv_into` of the assembled
    /// matrix, in bits, at pools 1 and 3.
    fn assert_applies_like_assembled(name: &str, g: &CsrGraph, d: f64, x: &[f64]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let want = from_graph_with_diag(g, d).spmv(x);
        for pool in [1, 3] {
            // Overwritten, not accumulated into.
            let mut got = vec![f64::NAN; g.num_vertices()];
            mis2_prim::pool::with_pool(pool, || GraphLaplacian::new(g, d).apply_into(x, &mut got));
            assert_eq!(bits(&got), bits(&want), "{name} pool {pool}");
        }
    }

    #[test]
    fn graph_laplacian_applies_like_the_assembled_matrix_on_hand_built_rows() {
        // Vertex 0: all neighbours above. 5: all below. 2: both sides.
        // 6: isolated (diagonal only). And no rows at all.
        let rows = CsrGraph::from_edges(7, &[(0, 4), (0, 5), (2, 5), (3, 5), (1, 2), (2, 3)]);
        // Signed zeros: `0.0 - x` and `0.0 + -1.0 * x` must agree on them
        // too, first in a row and after a cancellation.
        let x = [1.5, -0.0, 0.0, -2.25, 1.5, -0.0, -0.0];
        assert_applies_like_assembled("rows", &rows, 2.5, &x);
        assert_applies_like_assembled("rows, all -0.0", &rows, 2.5, &[-0.0; 7]);
        assert_applies_like_assembled("rows, zero diagonal", &rows, 0.0, &x);
        assert_applies_like_assembled("empty", &CsrGraph::empty(0), 2.5, &[]);
    }

    #[test]
    fn graph_laplacian_applies_like_the_assembled_matrix_over_the_suite() {
        for (name, g) in mis2_graph::suite::build_all(mis2_graph::Scale::Tiny) {
            // Rounding happens in every row: no entry is a short binary
            // fraction, magnitudes span six decades, both signs.
            let x: Vec<f64> = (0..g.num_vertices() as u64)
                .map(|i| {
                    let h = mis2_prim::hash::splitmix64(i);
                    let mag = 10f64.powi((h % 7) as i32 - 3) * (1.0 + (h >> 40) as f64 / 3e7);
                    if h & 64 == 0 {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect();
            assert_applies_like_assembled(name, &g, (g.max_degree() + 1) as f64, &x);
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
