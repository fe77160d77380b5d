//! Point and cluster multicolor (symmetric) Gauss-Seidel.
//!
//! **Point multicolor GS** (Deveci et al., reference 11 of the paper — the Kokkos Kernels
//! production preconditioner): color the matrix graph; rows of one color
//! are independent and update in parallel, colors sweep sequentially.
//! Parallelism costs iterations vs. natural-order GS.
//!
//! **Cluster multicolor GS** (the paper's Algorithm 4): coarsen the graph
//! (Algorithm 3 by default), color the *coarse* graph, and sweep
//! color-by-color over *clusters*, processing the rows inside one cluster
//! sequentially — locally exact GS. This recovers much of sequential GS's
//! convergence while keeping parallelism across same-colored clusters, and
//! both setup (coloring a much smaller graph) and apply get faster
//! (Table VI).
//!
//! Both are exposed as symmetric preconditioners (forward sweep then
//! backward sweep; the cluster method also reverses the row order inside
//! each cluster on the backward pass, per the paper).

use crate::precond::Preconditioner;
use mis2_coarsen::{quotient_graph, AggScheme, Aggregation};
use mis2_color::{color_d1, ColorSets, Coloring};
use mis2_graph::VertexId;
use mis2_prim::par;
use mis2_prim::SharedMut;
use mis2_sparse::CsrMatrix;

/// Clusters one pool block of a cluster sweep holds. A MIS-2 aggregate is
/// some 7 to 30 rows, a fraction of a microsecond of work, so claiming
/// clusters one at a time from the region's shared counter costs more than
/// sweeping them; a block of this many is a few microseconds. The unit is
/// clusters, the value decides only who sweeps a cluster (never the row
/// order inside one, so results do not depend on it), and it is a constant
/// because no caller has a reason to pick another.
const CLUSTERS_PER_BLOCK: usize = 32;

/// Point multicolor symmetric Gauss-Seidel.
pub struct PointMcSgs {
    a: CsrMatrix,
    sets: ColorSets,
    dinv: Vec<f64>,
    /// Setup wall time (seconds): graph extraction + coloring + sets.
    pub setup_seconds: f64,
    /// Colors used (determines the number of sequential sweep steps).
    pub num_colors: usize,
}

impl PointMcSgs {
    /// Color `a`'s graph and build the sweep schedule.
    pub fn new(a: &CsrMatrix, seed: u64) -> Self {
        let t = mis2_prim::timer::Timer::start();
        let g = a.to_graph();
        let coloring = color_d1(&g, seed);
        let sets = ColorSets::build(&coloring);
        let dinv = a.inv_diag();
        let setup_seconds = t.elapsed_s();
        PointMcSgs {
            a: a.clone(),
            num_colors: sets.num_colors(),
            sets,
            dinv,
            setup_seconds,
        }
    }

    fn sweep_color(&self, members: &[VertexId], b: &[f64], x: &mut [f64]) {
        let a = &self.a;
        let dinv = &self.dinv;
        let xw = SharedMut::new(x);
        par::for_each_grain(members, 64, |&i| {
            let i = i as usize;
            let (cols, vals) = a.row(i);
            let mut acc = b[i];
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize != i {
                    // SAFETY: rows of one color are pairwise non-adjacent,
                    // so no member of this parallel region writes slot c.
                    acc -= v * unsafe { xw.read(c as usize) };
                }
            }
            unsafe { xw.write(i, acc * dinv[i]) };
        });
    }

    /// One symmetric sweep (forward colors then backward colors).
    pub fn sgs_sweep(&self, b: &[f64], x: &mut [f64]) {
        for c in 0..self.sets.num_colors() {
            self.sweep_color(self.sets.members(c), b, x);
        }
        for c in (0..self.sets.num_colors()).rev() {
            self.sweep_color(self.sets.members(c), b, x);
        }
    }
}

impl Preconditioner for PointMcSgs {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.iter_mut().for_each(|v| *v = 0.0);
        self.sgs_sweep(r, z);
    }

    fn name(&self) -> &'static str {
        "point multicolor SGS"
    }
}

/// Cluster multicolor symmetric Gauss-Seidel (Algorithm 4).
pub struct ClusterMcSgs {
    a: CsrMatrix,
    /// Rows of each cluster, concatenated; clusters of one color are
    /// contiguous ranges listed in `cluster_ranges` per color.
    cluster_rows: Vec<VertexId>,
    /// Per color: list of (start, end) ranges into `cluster_rows`.
    color_clusters: Vec<Vec<(usize, usize)>>,
    dinv: Vec<f64>,
    /// Setup wall time (seconds): aggregation + quotient graph + coloring.
    pub setup_seconds: f64,
    /// Colors on the coarse graph.
    pub num_colors: usize,
    /// Number of clusters (aggregates).
    pub num_clusters: usize,
}

impl ClusterMcSgs {
    /// Coarsen with `scheme` (the paper uses Algorithm 3), color the
    /// quotient graph, and group cluster rows by color.
    pub fn new(a: &CsrMatrix, scheme: AggScheme, seed: u64) -> Self {
        let t = mis2_prim::timer::Timer::start();
        let g = a.to_graph();
        let agg = scheme.aggregate(&g, seed);
        let coarse = quotient_graph(&g, &agg);
        let coloring = color_d1(&coarse, seed);
        let built = Self::from_parts(a, &agg, &coloring);
        ClusterMcSgs {
            setup_seconds: t.elapsed_s(),
            ..built
        }
    }

    /// Assemble from a precomputed aggregation and a coloring of its
    /// quotient graph.
    pub fn from_parts(a: &CsrMatrix, agg: &Aggregation, coloring: &Coloring) -> Self {
        // Bucket vertices by cluster (ascending row ids within a cluster —
        // the deterministic "natural" intra-cluster order).
        let nclusters = agg.num_aggregates;
        let (counts, cluster_rows) = mis2_prim::bucket::bucket_by_key(nclusters, &agg.labels);
        // Group clusters by coarse color.
        let num_colors = coloring.num_colors as usize;
        let mut color_clusters: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_colors];
        for cl in 0..nclusters {
            let color = coloring.colors[cl] as usize;
            color_clusters[color].push((counts[cl], counts[cl + 1]));
        }
        ClusterMcSgs {
            a: a.clone(),
            cluster_rows,
            color_clusters,
            dinv: a.inv_diag(),
            setup_seconds: 0.0,
            num_colors,
            num_clusters: nclusters,
        }
    }

    #[inline]
    fn update_row(&self, i: usize, b: &[f64], xw: &SharedMut<'_, f64>) {
        let (cols, vals) = self.a.row(i);
        let mut acc = b[i];
        for (&c, &v) in cols.iter().zip(vals) {
            if c as usize != i {
                // SAFETY: same-colored clusters are non-adjacent in the
                // quotient graph, so every off-cluster neighbor row is
                // stable during this color's parallel region; in-cluster
                // neighbors are updated by *this* task sequentially.
                acc -= v * unsafe { xw.read(c as usize) };
            }
        }
        unsafe { xw.write(i, acc * self.dinv[i]) };
    }

    /// Sweep the clusters of one color in parallel, [`CLUSTERS_PER_BLOCK`]
    /// to a pool block: rows in order inside each cluster, reversed when
    /// `backward`.
    fn sweep_color(&self, color: usize, backward: bool, b: &[f64], xw: &SharedMut<'_, f64>) {
        let rows = &self.cluster_rows;
        let clusters = &self.color_clusters[color];
        par::for_each_grain(clusters, CLUSTERS_PER_BLOCK, |&(lo, hi)| {
            if backward {
                for &i in rows[lo..hi].iter().rev() {
                    self.update_row(i as usize, b, xw);
                }
            } else {
                for &i in &rows[lo..hi] {
                    self.update_row(i as usize, b, xw);
                }
            }
        });
    }

    /// One symmetric sweep: forward colors (rows in order inside each
    /// cluster), then backward colors (rows reversed inside each cluster).
    pub fn sgs_sweep(&self, b: &[f64], x: &mut [f64]) {
        let xw = SharedMut::new(x);
        for color in 0..self.color_clusters.len() {
            self.sweep_color(color, false, b, &xw);
        }
        for color in (0..self.color_clusters.len()).rev() {
            self.sweep_color(color, true, b, &xw);
        }
    }
}

impl Preconditioner for ClusterMcSgs {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.iter_mut().for_each(|v| *v = 0.0);
        self.sgs_sweep(r, z);
    }

    fn name(&self) -> &'static str {
        "cluster multicolor SGS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis2_sparse::gen as sgen;
    use mis2_sparse::kernels;

    fn run_richardson(precond: &dyn Preconditioner, a: &CsrMatrix, iters: usize) -> f64 {
        // x_{k+1} = x_k + M^{-1}(b - A x_k); returns final relative residual.
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut z = vec![0.0; n];
        for _ in 0..iters {
            let r = kernels::residual(a, &x, &b);
            precond.apply(&r, &mut z);
            kernels::axpy(1.0, &z, &mut x);
        }
        kernels::norm2(&kernels::residual(a, &x, &b)) / kernels::norm2(&b)
    }

    #[test]
    fn point_sgs_converges_on_laplace() {
        // GS-preconditioned Richardson converges at rate ~1 - O(h^2) on
        // Poisson; on an 8x8 grid 120 double sweeps drive the residual
        // far down.
        let a = sgen::laplace2d_matrix(8, 8);
        let gs = PointMcSgs::new(&a, 0);
        assert!(gs.num_colors >= 2);
        let rel = run_richardson(&gs, &a, 120);
        assert!(rel < 1e-6, "relative residual {rel}");
    }

    #[test]
    fn cluster_sgs_converges_on_laplace() {
        let a = sgen::laplace2d_matrix(8, 8);
        let gs = ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0);
        assert!(gs.num_clusters > 1);
        let rel = run_richardson(&gs, &a, 120);
        assert!(rel < 1e-6, "relative residual {rel}");
    }

    #[test]
    fn cluster_at_least_as_fast_in_iterations() {
        // The paper's core claim for Algorithm 4: cluster SGS needs no more
        // iterations than point SGS (it is locally exact). Compare
        // Richardson residuals after a fixed iteration budget.
        let a = sgen::laplace2d_matrix(16, 16);
        let point = PointMcSgs::new(&a, 0);
        let cluster = ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0);
        let rp = run_richardson(&point, &a, 25);
        let rc = run_richardson(&cluster, &a, 25);
        assert!(
            rc <= rp * 1.5,
            "cluster {rc} should not be much worse than point {rp}"
        );
    }

    #[test]
    fn both_deterministic_across_threads() {
        let a = sgen::laplace2d_matrix(10, 10);
        let r: Vec<f64> = (0..100).map(|i| ((i * 37) % 19) as f64 / 19.0).collect();
        for scheme in [AggScheme::Mis2Basic, AggScheme::Mis2Agg] {
            let z1 = mis2_prim::pool::with_pool(1, || {
                let gs = ClusterMcSgs::new(&a, scheme, 0);
                let mut z = vec![0.0; 100];
                gs.apply(&r, &mut z);
                z
            });
            let z2 = mis2_prim::pool::with_pool(4, || {
                let gs = ClusterMcSgs::new(&a, scheme, 0);
                let mut z = vec![0.0; 100];
                gs.apply(&r, &mut z);
                z
            });
            assert_eq!(z1, z2, "cluster SGS nondeterministic for {scheme:?}");
        }
        let z1 = mis2_prim::pool::with_pool(1, || {
            let gs = PointMcSgs::new(&a, 0);
            let mut z = vec![0.0; 100];
            gs.apply(&r, &mut z);
            z
        });
        let z2 = mis2_prim::pool::with_pool(4, || {
            let gs = PointMcSgs::new(&a, 0);
            let mut z = vec![0.0; 100];
            gs.apply(&r, &mut z);
            z
        });
        assert_eq!(z1, z2, "point SGS nondeterministic");
    }

    #[test]
    fn single_cluster_is_sequential_gs() {
        // With one cluster containing everything, cluster SGS equals exact
        // sequential symmetric GS.
        let a = sgen::laplace2d_matrix(5, 5);
        let agg = Aggregation {
            labels: vec![0; 25],
            num_aggregates: 1,
            roots: vec![0],
        };
        let coloring = mis2_color::Coloring::from_colors(vec![0], 1);
        let gs = ClusterMcSgs::from_parts(&a, &agg, &coloring);
        let b = vec![1.0; 25];
        let mut x = vec![0.0; 25];
        gs.sgs_sweep(&b, &mut x);
        // Reference sequential symmetric GS sweep.
        let mut y = [0.0; 25];
        let dinv: Vec<f64> = a.diag().iter().map(|d| 1.0 / d).collect();
        for i in 0..25 {
            let (cols, vals) = a.row(i);
            let mut acc = b[i];
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize != i {
                    acc -= v * y[c as usize];
                }
            }
            y[i] = acc * dinv[i];
        }
        for i in (0..25).rev() {
            let (cols, vals) = a.row(i);
            let mut acc = b[i];
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize != i {
                    acc -= v * y[c as usize];
                }
            }
            y[i] = acc * dinv[i];
        }
        for i in 0..25 {
            assert!((x[i] - y[i]).abs() < 1e-12, "row {i}: {} vs {}", x[i], y[i]);
        }
    }
}
