//! Cluster multicolor (symmetric) Gauss-Seidel, and point multicolor GS as
//! its singleton-cluster case.
//!
//! **Cluster multicolor GS** (the paper's Algorithm 4): coarsen the graph
//! (Algorithm 3 by default), color the *coarse* graph, and sweep
//! color-by-color over *clusters*, processing the rows inside one cluster
//! sequentially — locally exact GS. This recovers much of sequential GS's
//! convergence while keeping parallelism across same-colored clusters, and
//! both setup (coloring a much smaller graph) and apply get faster
//! (Table VI).
//!
//! **Point multicolor GS** (Deveci et al., reference 11 of the paper — the
//! Kokkos Kernels production preconditioner) colors the matrix graph
//! itself; rows of one color are independent and update in parallel,
//! colors sweep sequentially. That is cluster GS in which every row is its
//! own cluster, so [`ClusterMcSgs::point`] builds it with the same sweep.
//! Parallelism costs iterations vs. natural-order GS.
//!
//! Both are symmetric preconditioners (forward sweep then backward sweep,
//! reversing the row order inside each cluster on the backward pass, per
//! the paper).
//!
//! ## The cluster sweep's storage
//!
//! [`ClusterMcSgs`] keeps no copy of the matrix. `from_parts` writes the
//! rows out once in the order a forward sweep visits them — color by
//! color, cluster by cluster, ascending row id inside a cluster — each row
//! as its off-diagonal entries in the matrix's own column order (so the
//! subtractions happen in the order a walk over `a.row()` performs them)
//! with the diagonal already removed and `1/d` alongside. A forward sweep
//! then streams `rows` / `dinv` / `cols` / `vals` front to back and the
//! backward sweep streams them back to front; nothing is looked up through
//! a row id except `b` and `x`.
//!
//! A color opens a pool region only when it holds at least
//! `MIN_REGION_NNZ` off-diagonal nonzeros. A smaller color stays on the
//! caller: its sweep is tens of microseconds, and shared between workers
//! the `x` lines it touches bounce between cores for longer than that (a
//! 13 824-row operator swept *slower* on two threads than on one before
//! this rule). Which thread sweeps a cluster never changes the order of
//! the rows inside it, so the bits are the same either way.

use crate::precond::Preconditioner;
use mis2_coarsen::{quotient_graph, AggScheme, Aggregation};
use mis2_color::{color_d1, Coloring};
use mis2_graph::VertexId;
use mis2_prim::{bucket_by_key, par, SharedMut};
use mis2_sparse::CsrMatrix;

/// Clusters one pool block of a cluster sweep holds. A MIS-2 aggregate is
/// some 7 to 30 rows, a fraction of a microsecond of work, so claiming
/// clusters one at a time from the region's shared counter costs more than
/// sweeping them; a block of this many is a few microseconds. The unit is
/// clusters, the value decides only who sweeps a cluster (never the row
/// order inside one, so results do not depend on it), and it is a constant
/// because no caller has a reason to pick another.
const CLUSTERS_PER_BLOCK: usize = 32;

/// Off-diagonal nonzeros a color must hold before its sweep opens a region;
/// a smaller color is swept by the caller. Sharing a color means the `x`
/// lines its rows read and write travel between cores, and that costs more
/// than the arithmetic it splits until `x` outgrows one core's cache.
/// Measured break-even, Laplace3D colors on a 2-CPU host at pool 2, region
/// against caller: 14 K nonzeros (the largest color of 24³) 40 against
/// 24 µs, 51 K (37³) 170 against 116, 124 K (50³) 366 against 322, 140 K
/// (56³) 419 against 446, 256 K (64³) 775 against 861. Like
/// [`CLUSTERS_PER_BLOCK`] the value decides only who sweeps, never the row
/// order inside a cluster, so no result depends on it.
const MIN_REGION_NNZ: usize = 1 << 17;

/// Cluster multicolor symmetric Gauss-Seidel (Algorithm 4).
///
/// Holds no matrix: see the module doc for the sweep storage.
pub struct ClusterMcSgs {
    /// Row ids in the order a forward sweep visits them.
    rows: Vec<VertexId>,
    /// `1/d` of `rows[k]` (`inv_diag`'s rule: 0.0 where there is no pivot).
    dinv: Vec<f64>,
    /// The off-diagonal entries of `rows[k]`, in the matrix's own column
    /// order, are `cols` / `vals[row_ptr[k]..row_ptr[k + 1]]`.
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Clusters as ranges of sweep positions, in sweep order.
    clusters: Vec<(usize, usize)>,
    /// Color `c` owns `clusters[color_ptr[c]..color_ptr[c + 1]]`.
    color_ptr: Vec<usize>,
    /// Setup wall time (seconds): aggregation + quotient graph + coloring
    /// (for [`ClusterMcSgs::point`], coloring alone) + the sweep layout.
    pub setup_seconds: f64,
    /// Colors on the coarse graph (the matrix graph for a point sweep).
    pub num_colors: usize,
    /// Number of clusters (aggregates; rows for a point sweep).
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

    /// Point multicolor SGS: every row its own cluster, colored by a
    /// distance-1 coloring of `a`'s graph.
    pub fn point(a: &CsrMatrix, seed: u64) -> Self {
        let t = mis2_prim::timer::Timer::start();
        let coloring = color_d1(&a.to_graph(), seed);
        let rows: Vec<VertexId> = (0..a.nrows() as VertexId).collect();
        let singletons = Aggregation {
            labels: rows.clone(),
            num_aggregates: rows.len(),
            roots: rows,
        };
        let built = Self::from_parts(a, &singletons, &coloring);
        ClusterMcSgs {
            setup_seconds: t.elapsed_s(),
            ..built
        }
    }

    /// Assemble from a precomputed aggregation and a coloring of its
    /// quotient graph: lay `a`'s rows out in sweep order.
    pub fn from_parts(a: &CsrMatrix, agg: &Aggregation, coloring: &Coloring) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "Gauss-Seidel needs a square matrix");
        assert_eq!(agg.labels.len(), a.nrows());
        let nclusters = agg.num_aggregates;
        assert_eq!(coloring.colors.len(), nclusters);
        let num_colors = coloring.num_colors as usize;
        // Rows by cluster and clusters by color, both ascending inside a
        // bucket — the deterministic "natural" order.
        let labels = agg.labels.iter().copied();
        let (members, by_cluster) = bucket_by_key(nclusters, labels.zip(0u32..));
        let colors = coloring.colors.iter().copied();
        let (color_ptr, by_color) = bucket_by_key(num_colors, colors.zip(0u32..));

        let a_dinv = a.inv_diag();
        let mut rows = Vec::with_capacity(a.nrows());
        let mut dinv = Vec::with_capacity(a.nrows());
        let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
        let mut cols = Vec::with_capacity(a.nnz());
        let mut vals = Vec::with_capacity(a.nnz());
        let mut clusters = Vec::with_capacity(nclusters);
        row_ptr.push(0);
        for &cl in &by_color {
            let first = rows.len();
            for &i in &by_cluster[members[cl as usize]..members[cl as usize + 1]] {
                let (rc, rv) = a.row(i as usize);
                for (&c, &v) in rc.iter().zip(rv).filter(|&(&c, _)| c != i) {
                    cols.push(c);
                    vals.push(v);
                }
                rows.push(i);
                dinv.push(a_dinv[i as usize]);
                row_ptr.push(cols.len());
            }
            clusters.push((first, rows.len()));
        }
        ClusterMcSgs {
            rows,
            dinv,
            row_ptr,
            cols,
            vals,
            clusters,
            color_ptr,
            setup_seconds: 0.0,
            num_colors,
            num_clusters: nclusters,
        }
    }

    /// Gauss-Seidel update of the row at sweep position `k`.
    #[inline]
    fn update_row(&self, k: usize, b: &[f64], xw: &SharedMut<'_, f64>) {
        let i = self.rows[k] as usize;
        let (lo, hi) = (self.row_ptr[k], self.row_ptr[k + 1]);
        let mut acc = b[i];
        for (&c, &v) in self.cols[lo..hi].iter().zip(&self.vals[lo..hi]) {
            // SAFETY: same-colored clusters are non-adjacent in the
            // quotient graph, so every off-cluster neighbor row is
            // stable during this color's parallel region; in-cluster
            // neighbors are updated by *this* task sequentially.
            acc -= v * unsafe { xw.read(c as usize) };
        }
        unsafe { xw.write(i, acc * self.dinv[k]) };
    }

    /// Update sweep positions `lo..hi` front to back, or back to front.
    #[inline]
    fn sweep_rows(&self, lo: usize, hi: usize, backward: bool, b: &[f64], xw: &SharedMut<'_, f64>) {
        if backward {
            for k in (lo..hi).rev() {
                self.update_row(k, b, xw);
            }
        } else {
            for k in lo..hi {
                self.update_row(k, b, xw);
            }
        }
    }

    /// Sweep the clusters of one color: rows in order inside each cluster,
    /// reversed when `backward`. A color of at least [`MIN_REGION_NNZ`]
    /// nonzeros goes to the pool, [`CLUSTERS_PER_BLOCK`] clusters to a
    /// block; a smaller one is one run of sweep positions on the caller.
    fn sweep_color(&self, color: usize, backward: bool, b: &[f64], xw: &SharedMut<'_, f64>) {
        let clusters = &self.clusters[self.color_ptr[color]..self.color_ptr[color + 1]];
        let (Some(&(lo, _)), Some(&(_, hi))) = (clusters.first(), clusters.last()) else {
            return;
        };
        if self.row_ptr[hi] - self.row_ptr[lo] < MIN_REGION_NNZ {
            self.sweep_rows(lo, hi, backward, b, xw);
        } else {
            par::for_each_grain(clusters, CLUSTERS_PER_BLOCK, |&(lo, hi)| {
                self.sweep_rows(lo, hi, backward, b, xw);
            });
        }
    }

    /// One symmetric sweep: forward colors (rows in order inside each
    /// cluster), then backward colors (rows reversed inside each cluster).
    pub fn sgs_sweep(&self, b: &[f64], x: &mut [f64]) {
        assert!(b.len() == self.rows.len() && x.len() == self.rows.len());
        let xw = SharedMut::new(x);
        for color in 0..self.num_colors {
            self.sweep_color(color, false, b, &xw);
        }
        for color in (0..self.num_colors).rev() {
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
        let gs = ClusterMcSgs::point(&a, 0);
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
        let point = ClusterMcSgs::point(&a, 0);
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
        let build = |scheme: Option<AggScheme>| match scheme {
            Some(scheme) => ClusterMcSgs::new(&a, scheme, 0),
            None => ClusterMcSgs::point(&a, 0),
        };
        for scheme in [Some(AggScheme::Mis2Basic), Some(AggScheme::Mis2Agg), None] {
            let [z1, z2] = [1, 4].map(|pool| {
                mis2_prim::pool::with_pool(pool, || {
                    let mut z = vec![0.0; 100];
                    build(scheme).apply(&r, &mut z);
                    z
                })
            });
            assert_eq!(z1, z2, "SGS nondeterministic for {scheme:?} (None: point)");
        }
    }

    /// One symmetric cluster sweep the way it was written before the sweep
    /// storage existed: over `a.row()`, the diagonal skipped by a test per
    /// nonzero, clusters found through the bucketed labels.
    fn reference_sweep(a: &CsrMatrix, agg: &Aggregation, col: &Coloring, b: &[f64], x: &mut [f64]) {
        let dinv = a.inv_diag();
        let labels = agg.labels.iter().copied();
        let (off, rows) = bucket_by_key(agg.num_aggregates, labels.zip(0u32..));
        let mut update = |i: usize| {
            let (cols, vals) = a.row(i);
            let mut acc = b[i];
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize != i {
                    acc -= v * x[c as usize];
                }
            }
            x[i] = acc * dinv[i];
        };
        let of_color = |color: u32| {
            let members = (0..agg.num_aggregates).filter(move |&cl| col.colors[cl] == color);
            members.map(|cl| &rows[off[cl]..off[cl + 1]])
        };
        for color in 0..col.num_colors {
            for cluster in of_color(color) {
                cluster.iter().for_each(|&i| update(i as usize));
            }
        }
        for color in (0..col.num_colors).rev() {
            for cluster in of_color(color) {
                cluster.iter().rev().for_each(|&i| update(i as usize));
            }
        }
    }

    /// `sgs_sweep` from a noisy start against [`reference_sweep`], at pools
    /// 1 and 3. Returns whether a color reached `MIN_REGION_NNZ`.
    fn sweep_matches_reference(
        what: &str,
        a: &CsrMatrix,
        agg: &Aggregation,
        col: &Coloring,
    ) -> bool {
        let noise = |salt: u64| -> Vec<f64> {
            (0..a.nrows() as u64)
                .map(|i| {
                    (mis2_prim::hash::splitmix64(i ^ salt) >> 12) as f64 / (1u64 << 51) as f64 - 1.0
                })
                .collect()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let (b, x0) = (noise(1), noise(2));
        let mut want = x0.clone();
        reference_sweep(a, agg, col, &b, &mut want);
        let gs = ClusterMcSgs::from_parts(a, agg, col);
        for pool in [1, 3] {
            let mut got = x0.clone();
            mis2_prim::pool::with_pool(pool, || gs.sgs_sweep(&b, &mut got));
            assert_eq!(bits(&got), bits(&want), "{what}, pool {pool}");
        }
        let mut colors = gs.color_ptr.windows(2).filter(|w| w[0] < w[1]);
        colors.any(|w| {
            let (lo, hi) = (gs.clusters[w[0]].0, gs.clusters[w[1] - 1].1);
            gs.row_ptr[hi] - gs.row_ptr[lo] >= MIN_REGION_NNZ
        })
    }

    #[test]
    fn sweep_storage_reproduces_the_row_walk_bit_for_bit() {
        // Every suite stand-in with unequal weights, and a grid operator
        // with one diagonal entry missing (that row's 1/d is 0.0).
        let mut matrices: Vec<(String, CsrMatrix)> =
            mis2_graph::suite::build_all(mis2_graph::Scale::Tiny)
                .into_iter()
                .map(|(name, g)| (name.to_string(), sgen::spd_from_graph(&g, 7)))
                .collect();
        let grid = sgen::laplace2d_matrix(9, 8);
        let entries: Vec<(u32, u32, f64)> = (0..grid.nrows())
            .flat_map(|r| {
                let (cols, vals) = grid.row(r);
                let row = cols.iter().zip(vals).map(move |(&c, &v)| (r as u32, c, v));
                row.filter(|&(r, c, _)| (r, c) != (13, 13))
            })
            .collect();
        matrices.push(("no pivot".into(), CsrMatrix::from_coo(72, 72, &entries)));
        for (name, a) in &matrices {
            let g = a.to_graph();
            for scheme in AggScheme::all() {
                let agg = scheme.aggregate(&g, 3);
                let coloring = color_d1(&quotient_graph(&g, &agg), 3);
                sweep_matches_reference(&format!("{name}, {scheme:?}"), a, &agg, &coloring);
            }
            // What `point` builds: one cluster per row, `g` colored.
            let rows: Vec<u32> = (0..a.nrows() as u32).collect();
            let singletons = Aggregation {
                labels: rows.clone(),
                num_aggregates: rows.len(),
                roots: rows,
            };
            let coloring = color_d1(&g, 3);
            sweep_matches_reference(&format!("{name}, point"), a, &singletons, &coloring);
        }
        // No color of a tiny stand-in reaches `MIN_REGION_NNZ`, so the pool
        // has not swept yet. The x-lines of a 40³ grid, checkerboarded over (y, z): two colors
        // of 800 clusters and 190 K nonzeros each.
        let (d, lines) = (40usize, 40 * 40);
        let a = sgen::spd_from_graph(&mis2_graph::gen::laplace3d(d, d, d), 7);
        let agg = Aggregation {
            labels: (0..d * lines).map(|i| (i / d) as u32).collect(),
            num_aggregates: lines,
            roots: (0..lines).map(|l| (l * d) as u32).collect(),
        };
        let colors = (0..lines).map(|l| ((l % d + l / d) % 2) as u32).collect();
        let coloring = Coloring::from_colors(colors, 1);
        assert!(sweep_matches_reference(
            "x-lines of 40^3",
            &a,
            &agg,
            &coloring
        ));
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
