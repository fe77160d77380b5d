//! The 17-problem test suite.
//!
//! All experiments in the paper use the same 17 matrices (Table II): two
//! generated by Galeri/Trilinos (`Laplace3D_100`, `Elasticity3D_60`) and 15
//! from the SuiteSparse collection. The SuiteSparse files cannot be bundled,
//! so this module builds deterministic *synthetic stand-ins* whose |V|,
//! average degree and maximum degree match the published values (left half
//! of Table II); the two Galeri problems are generated exactly.
//!
//! Rationale per stand-in model:
//! * 2D/3D stencils for the structured matrices (`apache2`, `tmt_sym`,
//!   `ecology2`-like lattices);
//! * [`crate::gen::mesh3d`] (nearest-offset stencil + jitter + local hubs)
//!   for the finite-element matrices (`af_shell7`, `audikw_1`, `Serena`,
//!   ...), matching their degree mean and spread;
//! * a honeycomb lattice for `ecology2` (exactly 3-regular in the interior).
//!
//! Real `.mtx` files can be substituted via [`crate::io::read_graph_file`].
//!
//! ## Substitution policy
//!
//! What the reproduction replaces, and what a replaced input may still be
//! used to show. Every other module that substitutes something cites this
//! section.
//!
//! * **Matrices.** The two Galeri problems are generated exactly; the 15
//!   SuiteSparse matrices are stand-ins matched on |V|, average degree and
//!   maximum degree. MIS-2 behaviour (iteration counts, set size relative
//!   to |V|, runtime per edge) is governed by graph size, degree
//!   distribution and locality, which the models reproduce — so *shapes*
//!   (rankings, growth laws, ratios between schemes) are compared with the
//!   paper, never a matrix's absolute set size or time.
//! * **Operators.** Where the paper solves a physical system on such a
//!   matrix (Table VI, Galeri's Elasticity3D), the stand-in is an SPD,
//!   diagonally dominant operator on the same pattern
//!   (`mis2_sparse::gen`): the experiments test solver plumbing and
//!   aggregation quality on that structure, not the physics.
//! * **Architectures.** The paper's four machines (V100, MI100, Skylake,
//!   ThunderX2) become worker-pool sizes of the one host CPU, and its
//!   datasheet bandwidths a triad measured per pool size (`mis2_bench`);
//!   a speed-up is reported against the same host's serial run only.
//! * **A claim that does not hold on a stand-in** is reported in the
//!   table's note as a finding; the stand-in is not tuned until it does.
//!
//! Beyond Table II, [`extra_workloads`] adds R-MAT power-law cells
//! (Graph500-style and skewed) whose hub rows stress the engine's block
//! load balance; [`all_workloads`] is the combined list accepted by
//! [`try_build`].

use crate::csr::{CsrGraph, VertexId};
use crate::gen;

/// Problem size selector for the whole benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~1/64 of the paper's vertex counts — CI-friendly smoke scale.
    Tiny,
    /// ~1/8 of the paper's vertex counts — default laptop scale.
    Small,
    /// The paper's full sizes (10^6-vertex graphs; needs a few GB).
    Paper,
}

impl Scale {
    /// Divide a linear grid dimension according to the scale (vertex counts
    /// shrink with the cube for 3D problems).
    pub fn dim3(self, d: usize) -> usize {
        match self {
            Scale::Paper => d,
            Scale::Small => (d / 2).max(4),
            Scale::Tiny => (d / 4).max(3),
        }
    }

    /// Divide a 2D grid dimension.
    pub fn dim2(self, d: usize) -> usize {
        match self {
            Scale::Paper => d,
            Scale::Small => (d * 10 / 28).max(4), // side / sqrt(8)
            Scale::Tiny => (d / 8).max(4),
        }
    }

    /// Divide a raw vertex count.
    pub fn count(self, n: usize) -> usize {
        match self {
            Scale::Paper => n,
            Scale::Small => (n / 8).max(64),
            Scale::Tiny => (n / 64).max(64),
        }
    }

    /// Reduce an R-MAT scale exponent (vertex counts shrink by the same
    /// 1/8 and 1/64 factors as [`Scale::count`], i.e. 3 and 6 bits).
    pub fn rmat(self, s: u32) -> u32 {
        match self {
            Scale::Paper => s,
            Scale::Small => s.saturating_sub(3).max(8),
            Scale::Tiny => s.saturating_sub(6).max(8),
        }
    }

    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Published statistics for one suite matrix (Table II of the paper).
#[derive(Debug, Clone, Copy)]
pub struct PaperStats {
    /// |V| in millions.
    pub v_millions: f64,
    /// |E| (stored nonzeros) in millions.
    pub e_millions: f64,
    pub avg_degree: f64,
    pub max_degree: usize,
}

/// One of the 17 suite problems.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub paper: PaperStats,
    /// True for the two Galeri problems that we generate exactly.
    pub exact: bool,
}

/// Honeycomb (brick-wall) lattice: interior degree exactly 3 — the
/// `ecology2` stand-in (paper: avg degree 3, max degree 3).
pub fn honeycomb(nx: usize, ny: usize) -> CsrGraph {
    let n = nx * ny;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(n * 2);
    for y in 0..ny {
        for x in 0..nx {
            let v = (y * nx + x) as VertexId;
            if x + 1 < nx {
                edges.push((v, v + 1));
            }
            // Vertical rung on alternating parity -> degree 3 interior.
            if y + 1 < ny && (x + y) % 2 == 0 {
                edges.push((v, v + nx as VertexId));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// 2D grid with a sparse sprinkling of diagonal edges; `sprinkle_mod`
/// controls the fraction (one diagonal per `sprinkle_mod` cells). Used for
/// the `tmt_sym` / `parabolic_fem` / `thermal2` stand-ins whose max degree
/// slightly exceeds the 5-point stencil's 4.
pub fn grid2d_sprinkled(nx: usize, ny: usize, sprinkle_mod: usize, extra_at: usize) -> CsrGraph {
    let g = gen::laplace2d(nx, ny);
    let mut extra: Vec<(VertexId, VertexId)> = Vec::new();
    if sprinkle_mod > 0 {
        for y in 0..ny.saturating_sub(1) {
            for x in 0..nx.saturating_sub(1) {
                if (x * 31 + y * 17) % sprinkle_mod == 0 {
                    let v = (y * nx + x) as VertexId;
                    extra.push((v, v + nx as VertexId + 1));
                }
            }
        }
    }
    // A few star centers to reach the published max degree.
    if extra_at > 4 {
        let hubs = [(nx / 3, ny / 3), (2 * nx / 3, ny / 2), (nx / 2, 2 * ny / 3)];
        for (hx, hy) in hubs {
            let v = (hy * nx + hx) as VertexId;
            for k in 0..extra_at.saturating_sub(4) {
                let dx = (k % 5) as i64 - 2;
                let dy = (k / 5) as i64 + 2;
                let (ux, uy) = (hx as i64 + dx, hy as i64 + dy);
                if ux >= 0 && (ux as usize) < nx && uy >= 0 && (uy as usize) < ny {
                    extra.push((v, (uy as usize * nx + ux as usize) as VertexId));
                }
            }
        }
    }
    gen::merge_edges(&g, &extra)
}

fn w(name: &'static str, v: f64, e: f64, avg: f64, max: usize, exact: bool) -> Workload {
    Workload {
        name,
        paper: PaperStats {
            v_millions: v,
            e_millions: e,
            avg_degree: avg,
            max_degree: max,
        },
        exact,
    }
}

/// The 17 suite workloads in the paper's Table II order.
pub fn workloads() -> Vec<Workload> {
    vec![
        w("af_shell7", 0.505, 9.047, 17.92, 35, false),
        w("apache2", 0.715, 2.767, 3.87, 4, false),
        w("audikw_1", 0.944, 39.298, 41.64, 114, false),
        w("ecology2", 1.000, 2.998, 3.0, 3, false),
        w("Elasticity3D_60", 0.648, 50.758, 78.33, 81, true),
        w("Emilia_923", 0.923, 20.964, 22.71, 48, false),
        w("Fault_639", 0.639, 14.627, 22.9, 114, false),
        w("Geo_1438", 1.438, 32.297, 22.46, 48, false),
        w("Hook_1498", 1.498, 31.208, 20.83, 57, false),
        w("Laplace3D_100", 1.0, 6.94, 6.94, 7, true),
        w("ldoor", 0.952, 23.737, 24.93, 49, false),
        w("parabolic_fem", 0.526, 2.1, 3.99, 7, false),
        w("PFlow_742", 0.743, 18.941, 25.5, 58, false),
        w("Serena", 1.391, 32.962, 23.69, 201, false),
        w("StocF-1465", 1.465, 11.235, 7.67, 80, false),
        w("thermal2", 1.228, 4.904, 3.99, 10, false),
        w("tmt_sym", 0.727, 2.904, 4.0, 5, false),
    ]
}

/// Power-law workload cells beyond the paper's Table II. The suite matrices
/// are all meshes and lattices with bounded degree spread; these R-MAT
/// graphs add the scale-free regime (hub degrees thousands of times the
/// average), where one hub row can dominate a dispatch block. The stats
/// are generator targets, not published values, and `exact` is true since
/// the generator is the definition. Kept out of [`workloads`] so Table-II
/// reproductions (`build_all`, Table I/III experiments) stay exactly the
/// paper's 17 cells; sweeps that want full coverage use [`all_workloads`].
pub fn extra_workloads() -> Vec<Workload> {
    vec![
        // Graph500-style mix (a=0.57, b=0.19, c=0.19), 2^20 vertices.
        w("rmat_20", 1.049, 15.1, 14.4, 12_000, true),
        // Harder skew (a=0.65): steeper tail, bigger hubs, 2^18 vertices.
        w("rmat_18_skew", 0.262, 3.6, 13.8, 9_000, true),
    ]
}

/// [`workloads`] plus [`extra_workloads`] — everything [`try_build`] accepts.
pub fn all_workloads() -> Vec<Workload> {
    let mut all = workloads();
    all.extend(extra_workloads());
    all
}

/// Build the synthetic stand-in graph for a suite problem at the given
/// scale. Deterministic: same `(name, scale)` always yields the same graph.
///
/// Panics on an unknown name; fallible callers (the CLI) should use
/// [`try_build`] instead.
pub fn build(name: &str, scale: Scale) -> CsrGraph {
    try_build(name, scale).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`build`]: an unknown name yields an error message that lists
/// every valid workload instead of panicking.
pub fn try_build(name: &str, scale: Scale) -> Result<CsrGraph, String> {
    let seed: u64 = 0x4D49_5332; // "MIS2"
    let g = match name {
        // --- exact Galeri problems ------------------------------------
        "Laplace3D_100" => {
            let d = scale.dim3(100);
            gen::laplace3d(d, d, d)
        }
        "Elasticity3D_60" => {
            let d = scale.dim3(60);
            gen::elasticity3d(d, d, d, 3)
        }
        // --- 2D structured stand-ins -----------------------------------
        "apache2" => {
            let d = scale.dim2(846); // 846^2 = 715,716
            gen::laplace2d(d, d)
        }
        "ecology2" => {
            let d = scale.dim2(1000);
            honeycomb(d, d)
        }
        "tmt_sym" => {
            let d = scale.dim2(853); // 853^2 = 727,609
            grid2d_sprinkled(d, d, 97, 0)
        }
        "parabolic_fem" => {
            let d = scale.dim2(725); // 725^2 = 525,625
            grid2d_sprinkled(d, d, 211, 7)
        }
        "thermal2" => {
            let d = scale.dim2(1108); // 1108^2 = 1,227,664
            grid2d_sprinkled(d, d, 139, 10)
        }
        // --- 3D FE-mesh stand-ins (mesh3d: base_deg, extra, window, hubs) --
        "af_shell7" => mesh3d_for(scale.count(505_000), 18, 17, seed ^ 1),
        "audikw_1" => mesh3d_for(scale.count(944_000), 42, 72, seed ^ 2),
        "Emilia_923" => mesh3d_for(scale.count(923_000), 22, 26, seed ^ 3),
        "Fault_639" => mesh3d_for(scale.count(639_000), 22, 92, seed ^ 4),
        "Geo_1438" => mesh3d_for(scale.count(1_438_000), 22, 26, seed ^ 5),
        "Hook_1498" => mesh3d_for(scale.count(1_498_000), 20, 37, seed ^ 6),
        "ldoor" => mesh3d_for(scale.count(952_000), 24, 25, seed ^ 7),
        "PFlow_742" => mesh3d_for(scale.count(743_000), 25, 33, seed ^ 8),
        "Serena" => mesh3d_for(scale.count(1_391_000), 23, 178, seed ^ 9),
        "StocF-1465" => mesh3d_for(scale.count(1_465_000), 8, 72, seed ^ 10),
        // --- power-law extras (exact R-MAT generators) -------------------
        "rmat_20" => gen::rmat(scale.rmat(20), 16, 0.57, 0.19, 0.19, seed ^ 11),
        "rmat_18_skew" => gen::rmat(scale.rmat(18), 16, 0.65, 0.15, 0.15, seed ^ 12),
        other => {
            return Err(format!(
                "unknown suite workload: {other}\nvalid workloads: {}",
                all_workloads()
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        }
    };
    Ok(g)
}

fn mesh3d_for(n: usize, base_deg: usize, hub_extra: usize, seed: u64) -> CsrGraph {
    let hubs = (n / 20_000).max(3);
    gen::mesh3d(n, base_deg, 0.02, 2, 40, hubs, hub_extra, seed)
}

/// Convenience: build every workload at `scale` as `(name, graph)` pairs.
pub fn build_all(scale: Scale) -> Vec<(&'static str, CsrGraph)> {
    workloads()
        .iter()
        .map(|w| (w.name, build(w.name, scale)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honeycomb_is_3_regular_interior() {
        let g = honeycomb(20, 20);
        assert_eq!(g.max_degree(), 3);
        assert!(g.avg_degree() > 2.5);
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn all_workloads_build_tiny() {
        for w in workloads() {
            let g = build(w.name, Scale::Tiny);
            assert!(g.num_vertices() > 0, "{} empty", w.name);
            g.validate_symmetric()
                .unwrap_or_else(|e| panic!("{} asymmetric: {e}", w.name));
        }
    }

    #[test]
    fn tiny_scale_degree_targets() {
        // At tiny scale boundary effects bite, so allow generous tolerance;
        // the point is that each stand-in lands in the right degree regime.
        for w in workloads() {
            let g = build(w.name, Scale::Tiny);
            let avg = g.avg_degree();
            let lo = w.paper.avg_degree * 0.55;
            let hi = w.paper.avg_degree * 1.45 + 1.0;
            assert!(
                avg >= lo && avg <= hi,
                "{}: avg degree {avg:.2} outside [{lo:.2}, {hi:.2}] (paper {})",
                w.name,
                w.paper.avg_degree
            );
        }
    }

    #[test]
    fn exact_problems_flagged() {
        let names: Vec<_> = workloads()
            .iter()
            .filter(|w| w.exact)
            .map(|w| w.name)
            .collect();
        assert_eq!(names, vec!["Elasticity3D_60", "Laplace3D_100"]);
    }

    #[test]
    fn scale_reduces_size() {
        let t = build("Laplace3D_100", Scale::Tiny);
        let s = build("Laplace3D_100", Scale::Small);
        assert!(t.num_vertices() < s.num_vertices());
        assert_eq!(t.num_vertices(), 25 * 25 * 25);
        assert_eq!(s.num_vertices(), 50 * 50 * 50);
    }

    #[test]
    fn builds_are_deterministic() {
        let a = build("af_shell7", Scale::Tiny);
        let b = build("af_shell7", Scale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    #[should_panic(expected = "unknown suite workload")]
    fn unknown_workload_panics() {
        build("not_a_matrix", Scale::Tiny);
    }

    #[test]
    fn try_build_error_lists_valid_workloads() {
        let err = try_build("not_a_matrix", Scale::Tiny).unwrap_err();
        assert!(err.contains("unknown suite workload: not_a_matrix"));
        for w in all_workloads() {
            assert!(err.contains(w.name), "error must list {}", w.name);
        }
        assert!(try_build("ecology2", Scale::Tiny).is_ok());
    }

    #[test]
    fn table2_stays_seventeen_cells() {
        // The Table II reproduction set must not absorb the extras.
        assert_eq!(workloads().len(), 17);
        assert_eq!(all_workloads().len(), 17 + extra_workloads().len());
    }

    #[test]
    fn rmat_extras_build_and_are_skewed() {
        for w in extra_workloads() {
            let g = build(w.name, Scale::Tiny);
            assert!(g.num_vertices() > 0, "{} empty", w.name);
            g.validate_symmetric()
                .unwrap_or_else(|e| panic!("{} asymmetric: {e}", w.name));
            // The whole point of the R-MAT cells: a heavy degree tail the
            // mesh stand-ins don't have.
            assert!(
                (g.max_degree() as f64) > 3.0 * g.avg_degree(),
                "{}: max degree {} not skewed vs avg {:.1}",
                w.name,
                g.max_degree(),
                g.avg_degree()
            );
        }
    }

    #[test]
    fn rmat_extras_deterministic() {
        let a = build("rmat_18_skew", Scale::Tiny);
        let b = build("rmat_18_skew", Scale::Tiny);
        assert_eq!(a, b);
    }
}
