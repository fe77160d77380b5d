//! # mis2 — Parallel, Deterministic Distance-2 Maximal Independent Set and
//! Graph Coarsening
//!
//! A from-scratch Rust reproduction of Kelley & Rajamanickam, *"Parallel,
//! Portable Algorithms for Distance-2 Maximal Independent Set and Graph
//! Coarsening"* (IPDPS 2022), the MIS-2 implementation shipped in Kokkos
//! Kernels — including every substrate the paper's evaluation depends on
//! (graphs and generators, sparse linear algebra, coloring, aggregation,
//! Krylov solvers, smoothed-aggregation multigrid, cluster Gauss-Seidel).
//!
//! ## Quick start
//!
//! ```
//! use mis2::prelude::*;
//!
//! // The paper's Laplace3D problem (Galeri 7-point stencil).
//! let g = mis2::graph::gen::laplace3d(20, 20, 20);
//!
//! // Algorithm 1: parallel, deterministic MIS-2.
//! let result = mis2::mis2(&g);
//! assert!(mis2::core::verify_mis2(&g, &result.is_in).is_ok());
//!
//! // Algorithm 3: MIS-2 aggregation for multigrid coarsening.
//! let agg = mis2::coarsen::mis2_aggregation(&g);
//! assert!(agg.validate(&g).is_ok());
//! println!("|MIS-2| = {}, {} aggregates", result.size(), agg.num_aggregates);
//! ```
//!
//! ## Crate map
//!
//! | module | underlying crate | contents |
//! |---|---|---|
//! | [`prim`] | `mis2-prim` | scans, compaction, hashes, pools, timing |
//! | [`graph`] | `mis2-graph` | CSR graphs, generators, Matrix Market, G² |
//! | [`sparse`] | `mis2-sparse` | CSR matrices, SpMV, SpGEMM, Galerkin, LU |
//! | [`core`] | `mis2-core` | **Algorithm 1**, its serial spec, Bell baseline |
//! | [`color`] | `mis2-color` | D1/D2 parallel colorings, color sets |
//! | [`coarsen`] | `mis2-coarsen` | **Algorithms 2 & 3**, baselines, prolongators |
//! | [`solver`] | `mis2-solver` | CG, GMRES, cluster SGS (**Algorithm 4**; point SGS is its singleton-cluster case), SA-AMG |
//! | [`svc`] | `mis2-svc` | graph registry, batching scheduler, loopback server |
//!
//! Benchmarks reproducing every table and figure live in the `mis2-bench`
//! crate (`cargo run -p mis2-bench --release --bin repro -- all`).

pub use mis2_coarsen as coarsen;
pub use mis2_color as color;
pub use mis2_core as core;
pub use mis2_graph as graph;
pub use mis2_prim as prim;
pub use mis2_solver as solver;
pub use mis2_sparse as sparse;
pub use mis2_svc as svc;

pub use mis2_core::{mis2, mis2_with_config, Mis2Config, Mis2Result};

/// Commonly used items in one import.
pub mod prelude {
    pub use mis2_coarsen::{
        aggregate_stats, mis2_aggregation, mis2_basic, AggScheme, AggStats, Aggregation,
    };
    pub use mis2_color::{color_d1, color_d2, Coloring};
    pub use mis2_core::{
        bell_mis2, mis2, mis2_with_config, verify_mis2, Mis2Config, Mis2Result, PriorityScheme,
    };
    pub use mis2_graph::{CsrGraph, GraphStats, Scale, VertexId};
    pub use mis2_solver::{
        gmres, pcg, AmgConfig, AmgHierarchy, ClusterMcSgs, Preconditioner, SolveOpts,
    };
    pub use mis2_sparse::CsrMatrix;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        let g = crate::graph::gen::path(10);
        let r = crate::mis2(&g);
        assert!(r.size() >= 2);
    }
}
