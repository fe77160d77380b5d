//! # mis2-graph — graph substrate
//!
//! CSR graph storage, generators, Matrix Market I/O and graph operations for
//! the MIS-2 / coarsening stack:
//!
//! * [`csr`] — the [`CsrGraph`] structure (validated CSR, undirected, no
//!   self-loops) and summary statistics.
//! * [`gen`] — deterministic generators: the paper's Galeri problems
//!   (Laplace3D, Elasticity3D), general stencils, random models
//!   (Erdős–Rényi, RMAT, quasi-regular), FE-mesh-like graphs.
//! * [`suite`] — the 17-problem evaluation suite of the paper (Table II),
//!   with synthetic stand-ins for the SuiteSparse matrices.
//! * [`io`] — Matrix Market reading/writing for running on real inputs.
//! * [`ops`] — graph squaring (`G²`, for the Lemma IV.2 tests), quotient
//!   graphs (the coarse level of every coarsening), connected components,
//!   degree histograms.

pub mod csr;
pub mod gen;
pub mod io;
pub mod ops;
pub mod suite;

pub use csr::{CsrGraph, GraphError, GraphStats, VertexId};
pub use suite::{Scale, Workload};
