//! # mis2-sparse — sparse linear algebra substrate
//!
//! CSR matrices and the kernels the paper's solver experiments need:
//!
//! * [`csr_matrix`] — [`CsrMatrix`] with parallel SpMV, transpose,
//!   diagonal extraction, graph extraction.
//! * [`mod@spgemm`] — row-parallel Gustavson SpGEMM and the Galerkin triple
//!   product `Pᵀ A P` for smoothed-aggregation AMG.
//! * [`kernels`] — deterministic vector kernels (axpy, dot, norms) so whole
//!   Krylov solves are bitwise reproducible across thread counts, and the
//!   [`Operator`] trait CG and GMRES apply their matrix through.
//! * [`dense`] — dense LU for the coarsest AMG level.
//! * [`gen`] — matrix generators (Galeri-style Laplace operators, SPD
//!   operators over arbitrary graphs, the matrix-free
//!   [`gen::GraphLaplacian`]).

pub mod csr_matrix;
pub mod dense;
pub mod gen;
pub mod kernels;
pub mod spgemm;

pub use csr_matrix::{CsrMatrix, MatrixError};
pub use dense::{DenseMatrix, LuFactors, SingularMatrix};
pub use kernels::Operator;
pub use spgemm::{add_scaled, galerkin_product, scale_rows, spgemm};
