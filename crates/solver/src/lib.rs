//! # mis2-solver — Krylov solvers and MIS-2-powered preconditioners
//!
//! The two solver use cases the paper builds on top of MIS-2 aggregation:
//!
//! * [`amg`] — smoothed-aggregation algebraic multigrid with a pluggable
//!   aggregation scheme and two Jacobi sweeps as the smoother (the
//!   Table V "MueLu" experiment);
//! * [`gs`] — the paper's **cluster multicolor Gauss-Seidel** (Algorithm 4,
//!   the Table VI experiment), and point multicolor symmetric Gauss-Seidel
//!   (Deveci et al.) as cluster SGS over singleton clusters;
//! * [`cg`] / [`mod@gmres`] — deterministic preconditioned CG and restarted
//!   right-preconditioned GMRES;
//! * [`precond`] — the preconditioner trait, identity/Jacobi members and
//!   the weighted-Jacobi smoother.

pub mod amg;
pub mod cg;
pub mod gmres;
pub mod gs;
pub mod precond;

pub use amg::{AmgConfig, AmgHierarchy, AmgSetupStats};
pub use cg::{pcg, SolveOpts, SolveResult};
pub use gmres::{gmres, DEFAULT_RESTART};
pub use gs::ClusterMcSgs;
pub use precond::{Identity, Jacobi, JacobiSmoother, Preconditioner};
