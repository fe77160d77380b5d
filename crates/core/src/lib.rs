//! # mis2-core — parallel, deterministic distance-2 maximal independent set
//!
//! Rust reproduction of the MIS-2 algorithm of Kelley & Rajamanickam,
//! *"Parallel, Portable Algorithms for Distance-2 Maximal Independent Set
//! and Graph Coarsening"* (IPDPS 2022), as shipped in Kokkos Kernels.
//!
//! ## Quick start
//!
//! ```
//! use mis2_core::mis2;
//! use mis2_graph::gen;
//!
//! let g = gen::laplace3d(20, 20, 20);
//! let result = mis2(&g);
//! mis2_core::verify::verify_mis2(&g, &result.is_in).unwrap();
//! println!("|MIS-2| = {} in {} iterations", result.size(), result.iterations);
//! ```
//!
//! ## Modules
//!
//! * [`engine`] — Algorithm 1 with its three togglable optimizations
//!   (priority refresh, worklists, packed tuples). The paper's fourth,
//!   Section V-D, spreads one vertex's neighbors over GPU vector lanes and
//!   has no CPU counterpart; the engine iterates neighbors serially.
//! * [`bell`] — the Bell/Dalton/Olson MIS-k baseline (what CUSP and
//!   ViennaCL implement), used for Figures 6-7 and Table IV. At `k = 1` on
//!   `G²` it returns its own `k = 2` result on `G` (Lemma IV.2), which the
//!   tests assert.
//! * [`spec`] — Algorithm 1 as a serial specification: safe, whole-array
//!   rounds, the bitwise oracle the engine is tested against.
//! * [`mod@reference`] — the frozen seed engine, the repo benchmark's
//!   kernel oracle and baseline.
//! * [`mod@tuple`] — packed and 3-field status tuples (Section V-C).
//! * [`priority`] — Fixed / xorshift / xorshift\* priority schemes
//!   (Section V-A, Table I).
//! * [`verify`] — O(V+E) validity checkers for MIS-1/MIS-2.
//!
//! ## Determinism
//!
//! Every algorithm in this crate is deterministic: results depend only on
//! the graph and the configured seed, never on thread count, scheduling or
//! memory layout. This mirrors the paper's headline property ("producing an
//! identical result for a given input across all of these platforms").

pub mod bell;
pub mod engine;
pub mod priority;
pub mod reference;
pub mod spec;
pub mod tuple;
pub mod verify;

pub use bell::{bell_mis2, bell_mis_k};
pub use engine::{mis2, mis2_masked, mis2_with_config, Mis2Config, Mis2Result, RoundStats};
pub use priority::PriorityScheme;
pub use verify::{verify_mis1, verify_mis2, MisViolation};
