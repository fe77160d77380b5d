//! # mis2-coarsen — MIS-2 based graph coarsening and aggregation
//!
//! The second half of the paper's contribution: turning a distance-2
//! maximal independent set into a graph coarsening for algebraic multigrid
//! and cluster preconditioners.
//!
//! * [`basic`] — Algorithm 2, the Bell et al. root+neighbors coarsening
//!   (what ViennaCL ships).
//! * [`mis2_agg`] — Algorithm 3, the paper's three-phase deterministic
//!   aggregation ("MIS2 Agg" in Table V).
//! * [`serial`] — MueLu's sequential host aggregation ("Serial Agg").
//! * [`d2c`] — distance-2-coloring driven aggregation ("Serial D2C" and
//!   "NB D2C").
//! * [`scheme`] — one enum over all five Table V schemes.
//! * [`prolongator`] — tentative and smoothed prolongators for SA-AMG.
//! * [`hierarchy`] — quotient graphs and recursive multilevel coarsening.
//! * [`agg`] — the [`Aggregation`] type, validation, and the construction
//!   steps the schemes share.
//! * [`spec`] — Algorithms 2 and 3 as serial specifications, the schemes'
//!   bitwise oracles.
//! * [`stats`] — aggregate shape metrics, among them the root radius that
//!   Algorithms 2 and 3 bound by 2.

pub mod agg;
pub mod basic;
pub mod d2c;
pub mod hierarchy;
pub mod mis2_agg;
pub mod prolongator;
pub mod scheme;
pub mod serial;
pub mod spec;
pub mod stats;

pub use agg::{AggViolation, Aggregation, UNAGGREGATED};
pub use basic::{mis2_basic, mis2_basic_from};
pub use d2c::{d2c_aggregation, nb_d2c_aggregation, serial_d2c_aggregation};
pub use hierarchy::{coarsen_recursive, extend, quotient_graph, Level};
pub use mis2_agg::{mis2_aggregation, mis2_aggregation_from, mis2_aggregation_with};
pub use prolongator::{smoothed_prolongator, tentative_prolongator};
pub use scheme::AggScheme;
pub use serial::serial_aggregation;
pub use stats::{aggregate_stats, AggStats};
