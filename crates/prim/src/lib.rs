//! # mis2-prim — parallel primitives substrate
//!
//! Low-level building blocks shared by every other crate in the workspace:
//!
//! * [`par`] — the portable execution layer: parallel for/map/reduce with a
//!   serial backend and a threaded backend selected by the `parallel` cargo
//!   feature, bitwise-identical results on both. Every algorithm crate
//!   expresses its parallelism through this module — the Rust analogue of
//!   the paper's Kokkos execution-space portability.
//! * [`hash`] — the Marsaglia xorshift family of hash functions used by the
//!   paper's Algorithm 1 to derive fresh pseudo-random priorities each
//!   iteration (Section V-A of the paper), plus splitmix64 for seeding.
//! * [`scan`] — deterministic parallel prefix sums ("scan"). The paper uses
//!   Kokkos' `parallel_scan` to compact worklists (Section V-B); this module
//!   is the Rust equivalent with identical output for any thread count.
//! * [`compact`] — order-preserving parallel stream compaction (filter)
//!   built on the scan; its one scatter, `pack`, also compacts the two
//!   worklists of Algorithm 1.
//! * [`bucket`] — the one stable counting sort by small integer key (color
//!   sets, cluster membership, aggregate members, edges by source, matrix
//!   entries by row or column).
//! * [`rows`] — row-block CSR assembly: blocks of rows append to one
//!   buffer each and are placed with one copy per block; the one builder
//!   under every graph and matrix producer in the workspace.
//! * [`reduce`] — deterministic parallel reductions (sums, min/max) whose
//!   results do not depend on the number of worker threads.
//! * [`pool`] — the lazily initialized persistent worker pool behind the
//!   threaded backend (OS threads that spin briefly, then park, between
//!   regions), plus helpers to run closures with the team capped to a
//!   fixed size (for the strong-scaling experiments of Figures 4 and 5).
//! * [`timer`] — wall-clock timing and sample statistics used by the
//!   benchmark harness.
//!
//! Everything in this crate is deterministic: given the same inputs, the
//! same outputs are produced regardless of thread count or scheduling.

pub mod bucket;
pub mod compact;
pub mod hash;
pub mod par;
pub mod pool;
pub mod ptr;
pub mod reduce;
pub mod rows;
pub mod scan;
pub mod timer;

pub use bucket::bucket_by_key;
pub use compact::{par_filter, par_filter_indices};
pub use hash::{hash2, splitmix64, xorshift64, xorshift64_star};
pub use pool::{
    contended_regions, max_threads, run_region_on, spawned_workers, with_pool, MAX_TEAM,
};
pub use ptr::SharedMut;
pub use reduce::{det_max, det_min};
pub use scan::{exclusive_scan, exclusive_scan_in_place};
pub use timer::{geometric_mean, SampleStats, Timer};
