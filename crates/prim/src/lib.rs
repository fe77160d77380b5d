//! # mis2-prim — parallel primitives substrate
//!
//! Low-level building blocks shared by every other crate in the workspace:
//!
//! * [`par`] — the portable execution layer: parallel for/map/reduce over
//!   the worker pool, bitwise-identical results at every team size, a team
//!   of one (the serial path) included. Every algorithm crate expresses its
//!   parallelism through this module — the Rust analogue of the paper's
//!   Kokkos execution-space portability.
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
//!   under every producer that learns a row's length only by writing it
//!   (quotient graphs, SpGEMM, the prolongator and Galerkin row merges,
//!   the matrix generators). `CsrGraph::from_edges` and the
//!   graph generators know their row lengths first and write their final
//!   arrays directly.
//! * [`reduce`] — deterministic parallel reductions (sums, min/max) whose
//!   results do not depend on the number of worker threads.
//! * [`ptr`] — `SharedMut`, the one raw-pointer wrapper: disjoint writes
//!   from several threads into one slice, built only by
//!   `par::for_chunks_mut` (the one hand-off of a `&mut` piece of a slice
//!   to a pool block), `bucket_by_key`'s place pass and the frozen seed
//!   engine.
//! * [`cells`] — relaxed atomic cells over a `&mut [u32]` or `&mut [f64]`:
//!   the writes whose disjointness rests on a caller's coloring (D2C's
//!   roots, Algorithm 4's sweeps) cannot race whatever the coloring.
//! * [`pool`] — the lazily initialized persistent worker pool behind
//!   [`par`] (OS threads that spin briefly, then park, between regions),
//!   plus [`with_pool`], which caps the team at a fixed size: the
//!   strong-scaling experiments of Figures 4 and 5, and serial execution
//!   at a cap of one.
//!
//! Everything in this crate is deterministic: given the same inputs, the
//! same outputs are produced regardless of thread count or scheduling.

pub mod bucket;
pub mod cells;
pub mod compact;
pub mod hash;
pub mod par;
pub mod pool;
pub mod ptr;
pub mod reduce;
pub mod rows;
pub mod scan;

pub use bucket::{bucket_by_key, bucket_indices};
pub use compact::{par_filter, par_filter_indices};
pub use hash::{hash2, splitmix64, xorshift64, xorshift64_star};
pub use pool::{
    contended_regions, max_threads, run_region_on, spawned_workers, with_pool, MAX_TEAM,
};
pub use ptr::SharedMut;
pub use reduce::{det_max, det_min};
pub use scan::{exclusive_scan, exclusive_scan_in_place};
