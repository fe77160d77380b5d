//! Heap bounds of the graph builds and of Algorithm 1, counted by the
//! allocator, so they hold whatever the allocator does with freed memory.
//!
//! * `CsrGraph::from_edges` builds the graph in the arrays of its bucket:
//!   beyond the edge list it is given, the heap it holds at its peak is
//!   the bucket's offsets and targets, plus at most a quarter more (the
//!   per-participant counts of a split count pass, the row blocks' cuts).
//!   A build that re-assembles its rows into block buffers and then into
//!   fresh final arrays holds about twice the bucket, and fails here.
//! * `gen::mesh3d` writes its rows straight into the graph's arrays: at
//!   its peak it holds the graph and the bucket of its extra edges, plus
//!   at most a quarter of the graph. Building the stencil graph first and
//!   merging the extras into a second one holds about three graphs.
//! * The MIS-2 engine keeps its work arrays on the calling thread: a
//!   second run on the same thread and graph allocates at most a quarter
//!   of what the first did (the result, the per-block counts).
//! * Algorithm 2 from a given MIS-2 allocates its labels, the phase-1
//!   labels its leftovers read, and its roots: about 2.1 x the labels'
//!   bytes, and at most 2.25 x. Rooting through an n-sized copy of the
//!   labels as well allocates about 3.1 x, and fails here.
//! * An AMG V-cycle keeps every vector it needs in the hierarchy's
//!   per-level scratch: from its second call on, `AmgHierarchy::apply`
//!   on one thread allocates at most 1 KiB.
//! * An AMG hierarchy borrows the operator it is built for as its finest
//!   level: on Laplace3D 24^3 it holds its prolongators, their transposes
//!   and the coarse levels, about 2.1 x the operator's bytes, and at most
//!   2.5 x. A hierarchy that keeps its own copy of the operator holds
//!   about 3.1 x, and fails here.
//!
//! * Algorithm 3 from a given MIS-2 runs its phase-2 MIS-2 on the graph
//!   under the unaggregated mask: at its peak it holds its labels, the
//!   mask, the tuple ids of the kept vertices and the phase-2 result, about
//!   2.9 x the labels' bytes, and at most 4.5 x. Building the subgraph
//!   the unaggregated vertices induce holds about 6.4 x, and fails here.
//!
//! This binary's global allocator counts the bytes the measuring thread
//! and the pool's workers allocate and free: the bytes live, their
//! high-water mark, and the bytes ever asked for. Allocations made on pool
//! workers count too. The threads of the test harness do not: while one
//! test measures, the harness's main thread spawns the next test's thread
//! (its name, its handle), and those bytes are not the measured call's.
//! The tests take one lock, so that no two of them count at once.

use mis2_coarsen::{mis2_aggregation_from, mis2_basic_from};
use mis2_core::{mis2_with_config, Mis2Config};
use mis2_graph::gen::{self, rmat_edges};
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::pool::{self, with_pool};
use mis2_solver::{AmgConfig, AmgHierarchy, Preconditioner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// The system allocator, counting on the threads that count (see
/// [`counted`]) the bytes live, their high-water mark since
/// [`peak_above_start`] reset it, and the bytes allocated in all. Live
/// bytes are signed: a counted thread may free what an uncounted one
/// allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's allocations count: set on a pool worker for good, on
    /// a test's thread only while it measures.
    static COUNTS: Cell<bool> = const { Cell::new(false) };
}

/// Pool workers whose [`COUNTS`] is set.
static WORKERS_COUNTED: AtomicUsize = AtomicUsize::new(0);

/// Held by every test for as long as it counts.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn counts() -> bool {
    COUNTS.with(Cell::get)
}

fn grow(bytes: usize) {
    if counts() {
        ALLOCATED.fetch_add(bytes, Relaxed);
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if counts() {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// touch no heap memory, and `COUNTS` is a `const` thread-local without a
// destructor, so reading it allocates nothing either.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing reallocation may copy, so both blocks count for a
        // moment; glibc's `realloc` shrinks a block where it stands
        // (`Vec::shrink_to_fit` after a `truncate`).
        let old = layout.size();
        if new_size > old {
            grow(new_size);
        }
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if new_size > old {
            shrink(old);
        } else {
            shrink(old - new_size);
        }
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Set [`COUNTS`] on every worker the pool has spawned: each block of a
/// region sets it on the thread that runs it, until every worker has run
/// one. The region's team is the workers there are, so it spawns none.
fn count_pool_workers() {
    // The leader is a test's thread: it must not count itself as a worker.
    COUNTS.set(true);
    for _ in 0..1000 {
        let workers = pool::spawned_workers();
        if WORKERS_COUNTED.load(Relaxed) >= workers {
            break;
        }
        let team = workers + 1;
        pool::run_region_on(team, 4 * team, &|_| {
            if !COUNTS.replace(true) {
                WORKERS_COUNTED.fetch_add(1, Relaxed);
            }
            // Long enough for a parked worker to wake and take a block.
            let start = std::time::Instant::now();
            while start.elapsed() < std::time::Duration::from_micros(50) {}
        });
    }
    COUNTS.set(false);
    assert_eq!(
        WORKERS_COUNTED.load(Relaxed),
        pool::spawned_workers(),
        "every pool worker counts"
    );
}

/// Run `f` with this thread's and the pool workers' allocations counted.
fn counted<R>(f: impl FnOnce() -> R) -> R {
    count_pool_workers();
    COUNTS.set(true);
    let r = f();
    COUNTS.set(false);
    r
}

/// Run `f` and return what it returned with the most bytes live during
/// it, above those live when it started.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let r = counted(f);
    (r, (PEAK.load(Relaxed) - start) as usize)
}

/// Run `f` and return what it returned with the bytes live after it,
/// above those live when it started.
fn held_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Relaxed);
    let r = counted(f);
    (r, (LIVE.load(Relaxed) - start) as usize)
}

/// Run `f` and return what it returned with the bytes allocated during it.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = ALLOCATED.load(Relaxed);
    let r = counted(f);
    (r, ALLOCATED.load(Relaxed) - start)
}

#[test]
fn from_edges_holds_about_the_bucket_and_no_second_copy() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let scale = 14;
    let n = 1usize << scale;
    let edges: Vec<(VertexId, VertexId)> = rmat_edges(scale, 16, 0.57, 0.19, 0.19, 1);
    let loops = edges.iter().filter(|&&(u, v)| u == v).count();
    // Offsets, and both orientations of every non-loop sample.
    let bucket = (n + 1) * size_of::<usize>() + 2 * (edges.len() - loops) * size_of::<VertexId>();
    for pool in [1usize, 2, 3] {
        with_pool(pool, || {
            // The first build spawns the pool's workers.
            let want = CsrGraph::from_edges(n, &edges);
            let (g, peak) = peak_above_start(|| CsrGraph::from_edges(n, &edges));
            assert_eq!(g, want);
            assert!(
                4 * peak <= 5 * bucket,
                "pool {pool}: {peak} bytes at the peak, more than 1.25 x the bucket's {bucket}"
            );
        });
    }
}

#[test]
fn mesh3d_holds_its_graph_and_the_bucket_of_its_extras() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // `kernel_mesh`'s shape at two fifths of its size: 22 stencil
    // neighbours, 2 % of the vertices with 2 extras, 8 hubs of 26.
    let (n_target, frac, deg, hubs, hub_deg) = (200_000, 0.02, 2, 8, 26);
    let mesh = || gen::mesh3d(n_target, 22, frac, deg, 40, hubs, hub_deg, 1);
    for pool in [1usize, 2, 3] {
        with_pool(pool, || {
            let want = mesh();
            let n = want.num_vertices();
            // At most this many extra edges are drawn; their bucket holds
            // offsets and both orientations of each.
            let extras = (n as f64 * frac) as usize * deg + hubs * hub_deg;
            let bucket = (n + 1) * size_of::<usize>() + 2 * extras * size_of::<VertexId>();
            let (g, peak) = peak_above_start(mesh);
            assert_eq!(g, want);
            let graph = g.heap_bytes();
            assert!(
                4 * peak <= 5 * graph + 4 * bucket,
                "pool {pool}: {peak} bytes at the peak, more than 1.25 x the graph's {graph} \
                 and the extras' bucket of at most {bucket}"
            );
        });
    }
}

#[test]
fn a_second_mis2_on_the_same_thread_reuses_the_first_ones_work_arrays() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::mesh3d(60_000, 22, 0.02, 2, 40, 3, 26, 1);
    for pool in [1usize, 2] {
        for packed in [true, false] {
            let cfg = Mis2Config {
                packed,
                ..Default::default()
            };
            with_pool(pool, || {
                // Another graph's run first, so the one measured finds
                // arrays of the wrong size.
                mis2_with_config(&gen::laplace3d(9, 9, 9), &cfg);
                let (first, bytes) = allocated_by(|| mis2_with_config(&g, &cfg));
                let (second, again) = allocated_by(|| mis2_with_config(&g, &cfg));
                assert_eq!(first, second);
                assert!(
                    4 * again <= bytes,
                    "pool {pool}, packed {packed}: the second run allocated {again} bytes, \
                     the first {bytes}"
                );
            });
        }
    }
}

#[test]
fn algorithm_2_allocates_its_labels_twice_and_its_roots() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::laplace3d(24, 24, 24);
    let m = mis2_core::mis2(&g);
    let labels = g.num_vertices() * size_of::<u32>();
    for pool in [1usize, 2] {
        with_pool(pool, || {
            // The first call spawns the pool's workers.
            let want = mis2_basic_from(&g, &m);
            let (agg, bytes) = allocated_by(|| mis2_basic_from(&g, &m));
            assert_eq!(agg, want);
            assert!(
                4 * bytes <= 9 * labels,
                "pool {pool}: Algorithm 2 allocated {bytes} bytes, more than 2.25 x \
                 the labels' {labels}"
            );
        });
    }
}

#[test]
fn algorithm_3_builds_no_second_graph() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = gen::laplace3d(24, 24, 24);
    let cfg = Mis2Config::default();
    let m = mis2_with_config(&g, &cfg);
    let labels = g.num_vertices() * size_of::<u32>();
    for pool in [1usize, 2] {
        with_pool(pool, || {
            // The first call spawns the pool's workers and sizes this
            // thread's MIS-2 work arrays.
            let want = mis2_aggregation_from(&g, &cfg, &m);
            let (agg, peak) = peak_above_start(|| mis2_aggregation_from(&g, &cfg, &m));
            assert_eq!(agg, want);
            assert!(
                2 * peak <= 9 * labels,
                "pool {pool}: Algorithm 3 held {peak} bytes at its peak, more than 4.5 x \
                 the labels' {labels}"
            );
        });
    }
}

#[test]
fn an_amg_v_cycle_after_the_first_allocates_no_vectors() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let a = mis2_sparse::gen::laplace3d_matrix(24, 24, 24);
    let b: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect();
    with_pool(1, || {
        let amg = AmgHierarchy::build(&a, &AmgConfig::default());
        assert!(amg.num_levels() >= 3, "{} levels", amg.num_levels());
        let mut z = vec![0.0; a.nrows()];
        amg.apply(&b, &mut z);
        for call in 2..5 {
            let ((), bytes) = allocated_by(|| amg.apply(&b, &mut z));
            assert!(
                bytes <= 1024,
                "call {call} of apply allocated {bytes} bytes"
            );
        }
    });
}

#[test]
fn an_amg_hierarchy_holds_no_copy_of_its_operator() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let a = mis2_sparse::gen::laplace3d_matrix(24, 24, 24);
    let ((), operator) = allocated_by(|| drop(a.clone()));
    for pool in [1usize, 2, 3] {
        with_pool(pool, || {
            // The first build sizes the per-thread MIS-2 work arrays and
            // spawns the pool's workers, which the second then reuses.
            drop(AmgHierarchy::build(&a, &AmgConfig::default()));
            let (amg, held) = held_by(|| AmgHierarchy::build(&a, &AmgConfig::default()));
            assert!(amg.num_levels() >= 3, "{} levels", amg.num_levels());
            assert!(
                2 * held <= 5 * operator,
                "pool {pool}: the hierarchy holds {held} bytes, more than 2.5 x \
                 the operator's {operator}"
            );
        });
    }
}
