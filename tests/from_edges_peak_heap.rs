//! `CsrGraph::from_edges` builds the graph in the arrays of its bucket:
//! beyond the edge list it is given, the heap it holds at its peak is the
//! bucket's offsets and targets, plus at most a quarter more (the
//! per-participant counts of a split count pass, the row blocks' cuts).
//! A build that re-assembles its rows into block buffers and then into
//! fresh final arrays holds about twice the bucket, and fails here.
//!
//! This binary's global allocator counts live bytes over all threads and
//! keeps their high-water mark, so allocations made on pool workers count
//! too.

use mis2_graph::gen::rmat_edges;
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::pool::with_pool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting the bytes live across all threads and
/// their high-water mark since the last [`reset_peak`].
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// touch no heap memory.
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
        LIVE.fetch_sub(layout.size(), Relaxed);
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
            LIVE.fetch_sub(old, Relaxed);
        } else {
            LIVE.fetch_sub(old - new_size, Relaxed);
        }
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return what it returned with the most bytes live during
/// it, above those live when it started.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let r = f();
    (r, PEAK.load(Relaxed) - start)
}

#[test]
fn from_edges_holds_about_the_bucket_and_no_second_copy() {
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
