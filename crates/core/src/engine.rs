//! Algorithm 1 — the parallel, deterministic MIS-2 engine.
//!
//! This is the paper's primary contribution: a distance-2 maximal
//! independent set computed in expected `O(log V)` rounds, with three
//! independently-togglable optimizations (so the Figure 2 ablation ladder
//! can be reproduced):
//!
//! 1. fresh xorshift\* priorities each iteration ([`PriorityScheme`]);
//! 2. worklists compacted by parallel scans, and filtered rows once most
//!    neighbours are decided ([`Mis2Config::use_worklists`]);
//! 3. packed single-word status tuples ([`Mis2Config::packed`]).
//!
//! The paper's fourth step (Section V-D, "SIMD") maps the neighbors of one
//! vertex onto GPU vector lanes. It has no counterpart here: on a CPU team
//! the per-vertex loop is already the inner loop of a worker, and the seed
//! engine's CPU form of it was a reduction nested inside a parallel region,
//! which the pool runs serially. The engine iterates neighbors serially.
//!
//! ## Structure of one iteration (paper lines 9-35)
//!
//! * **Refresh Row** — every undecided vertex gets tuple
//!   `T_v = (UNDECIDED, h(iter, v), v)`.
//! * **Refresh Column** — every live column vertex computes
//!   `M_v = min(T_w : w in adj(v) ∪ {v})`; if the min is an `IN` tuple,
//!   `M_v` becomes `OUT` permanently (v is distance-1 from the set, so
//!   every neighbor of v is within distance 2). The column that turns
//!   `OUT` marks `v` and the row it has just read.
//! * **Decide Set** — an undecided `v` becomes `OUT` if any
//!   `w in adj(v) ∪ {v}` has `M_w = OUT`, which is `v`'s mark, and `IN` if
//!   every such `w` has `M_w = T_v` (v is the strict minimum of its
//!   radius-2 neighborhood — no other vertex can conclude the same, which
//!   is what makes the algorithm race-free and deterministic).
//! * **Compact worklists** — `worklist1` keeps undecided vertices,
//!   `worklist2` keeps vertices with `M_v != OUT`.
//!
//! The adjacency used throughout is `adj(v) ∪ {v}`: the paper's Lemma IV.1
//! assumes self-loops (see its Figure 1, where `M_1 = T_1`). [`CsrGraph`]
//! stores no explicit self-loops, so every reduction here adds the vertex's
//! own contribution; without it two *adjacent* vertices could both enter
//! the set.
//!
//! ## Execution: one flat worklist per phase, two fused passes per round
//!
//! A round is `column_pass(worklist2)` then `decide_pass(worklist1)`. Both
//! have the same shape: blocks of `GRAIN` worklist entries go to the pool
//! (`par::map_windows`); each block writes its vertices' new tuples and one
//! keep flag per entry, and returns its counts; `mis2_prim::compact::pack_into`
//! then places each block's survivors in a spare vector from an exclusive
//! scan of the block counts, and the spare and the list change places. A
//! list that keeps every entry (the column pass of round 1, where no column
//! can be `OUT`) is not copied.
//!
//! The scatter is safe code because both lists ascend strictly: they start
//! as `0..n` (a masked run's kept vertices), and `pack` keeps order, so
//! the `Filtered` list built from a `Full` one does too. A block's
//! vertices therefore all lie below the next block's first vertex, and
//! `par::map_windows` hands each block the `&mut` window of `M` (column
//! pass) or `T` (decide pass) between its own
//! first vertex and the next block's, addressed by vertex id, with its
//! chunk of the keep flags. Every other array a pass reads (`T` in the
//! column pass, `M` in the decide pass, the rows) is a shared borrow, and
//! the marks are atomics. A list that repeats a vertex or falls out of
//! order is a panic, not a race: an entry outside its block's window is a
//! bounds panic in every build, and strict ascent inside a block is
//! checked under `debug_assertions`, so in every tier-1 test.
//!
//! The seed engine issued separate sweeps for Decide, the two
//! `newly_in`/`newly_out` counts, worklist compaction and the next round's
//! Refresh Row. `decide_pass` does all of it in one sweep: decide, classify
//! into keep/in/out, count per block, and write the survivor's fresh tuple
//! for round `i+1`. Fusion invariants: Decide reads only `M` and the marks
//! (the column pass has completed) and slot `T[v]` itself, so writing the
//! survivor's fresh tuple inside the pass races with nothing; the final
//! round has no survivors, so nothing is refreshed — exactly the seed
//! ordering. Without worklists ([`Mis2Config::use_worklists`] `= false`)
//! the same two passes run over the full vertex list every round, skip
//! decided vertices on read and skip the scatter; the per-block counts
//! still yield `newly_in`/`newly_out`, so no full-array count is ever
//! needed.
//!
//! There is no separate path for the late, sparse rounds. The undecided
//! frontier shrinks geometrically (Blelloch, Fineman & Shun), so late
//! rounds would be dominated by region dispatch — but the pool clamps a
//! region's team to its block count (`mis2_prim::pool::run_region_on`), so
//! a list of at most `GRAIN` entries is one block and runs inline on the
//! caller with no wake-up. The block decomposition depends only on list
//! lengths, never on the pool size.
//!
//! ## Filtered rows
//!
//! The worklists drop decided *vertices*, but each listed vertex's row
//! still holds all its neighbours, and a few rounds in most of them are
//! `OUT`: on the repo benchmark's graphs, 67 % (mesh) and 88 % (R-MAT) of
//! the entries the round-3 column pass reads, 89 % and 98 % in round 5.
//! `OUT` is the largest tuple and permanent, so a min that skips an `OUT`
//! neighbour is the same min, now and in every later round.
//!
//! So the column pass switches rows once, at a gate. The decide pass sums
//! the degrees of the vertices it leaves undecided (what a filtered pass
//! would read: only their entries are not `OUT`), the column pass the row
//! lengths it reads. When the first sum is at most `1 / FILTER_SHARE` of
//! the second, the next column pass writes each kept vertex's non-`OUT`
//! neighbours, from the same reads that take its min, into one list per
//! block (`RowLists::column_value`). Each `worklist2` entry then carries
//! its row as a range of those lists (`Filtered`), which the compaction
//! moves with the entry, and every later column pass reads the ranges
//! instead of `g.neighbors(v)`. The lists are built once and only with
//! worklists.
//!
//! ## Work arrays: kept by the thread, from one run to the next
//!
//! A run works in `T`, `M`, the marks, both worklists with the vectors
//! they are packed into, the keep flags and the filtered rows (`Work`).
//! Like the work views of a Kokkos handle, they outlive the call: the
//! thread that ran Algorithm 1 keeps them, and its next run writes each
//! one for its own graph before reading it, so a second run on a graph of
//! the same size allocates little more than its result. Without that, an
//! op's speed followed the allocator: with the graph built once, glibc
//! handed the freed arrays back to the system between ops, and each op
//! faulted them in again. A thread holds one set, of its last run's graph
//! and tuple type.
//!
//! ## Marks: the column that turns `OUT` tells its row
//!
//! Decide Set asks whether some `M_w` over `adj(v) ∪ {v}` is `OUT`. The
//! column pass has the answer first: a column turns `OUT` only through an
//! `IN` min, read from its own row. So when an entry's raw min is `IN`
//! and its `M` was not `OUT` already, the pass sets one byte per vertex
//! of that row and of the entry itself (`Exec::marks`, relaxed atomic
//! stores: every writer stores the same `true`), and Decide reads `v`'s
//! byte instead of rescanning its row for an `OUT`. It reads the row only
//! to test `M_w >= T_v` (see "Masked runs"), up to the first mismatch, the
//! same rule in every round.
//!
//! The mark equals the scan it replaces for every undecided `v` (checked
//! under `debug_assertions` in `decide_value`). An `OUT` column older than
//! this round would have made `v` `OUT` already, so the column turned
//! `OUT` in this round, through an `IN` min, and marked `v`. Its row may be
//! a filtered one, but that drops only neighbours whose `T` was `OUT`,
//! never an undecided `v`. Without worklists every column is recomputed
//! each round: one that was `OUT` already marks nothing again. A min that
//! is itself `OUT` marks nothing either: every tuple it read is `OUT`, so
//! no vertex of that row is undecided.
//!
//! ## Masked runs
//!
//! [`mis2_masked`] computes the MIS-2 of the subgraph that the vertices
//! with `keep[v]` induce, on `g` itself: the mask is written into the
//! run's starting state, and every pass is the one an unmasked run takes.
//! (omega_h's `indset` takes "an initial filtered subset" the same way.)
//!
//! * A vertex left out starts `OUT`, the largest tuple, so no min picks
//!   it, and the worklists start as the kept vertices, so no pass decides
//!   it or computes its column.
//! * A kept vertex takes its tuple id and its priority from its rank among
//!   the kept vertices, with [`id_bits`] of their count: the subgraph's
//!   numbering, which keeps the order of ids, so every comparison reads as
//!   it would on the subgraph and the set is the subgraph's, bit for bit.
//! * `M` starts at [`TupleRepr::LAST`]: not `OUT`, and no smaller than any
//!   undecided tuple. Decide Set's `IN` test is `M_w >= T_v` for every
//!   `w in adj(v) ∪ {v}`. Each column a pass computes has the undecided
//!   `v` in its row, so it is at most `T_v`, and at least `T_v` only by
//!   being `T_v`: the paper's `M_w = T_v`. A left-out column is never
//!   written; it stays `LAST` and passes, as a vertex the subgraph does
//!   not have. It is not `OUT`, so it marks nothing.
//! * With worklists, the first column pass of a masked run builds the
//!   filtered rows, which drops every left-out neighbour (each is `OUT`),
//!   so later passes read only the subgraph's entries. Without that build
//!   every column pass reads whole rows of `g` until the usual gate: on
//!   Algorithm 3's phase 2 (medians of 61 interleaved pairs, pools 1 and
//!   2, 2 vCPUs) a run without it took 1.09–1.28× as long on `svc_cold`'s
//!   R-MAT, whose hub rows are mostly left out, and 0.93–0.95× on its mesh
//!   and on Laplace3D 24³.
//!
//! An unmasked run takes the same passes, with `M` starting `LAST` and
//! `>=` in Decide Set; whether a run is masked is a const parameter of
//! `run`, so an unmasked one makes no rank array, and its Refresh Row
//! reads no rank and tests no mask.
//!
//! ## Determinism
//!
//! Priorities depend only on `(scheme, seed, iter, v)`; each phase is a
//! pure map reading the previous phase's arrays and writing disjoint slots
//! (each block only its own window, each vertex only its own slot in it);
//! worklist compaction is order-preserving. Hence the output is
//! bitwise-identical for every thread count — the property the paper
//! advertises across CPUs and GPUs. The result is also the one
//! [`crate::spec::mis2`], a serial whole-array transcription of the
//! paper's listing, computes from the priority scheme and seed alone:
//! `tests/engine_equiv.rs` asserts that equality, history included, for
//! every config of the full matrix at pools {1, 2, 3, 5, 8}.

use crate::priority::PriorityScheme;
use crate::tuple::{id_bits, Packed, TupleRepr, Unpacked};
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::{compact, par, scan};
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;

/// Configuration of Algorithm 1. [`Default`] reproduces the full
/// Kokkos Kernels configuration (all three optimizations on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mis2Config {
    /// Priority scheme (Section V-A). Default: xorshift\* per iteration.
    pub priorities: PriorityScheme,
    /// Maintain scan-compacted worklists (Section V-B), and once most
    /// neighbours are `OUT`, let the column pass read filtered rows (see
    /// the module docs). When `false`, all vertices are processed every
    /// iteration over their whole rows, as in Bell's algorithm.
    pub use_worklists: bool,
    /// Pack status tuples into one 64-bit word (Section V-C). When
    /// `false`, explicit 3-field tuples are used.
    pub packed: bool,
    /// Extra seed mixed into the priority hash. 0 = the paper's exact
    /// hash stream. Different seeds give statistically independent runs
    /// (used by the quality-comparison experiments).
    pub seed: u64,
}

impl Default for Mis2Config {
    fn default() -> Self {
        Mis2Config {
            priorities: PriorityScheme::XorStar,
            use_worklists: true,
            packed: true,
            seed: 0,
        }
    }
}

impl Mis2Config {
    /// The Figure 2 optimization ladder: `(label, config)` pairs where each
    /// entry adds one optimization on top of the previous. The true
    /// baseline (Bell's algorithm) is [`crate::bell::bell_mis_k`]; ladder
    /// step 0 here is Algorithm 1 with every optimization disabled and
    /// fixed priorities, which is the closest in-engine equivalent. The
    /// paper's fifth step (`+SIMD`, Section V-D) is a GPU vector-lane
    /// optimization with no CPU counterpart (see the module docs).
    /// `+Worklists` includes the filtered rows of the late column passes.
    pub fn ladder() -> Vec<(&'static str, Mis2Config)> {
        let base = Mis2Config {
            priorities: PriorityScheme::Fixed,
            use_worklists: false,
            packed: false,
            seed: 0,
        };
        vec![
            ("Baseline", base),
            (
                "+RandomPriority",
                Mis2Config {
                    priorities: PriorityScheme::XorStar,
                    ..base
                },
            ),
            (
                "+Worklists",
                Mis2Config {
                    priorities: PriorityScheme::XorStar,
                    use_worklists: true,
                    ..base
                },
            ),
            ("+PackedStatus", Mis2Config::default()),
        ]
    }
}

/// Per-iteration statistics for analysis and the Table III experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// Undecided vertices at the start of the iteration (|worklist1|).
    pub undecided: usize,
    /// Vertices decided IN this iteration.
    pub newly_in: usize,
    /// Vertices decided OUT this iteration.
    pub newly_out: usize,
}

/// Result of an MIS-2 computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mis2Result {
    /// The independent set, sorted ascending.
    pub in_set: Vec<VertexId>,
    /// Per-vertex membership mask.
    pub is_in: Vec<bool>,
    /// Number of outer iterations executed (the paper's Table I / III
    /// "Iters" metric).
    pub iterations: usize,
    /// Per-iteration progress.
    pub history: Vec<RoundStats>,
}

impl Mis2Result {
    /// |MIS-2| — the paper's quality metric (Tables III and IV).
    pub fn size(&self) -> usize {
        self.in_set.len()
    }

    /// Approximate heap footprint in bytes (capacity of the set, mask and
    /// history arrays) for memory-bounded caches.
    pub fn heap_bytes(&self) -> usize {
        self.in_set.capacity() * std::mem::size_of::<VertexId>()
            + self.is_in.capacity() * std::mem::size_of::<bool>()
            + self.history.capacity() * std::mem::size_of::<RoundStats>()
    }
}

/// Compute an MIS-2 with the default (fully optimized) configuration.
pub fn mis2(g: &CsrGraph) -> Mis2Result {
    mis2_with_config(g, &Mis2Config::default())
}

/// Compute an MIS-2 with an explicit configuration.
pub fn mis2_with_config(g: &CsrGraph, cfg: &Mis2Config) -> Mis2Result {
    mis2_probed(g, None, cfg).0
}

/// The MIS-2 that [`mis2_with_config`] computes on the subgraph the
/// vertices with `keep[v]` induce, numbered in ascending id, with its set
/// and mask in `g`'s numbering; the subgraph is never built (see "Masked
/// runs" in the module docs). Algorithm 3's phase 2 runs it on the
/// unaggregated vertices.
///
/// ```
/// let g = mis2_graph::gen::path(5);
/// let keep = [true, true, false, true, true];
/// let r = mis2_core::engine::mis2_masked(&g, &keep, &Default::default());
/// // The subgraph is two edges, {0, 1} and {3, 4}: one vertex of each.
/// assert_eq!(r.size(), 2);
/// assert!(!r.is_in[2]);
/// ```
pub fn mis2_masked(g: &CsrGraph, keep: &[bool], cfg: &Mis2Config) -> Mis2Result {
    assert_eq!(keep.len(), g.num_vertices(), "mask length mismatch");
    mis2_probed(g, Some(keep), cfg).0
}

/// A run of Algorithm 1, masked or not, and the round whose column pass
/// built the filtered rows (`None` when none did).
pub(crate) fn mis2_probed(
    g: &CsrGraph,
    keep: Option<&[bool]>,
    cfg: &Mis2Config,
) -> (Mis2Result, Option<usize>) {
    match (cfg.packed, keep) {
        (true, None) => run::<Packed, false>(g, &[], cfg),
        (true, Some(keep)) => run::<Packed, true>(g, keep, cfg),
        (false, None) => run::<Unpacked, false>(g, &[], cfg),
        (false, Some(keep)) => run::<Unpacked, true>(g, keep, cfg),
    }
}

/// Worklist entries per dispatch block, for both passes and the scatter.
/// A list that fits one block runs inline on the caller (the pool clamps a
/// region's team to its block count), which is what keeps the late, sparse
/// rounds free of region wake-ups.
const GRAIN: usize = 4096;

/// The column pass switches to filtered rows once they would read at most
/// `1 / FILTER_SHARE` of what the last full pass read (see the module
/// docs). Measured break-even, median of 64 `mis2_with_config` at pool 2
/// on a 2-CPU host, interleaved, on the repo benchmark's graphs (the
/// 500 000-vertex mesh; the scale-18 R-MAT), never filtering against
/// filtering at the share `1/k`: mesh 74.7 ms never, 82.7 at 1/1 (from
/// round 2, when no neighbour is `OUT` yet), 75.0 at 1/2, 73.7 at 1/3,
/// 73.2 at 1/4, 69.6 at 1/8; R-MAT 81.0 never, 88.0 at 1/1, 62.5, 62.0,
/// 61.9, 62.6. The mesh breaks even near 1/2. The R-MAT ratio falls from
/// about 1 to 1/9 in one round, so every share from 1/2 to 1/8 builds in
/// round 3 (1/8 misses it on some seeds). Like [`GRAIN`], the value
/// changes no result.
const FILTER_SHARE: usize = 4;

/// A `worklist2` entry once the rows are filtered: vertex `v` and its
/// row, `adj(v)` less the neighbours already `OUT` when it was built, at
/// `lo..hi` of the building pass's block `block` ([`Lists::rows`]).
#[derive(Clone, Copy)]
struct Filtered {
    v: VertexId,
    block: u32,
    lo: u32,
    hi: u32,
}

/// What one block of a column pass returns.
#[derive(Default)]
struct ColumnBlock {
    /// Entries kept (`M_v != OUT`).
    kept: usize,
    /// Row entries the pass read.
    reads: usize,
    /// The kept entries' filtered rows (a building pass only).
    rows: RowLists,
}

/// The filtered rows one block of the building pass writes: one after the
/// other in `cols[..len]`, entry `i`'s ending at `ends[i]`.
#[derive(Default)]
struct RowLists {
    cols: Vec<VertexId>,
    len: usize,
    ends: Vec<u32>,
}

impl RowLists {
    /// [`Exec::column_value`] that also appends the neighbours `w` with
    /// `T_w != OUT` when the column is kept (its min is undecided), from
    /// the same reads. Three in four are `OUT` when the lists are built, so
    /// each `w` is written and kept by advancing the end: no branch to
    /// mispredict. `cols` grows geometrically ahead of `len`, never per row,
    /// and keeps its length for the next run's lists.
    #[inline]
    fn column_value<T: TupleRepr>(&mut self, t: &[T], v: VertexId, row: &[VertexId]) -> T {
        let need = self.len + row.len();
        if self.cols.len() < need {
            self.cols.resize(need.max(2 * self.cols.len()), 0);
        }
        let cols = &mut self.cols[..];
        let mut end = self.len;
        let min = Exec::column_value(t, v, row, |w, tw| {
            cols[end] = w;
            end += !tw.is_out() as usize;
        });
        if min.is_undecided() {
            self.len = end;
        }
        let end = u32::try_from(self.len).expect("a block's filtered rows fit u32 offsets");
        self.ends.push(end);
        min
    }

    /// Entry `f`'s row.
    #[inline]
    fn row(&self, f: Filtered) -> &[VertexId] {
        &self.cols[f.lo as usize..f.hi as usize]
    }
}

/// The worklists, the buffers their passes write and the vectors they are
/// packed into: the part of [`Work`] that does not depend on the tuple
/// type.
#[derive(Default)]
struct Lists {
    wl1: Vec<VertexId>,
    /// `worklist2` while its column pass reads the graph's rows.
    wl2: Vec<VertexId>,
    /// `worklist2` once its rows are filtered, which `is_filtered` says.
    filtered: Vec<Filtered>,
    is_filtered: bool,
    /// The filtered rows, one [`RowLists`] per block of the pass that
    /// built them.
    rows: Vec<RowLists>,
    /// The keep flags of the last pass, one per entry of its list.
    flags: Vec<bool>,
    /// What the next compaction of `wl1` or `wl2` is packed into; it then
    /// changes places with the list.
    spare: Vec<VertexId>,
    /// The same for `filtered`.
    filtered_spare: Vec<Filtered>,
}

impl Lists {
    /// Both worklists the vertices of `0..n` that `keep` keeps (all of them
    /// without a mask), reading the graph's rows. The lists take the larger
    /// of the vectors their compactions change places with, so that a run
    /// like the last one fits the vectors it left.
    fn reset(&mut self, n: usize, keep: Option<&[bool]>) {
        use std::mem::swap;
        if self.spare.capacity() > self.wl1.capacity() {
            swap(&mut self.spare, &mut self.wl1);
        }
        if self.spare.capacity() > self.wl2.capacity() {
            swap(&mut self.spare, &mut self.wl2);
        }
        if self.filtered_spare.capacity() > self.filtered.capacity() {
            swap(&mut self.filtered_spare, &mut self.filtered);
        }
        self.wl1.clear();
        match keep {
            None => self.wl1.extend(0..n as VertexId),
            Some(keep) => self
                .wl1
                .extend((0..n as VertexId).filter(|&v| keep[v as usize])),
        }
        self.wl2.clone_from(&self.wl1);
        self.is_filtered = false;
    }
}

/// Compact `list` to the entries `flags` keeps (`kept[b]` of block `b`),
/// through `spare`, which then changes places with it. A list that keeps
/// every entry, as round 1's column pass does, stays as it is instead of
/// being copied.
fn pack_kept<E: Copy + Send + Sync>(
    list: &mut Vec<E>,
    spare: &mut Vec<E>,
    flags: &[bool],
    kept: &[usize],
) {
    if kept.iter().sum::<usize>() < list.len() {
        compact::pack_into(spare, flags, GRAIN, kept, |i| list[i]);
        std::mem::swap(list, spare);
    }
}

/// The arrays a run works in: `T`, `M`, the marks and the [`Lists`]. The
/// thread that runs Algorithm 1 keeps them for its next run
/// ([`Work::take`], [`Work::keep`]), which writes each one for its own
/// graph before it reads it. A run therefore allocates little more than
/// its result, and its speed does not depend on what the allocator did
/// with memory freed since the last one. The set is one per thread, of the
/// tuple type its last run used: on the repo benchmark's mesh, packed,
/// about 30 bytes per vertex, and as much again for the filtered rows.
struct Work<T> {
    t: Vec<T>,
    m: Vec<T>,
    marks: Vec<AtomicBool>,
    lists: Lists,
}

thread_local! {
    /// This thread's [`Work`], between two of its runs.
    static WORK: Cell<Option<Box<dyn Any>>> = const { Cell::new(None) };
}

impl<T: TupleRepr + 'static> Work<T> {
    /// This thread's arrays from its last run, or empty ones when that run
    /// used the other tuple type (whose arrays are then freed) or there was
    /// none.
    fn take() -> Box<Self> {
        WORK.take()
            .and_then(|w| w.downcast().ok())
            .unwrap_or_else(|| {
                Box::new(Work {
                    t: Vec::new(),
                    m: Vec::new(),
                    marks: Vec::new(),
                    lists: Lists::default(),
                })
            })
    }

    /// Keep the arrays for this thread's next run.
    fn keep(self: Box<Self>) {
        WORK.set(Some(self));
    }
}

/// Per-run execution context: everything the per-vertex kernels need.
struct Exec<'a> {
    g: &'a CsrGraph,
    priorities: PriorityScheme,
    seed: u64,
    bits: u32,
    prio_mask: u64,
    /// A masked run's tuple id of each kept vertex: its rank among them
    /// (empty for an unmasked run).
    rank: &'a [VertexId],
    /// [`Mis2Config::use_worklists`]: compact each list to its survivors
    /// after its pass. When `false` both lists stay the full vertex set.
    compact: bool,
    /// Per vertex: some `w in adj(v) ∪ {v}` has `M_w = OUT`. The column
    /// pass that turns `M_w` `OUT` sets it for the row it has just read;
    /// Decide Set reads it instead of that row (see the module docs). Set
    /// once, never cleared: an `OUT` column stays `OUT`. `Relaxed` is
    /// enough: a mark publishes no other data, and the column pass's region
    /// ends (the pool joins it) before the decide pass reads.
    marks: &'a [AtomicBool],
}

impl Exec<'_> {
    /// `v`'s tuple for round `iter`. `MASKED` is a parameter, so that an
    /// unmasked run reads no rank and tests no mask: with a test per call,
    /// MIS-2 on the benchmark's mesh at pool 1 read 8–9 % slower (medians
    /// of 10 alternating pairs of processes, 2 vCPUs).
    #[inline]
    fn fresh<T: TupleRepr, const MASKED: bool>(&self, iter: u64, v: VertexId) -> T {
        let id = if MASKED { self.rank[v as usize] } else { v };
        let p = self.priorities.priority(self.seed, iter, id) & self.prio_mask;
        T::undecided(p, id, self.bits)
    }

    /// Refresh Column's raw min for one vertex: `min(T_w : w in row ∪ {v})`.
    /// The caller collapses an `IN` min to `OUT`, and tells a column that
    /// collapses from `IN` (it marks `row ∪ {v}`) from one whose every
    /// neighbour is already `OUT` (it marks nothing). `row` is `adj(v)`, or
    /// `adj(v)` without neighbours that were already `OUT` (see the module
    /// docs). `each(w, T_w)` sees every neighbour the min reads.
    #[inline]
    fn column_value<T: TupleRepr>(
        t: &[T],
        v: VertexId,
        row: &[VertexId],
        mut each: impl FnMut(VertexId, T),
    ) -> T {
        let mut min = t[v as usize];
        for &w in row {
            let tw = t[w as usize];
            min = min.min(tw);
            each(w, tw);
        }
        min
    }

    /// Record that `M_v` has just turned `OUT`: mark `v` and the row its
    /// min read.
    #[inline]
    fn mark(&self, v: VertexId, row: &[VertexId]) {
        self.marks[v as usize].store(true, Relaxed);
        for &w in row {
            self.marks[w as usize].store(true, Relaxed);
        }
    }

    /// Decide Set for one undecided vertex: the new `T_v`. `OUT` if `v` is
    /// marked (some `w in adj(v) ∪ {v}` has `M_w = OUT`), else `IN` if
    /// every such `M_w` is at least `T_v`, read up to the first that is
    /// not, else `tv` unchanged. A computed `M_w` read `T_v`, so it is at
    /// least `T_v` only by being `T_v`; a column no pass computes is
    /// `LAST` (see "Masked runs" in the module docs).
    #[inline]
    fn decide_value<T: TupleRepr>(&self, tv: T, m: &[T], v: VertexId) -> T {
        let marked = self.marks[v as usize].load(Relaxed);
        debug_assert_eq!(
            marked,
            m[v as usize].is_out() || self.g.neighbors(v).iter().any(|&w| m[w as usize].is_out()),
            "the mark of vertex {v} disagrees with the columns of adj(v) ∪ {{v}}"
        );
        if marked {
            T::OUT
        } else if m[v as usize] >= tv && self.g.neighbors(v).iter().all(|&w| m[w as usize] >= tv) {
            T::IN
        } else {
            tv
        }
    }

    /// Refresh Column over `worklist2`: writes `M_v`, one keep flag per
    /// entry (`M_v != OUT`) and one [`ColumnBlock`] per block in a single
    /// sweep, and marks each column that turns `OUT` ([`Exec::mark`]).
    /// `row(e)` is entry `e`'s vertex and the row its min reads.
    /// With `BUILD` (a parameter, so the other passes keep the plain loop),
    /// block `b` also writes its kept vertices' non-`OUT` neighbours to the
    /// lists it takes from `reuse[b]`.
    fn column_pass<'r, T: TupleRepr, E: Copy + Sync, const BUILD: bool>(
        &self,
        wl: &[E],
        row: impl Fn(E) -> (VertexId, &'r [VertexId]) + Sync,
        t: &[T],
        m: &mut [T],
        flags: &mut Vec<bool>,
        reuse: &[Mutex<RowLists>],
    ) -> Vec<ColumnBlock> {
        flags.clear();
        flags.resize(wl.len(), false);
        let key = |&e: &E| row(e).0 as usize;
        par::map_windows(wl, GRAIN, key, m, flags, |b, entries, m, keep| {
            let mut out = ColumnBlock::default();
            if BUILD {
                if let Some(lists) = reuse.get(b) {
                    out.rows = std::mem::take(&mut *lists.lock().unwrap());
                    out.rows.len = 0;
                    out.rows.ends.clear();
                }
            }
            let (mut kept, mut reads) = (0, 0);
            for (&e, keep) in entries.iter().zip(keep) {
                let (v, nbrs) = row(e);
                let min = if BUILD {
                    out.rows.column_value(t, v, nbrs)
                } else {
                    Self::column_value(t, v, nbrs, |_, _| {})
                };
                // Write `M_v` and the flag, then mark: marking first read
                // ~7 % slower per MIS-2 on the benchmark's mesh.
                let kept_v = min.is_undecided();
                let turned_out = min.is_in() && !m[v as usize].is_out();
                m[v as usize] = if min.is_in() { T::OUT } else { min };
                *keep = kept_v;
                if turned_out {
                    self.mark(v, nbrs);
                }
                kept += kept_v as usize;
                reads += nbrs.len();
            }
            (out.kept, out.reads) = (kept, reads);
            out
        })
    }

    /// One Refresh Column over `worklist2`, then its compaction. `build`
    /// turns `wl2` into `filtered`, whose rows go to `lists.rows`.
    /// Returns how many row entries the pass read.
    fn refresh_column<T: TupleRepr>(
        &self,
        lists: &mut Lists,
        build: bool,
        t: &[T],
        m: &mut [T],
    ) -> usize {
        let Lists {
            wl2,
            filtered,
            is_filtered,
            rows,
            flags,
            spare,
            filtered_spare,
            ..
        } = lists;
        let graph_row = |v| (v, self.g.neighbors(v));
        let mut blocks = if *is_filtered {
            let rows = &rows[..];
            let row = |f: Filtered| (f.v, rows[f.block as usize].row(f));
            self.column_pass::<T, _, false>(filtered, row, t, m, flags, &[])
        } else if build {
            // The lists of the thread's last build, block by block.
            let reuse: Vec<Mutex<RowLists>> =
                std::mem::take(rows).into_iter().map(Mutex::new).collect();
            self.column_pass::<T, _, true>(wl2, graph_row, t, m, flags, &reuse)
        } else {
            self.column_pass::<T, _, false>(wl2, graph_row, t, m, flags, &[])
        };
        let kept: Vec<usize> = blocks.iter().map(|c| c.kept).collect();
        let reads = blocks.iter().map(|c| c.reads).sum();
        if *is_filtered {
            pack_kept(filtered, filtered_spare, flags, &kept);
        } else if build {
            *rows = blocks
                .iter_mut()
                .map(|c| std::mem::take(&mut c.rows))
                .collect();
            compact::pack_into(filtered, flags, GRAIN, &kept, |i| {
                let (b, k) = (i / GRAIN, i % GRAIN);
                let ends = &rows[b].ends;
                let lo = if k == 0 { 0 } else { ends[k - 1] };
                Filtered {
                    v: wl2[i],
                    block: b as u32,
                    lo,
                    hi: ends[k],
                }
            });
            *is_filtered = true;
        } else if self.compact {
            pack_kept(wl2, spare, flags, &kept);
        }
        reads
    }

    /// Decide Set over `worklist1`, fused with the round's epilogue: decide,
    /// count the IN/OUT transitions per block, write the survivor's fresh
    /// round-`next_iter` tuple (the next round's Refresh Row), flag it, then
    /// pack the list to its survivors. Returns `(newly_in, newly_out)` and
    /// the survivors' degree sum, what a filtered column pass would read.
    fn decide_pass<T: TupleRepr, const MASKED: bool>(
        &self,
        lists: &mut Lists,
        t: &mut [T],
        m: &[T],
        next_iter: u64,
    ) -> (usize, usize, usize) {
        let Lists {
            wl1, flags, spare, ..
        } = lists;
        flags.clear();
        flags.resize(wl1.len(), false);
        // Per block: [survivors, newly IN, newly OUT, survivors' degrees].
        let key = |&v: &VertexId| v as usize;
        let counts = par::map_windows(wl1, GRAIN, key, t, flags, |_, list, t, keep| {
            let mut c = [0usize; 4];
            for (&v, keep) in list.iter().zip(keep) {
                let tv = t[v as usize];
                if !tv.is_undecided() {
                    // Only without compaction, where decided vertices
                    // stay listed; their flag stays unset.
                    debug_assert!(!self.compact, "worklist1 must hold undecided only");
                    continue;
                }
                let nt = self.decide_value(tv, m, v);
                let (class, new) = if nt.is_in() {
                    (1, nt)
                } else if nt.is_out() {
                    (2, nt)
                } else {
                    (0, self.fresh::<T, MASKED>(next_iter, v))
                };
                t[v as usize] = new;
                *keep = class == 0;
                c[class] += 1;
                if class == 0 {
                    c[3] += self.g.degree(v);
                }
            }
            c
        });
        if self.compact {
            let kept: Vec<usize> = counts.iter().map(|c| c[0]).collect();
            pack_kept(wl1, spare, flags, &kept);
        }
        let newly_in = counts.iter().map(|c| c[1]).sum();
        let newly_out = counts.iter().map(|c| c[2]).sum();
        let reads = counts.iter().map(|c| c[3]).sum();
        (newly_in, newly_out, reads)
    }
}

/// Algorithm 1 on `g`, or with `MASKED` on the vertices with `keep[v]`
/// (`keep` is empty without).
fn run<T: TupleRepr + 'static, const MASKED: bool>(
    g: &CsrGraph,
    keep: &[bool],
    cfg: &Mis2Config,
) -> (Mis2Result, Option<usize>) {
    let n = g.num_vertices();
    // A masked run numbers the kept vertices by rank, as their subgraph
    // would, and counts the ids it needs by how many there are.
    let mut rank: Vec<VertexId> = par::map(keep, |&k| k as VertexId);
    let kept = scan::exclusive_scan_in_place(&mut rank) as usize;
    let live = if MASKED { kept } else { n };
    let bits = id_bits(live.max(1));
    // Every array of the thread's last run is written for this graph
    // before it is read.
    let mut work = Work::<T>::take();
    let Work { t, m, marks, lists } = &mut *work;
    marks.clear();
    marks.resize_with(n, || AtomicBool::new(false));
    let exec = Exec {
        g,
        priorities: cfg.priorities,
        seed: cfg.seed,
        bits,
        // Both representations see the same truncated priorities so that
        // the packed/unpacked toggle changes memory layout only, never the
        // result (the packed word can only hold 64 - bits priority bits).
        prio_mask: u64::MAX >> bits,
        rank: &rank,
        compact: cfg.use_worklists,
        marks,
    };

    // T is Refresh Row for iteration 0 (later rounds refresh survivors
    // inside the decide pass); a vertex a mask leaves out starts `OUT`.
    // `M` starts `LAST`, as a column no pass has computed or marked: a
    // masked run never computes a left-out column, and every other one is
    // in worklist2 for iteration 0 and is overwritten by Refresh Column,
    // which reads the old `M_v` only behind an `IN` min (round 1 has none).
    t.resize(n, T::IN);
    par::for_each_mut_indexed(t, |v, tv| {
        *tv = if MASKED && !keep[v] {
            T::OUT
        } else {
            exec.fresh::<T, MASKED>(0, v as VertexId)
        }
    });
    m.resize(n, T::LAST);
    par::for_each_slice_mut(m, |_, m| m.fill(T::LAST));

    lists.reset(n, MASKED.then_some(keep));
    let mut history: Vec<RoundStats> = Vec::new();
    let mut undecided = live;
    let mut iter: u64 = 0;
    // What the last column pass read, and what a filtered one would read.
    let (mut full_reads, mut filtered_reads) = (0, 0);
    let mut built = None;
    while undecided > 0 {
        // A masked run's first pass drops the left-out neighbours.
        let build = exec.compact
            && !lists.is_filtered
            && if iter == 0 {
                MASKED
            } else {
                FILTER_SHARE * filtered_reads <= full_reads
            };
        full_reads = exec.refresh_column(lists, build, t, m);
        iter += 1;
        if build {
            built = Some(iter as usize);
        }
        let (newly_in, newly_out, reads) = exec.decide_pass::<T, MASKED>(lists, t, m, iter);
        filtered_reads = reads;
        history.push(RoundStats {
            undecided,
            newly_in,
            newly_out,
        });
        undecided -= newly_in + newly_out;
    }

    let is_in: Vec<bool> = par::map(t, |x| x.is_in());
    let in_set = compact::par_filter_indices(&is_in, |&b| b);
    work.keep();
    let result = Mis2Result {
        in_set,
        is_in,
        iterations: iter as usize,
        history,
    };
    (result, built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_mis2;
    use mis2_graph::gen;

    fn all_configs() -> Vec<Mis2Config> {
        let mut out = Vec::new();
        for priorities in [
            PriorityScheme::Fixed,
            PriorityScheme::XorHash,
            PriorityScheme::XorStar,
        ] {
            for use_worklists in [false, true] {
                for packed in [false, true] {
                    out.push(Mis2Config {
                        priorities,
                        use_worklists,
                        packed,
                        seed: 0,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn empty_graph() {
        let g = mis2_graph::CsrGraph::empty(0);
        let r = mis2(&g);
        assert_eq!(r.size(), 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn edgeless_graph_all_in() {
        let g = mis2_graph::CsrGraph::empty(10);
        let r = mis2(&g);
        assert_eq!(r.size(), 10);
        assert_eq!(r.iterations, 1);
        verify_mis2(&g, &r.is_in).unwrap();
    }

    #[test]
    fn single_vertex() {
        let g = mis2_graph::CsrGraph::empty(1);
        let r = mis2(&g);
        assert_eq!(r.in_set, vec![0]);
    }

    #[test]
    fn complete_graph_one_in() {
        let g = gen::complete(10);
        let r = mis2(&g);
        assert_eq!(r.size(), 1);
        verify_mis2(&g, &r.is_in).unwrap();
    }

    #[test]
    fn star_graph() {
        // Star: any single vertex dominates everything within distance 2.
        let g = gen::star(50);
        let r = mis2(&g);
        assert_eq!(r.size(), 1);
        verify_mis2(&g, &r.is_in).unwrap();
    }

    #[test]
    fn star_graph_huge_hub() {
        // One 2^17-degree row inside an ordinary block, 33 blocks of
        // degree-1 leaves around it.
        let g = gen::star((1 << 17) + 10);
        for cfg in all_configs() {
            let r = mis2_with_config(&g, &cfg);
            assert_eq!(r.size(), 1, "{cfg:?}");
            verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        }
    }

    #[test]
    fn path_graph_valid() {
        let g = gen::path(100);
        let r = mis2(&g);
        verify_mis2(&g, &r.is_in).unwrap();
        // A path of 100 vertices needs at least ceil(100/5)=20 and at most
        // ceil(100/3)=34 MIS-2 vertices.
        assert!(r.size() >= 20 && r.size() <= 34, "size {}", r.size());
    }

    #[test]
    fn paper_example_graph() {
        // The 6-vertex graph of the paper's Figure 1:
        // 1-2, 2-3, 3-4, 4-5, 4-6 (1-based) — a path with a fork at 4.
        let g = mis2_graph::CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]);
        let r = mis2(&g);
        verify_mis2(&g, &r.is_in).unwrap();
        // The MIS-2 of this graph has exactly 2 vertices (e.g. {1,4} in the
        // paper's run, 0-based {0,3}).
        assert_eq!(r.size(), 2);
    }

    #[test]
    fn all_configs_valid_on_random_graph() {
        let g = gen::erdos_renyi(500, 1500, 7);
        for cfg in all_configs() {
            let r = mis2_with_config(&g, &cfg);
            verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("invalid MIS-2 for {cfg:?}: {e}"));
            assert!(r.iterations > 0);
            assert_eq!(r.history.len(), r.iterations);
        }
    }

    #[test]
    fn all_configs_valid_on_grid() {
        let g = gen::laplace3d(8, 8, 8);
        for cfg in all_configs() {
            let r = mis2_with_config(&g, &cfg);
            verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("invalid MIS-2 for {cfg:?}: {e}"));
        }
    }

    #[test]
    fn all_configs_valid_on_powerlaw() {
        // Skewed degrees: hub rows and leaves share blocks.
        let g = gen::rmat(11, 16, 0.65, 0.15, 0.15, 5);
        for cfg in all_configs() {
            let r = mis2_with_config(&g, &cfg);
            verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("invalid MIS-2 for {cfg:?}: {e}"));
        }
    }

    #[test]
    fn packed_and_unpacked_agree() {
        // Same priorities => same set, regardless of representation.
        let g = gen::erdos_renyi(400, 1200, 3);
        let a = mis2_with_config(
            &g,
            &Mis2Config {
                packed: true,
                ..Default::default()
            },
        );
        let b = mis2_with_config(
            &g,
            &Mis2Config {
                packed: false,
                ..Default::default()
            },
        );
        // Note: packed truncates priorities to (64 - b) bits, which can in
        // principle change comparisons, but only when two 44+-bit truncated
        // priorities collide — not with these sizes.
        assert_eq!(a.in_set, b.in_set);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn worklists_do_not_change_result() {
        let g = gen::laplace2d(40, 40);
        let a = mis2_with_config(
            &g,
            &Mis2Config {
                use_worklists: true,
                ..Default::default()
            },
        );
        let b = mis2_with_config(
            &g,
            &Mis2Config {
                use_worklists: false,
                ..Default::default()
            },
        );
        assert_eq!(a.in_set, b.in_set);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = gen::erdos_renyi(2000, 8000, 11);
        let baseline = mis2_prim::pool::with_pool(1, || mis2(&g));
        for threads in [2, 4] {
            let r = mis2_prim::pool::with_pool(threads, || mis2(&g));
            assert_eq!(r.in_set, baseline.in_set, "differs at {threads} threads");
            assert_eq!(r.iterations, baseline.iterations);
        }
    }

    #[test]
    fn deterministic_across_thread_counts_powerlaw() {
        let g = gen::rmat(12, 16, 0.6, 0.2, 0.1, 3);
        let baseline = mis2_prim::pool::with_pool(1, || mis2(&g));
        for threads in [2, 4, 8] {
            let r = mis2_prim::pool::with_pool(threads, || mis2(&g));
            assert_eq!(r, baseline, "differs at {threads} threads");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = gen::laplace3d(12, 12, 12);
        let a = mis2(&g);
        let b = mis2(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = gen::laplace3d(10, 10, 10);
        let a = mis2_with_config(
            &g,
            &Mis2Config {
                seed: 1,
                ..Default::default()
            },
        );
        let b = mis2_with_config(
            &g,
            &Mis2Config {
                seed: 2,
                ..Default::default()
            },
        );
        verify_mis2(&g, &a.is_in).unwrap();
        verify_mis2(&g, &b.is_in).unwrap();
        assert_ne!(a.in_set, b.in_set);
    }

    #[test]
    fn history_is_consistent() {
        let g = gen::laplace2d(30, 30);
        let r = mis2(&g);
        let total_in: usize = r.history.iter().map(|h| h.newly_in).sum();
        let total_out: usize = r.history.iter().map(|h| h.newly_out).sum();
        assert_eq!(total_in, r.size());
        assert_eq!(total_in + total_out, g.num_vertices());
        // Undecided counts strictly decrease... at least weakly, and reach 0.
        for w in r.history.windows(2) {
            assert!(w[1].undecided <= w[0].undecided);
        }
        assert_eq!(
            r.history.last().unwrap().undecided,
            r.history.last().unwrap().newly_in + r.history.last().unwrap().newly_out
        );
    }

    #[test]
    fn ladder_configs_all_valid() {
        let g = gen::laplace3d(8, 8, 8);
        let mut sizes = Vec::new();
        for (label, cfg) in Mis2Config::ladder() {
            let r = mis2_with_config(&g, &cfg);
            verify_mis2(&g, &r.is_in).unwrap_or_else(|e| panic!("{label}: {e}"));
            sizes.push((label, r.size()));
        }
        // All ladder steps produce similar-quality sets (within 2x).
        let min = sizes.iter().map(|s| s.1).min().unwrap();
        let max = sizes.iter().map(|s| s.1).max().unwrap();
        assert!(max <= 2 * min, "quality spread too wide: {sizes:?}");
    }

    #[test]
    fn two_vertex_edge() {
        // Regression test for the implicit self-loop: without it, both
        // endpoints of a single edge would mark themselves IN.
        let g = mis2_graph::CsrGraph::from_edges(2, &[(0, 1)]);
        let r = mis2(&g);
        assert_eq!(r.size(), 1, "adjacent vertices both IN — self-loop bug");
        verify_mis2(&g, &r.is_in).unwrap();
    }

    #[test]
    fn filtered_rows_are_built_with_worklists_only_and_change_no_bit() {
        let mut graphs: Vec<(String, CsrGraph)> = (11..=14)
            .map(|scale| {
                let g = gen::rmat(scale, 16, 0.57, 0.19, 0.19, scale as u64);
                (format!("R-MAT scale {scale}"), g)
            })
            .collect();
        graphs.push(("Laplace3D 20^3".into(), gen::laplace3d(20, 20, 20)));
        for (name, g) in &graphs {
            for cfg in all_configs() {
                let (got, built) = mis2_probed(g, None, &cfg);
                if cfg.use_worklists {
                    // Built, and read by at least one later column pass.
                    let read = built.is_some_and(|r| r < got.iterations);
                    assert!(
                        read,
                        "{name}: {cfg:?} built in {built:?} of {}",
                        got.iterations
                    );
                } else {
                    assert_eq!(built, None, "{name}: {cfg:?}");
                }
                let want = crate::spec::mis2(g, cfg.priorities, cfg.seed);
                assert_eq!(got, want, "{name}: diverges from the spec for {cfg:?}");
            }
        }
    }

    #[test]
    fn a_run_after_other_runs_on_the_same_thread_equals_the_spec() {
        // One thread runs every ladder config in turn, on a large graph, a
        // smaller one, then the large one again, packed and unpacked
        // alternating: whatever an earlier run left in the thread's work
        // arrays must not show.
        let large = gen::mesh3d(20_000, 22, 0.02, 2, 40, 3, 26, 5);
        let small = gen::rmat(10, 8, 0.57, 0.19, 0.19, 2);
        mis2_prim::pool::with_pool(1, || {
            for (name, g) in [
                ("large", &large),
                ("small", &small),
                ("large again", &large),
            ] {
                for packed in [true, false] {
                    for (label, cfg) in Mis2Config::ladder() {
                        for seed in [3, 4] {
                            let cfg = Mis2Config {
                                packed,
                                seed,
                                ..cfg
                            };
                            let want = crate::spec::mis2(g, cfg.priorities, cfg.seed);
                            let got = mis2_with_config(g, &cfg);
                            assert_eq!(got, want, "{name}, {label}: {cfg:?}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn matches_spec_on_all_configs() {
        // The engine must be bitwise-identical to the serial spec (full
        // result struct, history included) on every config. The big
        // cross-pool matrix lives in tests/engine_equiv.rs.
        for g in [
            gen::erdos_renyi(1500, 6000, 13),
            gen::rmat(11, 16, 0.65, 0.15, 0.15, 5),
        ] {
            for cfg in all_configs() {
                let got = mis2_with_config(&g, &cfg);
                let want = crate::spec::mis2(&g, cfg.priorities, cfg.seed);
                assert_eq!(got, want, "diverges from the spec for {cfg:?}");
            }
        }
    }
}
