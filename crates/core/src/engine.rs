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
//! (`par::map_blocks`); each block writes its vertices' new tuples and one
//! keep flag per entry, and returns its counts; `mis2_prim::compact::pack`
//! then places each block's survivors in the compacted list from an
//! exclusive scan of the block counts. A list that keeps every entry (the
//! column pass of round 1, where no column can be `OUT`) is not copied.
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
//! neighbours, from the same reads that take its min, into one exact-size
//! list per block (`RowLists::column_value`). Each `worklist2` entry then
//! carries its row as a slice of those lists (`Worklist2::Filtered`), which
//! `compact::pack` compacts with the list, and every later column pass
//! reads the slices instead of `g.neighbors(v)`. The lists are built once
//! and only with worklists.
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
//! to test `M_w == T_v`, up to the first mismatch, the same rule in every
//! round.
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
//! ## Determinism
//!
//! Priorities depend only on `(scheme, seed, iter, v)`; each phase is a
//! pure map reading the previous phase's arrays and writing disjoint slots;
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
use mis2_prim::{compact, par, SharedMut};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

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
    fn empty() -> Self {
        Mis2Result {
            in_set: Vec::new(),
            is_in: Vec::new(),
            iterations: 0,
            history: Vec::new(),
        }
    }

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
    mis2_probed(g, cfg).0
}

/// [`mis2_with_config`], and the round whose column pass built the
/// filtered rows (`None` when none did).
pub(crate) fn mis2_probed(g: &CsrGraph, cfg: &Mis2Config) -> (Mis2Result, Option<usize>) {
    if g.num_vertices() == 0 {
        return (Mis2Result::empty(), None);
    }
    if cfg.packed {
        run::<Packed>(g, cfg)
    } else {
        run::<Unpacked>(g, cfg)
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

/// `worklist2`: every entry a vertex and the row its column pass reads.
enum Worklist2<'r> {
    /// `adj(v)`, read from the graph.
    Full(Vec<VertexId>),
    /// The filtered row: `adj(v)` less the neighbours already `OUT` when it
    /// was built.
    Filtered(Vec<(VertexId, &'r [VertexId])>),
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
    ends: Vec<usize>,
}

impl RowLists {
    /// [`Exec::column_value`] that also appends the neighbours `w` with
    /// `T_w != OUT` when the column is kept (its min is undecided), from
    /// the same reads. Three in four are `OUT` when the lists are built, so
    /// each `w` is written and kept by advancing the end: no branch to
    /// mispredict. `cols` grows geometrically ahead of `len`, never per row.
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
        self.ends.push(self.len);
        min
    }

    /// Trim `cols` to exactly the rows.
    fn finish(&mut self) {
        self.cols.truncate(self.len);
        self.cols.shrink_to_fit();
    }
}

/// Per-run execution context: everything the per-vertex kernels need.
struct Exec<'a> {
    g: &'a CsrGraph,
    priorities: PriorityScheme,
    seed: u64,
    bits: u32,
    prio_mask: u64,
    /// [`Mis2Config::use_worklists`]: compact each list to its survivors
    /// after its pass. When `false` both lists stay the full vertex set.
    compact: bool,
    /// Per vertex: some `w in adj(v) ∪ {v}` has `M_w = OUT`. The column
    /// pass that turns `M_w` `OUT` sets it for the row it has just read;
    /// Decide Set reads it instead of that row (see the module docs). Set
    /// once, never cleared: an `OUT` column stays `OUT`. `Relaxed` is
    /// enough: a mark publishes no other data, and the column pass's region
    /// ends (the pool joins it) before the decide pass reads.
    marks: Vec<AtomicBool>,
}

impl Exec<'_> {
    #[inline]
    fn fresh<T: TupleRepr>(&self, iter: u64, v: VertexId) -> T {
        let p = self.priorities.priority(self.seed, iter, v) & self.prio_mask;
        T::undecided(p, v, self.bits)
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
    /// every such `M_w` is `T_v`, read up to the first that is not, else
    /// `tv` unchanged.
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
        } else if m[v as usize] == tv && self.g.neighbors(v).iter().all(|&w| m[w as usize] == tv) {
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
    /// each block also writes its kept vertices' non-`OUT` neighbours to
    /// one exact-size list.
    fn column_pass<'r, T: TupleRepr, E: Copy + Sync, const BUILD: bool>(
        &self,
        wl: &[E],
        row: impl Fn(E) -> (VertexId, &'r [VertexId]) + Sync,
        t: &[T],
        m: &mut [T],
        flags: &mut Vec<bool>,
    ) -> Vec<ColumnBlock> {
        let n = wl.len();
        flags.clear();
        flags.resize(n, false);
        let mw = SharedMut::new(m);
        let fw = SharedMut::new(flags.as_mut_slice());
        par::map_blocks(n.div_ceil(GRAIN), |b| {
            let base = b * GRAIN;
            let mut out = ColumnBlock::default();
            let (mut kept, mut reads) = (0, 0);
            for (i, &e) in wl[base..n.min(base + GRAIN)].iter().enumerate() {
                let (v, nbrs) = row(e);
                let min = if BUILD {
                    out.rows.column_value(t, v, nbrs)
                } else {
                    Self::column_value(t, v, nbrs, |_, _| {})
                };
                let keep = min.is_undecided();
                let mv = if min.is_in() { T::OUT } else { min };
                // SAFETY: every vertex appears once in the worklist, so
                // slot v (and flag base+i) has one writer and no other
                // reader; `t` is not written in this region.
                let turned_out = unsafe {
                    let turned_out = min.is_in() && !mw.read(v as usize).is_out();
                    mw.write(v as usize, mv);
                    fw.write(base + i, keep);
                    turned_out
                };
                if turned_out {
                    self.mark(v, nbrs);
                }
                kept += keep as usize;
                reads += nbrs.len();
            }
            (out.kept, out.reads) = (kept, reads);
            out.rows.finish();
            out
        })
    }

    /// One Refresh Column over `worklist2`, then its compaction. `build`
    /// turns a `Full` list into a `Filtered` one whose rows go to `store`.
    /// Returns how many row entries the pass read.
    fn refresh_column<'r, T: TupleRepr>(
        &self,
        wl2: &mut Worklist2<'r>,
        store: &'r OnceCell<Vec<Vec<VertexId>>>,
        build: bool,
        t: &[T],
        m: &mut [T],
        flags: &mut Vec<bool>,
    ) -> usize {
        let blocks = match wl2 {
            Worklist2::Full(list) => {
                let row = |v| (v, self.g.neighbors(v));
                if build {
                    self.column_pass::<T, _, true>(list, row, t, m, flags)
                } else {
                    self.column_pass::<T, _, false>(list, row, t, m, flags)
                }
            }
            Worklist2::Filtered(list) => self.column_pass::<T, _, false>(list, |e| e, t, m, flags),
        };
        let kept: Vec<usize> = blocks.iter().map(|c| c.kept).collect();
        let reads = blocks.iter().map(|c| c.reads).sum();
        match wl2 {
            Worklist2::Full(list) if build => {
                let (cols, ends): (Vec<_>, Vec<_>) = blocks
                    .into_iter()
                    .map(|c| (c.rows.cols, c.rows.ends))
                    .unzip();
                let cols = store.get_or_init(|| cols);
                let rows = compact::pack(flags, GRAIN, &kept, |i| {
                    let (b, k) = (i / GRAIN, i % GRAIN);
                    let lo = if k == 0 { 0 } else { ends[b][k - 1] };
                    (list[i], &cols[b][lo..ends[b][k]])
                });
                *wl2 = Worklist2::Filtered(rows);
            }
            Worklist2::Full(list) => {
                if self.compact {
                    pack_kept(list, flags, &kept);
                }
            }
            Worklist2::Filtered(list) => pack_kept(list, flags, &kept),
        }
        reads
    }

    /// Decide Set over `worklist1`, fused with the round's epilogue: decide,
    /// count the IN/OUT transitions per block, write the survivor's fresh
    /// round-`next_iter` tuple (the next round's Refresh Row), flag it, then
    /// pack the list to its survivors. Returns `(newly_in, newly_out)` and
    /// the survivors' degree sum, what a filtered column pass would read.
    fn decide_pass<T: TupleRepr>(
        &self,
        wl: &mut Vec<VertexId>,
        t: &mut [T],
        m: &[T],
        next_iter: u64,
        flags: &mut Vec<bool>,
    ) -> (usize, usize, usize) {
        let n = wl.len();
        flags.clear();
        flags.resize(n, false);
        // Per block: [survivors, newly IN, newly OUT, survivors' degrees].
        let counts = {
            let tw = SharedMut::new(t);
            let fw = SharedMut::new(flags.as_mut_slice());
            let list: &[VertexId] = wl;
            par::map_blocks(n.div_ceil(GRAIN), |b| {
                let base = b * GRAIN;
                let mut c = [0usize; 4];
                for (i, &v) in list[base..n.min(base + GRAIN)].iter().enumerate() {
                    // SAFETY: each worklist1 vertex appears once; only slot
                    // v is read and written (Decide reads M, never other
                    // T slots, so the inline refresh races with nothing).
                    let tv = unsafe { tw.read(v as usize) };
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
                        (0, self.fresh::<T>(next_iter, v))
                    };
                    // SAFETY: as above; flag base+i has one writer.
                    unsafe {
                        tw.write(v as usize, new);
                        fw.write(base + i, class == 0);
                    }
                    c[class] += 1;
                    if class == 0 {
                        c[3] += self.g.degree(v);
                    }
                }
                c
            })
        };
        if self.compact {
            let kept: Vec<usize> = counts.iter().map(|c| c[0]).collect();
            pack_kept(wl, flags, &kept);
        }
        let newly_in = counts.iter().map(|c| c[1]).sum();
        let newly_out = counts.iter().map(|c| c[2]).sum();
        let reads = counts.iter().map(|c| c[3]).sum();
        (newly_in, newly_out, reads)
    }
}

/// Compact `list` to the entries `flags` keeps (`kept[b]` of block `b`).
/// A list that keeps every entry, as round 1's column pass does, stays as
/// it is instead of being copied.
fn pack_kept<E: Copy + Send + Sync>(list: &mut Vec<E>, flags: &[bool], kept: &[usize]) {
    if kept.iter().sum::<usize>() < list.len() {
        *list = compact::pack(flags, GRAIN, kept, |i| list[i]);
    }
}

fn run<T: TupleRepr>(g: &CsrGraph, cfg: &Mis2Config) -> (Mis2Result, Option<usize>) {
    let n = g.num_vertices();
    let bits = id_bits(n);
    // Both representations see the same truncated priorities so that the
    // packed/unpacked toggle changes memory layout only, never the result
    // (the packed word can only hold 64 - bits priority bits).
    let prio_mask: u64 = if bits == 0 {
        u64::MAX
    } else {
        ((1u128 << (64 - bits)) - 1) as u64
    };
    let exec = Exec {
        g,
        priorities: cfg.priorities,
        seed: cfg.seed,
        bits,
        prio_mask,
        compact: cfg.use_worklists,
        marks: std::iter::repeat_with(|| AtomicBool::new(false))
            .take(n)
            .collect(),
    };

    // T is Refresh Row for iteration 0 (later rounds refresh survivors
    // inside the decide pass). M's initial content is never read: every
    // vertex is in worklist2 for iteration 0 and is overwritten by Refresh
    // Column, which reads the old `M_v` only behind an `IN` min, and round
    // 1 has none. It starts non-`OUT`, as a column no pass has marked.
    let mut t: Vec<T> = par::map_range(0..n as VertexId, |v| exec.fresh::<T>(0, v));
    let mut m: Vec<T> = vec![T::IN; n];

    // Both worklists start as the full vertex set; the filtered rows, once
    // built, live in `store` until the run ends.
    let store = OnceCell::new();
    let mut wl1: Vec<VertexId> = (0..n as VertexId).collect();
    let mut wl2 = Worklist2::Full(wl1.clone());
    // Keep-flag buffer shared by both passes.
    let mut flags: Vec<bool> = Vec::new();
    let mut history: Vec<RoundStats> = Vec::new();
    let mut undecided = n;
    let mut iter: u64 = 0;
    // What the last column pass read, and what a filtered one would read.
    let (mut full_reads, mut filtered_reads) = (0, 0);
    let mut built = None;
    while undecided > 0 {
        let build = exec.compact
            && iter > 0
            && matches!(wl2, Worklist2::Full(_))
            && FILTER_SHARE * filtered_reads <= full_reads;
        full_reads = exec.refresh_column(&mut wl2, &store, build, &t, &mut m, &mut flags);
        iter += 1;
        if build {
            built = Some(iter as usize);
        }
        let (newly_in, newly_out, reads) = exec.decide_pass(&mut wl1, &mut t, &m, iter, &mut flags);
        filtered_reads = reads;
        history.push(RoundStats {
            undecided,
            newly_in,
            newly_out,
        });
        undecided -= newly_in + newly_out;
    }

    let is_in: Vec<bool> = par::map(&t, |x| x.is_in());
    let in_set = compact::par_filter_indices(&is_in, |&b| b);
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
                let (got, built) = mis2_probed(g, &cfg);
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
