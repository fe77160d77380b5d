//! Algorithm 1 — the parallel, deterministic MIS-2 engine.
//!
//! This is the paper's primary contribution: a distance-2 maximal
//! independent set computed in expected `O(log V)` rounds, with three
//! independently-togglable optimizations (so the Figure 2 ablation ladder
//! can be reproduced):
//!
//! 1. fresh xorshift\* priorities each iteration ([`PriorityScheme`]);
//! 2. worklists compacted by parallel scans ([`Mis2Config::use_worklists`]);
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
//!   every neighbor of v is within distance 2).
//! * **Decide Set** — an undecided `v` becomes `OUT` if any
//!   `w in adj(v) ∪ {v}` has `M_w = OUT`, and `IN` if every such `w` has
//!   `M_w = T_v` (v is the strict minimum of its radius-2 neighborhood —
//!   no other vertex can conclude the same, which is what makes the
//!   algorithm race-free and deterministic).
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
//! exclusive scan of the block counts.
//!
//! The seed engine issued separate sweeps for Decide, the two
//! `newly_in`/`newly_out` counts, worklist compaction and the next round's
//! Refresh Row. `decide_pass` does all of it in one sweep: decide, classify
//! into keep/in/out, count per block, and write the survivor's fresh tuple
//! for round `i+1`. Fusion invariants: Decide reads only `M` (the column
//! pass has completed) and slot `T[v]` itself, so writing the survivor's
//! fresh tuple inside the pass races with nothing; the final round has no
//! survivors, so nothing is refreshed — exactly the seed ordering. Without
//! worklists ([`Mis2Config::use_worklists`] `= false`) the same two passes
//! run over the full vertex list every round, skip decided vertices on
//! read and skip the scatter; the per-block counts still yield
//! `newly_in`/`newly_out`, so no full-array count is ever needed.
//!
//! There is no separate path for the late, sparse rounds. The undecided
//! frontier shrinks geometrically (Blelloch, Fineman & Shun), so late
//! rounds would be dominated by region dispatch — but the pool clamps a
//! region's team to its block count (`mis2_prim::pool::run_region_on`), so
//! a list of at most `GRAIN` entries is one block and runs inline on the
//! caller with no wake-up. The block decomposition depends only on list
//! lengths, never on the pool size.
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

/// Configuration of Algorithm 1. [`Default`] reproduces the full
/// Kokkos Kernels configuration (all three optimizations on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mis2Config {
    /// Priority scheme (Section V-A). Default: xorshift\* per iteration.
    pub priorities: PriorityScheme,
    /// Maintain scan-compacted worklists (Section V-B). When `false`, all
    /// vertices are processed every iteration, as in Bell's algorithm.
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
    if g.num_vertices() == 0 {
        return Mis2Result::empty();
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
}

impl Exec<'_> {
    #[inline]
    fn fresh<T: TupleRepr>(&self, iter: u64, v: VertexId) -> T {
        let p = self.priorities.priority(self.seed, iter, v) & self.prio_mask;
        T::undecided(p, v, self.bits)
    }

    /// Refresh Column for one vertex: `min(T_w : w in adj(v) ∪ {v})`,
    /// collapsed to `OUT` if the min is `IN`.
    #[inline]
    fn column_value<T: TupleRepr>(&self, t: &[T], v: VertexId) -> T {
        let mut mv = t[v as usize];
        for &w in self.g.neighbors(v) {
            mv = mv.min(t[w as usize]);
        }
        if mv.is_in() {
            T::OUT
        } else {
            mv
        }
    }

    /// Decide Set for one undecided vertex: the new `T_v` (`OUT`, `IN`, or
    /// `tv` unchanged). The early break on an `OUT` neighbor can leave
    /// `all_eq` stale, but `any_out` dominates the decision.
    ///
    /// `first` is round 1: before the first Decide no vertex is `IN`, so no
    /// `M_w` is `OUT` and the answer is `IN` or `tv` — settled at the first
    /// `M_w != T_v` (for most vertices `M_v` itself) instead of after a
    /// scan of every neighbor for an `OUT` that cannot exist.
    #[inline]
    fn decide_value<T: TupleRepr>(&self, tv: T, m: &[T], v: VertexId, first: bool) -> T {
        let mv = m[v as usize];
        if first {
            let all_eq = mv == tv && self.g.neighbors(v).iter().all(|&w| m[w as usize] == tv);
            return if all_eq { T::IN } else { tv };
        }
        // Self contribution of the implicit self-loop.
        let mut any_out = mv.is_out();
        let mut all_eq = mv == tv;
        if !any_out {
            for &w in self.g.neighbors(v) {
                let mw = m[w as usize];
                if mw.is_out() {
                    any_out = true;
                    break;
                }
                if mw != tv {
                    all_eq = false;
                }
            }
        }
        if any_out {
            T::OUT
        } else if all_eq {
            T::IN
        } else {
            tv
        }
    }

    /// Refresh Column over `worklist2`: writes `M_v`, one keep flag per
    /// entry (`M_v != OUT`) and one keep count per block in a single sweep,
    /// then packs the list to its survivors.
    fn column_pass<T: TupleRepr>(
        &self,
        wl: &mut Vec<VertexId>,
        t: &[T],
        m: &mut [T],
        flags: &mut Vec<bool>,
    ) {
        let n = wl.len();
        flags.clear();
        flags.resize(n, false);
        let kept = {
            let mw = SharedMut::new(m);
            let fw = SharedMut::new(flags.as_mut_slice());
            let list: &[VertexId] = wl;
            par::map_blocks(n.div_ceil(GRAIN), |b| {
                let base = b * GRAIN;
                let mut k = 0usize;
                for (i, &v) in list[base..n.min(base + GRAIN)].iter().enumerate() {
                    let mv = self.column_value(t, v);
                    let keep = !mv.is_out();
                    // SAFETY: every vertex appears once in the worklist, so
                    // slot v (and flag base+i) has one writer; `t` is not
                    // written in this region.
                    unsafe {
                        mw.write(v as usize, mv);
                        fw.write(base + i, keep);
                    }
                    k += keep as usize;
                }
                k
            })
        };
        if self.compact {
            *wl = compact::pack(flags, GRAIN, &kept, |i| wl[i]);
        }
    }

    /// Decide Set over `worklist1`, fused with the round's epilogue: decide,
    /// count the IN/OUT transitions per block, write the survivor's fresh
    /// round-`next_iter` tuple (the next round's Refresh Row), flag it, then
    /// pack the list to its survivors. Returns `(newly_in, newly_out)`.
    fn decide_pass<T: TupleRepr>(
        &self,
        wl: &mut Vec<VertexId>,
        t: &mut [T],
        m: &[T],
        next_iter: u64,
        flags: &mut Vec<bool>,
    ) -> (usize, usize) {
        let n = wl.len();
        flags.clear();
        flags.resize(n, false);
        // Per block: [survivors, newly IN, newly OUT].
        let counts = {
            let tw = SharedMut::new(t);
            let fw = SharedMut::new(flags.as_mut_slice());
            let list: &[VertexId] = wl;
            par::map_blocks(n.div_ceil(GRAIN), |b| {
                let base = b * GRAIN;
                let mut c = [0usize; 3];
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
                    let nt = self.decide_value(tv, m, v, next_iter == 1);
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
                }
                c
            })
        };
        if self.compact {
            let kept: Vec<usize> = counts.iter().map(|c| c[0]).collect();
            *wl = compact::pack(flags, GRAIN, &kept, |i| wl[i]);
        }
        let newly_in = counts.iter().map(|c| c[1]).sum();
        let newly_out = counts.iter().map(|c| c[2]).sum();
        (newly_in, newly_out)
    }
}

fn run<T: TupleRepr>(g: &CsrGraph, cfg: &Mis2Config) -> Mis2Result {
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
    };

    // T is Refresh Row for iteration 0 (later rounds refresh survivors
    // inside the decide pass). M's initial content is never read: every
    // vertex is in worklist2 for iteration 0 and is overwritten by Refresh
    // Column.
    let mut t: Vec<T> = par::map_range(0..n as VertexId, |v| exec.fresh::<T>(0, v));
    let mut m: Vec<T> = vec![T::OUT; n];

    // Both worklists start as the full vertex set.
    let mut wl1: Vec<VertexId> = (0..n as VertexId).collect();
    let mut wl2 = wl1.clone();
    // Keep-flag buffer shared by both passes.
    let mut flags: Vec<bool> = Vec::new();
    let mut history: Vec<RoundStats> = Vec::new();
    let mut undecided = n;
    let mut iter: u64 = 0;
    while undecided > 0 {
        exec.column_pass(&mut wl2, &t, &mut m, &mut flags);
        iter += 1;
        let (newly_in, newly_out) = exec.decide_pass(&mut wl1, &mut t, &m, iter, &mut flags);
        history.push(RoundStats {
            undecided,
            newly_in,
            newly_out,
        });
        undecided -= newly_in + newly_out;
    }

    let is_in: Vec<bool> = par::map(&t, |x| x.is_in());
    let in_set = compact::par_filter_indices(&is_in, |&b| b);
    Mis2Result {
        in_set,
        is_in,
        iterations: iter as usize,
        history,
    }
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
