//! The seed Algorithm 1 engine, frozen.
//!
//! This module is the seed [`crate::engine`] run loop with its `Auto` gate
//! inlined (global `avg_degree >= 16` SIMD gate — the seed's default, and
//! the only value left now that the engine has no such option — per-vertex
//! `SIMD_MIN_DEGREE` branch, separate count / compact / refresh sweeps).
//! It exists for two reasons:
//!
//! 1. **Oracle** — the repo benchmark's kernel workloads check the
//!    engine's answers against it; `tests/engine_equiv.rs` asserts that it
//!    equals [`crate::spec::mis2`] (as the engine does) on every config.
//! 2. **Baseline** — the repo benchmark's `core.speedup_vs_ref` probe
//!    reports the engine's end-to-end speedup *vs the seed engine*,
//!    which is this code.
//!
//! Do not optimize or restructure this module: its only value is being
//! the frozen seed semantics. Behavioral bugs found here should be fixed
//! in [`crate::engine`] first and only mirrored if the golden
//! fingerprints in `tests/cross_backend.rs` prove the seed itself wrong.

use crate::engine::{Mis2Config, Mis2Result, RoundStats};
use crate::tuple::{id_bits, Packed, TupleRepr, Unpacked};
use mis2_graph::{CsrGraph, VertexId};
use mis2_prim::{compact, par, SharedMut};

/// Compute an MIS-2 with the default configuration, seed-engine semantics.
pub fn mis2(g: &CsrGraph) -> Mis2Result {
    mis2_with_config(g, &Mis2Config::default())
}

/// Compute an MIS-2 with an explicit configuration using the frozen seed
/// engine. Kept only as the benchmark's oracle and baseline — use
/// [`crate::engine::mis2_with_config`] everywhere else.
pub fn mis2_with_config(g: &CsrGraph, cfg: &Mis2Config) -> Mis2Result {
    if g.num_vertices() == 0 {
        return Mis2Result {
            in_set: Vec::new(),
            is_in: Vec::new(),
            iterations: 0,
            history: Vec::new(),
        };
    }
    if cfg.packed {
        run::<Packed>(g, cfg)
    } else {
        run::<Unpacked>(g, cfg)
    }
}

/// Chunk size for neighbor-parallel reductions (seed value).
const SIMD_CHUNK: usize = 256;
/// Minimum degree before the inner loop actually splits (seed value).
const SIMD_MIN_DEGREE: usize = 2 * SIMD_CHUNK;

fn run<T: TupleRepr>(g: &CsrGraph, cfg: &Mis2Config) -> Mis2Result {
    let n = g.num_vertices();
    let bits = id_bits(n);
    let simd = g.avg_degree() >= 16.0;
    // Both representations see the same truncated priorities so that the
    // packed/unpacked toggle changes memory layout only, never the result
    // (the packed word can only hold 64 - bits priority bits).
    let prio_mask: u64 = if bits == 0 {
        u64::MAX
    } else {
        ((1u128 << (64 - bits)) - 1) as u64
    };

    // T and M arrays. M's initial content is never read: every vertex is in
    // worklist2 for iteration 0 and is overwritten by Refresh Column.
    let mut t: Vec<T> = vec![T::OUT; n];
    let mut m: Vec<T> = vec![T::OUT; n];
    let mut wl1: Vec<VertexId> = (0..n as VertexId).collect();
    let mut wl2: Vec<VertexId> = (0..n as VertexId).collect();
    let mut history: Vec<RoundStats> = Vec::new();

    // Refresh Row for iteration 0 (hoisted out of the loop so later
    // iterations can skip decided vertices in the no-worklist mode).
    {
        let tw = SharedMut::new(&mut t);
        par::for_each(&wl1, |&v| {
            let p = cfg.priorities.priority(cfg.seed, 0, v) & prio_mask;
            unsafe { tw.write(v as usize, T::undecided(p, v, bits)) };
        });
    }

    let mut iter: u64 = 0;
    let mut prev_in_total = 0usize;
    loop {
        let undecided_at_start = if cfg.use_worklists {
            wl1.len()
        } else {
            par::count(&t, |x| x.is_undecided())
        };

        // --- Refresh Column: M_v = min(T_w : w in adj(v) ∪ {v}) ---------
        {
            let mw = SharedMut::new(&mut m);
            let t_ref: &[T] = &t;
            if simd {
                par::for_each(&wl2, |&v| {
                    let mut mv = t_ref[v as usize];
                    let nbrs = g.neighbors(v);
                    if nbrs.len() >= SIMD_MIN_DEGREE {
                        let chunk_min = par::chunked_reduce(
                            nbrs,
                            SIMD_CHUNK,
                            |c| c.iter().map(|&w| t_ref[w as usize]).min().unwrap_or(T::OUT),
                            T::OUT,
                            |a, b| a.min(b),
                        );
                        mv = mv.min(chunk_min);
                    } else {
                        for &w in nbrs {
                            mv = mv.min(t_ref[w as usize]);
                        }
                    }
                    if mv.is_in() {
                        mv = T::OUT;
                    }
                    unsafe { mw.write(v as usize, mv) };
                });
            } else {
                par::for_each(&wl2, |&v| {
                    let mut mv = t_ref[v as usize];
                    for &w in g.neighbors(v) {
                        mv = mv.min(t_ref[w as usize]);
                    }
                    if mv.is_in() {
                        mv = T::OUT;
                    }
                    unsafe { mw.write(v as usize, mv) };
                });
            }
        }

        // --- Decide Set --------------------------------------------------
        {
            let tw = SharedMut::new(&mut t);
            let m_ref: &[T] = &m;
            par::for_each(&wl1, |&v| {
                // SAFETY: each worklist1 vertex appears once; we only read
                // and write slot v.
                let tv = unsafe { tw.read(v as usize) };
                if !tv.is_undecided() {
                    // Only reachable in no-worklist mode, where decided
                    // vertices stay in the (full) worklist.
                    return;
                }
                let mv = m_ref[v as usize];
                // Self contribution of the implicit self-loop.
                let mut any_out = mv.is_out();
                let mut all_eq = mv == tv;
                let nbrs = g.neighbors(v);
                if !any_out {
                    if simd && nbrs.len() >= SIMD_MIN_DEGREE {
                        let (o, e) = par::chunked_reduce(
                            nbrs,
                            SIMD_CHUNK,
                            |c| {
                                let mut o = false;
                                let mut e = true;
                                for &w in c {
                                    let mw_ = m_ref[w as usize];
                                    if mw_.is_out() {
                                        o = true;
                                        break;
                                    }
                                    if mw_ != tv {
                                        e = false;
                                    }
                                }
                                (o, e)
                            },
                            (false, true),
                            |a, b| (a.0 || b.0, a.1 && b.1),
                        );
                        any_out = o;
                        all_eq = all_eq && e;
                    } else {
                        for &w in nbrs {
                            let mw_ = m_ref[w as usize];
                            if mw_.is_out() {
                                any_out = true;
                                break;
                            }
                            if mw_ != tv {
                                all_eq = false;
                            }
                        }
                    }
                }
                if any_out {
                    unsafe { tw.write(v as usize, T::OUT) };
                } else if all_eq {
                    unsafe { tw.write(v as usize, T::IN) };
                }
            });
        }

        // --- Bookkeeping + worklist compaction ---------------------------
        iter += 1;
        let (newly_in, newly_out, remaining);
        if cfg.use_worklists {
            // worklist1 held exactly the previously-undecided vertices, so
            // counting decided entries in it gives the per-iteration deltas.
            newly_in = par::count(&wl1, |&v| t[v as usize].is_in());
            newly_out = par::count(&wl1, |&v| t[v as usize].is_out());
            wl1 = compact::par_filter(&wl1, |&v| t[v as usize].is_undecided());
            wl2 = compact::par_filter(&wl2, |&v| !m[v as usize].is_out());
            remaining = wl1.len();
        } else {
            // Full sweeps see cumulative totals; derive the deltas.
            let in_total = par::count(&t, |x| x.is_in());
            remaining = par::count(&t, |x| x.is_undecided());
            newly_in = in_total - prev_in_total;
            newly_out = undecided_at_start - remaining - newly_in;
            prev_in_total = in_total;
        }
        history.push(RoundStats {
            undecided: undecided_at_start,
            newly_in,
            newly_out,
        });

        if remaining == 0 {
            break;
        }

        // --- Refresh Row for the next iteration --------------------------
        {
            let tw = SharedMut::new(&mut t);
            if cfg.use_worklists {
                par::for_each(&wl1, |&v| {
                    let p = cfg.priorities.priority(cfg.seed, iter, v) & prio_mask;
                    unsafe { tw.write(v as usize, T::undecided(p, v, bits)) };
                });
            } else {
                par::for_range(0..n as VertexId, |v| {
                    // SAFETY: one write per distinct v.
                    let cur = unsafe { tw.read(v as usize) };
                    if cur.is_undecided() {
                        let p = cfg.priorities.priority(cfg.seed, iter, v) & prio_mask;
                        unsafe { tw.write(v as usize, T::undecided(p, v, bits)) };
                    }
                });
            }
        }
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

    #[test]
    fn reference_produces_valid_sets() {
        let g = gen::erdos_renyi(500, 1500, 7);
        let r = mis2(&g);
        verify_mis2(&g, &r.is_in).unwrap();
        assert!(r.iterations > 0);
        assert_eq!(r.history.len(), r.iterations);
    }

    #[test]
    fn reference_empty_graph() {
        let g = mis2_graph::CsrGraph::empty(0);
        let r = mis2(&g);
        assert_eq!(r.size(), 0);
        assert_eq!(r.iterations, 0);
    }
}
