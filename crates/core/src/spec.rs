//! Algorithm 1 as a serial specification: the bitwise oracle of
//! [`crate::engine`].
//!
//! A line-by-line transcription of the paper's listing. Every round runs
//! its three steps over whole arrays, each step reading the arrays the
//! previous one finished:
//!
//! * **Refresh Row** — every undecided `v` gets `T_v = (UNDECIDED, h(iter,
//!   v), v)`;
//! * **Refresh Column** — `M_v = min(T_w : w in adj(v) ∪ {v})`, `OUT` if
//!   that min is `IN` (an `IN` tuple never leaves, so recomputing every
//!   `M_v` keeps an `OUT` one `OUT`);
//! * **Decide Set** — an undecided `v` becomes `OUT` if some `M_w` with
//!   `w in adj(v) ∪ {v}` is `OUT`, `IN` if every such `M_w` is `T_v`.
//!
//! There are no worklists, no packed words and no parallel loops, so the
//! signature takes only what changes the result. The engine must equal
//! this function for every [`crate::Mis2Config`], history included
//! (`tests/engine_equiv.rs`): that is the claim that worklists, packing and
//! the pool size never change the set.

use crate::engine::{Mis2Result, RoundStats};
use crate::priority::PriorityScheme;
use crate::tuple::id_bits;
use mis2_graph::{CsrGraph, VertexId};

/// The tuple `(status, priority, id)`. The derived order is the paper's:
/// `IN < UNDECIDED < OUT`, undecided tuples by `(priority, id)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tuple {
    In,
    Undecided(u64, VertexId),
    Out,
}

/// The MIS-2 that Algorithm 1 computes on `g` with `priorities` and `seed`.
pub fn mis2(g: &CsrGraph, priorities: PriorityScheme, seed: u64) -> Mis2Result {
    let n = g.num_vertices();
    // Every vertex starts undecided; Refresh Row gives it its tuple.
    let mut t = vec![Tuple::Undecided(0, 0); n];
    let mut history = Vec::new();
    let mut undecided = n;
    // A packed tuple keeps the priority bits above the id; both layouts of
    // the engine compare those. (An empty graph runs no round.)
    let mask = u64::MAX >> id_bits(n.max(1));
    // `adj(v) ∪ {v}`: Lemma IV.1 assumes self-loops, `CsrGraph` stores none.
    let closed =
        |v: usize| std::iter::once(v).chain(g.neighbors(v as VertexId).iter().map(|&w| w as usize));
    while undecided > 0 {
        // Refresh Row, with the priorities of round `iter` (0-based).
        let iter = history.len() as u64;
        for (v, tv) in t.iter_mut().enumerate() {
            if let Tuple::Undecided(..) = tv {
                let p = priorities.priority(seed, iter, v as VertexId) & mask;
                *tv = Tuple::Undecided(p, v as VertexId);
            }
        }
        // Refresh Column.
        let m: Vec<Tuple> = (0..n)
            .map(|v| match closed(v).map(|w| t[w]).min().unwrap() {
                Tuple::In => Tuple::Out,
                mv => mv,
            })
            .collect();
        // Decide Set.
        let next: Vec<Tuple> = (0..n)
            .map(|v| match t[v] {
                tv @ Tuple::Undecided(..) => {
                    if closed(v).any(|w| m[w] == Tuple::Out) {
                        Tuple::Out
                    } else if closed(v).all(|w| m[w] == tv) {
                        Tuple::In
                    } else {
                        tv
                    }
                }
                decided => decided,
            })
            .collect();
        let newly = |s: Tuple| (0..n).filter(|&v| next[v] == s && t[v] != s).count();
        let (newly_in, newly_out) = (newly(Tuple::In), newly(Tuple::Out));
        history.push(RoundStats {
            undecided,
            newly_in,
            newly_out,
        });
        undecided -= newly_in + newly_out;
        t = next;
    }
    let is_in: Vec<bool> = t.iter().map(|&tv| tv == Tuple::In).collect();
    Mis2Result {
        in_set: (0..n as VertexId).filter(|&v| is_in[v as usize]).collect(),
        is_in,
        iterations: history.len(),
        history,
    }
}
