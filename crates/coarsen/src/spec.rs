//! Algorithms 2 and 3 as serial specifications: the bitwise oracles of
//! [`crate::basic`] and [`crate::mis2_agg`].
//!
//! Each phase is a loop over vertex ids (or over roots, in id order) that
//! reads the arrays the previous phase finished. Both MIS-2s come from
//! Algorithm 1's own spec, [`mis2_core::spec::mis2`], and phase 2's runs
//! on the subgraph the unaggregated vertices induce, numbered in ascending
//! id, as the paper states it. Nothing here shares code with the schemes:
//! the "at least 2 unaggregated neighbours" rule, the frozen tentative
//! labels, the max-coupling join and its tie-break, and the pocket sweep
//! are written again from `mis2_agg.rs`' module docs.
//! `tests/agg_spec.rs` holds the schemes to these functions for every
//! ladder config at every pool size.

use crate::agg::{Aggregation, UNAGGREGATED};
use mis2_core::{spec, Mis2Config};
use mis2_graph::{CsrGraph, VertexId};
use std::cmp::Reverse;

/// Algorithm 2 on `g` with Algorithm 1's default configuration.
pub fn basic(g: &CsrGraph) -> Aggregation {
    let cfg = Mis2Config::default();
    let roots = spec::mis2(g, cfg.priorities, cfg.seed).in_set;
    let mut labels = vec![UNAGGREGATED; g.num_vertices()];
    // Phase 1: root `a` and its neighbours form aggregate `a`.
    for (a, &r) in roots.iter().enumerate() {
        root(g, &mut labels, r, a as u32);
    }
    // Phase 2: every leftover joins its smallest adjacent aggregate of
    // phase 1.
    let phase1 = labels.clone();
    for (v, label) in labels.iter_mut().enumerate() {
        if *label == UNAGGREGATED {
            *label = smallest_near(g, &phase1, v).unwrap_or(UNAGGREGATED);
        }
    }
    Aggregation {
        labels,
        num_aggregates: roots.len(),
        roots,
    }
}

/// Algorithm 3 on `g`, both MIS-2s under `cfg`'s priorities (phase 2's
/// seed perturbed).
pub fn mis2_agg(g: &CsrGraph, cfg: &Mis2Config) -> Aggregation {
    let n = g.num_vertices();
    let mut labels = vec![UNAGGREGATED; n];
    let mut roots = Vec::new();
    // Phase 1: every MIS-2 vertex roots an aggregate with its neighbours.
    for r in spec::mis2(g, cfg.priorities, cfg.seed).in_set {
        root(g, &mut labels, r, roots.len() as u32);
        roots.push(r);
    }
    // Phase 2: a second MIS-2, of the unaggregated vertices' subgraph. A
    // member with at least 2 unaggregated neighbours roots an aggregate.
    let (sub, sub_to_g) = unaggregated_subgraph(g, &labels);
    let m2 = spec::mis2(&sub, cfg.priorities, cfg.seed ^ 0xA66E_57A7);
    let unaggregated = |v: VertexId| labels[v as usize] == UNAGGREGATED;
    let secondary: Vec<VertexId> = (m2.in_set.iter())
        .map(|&s| sub_to_g[s as usize])
        .filter(|&v| g.neighbors(v).iter().filter(|&&w| unaggregated(w)).count() >= 2)
        .collect();
    for r in secondary {
        root(g, &mut labels, r, roots.len() as u32);
        roots.push(r);
    }
    // Phase 3: every leftover joins the adjacent aggregate of maximum
    // coupling, ties to the smaller aggregate, then the smaller id, all
    // read from the tentative labels frozen at the end of phase 2.
    let tentative = labels.clone();
    let mut sizes = vec![0usize; roots.len()];
    for &l in tentative.iter().filter(|&&l| l != UNAGGREGATED) {
        sizes[l as usize] += 1;
    }
    for v in 0..n {
        if tentative[v] != UNAGGREGATED {
            continue;
        }
        let mut near: Vec<u32> = (g.neighbors(v as VertexId).iter())
            .map(|&w| tentative[w as usize])
            .filter(|&l| l != UNAGGREGATED)
            .collect();
        near.sort_unstable();
        let coupled = near.chunk_by(|a, b| a == b).map(|run| (run[0], run.len()));
        if let Some((a, _)) = coupled.min_by_key(|&(a, c)| (Reverse(c), sizes[a as usize], a)) {
            labels[v] = a;
        }
    }
    // Phase 3b: in id order, a vertex still unaggregated joins its
    // smallest adjacent aggregate of this sweep, or roots a new one.
    for v in 0..n {
        if labels[v] == UNAGGREGATED {
            labels[v] = smallest_near(g, &labels, v).unwrap_or_else(|| {
                roots.push(v as VertexId);
                roots.len() as u32 - 1
            });
        }
    }
    Aggregation {
        labels,
        num_aggregates: roots.len(),
        roots,
    }
}

/// The smallest aggregate among the `labels` of `v`'s neighbours.
fn smallest_near(g: &CsrGraph, labels: &[u32], v: usize) -> Option<u32> {
    let near = g.neighbors(v as VertexId).iter();
    near.map(|&w| labels[w as usize])
        .filter(|&l| l != UNAGGREGATED)
        .min()
}

/// Root `r` takes label `a`, and so does each unaggregated neighbour.
fn root(g: &CsrGraph, labels: &mut [u32], r: VertexId, a: u32) {
    labels[r as usize] = a;
    for &w in g.neighbors(r) {
        if labels[w as usize] == UNAGGREGATED {
            labels[w as usize] = a;
        }
    }
}

/// The subgraph induced by the unaggregated vertices, numbered in
/// ascending id, and each of its vertices' id in `g`.
fn unaggregated_subgraph(g: &CsrGraph, labels: &[u32]) -> (CsrGraph, Vec<VertexId>) {
    let kept: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| labels[v as usize] == UNAGGREGATED)
        .collect();
    let mut number = vec![VertexId::MAX; g.num_vertices()];
    for (s, &v) in kept.iter().enumerate() {
        number[v as usize] = s as VertexId;
    }
    let (mut row_ptr, mut col_idx) = (vec![0], Vec::new());
    for &v in &kept {
        let near = g.neighbors(v).iter().map(|&w| number[w as usize]);
        col_idx.extend(near.filter(|&s| s != VertexId::MAX));
        row_ptr.push(col_idx.len());
    }
    let sub = CsrGraph::from_csr(kept.len(), row_ptr, col_idx).expect("an induced subgraph");
    (sub, kept)
}
