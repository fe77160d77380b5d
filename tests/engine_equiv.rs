//! Engine equivalence: the flat-worklist, fused-pass engine must be
//! **bitwise-identical** to the serial spec of Algorithm 1
//! ([`mis2_core::spec`]) — full `Mis2Result` equality, history included —
//! for every configuration and pool size. The spec takes only the priority
//! scheme and the seed, so one answer per pair stands for every worklist
//! and tuple layout setting. The frozen seed engine
//! ([`mis2_core::reference`], the repo benchmark's oracle) must equal the
//! spec too, at pool 1.
//!
//! The config matrix is the full 12-point cube (3 priority schemes × 2
//! worklist modes × 2 tuple representations), which contains the 4-step
//! Figure 2 ablation ladder as a subset; pool sizes {1, 2, 3, 5, 8} cover
//! the serial path (a pool of one: every region a plain loop on the
//! caller), odd non-divisor team sizes and oversubscription, all in one
//! build and one process.
//!
//! Graph selection targets the engine's one cutoff, the 4096-entry
//! dispatch block (a list of one block runs inline, more go to the pool):
//! * `laplace3d`, `erdos_renyi`, `rmat` (1000-2048 vertices) — low bounded
//!   degree, concentrated degrees, power-law degrees; each a single block;
//! * the same three classes at 8000-20 000 vertices (2-5 blocks), at the
//!   default config only — mesh, random and power-law rows that cross
//!   block boundaries, which `star` and `path` alone do not give;
//! * `star` — 33 blocks, one of them holding a 2^17-degree row;
//! * `path` of 300 / 4096 / 4097 / 8193 vertices — one inline block from
//!   round 0; exactly one block; two blocks; a short last block;
//! * one vertex, and 4097 isolated vertices — every vertex IN in round 1,
//!   so the column compaction keeps all of two blocks and the decide
//!   compaction scatters zero survivors from them.
//!
//! A masked run ([`mis2_core::mis2_masked`]) must return what the spec
//! computes on the subgraph its mask induces, built here by a serial loop
//! and mapped back to the graph's numbering: set, mask, iterations and
//! history, for every config at every pool size, under no mask bit set,
//! every bit set (which must also be the unmasked run's result), a seeded
//! third of the vertices, and the unaggregated vertices Algorithm 3's
//! phase 2 masks. The spec has no mask: an oracle stated through the
//! subgraph shares nothing with the masked run.

use mis2_core::{
    mis2_masked, mis2_with_config, reference, spec, Mis2Config, Mis2Result, PriorityScheme,
};
use mis2_graph::{gen, CsrGraph};
use mis2_prim::hash::splitmix64;
use mis2_prim::pool::with_pool;

/// The full 12-config cube (supersedes the ladder: every ladder step is one
/// of these points, modulo the seed, which `seeded` varies separately).
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
    assert_eq!(out.len(), 12);
    out
}

const POOLS: [usize; 5] = [1, 2, 3, 5, 8];

/// Assert engine == spec for one config at every pool size, and
/// reference == spec at pool 1. The spec is serial: it runs once.
fn assert_equiv_at(name: &str, g: &CsrGraph, cfg: &Mis2Config) {
    let want = spec::mis2(g, cfg.priorities, cfg.seed);
    for threads in POOLS {
        let got = with_pool(threads, || mis2_with_config(g, cfg));
        assert_eq!(
            got, want,
            "{name}: engine diverges from the spec for {cfg:?} at {threads} threads"
        );
    }
    let seed_engine = with_pool(1, || reference::mis2_with_config(g, cfg));
    assert_eq!(
        seed_engine, want,
        "{name}: seed engine diverges from the spec for {cfg:?}"
    );
}

/// [`assert_equiv_at`] for every config.
fn assert_equiv(name: &str, g: &CsrGraph) {
    for cfg in all_configs() {
        assert_equiv_at(name, g, &cfg);
    }
}

#[test]
fn equiv_mesh_single_class() {
    assert_equiv("laplace3d", &gen::laplace3d(10, 10, 10));
}

#[test]
fn equiv_random_small_medium_border() {
    assert_equiv("erdos_renyi", &gen::erdos_renyi(2000, 8000, 11));
}

#[test]
fn equiv_powerlaw_all_classes() {
    assert_equiv("rmat", &gen::rmat(11, 16, 0.65, 0.15, 0.15, 5));
}

#[test]
fn equiv_multi_block_mesh_random_powerlaw() {
    let cfg = Mis2Config::default();
    assert_equiv_at("laplace3d", &gen::laplace3d(20, 20, 20), &cfg);
    assert_equiv_at("erdos_renyi", &gen::erdos_renyi(20_000, 160_000, 11), &cfg);
    assert_equiv_at("rmat", &gen::rmat(14, 16, 0.65, 0.15, 0.15, 5), &cfg);
}

#[test]
fn equiv_star_huge_hub() {
    // Hub degree 2^17 + 9: the engine's serial loop over that row, inside
    // an ordinary block, and the seed's chunked (nested, hence serial)
    // reduction of it must both match the spec bit for bit.
    assert_equiv("star", &gen::star((1 << 17) + 10));
}

#[test]
fn equiv_single_inline_block_path() {
    // 300 vertices: every list of every round is one block, so the whole
    // run is inline on the caller at every pool size.
    assert_equiv("path", &gen::path(300));
}

#[test]
fn equiv_block_boundaries() {
    // Around the 4096-entry dispatch block: one full block (inline), two
    // blocks with a 1-entry tail, three with a 1-entry tail.
    for n in [4096, 4097, 8193] {
        assert_equiv(&format!("path({n})"), &gen::path(n));
    }
    assert_equiv("empty(1)", &CsrGraph::empty(1));
    assert_equiv("empty(4097)", &CsrGraph::empty(4097));
}

#[test]
fn equiv_seeded_property_graphs() {
    // splitmix64-derived property sweep: random graphs with random
    // nontrivial configs and seeds, every pool size. Catches anything the
    // targeted graphs above miss (e.g. odd n).
    for i in 0u64..6 {
        let s = splitmix64(0xE9_17 ^ i);
        let n = 500 + (s % 2500) as usize;
        let m = n * (2 + (splitmix64(s) % 6) as usize);
        let g = gen::erdos_renyi(n, m, s ^ 0xABCD);
        let cfg = Mis2Config {
            priorities: [
                PriorityScheme::Fixed,
                PriorityScheme::XorHash,
                PriorityScheme::XorStar,
            ][(s % 3) as usize],
            use_worklists: s & 8 != 0,
            packed: s & 16 != 0,
            seed: splitmix64(s ^ 0x5EED),
        };
        assert_equiv_at(&format!("seeded graph {i} ({n} vertices)"), &g, &cfg);
    }
}

#[test]
fn equiv_ladder_on_powerlaw() {
    // The exact Figure 2 ablation ladder on a power-law graph.
    let g = gen::rmat(12, 8, 0.6, 0.2, 0.1, 7);
    for (label, cfg) in Mis2Config::ladder() {
        assert_equiv_at(&format!("ladder step {label}"), &g, &cfg);
    }
}

/// The subgraph of `g` the vertices with `keep[v]` induce, numbered in
/// ascending id, and each of its vertices' id in `g`.
fn induced(g: &CsrGraph, keep: &[bool]) -> (CsrGraph, Vec<u32>) {
    let kept: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| keep[v as usize])
        .collect();
    let mut number = vec![u32::MAX; g.num_vertices()];
    for (s, &v) in kept.iter().enumerate() {
        number[v as usize] = s as u32;
    }
    let (mut row_ptr, mut col_idx) = (vec![0], Vec::new());
    for &v in &kept {
        let near = g.neighbors(v).iter().map(|&w| number[w as usize]);
        col_idx.extend(near.filter(|&s| s != u32::MAX));
        row_ptr.push(col_idx.len());
    }
    let sub = CsrGraph::from_csr(kept.len(), row_ptr, col_idx).expect("an induced subgraph");
    (sub, kept)
}

/// What `mis2_masked(g, keep, cfg)` must return: the spec's MIS-2 of the
/// subgraph `keep` induces, its set and mask in `g`'s numbering.
fn masked_spec(g: &CsrGraph, keep: &[bool], cfg: &Mis2Config) -> Mis2Result {
    let (sub, sub_to_g) = induced(g, keep);
    let r = spec::mis2(&sub, cfg.priorities, cfg.seed);
    let in_set: Vec<u32> = r.in_set.iter().map(|&s| sub_to_g[s as usize]).collect();
    let mut is_in = vec![false; g.num_vertices()];
    for &v in &in_set {
        is_in[v as usize] = true;
    }
    Mis2Result {
        in_set,
        is_in,
        iterations: r.iterations,
        history: r.history,
    }
}

/// The four masks, by name: none, all, a seeded third of the vertices, and
/// Algorithm 3's phase-2 mask (neither in the phase-1 MIS-2 under `cfg`
/// nor next to a vertex that is).
fn masks(g: &CsrGraph, cfg: &Mis2Config) -> [(&'static str, Vec<bool>); 4] {
    let n = g.num_vertices();
    let m1 = spec::mis2(g, cfg.priorities, cfg.seed).is_in;
    let near_m1 = |v: usize| m1[v] || g.neighbors(v as u32).iter().any(|&w| m1[w as usize]);
    [
        ("none", vec![false; n]),
        ("all", vec![true; n]),
        (
            "a third",
            (0..n as u64)
                .map(|v| splitmix64(v ^ 0x7E1D) % 3 == 0)
                .collect(),
        ),
        ("phase 2", (0..n).map(|v| !near_m1(v)).collect()),
    ]
}

/// `mis2_masked` == the spec on the induced subgraph, for every config and
/// mask at every pool size; under the full mask, == `mis2_with_config` too.
fn assert_masked_equiv(name: &str, g: &CsrGraph) {
    for cfg in all_configs() {
        for (mask, keep) in masks(g, &cfg) {
            let want = masked_spec(g, &keep, &cfg);
            for threads in POOLS {
                let got = with_pool(threads, || mis2_masked(g, &keep, &cfg));
                assert_eq!(
                    got, want,
                    "{name}, mask {mask}: the masked run diverges from the spec on the \
                     subgraph for {cfg:?} at {threads} threads"
                );
                if mask == "all" {
                    let unmasked = with_pool(threads, || mis2_with_config(g, &cfg));
                    assert_eq!(got, unmasked, "{name}: {cfg:?} at {threads} threads");
                }
            }
        }
    }
}

#[test]
fn masked_equiv_mesh_random_powerlaw() {
    assert_masked_equiv("laplace3d", &gen::laplace3d(10, 10, 10));
    assert_masked_equiv("erdos_renyi", &gen::erdos_renyi(2000, 8000, 11));
    assert_masked_equiv("rmat", &gen::rmat(11, 16, 0.65, 0.15, 0.15, 5));
}

#[test]
fn masked_equiv_multi_block() {
    // Two to five blocks under the full mask, one or two under the others.
    assert_masked_equiv("laplace3d", &gen::laplace3d(20, 20, 20));
    assert_masked_equiv("rmat", &gen::rmat(13, 8, 0.57, 0.19, 0.19, 7));
}
