//! Engine equivalence: the flat-worklist, fused-pass engine must be
//! **bitwise-identical** to the frozen seed engine
//! ([`mis2_core::reference`]) — full `Mis2Result` equality, history
//! included — for every configuration and pool size.
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
//! * `star` — 33 blocks, one of them holding a 2^17-degree row, against
//!   the seed's chunked reduction of that row;
//! * `path` of 300 / 4096 / 4097 / 8193 vertices — one inline block from
//!   round 0; exactly one block; two blocks; a short last block;
//! * one vertex, and 4097 isolated vertices — every vertex IN in round 1,
//!   so the column compaction keeps all of two blocks and the decide
//!   compaction scatters zero survivors from them.

use mis2_core::{mis2_with_config, reference, Mis2Config, PriorityScheme};
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

/// Assert engine == reference for one config at every pool size. The
/// reference result is computed once at pool 1 (the reference's own
/// pool-independence is covered by the cross_backend goldens).
fn assert_equiv_at(name: &str, g: &CsrGraph, cfg: &Mis2Config) {
    let want = with_pool(1, || reference::mis2_with_config(g, cfg));
    for threads in POOLS {
        let got = with_pool(threads, || mis2_with_config(g, cfg));
        assert_eq!(
            got, want,
            "{name}: engine diverges from seed engine for {cfg:?} at {threads} threads"
        );
    }
}

/// Assert engine == reference for every config at every pool size.
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
    // Hub degree 2^17 + 9: the serial loop over that row, inside an
    // ordinary block, must match the seed's chunked (nested, hence
    // serial) reduction bit for bit.
    assert_equiv("star", &gen::star((1 << 17) + 10));
}

#[test]
fn equiv_single_inline_block_path() {
    // 300 vertices: every list of every round is one block, so the whole
    // run is inline on the caller at every pool size; it must still match
    // the seed engine's parallel primitives bit for bit.
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
