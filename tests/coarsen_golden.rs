//! The coarse adjacency and the AMG set-up operators, as literals.
//!
//! A served `COARSEN` body fingerprints labels and vertex / edge *counts*,
//! so a coarse graph that is wrong at equal counts is caught by no other
//! test. This file pins `row_ptr` + `col_idx` of every level of
//! `coarsen_recursive` on three generator graphs, `row_ptr` + `col_idx` +
//! value bits of `smoothed_prolongator` and `galerkin_product` on
//! Laplace3D 12³, the remaining CSR producers on small inputs, Algorithm
//! 3's phase-2 MIS-2 under a mask, and the bytes a registry charges for
//! `COARSEN 2` / `COARSEN 8`. The literals
//! were generated on the commit *before* every row producer moved onto the
//! row-block assembler of `mis2_prim::rows`; that move must keep every bit
//! and every charged byte.
//!
//! Regenerate (only after an intentional change of an algorithm) with
//! `cargo test -q --test coarsen_golden -- --ignored --nocapture print_goldens`.

use mis2::coarsen::hierarchy::coarsen_recursive;
use mis2::coarsen::prolongator::{smoothed_prolongator, tentative_prolongator};
use mis2::core::{mis2_masked, Mis2Config};
use mis2::graph::{gen, ops as gops, CsrGraph};
use mis2::prim::hash::splitmix64;
use mis2::prim::pool::with_pool;
use mis2::sparse::{galerkin_product, gen as sgen, CsrMatrix};
use mis2::svc::ops::{self, OpKey};

fn chain(h: u64, data: impl IntoIterator<Item = u64>) -> u64 {
    data.into_iter().fold(h, |h, x| splitmix64(h ^ x))
}

/// Order-sensitive fingerprint of a graph's two CSR arrays.
fn graph_fp(g: &CsrGraph) -> u64 {
    let h = chain(0xCBF2_9CE4_8422_2325, g.row_ptr().iter().map(|&p| p as u64));
    chain(h, g.col_idx().iter().map(|&c| c as u64))
}

/// Order-sensitive fingerprint of a matrix's three CSR arrays (value bits).
fn matrix_fp(a: &CsrMatrix) -> u64 {
    let h = chain(
        0x8422_2325_CBF2_9CE4 ^ a.ncols() as u64,
        a.row_ptr().iter().map(|&p| p as u64),
    );
    let h = chain(h, a.col_idx().iter().map(|&c| c as u64));
    chain(h, a.values().iter().map(|v| v.to_bits()))
}

/// The `svc_cold` mesh class, an R-MAT with hub rows, and the paper's
/// stencil: each spans many row blocks at level 0 and several at level 1.
fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "mesh3d_20000",
            gen::mesh3d(20_000, 22, 0.02, 2, 40, 3, 26, 5),
        ),
        ("rmat_13", gen::rmat(13, 8, 0.57, 0.19, 0.19, 7)),
        ("laplace3d_24", gen::laplace3d(24, 24, 24)),
    ]
}

/// `(vertices, graph_fp)` of every level of `coarsen_recursive(g, 64, 8)`.
fn level_fps(g: &CsrGraph) -> Vec<(usize, u64)> {
    coarsen_recursive(g, ops::COARSEN_MIN_VERTICES, 8)
        .iter()
        .map(|l| (l.graph.num_vertices(), graph_fp(&l.graph)))
        .collect()
}

const LEVELS: [(&str, &[(usize, u64)]); 3] = [
    (
        "mesh3d_20000",
        &[
            (20412, 0xaee976e94185249f),
            (1060, 0xbca50ffc163b1109),
            (79, 0x58946a24163a1db3),
            (6, 0x0c88a32d33456bc6),
        ],
    ),
    (
        "rmat_13",
        &[
            (8192, 0xa06c3ff0985f2a99),
            (2842, 0xa15919ca90fd9cef),
            (2522, 0xa53fc9e409de5b72),
        ],
    ),
    (
        "laplace3d_24",
        &[
            (13824, 0x7e38dcc184acbd1f),
            (2048, 0xc2048358bf2c85f9),
            (217, 0xc3d4a118dd66caf3),
            (24, 0xbc40f005ccfec6ca),
        ],
    ),
];

/// `(smoothed_prolongator, galerkin_product)` on Laplace3D 12³ under the
/// default ω (2/3 on this operator) and under ω = 1/2.
fn amg_setup_fps() -> [(u64, u64); 2] {
    let g = gen::laplace3d(12, 12, 12);
    let a = sgen::laplace3d_matrix(12, 12, 12);
    let agg = mis2::coarsen::mis2_aggregation(&g);
    let pt = tentative_prolongator(&agg, true);
    [None, Some(0.5)].map(|omega| {
        let p = smoothed_prolongator(&a, &pt, omega);
        (matrix_fp(&p), matrix_fp(&galerkin_product(&a, &p)))
    })
}

const AMG_SETUP: [(u64, u64); 2] = [
    (0xaa717c2c81c0e299, 0xacf50fd3ae6bd1db),
    (0x2e7ec85e28cb6d52, 0xd168b328560d2c14),
];

/// Every other producer that assembles rows, on inputs of a few blocks.
fn producer_fps() -> Vec<(&'static str, u64)> {
    let er = gen::erdos_renyi(700, 2800, 3);
    let coo: Vec<(u32, u32, f64)> = (0..4000u64)
        .map(|i| {
            let h = splitmix64(i);
            (
                (h % 600) as u32,
                ((h >> 20) % 500) as u32,
                ((h >> 40) % 64) as f64 / 8.0 - 4.0,
            )
        })
        .collect();
    vec![
        ("square", graph_fp(&gops::square(&er))),
        (
            "torus3d",
            graph_fp(&gen::torus3d(9, 8, 7, &gen::OFFSETS_7PT)),
        ),
        ("elasticity3d", graph_fp(&gen::elasticity3d(5, 4, 6, 3))),
        (
            "merge_edges",
            graph_fp(&gen::merge_edges(
                &gen::laplace2d(30, 20),
                &[(0, 599), (7, 7), (3, 4), (599, 0), (250, 12)],
            )),
        ),
        ("from_coo", matrix_fp(&CsrMatrix::from_coo(600, 500, &coo))),
        (
            "elasticity3d_matrix",
            matrix_fp(&sgen::elasticity3d_matrix(5, 4, 6)),
        ),
        ("spd_from_graph", matrix_fp(&sgen::spd_from_graph(&er, 11))),
    ]
}

const PRODUCERS: [(&str, u64); 7] = [
    ("square", 0xff4a26fc8c9b964a),
    ("torus3d", 0x6904a2ba5c6ad98d),
    ("elasticity3d", 0x38a713c8e06011a9),
    ("merge_edges", 0x54464f5529e33f16),
    ("from_coo", 0x130bdb7ee474c5c4),
    ("elasticity3d_matrix", 0x49b26bd441ce317c),
    ("spd_from_graph", 0xd8a2421e7c6fdd2f),
];

/// Algorithm 3's phase-2 MIS-2 (the default config, phase 2's seed) of
/// Laplace3D 24³ under a mask of two thirds of the vertices: its set, in
/// the graph's numbering, then its history. The literal was computed on the
/// commit before the masked run, by building the subgraph the mask induces,
/// running `mis2_with_config` on it and mapping the set back.
fn phase_2_fp() -> u64 {
    let keep: Vec<bool> = (0..13_824u64).map(|v| splitmix64(v) % 3 != 0).collect();
    let cfg = Mis2Config {
        seed: 0xA66E_57A7,
        ..Mis2Config::default()
    };
    let m = mis2_masked(&gen::laplace3d(24, 24, 24), &keep, &cfg);
    let h = chain(0x9E37_79B9_7F4A_7C15, m.in_set.iter().map(|&v| v as u64));
    let rounds = m
        .history
        .iter()
        .flat_map(|r| [r.undecided, r.newly_in, r.newly_out]);
    chain(h, rounds.map(|x| x as u64))
}

const PHASE_2: u64 = 0x2cd1cb7ff57afbf8;

/// What the registry charges for `COARSEN 2` / `COARSEN 8` of the mesh.
fn charged_bytes() -> [usize; 2] {
    let g = &graphs()[0].1;
    [2, 8].map(|levels| ops::compute(g, &OpKey::Coarsen { levels }).heap_bytes())
}

const CHARGED: [usize; 2] = [2_007_928, 2_018_548];

#[test]
fn every_level_graph_matches_its_literal() {
    for ((name, g), (want_name, want)) in graphs().iter().zip(LEVELS) {
        assert_eq!(*name, want_name);
        for threads in [1usize, 3] {
            assert_eq!(
                with_pool(threads, || level_fps(g)),
                want,
                "{name}: level graphs at pool {threads}"
            );
        }
    }
}

#[test]
fn prolongator_and_galerkin_match_their_literals() {
    for threads in [1usize, 2, 5] {
        assert_eq!(
            with_pool(threads, amg_setup_fps),
            AMG_SETUP,
            "pool {threads}"
        );
    }
}

#[test]
fn every_row_producer_matches_its_literal() {
    for threads in [1usize, 4] {
        assert_eq!(
            with_pool(threads, producer_fps),
            PRODUCERS,
            "pool {threads}"
        );
    }
}

#[test]
fn phase_2s_masked_mis2_matches_its_literal() {
    for threads in [1usize, 4] {
        assert_eq!(with_pool(threads, phase_2_fp), PHASE_2, "pool {threads}");
    }
}

#[test]
fn coarsen_artifacts_are_charged_the_same_bytes() {
    assert_eq!(charged_bytes(), CHARGED);
}

/// Not a check — prints the literals above.
#[test]
#[ignore = "prints the literals; run with --ignored --nocapture"]
fn print_goldens() {
    for (name, g) in graphs() {
        println!("    (\"{name}\", &[");
        for (n, fp) in level_fps(&g) {
            println!("        ({n}, {fp:#018x}),");
        }
        println!("    ]),");
    }
    println!("const AMG_SETUP: [(u64, u64); 2] = [");
    for (p, ac) in amg_setup_fps() {
        println!("    ({p:#018x}, {ac:#018x}),");
    }
    println!("];");
    for (name, fp) in producer_fps() {
        println!("    (\"{name}\", {fp:#018x}),");
    }
    println!("const PHASE_2: u64 = {:#018x};", phase_2_fp());
    println!("const CHARGED: [usize; 2] = {:?};", charged_bytes());
}
