//! Cross-backend determinism: the serial path and the threaded pool must
//! produce **bitwise-identical** MIS-2 and aggregation output.
//!
//! There is one build. The serial path is a pool of one (`with_pool(1)`,
//! every region a plain loop on the caller, no worker spawned), so equality
//! is asserted directly, in one process: pool 1 against pools {2, 3, 5, 8},
//! and every one of them against the same golden literals.
//!
//! Besides MIS-2 and aggregation, a solver path (CG preconditioned by one
//! SA-AMG hierarchy, plus a raw V-cycle application) is pinned the same
//! way, so the persistent worker pool behind `par` can't silently change
//! floating-point numerics at any pool size. So are the two Jones–Plassmann
//! colorings (`color_d1`, `color_d2`): colors, color count and rounds.

use mis2::prelude::*;
use mis2::solver::{pcg, AmgConfig, AmgHierarchy, Preconditioner, SolveOpts};
use mis2_prim::hash::splitmix64;
use mis2_prim::pool::with_pool;

/// Order-sensitive 64-bit fingerprint of a u32 sequence.
fn fingerprint(data: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in data {
        h = splitmix64(h ^ x as u64);
    }
    h
}

fn mis2_fingerprint(g: &CsrGraph) -> u64 {
    let r = mis2::mis2(g);
    verify_mis2(g, &r.is_in).unwrap();
    fingerprint(
        r.in_set
            .iter()
            .copied()
            .chain([r.iterations as u32, r.size() as u32]),
    )
}

fn aggregation_fingerprint(g: &CsrGraph) -> u64 {
    let a = mis2_aggregation(g);
    a.validate(g).unwrap();
    fingerprint(a.labels.iter().copied().chain([a.num_aggregates as u32]))
}

/// Order-sensitive fingerprint of an f64 sequence (exact bit patterns, so
/// any rounding difference — e.g. a reduction order change — is caught).
fn fingerprint_f64<'a>(data: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0x84222325_CBF29CE4u64;
    for x in data {
        h = splitmix64(h ^ x.to_bits());
    }
    h
}

/// CG + one AMG V-cycle on the Laplace3D(16) generator matrix: 4096 rows,
/// large enough that SpMV, the vector kernels and the aggregation inside
/// the AMG setup all take their parallel paths on the warm pool.
fn solver_fingerprint() -> u64 {
    let a = mis2::sparse::gen::laplace3d_matrix(16, 16, 16);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let amg = AmgHierarchy::build(
        &a,
        &AmgConfig {
            min_coarse_size: 64,
            ..Default::default()
        },
    );
    // One raw V-cycle application...
    let mut z = vec![0.0; n];
    amg.apply(&b, &mut z);
    // ...and a full AMG-preconditioned CG solve.
    let (x, res) = pcg(
        &a,
        &b,
        &amg,
        &SolveOpts {
            tol: 1e-10,
            max_iters: 300,
        },
    );
    assert!(res.converged, "AMG-CG must converge on Laplace3D(16)");
    splitmix64(
        fingerprint_f64(z.iter().chain(x.iter()).chain(res.history.iter())) ^ res.iterations as u64,
    )
}

/// The three generator graphs the golden values are pinned on.
fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("laplace3d_12", mis2_graph::gen::laplace3d(12, 12, 12)),
        (
            "erdos_renyi_1500",
            mis2_graph::gen::erdos_renyi(1500, 6000, 42),
        ),
        ("rmat_11", mis2_graph::gen::rmat(11, 8, 0.57, 0.19, 0.19, 7)),
    ]
}

/// Golden `(mis2, aggregation)` fingerprints per graph. Identical at pool 1
/// and every larger pool — that identity *is* the portability claim.
/// If an intentional algorithm change shifts these, regenerate via
/// `cargo test -q --test cross_backend -- --nocapture print_fingerprints`.
const GOLDEN: [(&str, u64, u64); 3] = [
    ("laplace3d_12", 0xbf72e302a7d8b8ad, 0x7a14a7e6a30d6637),
    ("erdos_renyi_1500", 0xb525515fc33f2d43, 0x60af2bd9dd1ed679),
    ("rmat_11", 0x4d1000cf150fb1bb, 0xf2f1e0bc0fb6ea27),
];

/// Golden fingerprint for [`solver_fingerprint`]. Identical at every pool
/// size; regenerate alongside [`GOLDEN`].
const GOLDEN_SOLVER: u64 = 0x4efa85069df15636;

/// The colors of `c`, then `num_colors` and `rounds`.
fn coloring_fingerprint(c: &Coloring) -> u64 {
    fingerprint(
        c.colors
            .iter()
            .copied()
            .chain([c.num_colors, c.rounds as u32]),
    )
}

/// `(color_d1, color_d2)` fingerprints of one graph at one seed.
fn colorings_fingerprint(g: &CsrGraph, seed: u64) -> (u64, u64) {
    let d1 = color_d1(g, seed);
    mis2::color::verify_coloring_d1(g, &d1.colors).unwrap();
    let d2 = color_d2(g, seed);
    mis2::color::verify_coloring_d2(g, &d2.colors).unwrap();
    (coloring_fingerprint(&d1), coloring_fingerprint(&d2))
}

/// Seeds the colorings are pinned at.
const COLOR_SEEDS: [u64; 2] = [0, 3];

/// Golden `(graph, seed, color_d1, color_d2)` fingerprints, identical at
/// every pool size; regenerate alongside [`GOLDEN`].
const GOLDEN_COLORINGS: [(&str, u64, u64, u64); 6] = [
    ("laplace3d_12", 0, 0x3783ef7956b15819, 0x7bfe030ecfaedf3a),
    ("laplace3d_12", 3, 0x8e73b7170bd4fe9d, 0xc389c5363a7f974e),
    (
        "erdos_renyi_1500",
        0,
        0xb89af6fcadd2bebd,
        0xc2c073d0de587fda,
    ),
    (
        "erdos_renyi_1500",
        3,
        0xf3d4c9ed5b11f3b2,
        0xb3e1787718b3a72c,
    ),
    ("rmat_11", 0, 0xfe27233ba83a98a3, 0xbc4557a11a1a084d),
    ("rmat_11", 3, 0xd2a89b5bfa6ae0e5, 0xf72586849cde61fd),
];

#[test]
fn colorings_reproduce_golden_fingerprints() {
    for (name, g) in graphs() {
        for seed in COLOR_SEEDS {
            let (_, _, d1, d2) = GOLDEN_COLORINGS
                .iter()
                .find(|(n, s, _, _)| *n == name && *s == seed)
                .copied()
                .unwrap_or_else(|| panic!("no golden coloring for {name} at seed {seed}"));
            for threads in [1usize, 3] {
                assert_eq!(
                    with_pool(threads, || colorings_fingerprint(&g, seed)),
                    (d1, d2),
                    "{name}, seed {seed}: colorings differ from golden at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn backends_reproduce_golden_fingerprints() {
    for (name, g) in graphs() {
        let (_, want_mis, want_agg) = GOLDEN
            .iter()
            .find(|(n, _, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("no golden entry for {name}"));
        assert_eq!(
            mis2_fingerprint(&g),
            want_mis,
            "MIS-2 fingerprint for {name} differs from golden \
             (pool-size divergence or intentional algorithm change)"
        );
        assert_eq!(
            aggregation_fingerprint(&g),
            want_agg,
            "aggregation fingerprint for {name} differs from golden"
        );
    }
}

#[test]
fn fingerprints_stable_across_pool_sizes() {
    for (name, g) in graphs() {
        let base_mis = with_pool(1, || mis2_fingerprint(&g));
        let base_agg = with_pool(1, || aggregation_fingerprint(&g));
        for threads in [2usize, 3, 5, 8] {
            assert_eq!(
                with_pool(threads, || mis2_fingerprint(&g)),
                base_mis,
                "{name}: MIS-2 differs at {threads} threads"
            );
            assert_eq!(
                with_pool(threads, || aggregation_fingerprint(&g)),
                base_agg,
                "{name}: aggregation differs at {threads} threads"
            );
        }
    }
}

#[test]
fn backends_reproduce_golden_solver_fingerprint() {
    assert_eq!(
        solver_fingerprint(),
        GOLDEN_SOLVER,
        "CG + AMG V-cycle numerics differ from golden \
         (pool-size divergence or intentional solver change)"
    );
}

#[test]
fn solver_fingerprint_stable_across_pool_sizes() {
    let base = with_pool(1, solver_fingerprint);
    assert_eq!(base, GOLDEN_SOLVER, "pool size 1");
    for threads in [2usize, 3, 5, 8] {
        assert_eq!(
            with_pool(threads, solver_fingerprint),
            base,
            "solver numerics differ at {threads} threads"
        );
    }
}

/// Not a check — prints the fingerprints so the GOLDEN table above can be
/// regenerated after an intentional algorithm change.
#[test]
fn print_fingerprints() {
    for (name, g) in graphs() {
        println!(
            "    (\"{name}\", {:#018x}, {:#018x}),",
            mis2_fingerprint(&g),
            aggregation_fingerprint(&g)
        );
    }
    println!("const GOLDEN_SOLVER: u64 = {:#018x};", solver_fingerprint());
    for (name, g) in graphs() {
        for seed in COLOR_SEEDS {
            let (d1, d2) = colorings_fingerprint(&g, seed);
            println!("    (\"{name}\", {seed}, {d1:#018x}, {d2:#018x}),");
        }
    }
}
