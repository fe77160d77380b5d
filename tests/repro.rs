//! Section VI of the paper, the claims that are counts rather than times.
//!
//! Each test makes the library calls its `repro` artifact
//! (`mis2_bench::experiments`) makes at `Scale::Tiny` and asserts what the
//! paper's table says. Iteration counts and set sizes are exact and do not
//! depend on the host or the pool size, so nothing here waits on a clock.
//! The measured values at the time of writing are in the comments. Where a
//! stand-in departs from the paper, the artifact's table note says so and the
//! assertion holds the band measured here.

use mis2::prelude::*;
use mis2_bench::experiments::table6_systems;
use mis2_bench::timing::geometric_mean;
use mis2_graph::{gen, suite};

/// `rounds ≤ ROUNDS_PER_LOG2_SQ · log₂²|V|` for Algorithm 1 over the suite at
/// [`ROUND_SEEDS`] seeds, the dependence-length bound of random-order greedy
/// MIS (Blelloch, Fineman & Shun) carried to `G²`. Fitted once as the largest
/// ratio measured on the stand-ins (0.0595: af_shell7, seed 7, 10 rounds),
/// rounded up in the second digit.
const ROUNDS_PER_LOG2_SQ: f64 = 0.06;
const ROUND_SEEDS: u64 = 10;

fn iterations(g: &CsrGraph, priorities: PriorityScheme, seed: u64) -> usize {
    let cfg = Mis2Config {
        priorities,
        seed,
        ..Mis2Config::default()
    };
    mis2_with_config(g, &cfg).iterations
}

#[test]
fn table1_xor_star_needs_no_more_iterations_than_fixed() {
    // Fixed 8–16, Xor 5–14, Xor* 7–10 (e.g. Fault_639 16 / 8 / 8).
    let graphs = suite::build_all(Scale::Tiny);
    assert_eq!(graphs.len(), 17, "Table I has one row per suite matrix");
    for (name, g) in &graphs {
        let fixed = iterations(g, PriorityScheme::Fixed, 0);
        let xor = iterations(g, PriorityScheme::XorHash, 0);
        let star = iterations(g, PriorityScheme::XorStar, 0);
        assert!(
            fixed > 0 && xor > 0 && star > 0,
            "{name}: {fixed} {xor} {star}"
        );
        assert!(
            star <= fixed,
            "{name}: Xor* {star} iterations vs Fixed {fixed}"
        );
    }
}

#[test]
fn fig2_worklists_and_packing_change_the_time_not_the_set() {
    // Figure 2 times each ladder step; past the priority change every step
    // must return the same set in the same rounds, so the speedups it reports
    // are for the same work. (Step 0 uses Fixed priorities, a different set.)
    for (name, g) in suite::build_all(Scale::Tiny) {
        let steps: Vec<(&str, Mis2Result)> = Mis2Config::ladder()
            .into_iter()
            .skip(1)
            .map(|(label, cfg)| (label, mis2_with_config(&g, &cfg)))
            .collect();
        let (first, want) = &steps[0];
        for (label, got) in &steps[1..] {
            assert!(
                got.in_set == want.in_set && got.iterations == want.iterations,
                "{name}: {label} differs from {first}"
            );
        }
    }
}

#[test]
fn table3_fraction_tracks_degree_and_iterations_barely_grow() {
    // The artifact's grids at Tiny (half the paper's sides), each family over
    // an 8x size step. Elasticity 1.02–0.80 % in 8/9/9/9 iterations, Laplace
    // 9.37–9.17 % in 8/8/8/9; the paper reads ~0.7 % and ~9 %.
    let elasticity = [(15, 15, 15), (30, 15, 15), (30, 30, 15), (30, 30, 30)]
        .map(|(x, y, z)| gen::elasticity3d(x, y, z, 3));
    let laplace = [(25, 25, 25), (50, 25, 25), (50, 50, 25), (50, 50, 50)]
        .map(|(x, y, z)| gen::laplace3d(x, y, z));
    for (family, graphs, band) in [
        ("Elasticity", elasticity, 0.5..1.5),
        ("Laplace", laplace, 8.5..10.0),
    ] {
        let mut iters = Vec::new();
        for g in &graphs {
            let r = mis2(g);
            let pct = 100.0 * r.size() as f64 / g.num_vertices() as f64;
            assert!(
                band.contains(&pct),
                "{family} |V| = {}: MIS-2 is {pct:.2} % of it, outside {band:?}",
                g.num_vertices()
            );
            iters.push(r.iterations);
        }
        let (lo, hi) = (iters.iter().min().unwrap(), iters.iter().max().unwrap());
        assert!(
            hi - lo <= 1,
            "{family}: iterations {iters:?} over an 8x size step"
        );
    }
}

#[test]
fn table4_algorithm1_size_is_within_the_bell_band() {
    // Max spread of Algorithm 1, CUSP (Bell, seed 1) and ViennaCL (Bell,
    // seed 2): 0.78–10.68 %, the widest on Elasticity3D_60 whose sets hold
    // ~100 vertices. Where every set holds 1000 or more the spread is at most
    // 1.67 %, inside the paper's 1–2 %.
    for (name, g) in suite::build_all(Scale::Tiny) {
        let sizes = [
            mis2(&g).size(),
            bell_mis2(&g, 1).size(),
            bell_mis2(&g, 2).size(),
        ];
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        let spread = 100.0 * (max - min) as f64 / max as f64;
        let band = if min >= 1000 { 2.0 } else { 12.0 };
        assert!(
            spread < band,
            "{name}: sizes {sizes:?} spread {spread:.2} % >= {band} %"
        );
    }
}

#[test]
fn table5_mis2_agg_needs_fewer_cg_iterations_than_mis2_basic() {
    // `experiments::table5` at Tiny: SA-AMG PCG on 25³ Laplace3D, tol 1e-12.
    // Serial Agg 18, Serial D2C 15, NB D2C 14, MIS2 Basic 21, MIS2 Agg 17;
    // the paper reads MIS2 Basic 49, MIS2 Agg 22.
    let a = mis2::sparse::gen::laplace3d_matrix(25, 25, 25);
    let b = vec![1.0; a.nrows()];
    let opts = SolveOpts {
        tol: 1e-12,
        max_iters: 1000,
    };
    let iters = AggScheme::all().map(|scheme| {
        let cfg = AmgConfig {
            scheme,
            min_coarse_size: 200,
            ..Default::default()
        };
        let (_, res) = pcg(&a, &b, &AmgHierarchy::build(&a, &cfg), &opts);
        assert!(res.converged, "{} did not converge", scheme.label());
        (scheme, res.iterations)
    });
    let of = |want| iters.iter().find(|&&(s, _)| s == want).unwrap().1;
    let (basic, agg) = (of(AggScheme::Mis2Basic), of(AggScheme::Mis2Agg));
    assert!(
        agg < basic,
        "MIS2 Agg {agg} vs MIS2 Basic {basic} CG iterations"
    );
}

#[test]
fn table6_cluster_sgs_needs_fewer_gmres_iterations_than_point_sgs() {
    // `experiments::table6` at Tiny: GMRES(50), tol 1e-8. Point / cluster:
    // bodyy5 26/23, Elasticity3D_60 17/19, Geo_1438 22/21, Laplace3D_100
    // 47/42, Serena 22/21; geometric mean of cluster/point 0.958, and the
    // paper reads ~5 % fewer.
    let opts = SolveOpts {
        tol: 1e-8,
        max_iters: 800,
    };
    let mut ratios = Vec::new();
    let mut cluster_loses = Vec::new();
    for (name, a) in table6_systems(Scale::Tiny) {
        let b = vec![1.0; a.nrows()];
        let (_, point) = gmres(&a, &b, &ClusterMcSgs::point(&a, 0), 50, &opts);
        let cluster = ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0);
        let (_, cluster) = gmres(&a, &b, &cluster, 50, &opts);
        assert!(point.converged && cluster.converged, "{name}");
        ratios.push(cluster.iterations as f64 / point.iterations as f64);
        if cluster.iterations > point.iterations {
            cluster_loses.push(name);
        }
    }
    assert_eq!(ratios.len(), 5, "Table VI has five systems");
    let geo = geometric_mean(&ratios);
    assert!(
        geo < 1.0,
        "cluster/point GMRES iterations, geometric mean {geo:.3}"
    );
    // Table VI's note names the one system where cluster SGS loses.
    assert_eq!(cluster_loses, ["Elasticity3D_60"], "update table6's note");
}

#[test]
fn rounds_stay_within_c_log2_squared_over_the_suite() {
    let mut worst = (0.0f64, "", 0u64, 0usize);
    for (name, g) in suite::build_all(Scale::Tiny) {
        let log2_sq = (g.num_vertices() as f64).log2().powi(2);
        for seed in 0..ROUND_SEEDS {
            let rounds = iterations(&g, PriorityScheme::XorStar, seed);
            let ratio = rounds as f64 / log2_sq;
            if ratio > worst.0 {
                worst = (ratio, name, seed, rounds);
            }
        }
    }
    let (ratio, name, seed, rounds) = worst;
    assert!(
        ratio <= ROUNDS_PER_LOG2_SQ,
        "{name} seed {seed}: {rounds} rounds = {ratio:.4} log2^2|V| > {ROUNDS_PER_LOG2_SQ}"
    );
}
