//! Full-pipeline integration tests: graph generation → MIS-2 → aggregation
//! → prolongators → Galerkin → multigrid-preconditioned CG, plus the
//! cluster-GS pipeline and Matrix Market round trips. These mirror how a
//! downstream user (MueLu-style solver stack) consumes the library.

use mis2::prelude::*;
use mis2_graph::Scale;

#[test]
fn amg_pipeline_converges_on_poisson() {
    let a = mis2::sparse::gen::laplace3d_matrix(12, 12, 12);
    let b = vec![1.0; a.nrows()];
    let amg = AmgHierarchy::build(
        &a,
        &AmgConfig {
            min_coarse_size: 100,
            ..Default::default()
        },
    );
    assert!(amg.num_levels() >= 2);
    let (x, res) = pcg(
        &a,
        &b,
        &amg,
        &SolveOpts {
            tol: 1e-12,
            max_iters: 200,
        },
    );
    assert!(res.converged, "rel {}", res.relative_residual);
    // AMG should converge in a mesh-independent-ish iteration count.
    assert!(res.iterations < 60, "{} iterations", res.iterations);
    let r = mis2::sparse::kernels::residual(&a, &x, &b);
    assert!(mis2::sparse::kernels::norm2(&r) / mis2::sparse::kernels::norm2(&b) < 1e-10);
}

#[test]
fn amg_iteration_ranking_matches_table_v() {
    // The paper's Table V quality ordering on Laplace3D: MIS2 Agg converges
    // in the fewest iterations, MIS2 Basic in the most (49 vs 22 there).
    let a = mis2::sparse::gen::laplace3d_matrix(16, 16, 16);
    let b = vec![1.0; a.nrows()];
    let opts = SolveOpts {
        tol: 1e-12,
        max_iters: 400,
    };
    let iters = |scheme: AggScheme| {
        let amg = AmgHierarchy::build(
            &a,
            &AmgConfig {
                scheme,
                min_coarse_size: 100,
                ..Default::default()
            },
        );
        let (_, res) = pcg(&a, &b, &amg, &opts);
        assert!(res.converged, "{} did not converge", scheme.label());
        res.iterations
    };
    let basic = iters(AggScheme::Mis2Basic);
    let agg = iters(AggScheme::Mis2Agg);
    assert!(
        agg <= basic,
        "MIS2 Agg ({agg}) should need no more iterations than MIS2 Basic ({basic})"
    );
}

#[test]
fn cluster_gs_pipeline_on_suite_standin() {
    let g = mis2_graph::suite::build("parabolic_fem", Scale::Tiny);
    let a = mis2::sparse::gen::spd_from_graph(&g, 4);
    let b = vec![1.0; a.nrows()];
    let pre = ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0);
    let (_, res) = gmres(
        &a,
        &b,
        &pre,
        50,
        &SolveOpts {
            tol: 1e-8,
            max_iters: 800,
        },
    );
    assert!(res.converged, "rel {}", res.relative_residual);
    assert!(
        pre.num_clusters < g.num_vertices() / 2,
        "coarsening too weak"
    );
}

#[test]
fn point_vs_cluster_iteration_comparison() {
    // Table VI shape: cluster needs no more iterations than point (it is
    // locally exact). Allow a small slack since coloring affects both.
    let a = mis2::sparse::gen::laplace3d_matrix(10, 10, 10);
    let b = vec![1.0; a.nrows()];
    let opts = SolveOpts {
        tol: 1e-8,
        max_iters: 800,
    };
    let point = ClusterMcSgs::point(&a, 0);
    let cluster = ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0);
    let (_, rp) = gmres(&a, &b, &point, 50, &opts);
    let (_, rc) = gmres(&a, &b, &cluster, 50, &opts);
    assert!(rp.converged && rc.converged);
    assert!(
        (rc.iterations as f64) <= (rp.iterations as f64) * 1.15,
        "cluster {} vs point {}",
        rc.iterations,
        rp.iterations
    );
}

#[test]
fn matrix_market_roundtrip_through_pipeline() {
    // Write a suite graph, read it back, and verify the MIS-2 pipeline
    // produces the identical result (the real-data path users take).
    let g = mis2_graph::suite::build("tmt_sym", Scale::Tiny);
    let dir = std::env::temp_dir().join("mis2_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tmt_sym_tiny.mtx");
    mis2_graph::io::write_graph_file(&g, &path).unwrap();
    let g2 = mis2_graph::io::read_graph_file(&path).unwrap();
    assert_eq!(g, g2);
    let r1 = mis2::mis2(&g);
    let r2 = mis2::mis2(&g2);
    assert_eq!(r1.in_set, r2.in_set);
    std::fs::remove_file(&path).ok();
}

#[test]
fn recursive_coarsening_preserves_validity_at_every_level() {
    let g = mis2_graph::gen::laplace3d(10, 10, 10);
    let levels = mis2_coarsen::coarsen_recursive(&g, 20, 8);
    assert!(levels.len() >= 3);
    for lvl in &levels {
        if let Some(agg) = &lvl.agg {
            agg.validate(&lvl.graph).unwrap();
        }
        lvl.graph.validate_symmetric().unwrap();
    }
}

#[test]
fn aggregation_feeds_valid_prolongator_chain() {
    let g = mis2_graph::gen::laplace2d(18, 18);
    let a = mis2::sparse::gen::from_graph_with_diag(&g, 4.0);
    let agg = mis2_coarsen::mis2_aggregation(&g);
    let pt = mis2_coarsen::tentative_prolongator(&agg, true);
    let p = mis2_coarsen::smoothed_prolongator(&a, &pt, None);
    let ac = mis2_sparse::galerkin_product(&a, &p);
    assert_eq!(ac.nrows(), agg.num_aggregates);
    assert!(ac.is_symmetric(1e-10), "Galerkin operator lost symmetry");
    // The coarse operator of an SPD matrix through a full-rank P is SPD:
    // CG on it must converge.
    let bc = vec![1.0; ac.nrows()];
    let (_, res) = pcg(&ac, &bc, &mis2::solver::Identity, &SolveOpts::default());
    assert!(res.converged);
}

#[test]
fn gs_iteration_hierarchy_seq_cluster_point() {
    // Section III-C's narrative end-to-end: sequential GS <= cluster GS <=
    // point GS in GMRES iterations (with slack for coloring accidents).
    // Sequential SGS is cluster SGS over one aggregate holding every row.
    let a = mis2::sparse::gen::laplace3d_matrix(9, 9, 9);
    let b = vec![1.0; a.nrows()];
    let opts = SolveOpts {
        tol: 1e-8,
        max_iters: 500,
    };
    let it = |p: &dyn Preconditioner| {
        let (_, r) = gmres(&a, &b, p, 50, &opts);
        assert!(r.converged);
        r.iterations
    };
    let everything = Aggregation {
        labels: vec![0; a.nrows()],
        num_aggregates: 1,
        roots: vec![0],
    };
    let seq = it(&ClusterMcSgs::from_parts(
        &a,
        &everything,
        &Coloring::from_colors(vec![0], 1),
    ));
    let cluster = it(&ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0));
    let point = it(&ClusterMcSgs::point(&a, 0));
    assert!(seq <= cluster + 2, "seq {seq} > cluster {cluster}");
    assert!(cluster <= point + 2, "cluster {cluster} > point {point}");
}

#[test]
fn mis2_aggregates_have_root_radius_at_most_2() {
    // Algorithms 2 and 3 build every aggregate from a MIS-2 root and
    // vertices within two hops of it, at any pool size.
    for (name, g) in mis2::graph::suite::build_all(Scale::Tiny) {
        for scheme in [AggScheme::Mis2Basic, AggScheme::Mis2Agg] {
            for pool in [1, 3] {
                let agg = mis2::prim::pool::with_pool(pool, || scheme.aggregate(&g, 0));
                let radius = aggregate_stats(&g, &agg).max_root_radius;
                assert!(
                    radius <= Some(2),
                    "{name} {scheme:?} pool {pool}: root radius {radius:?}"
                );
            }
        }
    }
}

#[test]
fn cli_binaries_exist_in_manifest() {
    // Keep the documented binary names stable.
    let manifest = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/Cargo.toml"),
    )
    .unwrap();
    assert!(manifest.contains("name = \"repro\""));
    assert!(manifest.contains("name = \"mis2cli\""));
}
