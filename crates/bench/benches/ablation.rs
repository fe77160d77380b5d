//! Ablation microbenchmarks for the design choices DESIGN.md calls out:
//! packed vs unpacked tuples at different degree regimes, AMG smoother
//! choice, and strength-filtered vs raw aggregation.

use mis2_bench::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mis2_core::{mis2_with_config, Mis2Config};
use mis2_graph::gen;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // Packed vs unpacked across degree regimes (low-degree 2D vs
    // high-degree elasticity): the packing win grows with traffic.
    let graphs = vec![
        ("low_degree", gen::laplace2d(120, 120)),
        ("high_degree", gen::elasticity3d(8, 8, 8, 3)),
    ];
    for (name, g) in &graphs {
        for (label, packed) in [("unpacked", false), ("packed", true)] {
            let cfg = Mis2Config {
                packed,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(label, name), g, |b, g| {
                b.iter(|| mis2_with_config(g, &cfg))
            });
        }
    }

    // AMG smoother choice.
    use mis2_solver::{pcg, AmgConfig, AmgHierarchy, SmootherKind, SolveOpts};
    let a = mis2_sparse::gen::laplace3d_matrix(14, 14, 14);
    let b_rhs = vec![1.0; a.nrows()];
    for (label, smoother) in [
        ("jacobi", SmootherKind::Jacobi),
        ("chebyshev", SmootherKind::Chebyshev),
    ] {
        group.bench_function(BenchmarkId::new("amg_smoother", label), |bch| {
            bch.iter(|| {
                let amg = AmgHierarchy::build(
                    &a,
                    &AmgConfig {
                        min_coarse_size: 100,
                        smoother,
                        ..Default::default()
                    },
                );
                pcg(
                    &a,
                    &b_rhs,
                    &amg,
                    &SolveOpts {
                        tol: 1e-10,
                        max_iters: 200,
                    },
                )
            })
        });
    }

    // Strength filtering cost on an anisotropic operator.
    let aniso = mis2_coarsen::anisotropic2d_matrix(60, 60, 0.01);
    group.bench_function("strength_filter_60x60", |b| {
        b.iter(|| mis2_coarsen::strength_graph(&aniso, 0.1))
    });

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
