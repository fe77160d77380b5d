//! Ablation microbenchmark for a Figure 2 design choice: packed vs
//! unpacked tuples at different degree regimes.

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

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
