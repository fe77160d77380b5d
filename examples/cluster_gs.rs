//! Cluster multicolor Gauss-Seidel (Algorithm 4) vs point multicolor GS —
//! the paper's Table VI use case: both as preconditioners for GMRES.
//!
//! ```text
//! cargo run --release --example cluster_gs [grid_dim]
//! ```

use mis2::prelude::*;

fn main() {
    let d: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let a = mis2::sparse::gen::laplace3d_matrix(d, d, d);
    let b = vec![1.0; a.nrows()];
    let opts = SolveOpts {
        tol: 1e-8,
        max_iters: 800,
    };
    println!(
        "Laplace3D {d}^3 ({} unknowns), GMRES(50) tol 1e-8\n",
        a.nrows()
    );

    // Point multicolor SGS: colors the full matrix graph.
    let point = ClusterMcSgs::point(&a, 0);
    let t = std::time::Instant::now();
    let (_, rp) = gmres(&a, &b, &point, 50, &opts);
    let tp = t.elapsed().as_secs_f64();
    println!(
        "point SGS  : setup {:.4}s  colors {:>3}  iters {:>4}  solve {:.3}s",
        point.setup_seconds, point.num_colors, rp.iterations, tp
    );

    // Cluster multicolor SGS: Algorithm 3 coarsening + coloring of the much
    // smaller coarse graph; rows inside a cluster update sequentially.
    let cluster = ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0);
    let t = std::time::Instant::now();
    let (_, rc) = gmres(&a, &b, &cluster, 50, &opts);
    let tc = t.elapsed().as_secs_f64();
    println!(
        "cluster SGS: setup {:.4}s  colors {:>3}  iters {:>4}  solve {:.3}s  ({} clusters)",
        cluster.setup_seconds, cluster.num_colors, rc.iterations, tc, cluster.num_clusters
    );

    assert!(rp.converged && rc.converged);
    println!(
        "\ncluster/point: setup {:.2}x, iterations {:.2}x",
        point.setup_seconds / cluster.setup_seconds.max(1e-12),
        rp.iterations as f64 / rc.iterations as f64,
    );
    println!("paper's Table VI shape: cluster wins setup and apply, iterations ~5% lower");
}
