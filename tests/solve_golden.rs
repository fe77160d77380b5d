//! The served `SOLVE` bytes, as literals.
//!
//! `tests/svc_e2e.rs` and the benchmark's oracle compare a server against
//! `ops::execute` — the same code on both sides — so they hold "every path
//! serves the same bytes", not "the bytes never moved". This file holds the
//! second: the `OK SOLVE …` line of every suite workload × {`cg`, `gmres`}
//! at `Scale::Tiny`, and the iterate / history / residual bits of restarted
//! GMRES runs that leave the loop each way it can be left. The literals
//! were generated on the commit *before* `SOLVE` stopped assembling its
//! matrix and GMRES started carrying its residual; both changes must keep
//! every bit. The AMG and Gauss-Seidel solves further down were pinned the
//! same way, on the commit before the vector kernels became slice loops,
//! Gram-Schmidt one fused pass and the cluster sweep a stream of its own
//! storage.
//!
//! Regenerate (only after an intentional change of the numerics) with
//! `cargo test -q --test solve_golden -- --ignored --nocapture print_goldens`.

use mis2::coarsen::AggScheme;
use mis2::graph::{suite, Scale};
use mis2::prim::pool::with_pool;
use mis2::solver::{
    gmres, pcg, AmgConfig, AmgHierarchy, ClusterMcSgs, Jacobi, SolveOpts, SolveResult,
};
use mis2::svc::ops::{self, fingerprint_f64, OpKey};
use mis2::svc::proto::Method;

const METHODS: [Method; 2] = [Method::Cg, Method::Gmres];

/// `OK SOLVE <w> <method> …` exactly as a server at `--scale tiny` sends it.
fn served_line(name: &str, g: &mis2::graph::CsrGraph, method: Method) -> String {
    let op = OpKey::Solve { method };
    format!("OK {}", ops::body(name, &op, &ops::compute(g, &op)))
}

const SOLVE_LINES: [&str; 38] = [
    "OK SOLVE af_shell7 cg n=8000 iters=12 converged=true fp=0x73bc52b3a4f36b23",
    "OK SOLVE af_shell7 gmres n=8000 iters=12 converged=true fp=0x307b08677bb04b5d",
    "OK SOLVE apache2 cg n=11025 iters=25 converged=true fp=0xe74200cea3b82901",
    "OK SOLVE apache2 gmres n=11025 iters=25 converged=true fp=0xcfa2336f78844813",
    "OK SOLVE audikw_1 cg n=15000 iters=10 converged=true fp=0x2a546c1e2bae964f",
    "OK SOLVE audikw_1 gmres n=15000 iters=10 converged=true fp=0x63b98a1c1ce49613",
    "OK SOLVE ecology2 cg n=15625 iters=22 converged=true fp=0xecd4f3e9853cc5d7",
    "OK SOLVE ecology2 gmres n=15625 iters=22 converged=true fp=0x5687ade73c6809c6",
    "OK SOLVE Elasticity3D_60 cg n=10125 iters=24 converged=true fp=0x2010f46a08f2de05",
    "OK SOLVE Elasticity3D_60 gmres n=10125 iters=24 converged=true fp=0x5d3c6a7b6c5f74bc",
    "OK SOLVE Emilia_923 cg n=14976 iters=11 converged=true fp=0xe15452f6092b6351",
    "OK SOLVE Emilia_923 gmres n=14976 iters=11 converged=true fp=0xd135189676e5fa25",
    "OK SOLVE Fault_639 cg n=10164 iters=8 converged=true fp=0xf8826cc2aaf2600d",
    "OK SOLVE Fault_639 gmres n=10164 iters=8 converged=true fp=0x363168a769fd7b4a",
    "OK SOLVE Geo_1438 cg n=22736 iters=11 converged=true fp=0x7ddd7b15647840d5",
    "OK SOLVE Geo_1438 gmres n=22736 iters=11 converged=true fp=0x8904cef5b4f60285",
    "OK SOLVE Hook_1498 cg n=23548 iters=10 converged=true fp=0xdfff2037cb379c58",
    "OK SOLVE Hook_1498 gmres n=23548 iters=10 converged=true fp=0xb0b6a9b285cb63e4",
    "OK SOLVE Laplace3D_100 cg n=15625 iters=30 converged=true fp=0xc7f8196ad8467fa9",
    "OK SOLVE Laplace3D_100 gmres n=15625 iters=30 converged=true fp=0xddf901458210ef92",
    "OK SOLVE ldoor cg n=15000 iters=12 converged=true fp=0xcef345af8a5bb710",
    "OK SOLVE ldoor gmres n=15000 iters=12 converged=true fp=0xaf8639c7ecaea461",
    "OK SOLVE parabolic_fem cg n=8100 iters=14 converged=true fp=0xf8b517e4c4ac5d98",
    "OK SOLVE parabolic_fem gmres n=8100 iters=14 converged=true fp=0xa664dea156fa3d67",
    "OK SOLVE PFlow_742 cg n=11638 iters=11 converged=true fp=0x9077103650ba06d2",
    "OK SOLVE PFlow_742 gmres n=11638 iters=11 converged=true fp=0x713fac16488f9aaa",
    "OK SOLVE Serena cg n=21952 iters=7 converged=true fp=0xd5531cf2fd741655",
    "OK SOLVE Serena gmres n=21952 iters=7 converged=true fp=0xdbfe3be2b06b6d6b",
    "OK SOLVE StocF-1465 cg n=23520 iters=7 converged=true fp=0x3821805601f6419f",
    "OK SOLVE StocF-1465 gmres n=23520 iters=7 converged=true fp=0x5af8caeff8a6ddfb",
    "OK SOLVE thermal2 cg n=19044 iters=11 converged=true fp=0x090c958ce1957eab",
    "OK SOLVE thermal2 gmres n=19044 iters=11 converged=true fp=0x41084964e5b83b31",
    "OK SOLVE tmt_sym cg n=11236 iters=19 converged=true fp=0x6e1c52fdbc560de3",
    "OK SOLVE tmt_sym gmres n=11236 iters=19 converged=true fp=0x93146ca71b45c892",
    "OK SOLVE rmat_20 cg n=16384 iters=5 converged=true fp=0xa41c60e59bf3a1aa",
    "OK SOLVE rmat_20 gmres n=16384 iters=5 converged=true fp=0x5304032b8317c7dd",
    "OK SOLVE rmat_18_skew cg n=4096 iters=5 converged=true fp=0x46f4e0be2671a361",
    "OK SOLVE rmat_18_skew gmres n=4096 iters=5 converged=true fp=0xe90840c638658a3a",
];

#[test]
fn served_solve_lines_match_their_literals() {
    let workloads = suite::all_workloads();
    assert_eq!(workloads.len() * METHODS.len(), SOLVE_LINES.len());
    let mut want = SOLVE_LINES.iter();
    for w in &workloads {
        let g = suite::build(w.name, Scale::Tiny);
        for method in METHODS {
            let want = *want.next().unwrap();
            for pool in [1, 3] {
                let got = with_pool(pool, || served_line(w.name, &g, method));
                assert_eq!(got, want, "pool {pool}");
            }
        }
    }
}

/// Everything a solve returns, the floats as exact bits.
fn solve_line(name: &str, x: &[f64], res: &SolveResult) -> String {
    format!(
        "{name} iters={} converged={} history={} x_fp={:#018x} history_fp={:#018x} rel_bits={:#018x}",
        res.iterations,
        res.converged,
        res.history.len(),
        fingerprint_f64(x),
        fingerprint_f64(&res.history),
        res.relative_residual.to_bits()
    )
}

/// One restarted-GMRES run on `laplace2d_matrix(12, 12)` with Jacobi,
/// restart 5.
fn gmres_line(name: &str, opts: &SolveOpts) -> String {
    let a = mis2::sparse::gen::laplace2d_matrix(12, 12);
    let b = ops::solve_rhs(144);
    let (x, res) = gmres(&a, &b, &Jacobi::new(&a), 5, opts);
    solve_line(name, &x, &res)
}

/// The three ways out of the restart loop: converged after several cycles,
/// `max_iters` reached inside a cycle, and `max_iters` reached exactly at a
/// cycle's end (the loop condition, not the inner `break`, ends it).
fn gmres_cases() -> [(&'static str, SolveOpts); 3] {
    let opts = |max_iters| SolveOpts {
        tol: 1e-8,
        max_iters,
    };
    [
        ("multi_cycle", opts(2000)),
        ("max_iters_mid_cycle", opts(7)),
        ("max_iters_at_cycle_end", opts(10)),
    ]
}

const GMRES_LINES: [&str; 3] = [
    "multi_cycle iters=137 converged=true history=165 x_fp=0xe31782e2dc868efe history_fp=0x45ee6038866da1ec rel_bits=0x3e43f7ceb34a7868",
    "max_iters_mid_cycle iters=7 converged=false history=9 x_fp=0x4a58c6c8f076473b history_fp=0x58e5972e916e2fb0 rel_bits=0x3fd5d78433fd68f3",
    "max_iters_at_cycle_end iters=10 converged=false history=12 x_fp=0xf77651d0a5d12879 history_fp=0xc3b9f0c04625e2aa rel_bits=0x3fcb927f6bc170cb",
];

#[test]
fn restarted_gmres_matches_its_literals() {
    for ((name, opts), want) in gmres_cases().iter().zip(GMRES_LINES) {
        for pool in [1, 3] {
            assert_eq!(
                with_pool(pool, || gmres_line(name, opts)),
                want,
                "pool {pool}"
            );
        }
    }
}

/// `laplace3d_matrix` grids either side of `reduce::SEQ_CUTOFF` (16 384
/// elements) and of `par`'s element cutoff: 810 rows take the sequential
/// dot product and the vector kernels on the caller, 27 900 rows the
/// blocked reduction and the parallel element loops.
const PRECOND_GRIDS: [(usize, usize, usize); 2] = [(9, 9, 10), (30, 30, 31)];

/// The preconditioned solves of the paper's Tables V and VI on one grid:
/// SA-AMG under PCG, cluster multicolour SGS under GMRES(50) and under
/// GMRES(7) (several restart cycles), point multicolour SGS under GMRES(50).
fn precond_lines((nx, ny, nz): (usize, usize, usize)) -> Vec<String> {
    let a = mis2::sparse::gen::laplace3d_matrix(nx, ny, nz);
    let n = a.nrows();
    let b = ops::solve_rhs(n);
    let opts = |tol| SolveOpts {
        tol,
        max_iters: 500,
    };
    let amg = AmgHierarchy::build(&a, &AmgConfig::default());
    let cluster = ClusterMcSgs::new(&a, AggScheme::Mis2Agg, 0);
    let point = ClusterMcSgs::point(&a, 0);
    let (x_amg, amg_res) = pcg(&a, &b, &amg, &opts(1e-10));
    let (x_c50, c50) = gmres(&a, &b, &cluster, 50, &opts(1e-8));
    let (x_c7, c7) = gmres(&a, &b, &cluster, 7, &opts(1e-8));
    let (x_p50, p50) = gmres(&a, &b, &point, 50, &opts(1e-8));
    vec![
        solve_line(&format!("amg_pcg n={n}"), &x_amg, &amg_res),
        solve_line(&format!("cluster_gmres50 n={n}"), &x_c50, &c50),
        solve_line(&format!("cluster_gmres7 n={n}"), &x_c7, &c7),
        solve_line(&format!("point_gmres50 n={n}"), &x_p50, &p50),
    ]
}

const PRECOND_LINES: [&str; 8] = [
    "amg_pcg n=810 iters=10 converged=true history=11 x_fp=0xa24dcc64ab00921f history_fp=0x56e412e31faeb764 rel_bits=0x3dd11511a9e39de4",
    "cluster_gmres50 n=810 iters=18 converged=true history=19 x_fp=0x40b56e61e755b32d history_fp=0x17d3b67409a7d3f4 rel_bits=0x3e405784e69100df",
    "cluster_gmres7 n=810 iters=22 converged=true history=26 x_fp=0x9d00e4ca56e6a4eb history_fp=0x62433256af054efd rel_bits=0x3e407f584212cf95",
    "point_gmres50 n=810 iters=20 converged=true history=21 x_fp=0x299c1131719432b3 history_fp=0xe609ccdf86e4d1a9 rel_bits=0x3e3242d45edc74a0",
    "amg_pcg n=27900 iters=15 converged=true history=16 x_fp=0x0821f8c0d9695484 history_fp=0xe4a7d2d3a2f52fda rel_bits=0x3dba8600a6addc19",
    "cluster_gmres50 n=27900 iters=53 converged=true history=55 x_fp=0x7b7232af26fb028d history_fp=0xaa6f9898520e262b rel_bits=0x3e412f6c0bc8dca9",
    "cluster_gmres7 n=27900 iters=110 converged=true history=126 x_fp=0x8c1ab647cd38e692 history_fp=0x12acbaa4efc94ca1 rel_bits=0x3e41c90724a81488",
    "point_gmres50 n=27900 iters=58 converged=true history=60 x_fp=0x06162067ee3d1162 history_fp=0x0a9c439b518663a3 rel_bits=0x3e41c0239d8947e9",
];

#[test]
fn amg_and_gauss_seidel_solves_match_their_literals() {
    for (grid, want) in PRECOND_GRIDS.into_iter().zip(PRECOND_LINES.chunks(4)) {
        for pool in [1, 3] {
            assert_eq!(with_pool(pool, || precond_lines(grid)), want, "pool {pool}");
        }
    }
}

#[test]
#[ignore = "prints the literals above; see the module doc"]
fn print_goldens() {
    for w in suite::all_workloads() {
        let g = suite::build(w.name, Scale::Tiny);
        for method in METHODS {
            println!("    {:?},", served_line(w.name, &g, method));
        }
    }
    for (name, opts) in gmres_cases() {
        println!("    {:?},", gmres_line(name, &opts));
    }
    for grid in PRECOND_GRIDS {
        for line in precond_lines(grid) {
            println!("    {line:?},");
        }
    }
}
