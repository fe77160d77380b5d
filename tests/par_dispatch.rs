//! Block-granular `par` callers must dispatch by *blocks*, not elements.
//!
//! `par::count`, `par::chunked_reduce`, `reduce::det_dot` and its fused
//! `det_axpy_dot`, the scans, `par_filter`'s compaction and SpGEMM cut
//! their input into fixed blocks (`DET_BLOCK` elements, 256 rows) and
//! hand the pool one task per block. The rule that opens a
//! region for them counts blocks — two are enough — and never compares a
//! block count with `par`'s element cutoff, which kept every one of them
//! on a single thread below 2048 blocks.
//!
//! The only deterministic witness that a region opened is
//! `pool::spawned_workers()` going from 0 to at least 1, and the pool
//! lives as long as its process. So this file is a test binary of its own
//! (no other suite warms the pool), and `each_op_opens_a_region_at_pool_2`
//! goes one step further: it runs this binary again once per op, so that
//! op is the first thing its process asks of the pool. (Of the five block
//! ops only the scan opened a region under the element cutoff, through its
//! seeding pass over `for_chunks_mut`; its block-sum pass did not.)
//!
//! The same child runs three whole algorithms: Algorithm 1 on a mesh of
//! several 4096-entry dispatch blocks, Algorithm 3's aggregation, and the
//! AMG-preconditioned CG solve of `tests/cross_backend.rs`. Serial
//! execution is `with_pool(1)` in the one build, and this is its promise
//! as a runtime property: a cold process that runs a whole algorithm at
//! pool 1 has spawned zero workers, and pool 2 then spawns at least one
//! and reproduces every bit.

use mis2::coarsen::mis2_aggregation;
use mis2::solver::{pcg, AmgConfig, AmgHierarchy, SolveOpts};
use mis2_prim::hash::splitmix64;
use mis2_prim::par::{self, DET_BLOCK};
use mis2_prim::pool::{spawned_workers, with_pool};
use mis2_prim::{par_filter, reduce, scan};
use mis2_sparse::{gen, spgemm};
use std::process::Command;

const OPS: [&str; 10] = [
    "count",
    "chunked_reduce",
    "det_dot",
    "det_axpy_dot",
    "exclusive_scan",
    "par_filter",
    "spgemm",
    "mis2",
    "mis2_aggregation",
    "amg_cg",
];

/// Names the op a child process of `each_op_opens_a_region_at_pool_2` runs.
const CHILD_OP: &str = "MIS2_PAR_DISPATCH_CHILD_OP";

fn fingerprint(data: impl IntoIterator<Item = u64>) -> u64 {
    data.into_iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, x| splitmix64(h ^ x))
}

/// Run `op` on a four-block input (SpGEMM: four 256-row blocks; the
/// algorithms: a 24³ mesh, 13 824 vertices, or Laplace3D(16)) at the
/// ambient pool size and fingerprint every bit of its result.
fn run_op(op: &str) -> u64 {
    let n = 4 * DET_BLOCK;
    let ints: Vec<u64> = (0..n as u64).map(splitmix64).collect();
    let reals: Vec<f64> = ints
        .iter()
        .map(|&x| (x >> 11) as f64 / 1e15 - 4.0)
        .collect();
    match op {
        "count" => par::count(&ints, |&x| x % 3 == 0) as u64,
        "chunked_reduce" => par::chunked_reduce(
            &reals,
            DET_BLOCK,
            |c| c.iter().sum::<f64>(),
            0.0,
            |a, b| a + b,
        )
        .to_bits(),
        "det_dot" => reduce::det_dot(&reals, &reals[..]).to_bits(),
        "det_axpy_dot" => {
            let mut y: Vec<f64> = reals.iter().rev().copied().collect();
            let dot = reduce::det_axpy_dot(-0.75, &reals, &mut y, &reals);
            fingerprint(y.iter().map(|v| v.to_bits()).chain([dot.to_bits()]))
        }
        "exclusive_scan" => {
            let small: Vec<u64> = ints.iter().map(|x| x & 0xFF).collect();
            let (out, total) = scan::exclusive_scan(&small);
            fingerprint(out.into_iter().chain([total]))
        }
        "par_filter" => fingerprint(par_filter(&ints, |&x| x % 3 == 0)),
        "spgemm" => {
            let a = gen::laplace2d_matrix(32, 32);
            assert_eq!(a.nrows(), 1024);
            let c = spgemm(&a, &a);
            fingerprint(
                (c.row_ptr().iter().map(|&p| p as u64))
                    .chain(c.col_idx().iter().map(|&j| u64::from(j)))
                    .chain(c.values().iter().map(|v| v.to_bits())),
            )
        }
        "mis2" => {
            let r = mis2::mis2(&mis2_graph::gen::laplace3d(24, 24, 24));
            fingerprint(
                r.in_set
                    .iter()
                    .map(|&v| u64::from(v))
                    .chain([r.iterations as u64]),
            )
        }
        "mis2_aggregation" => {
            let a = mis2_aggregation(&mis2_graph::gen::laplace3d(24, 24, 24));
            fingerprint(
                a.labels
                    .iter()
                    .map(|&l| u64::from(l))
                    .chain([a.num_aggregates as u64]),
            )
        }
        "amg_cg" => {
            let a = gen::laplace3d_matrix(16, 16, 16);
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 1.0 + (i % 7) as f64 * 0.125)
                .collect();
            let cfg = AmgConfig {
                min_coarse_size: 64,
                ..Default::default()
            };
            let amg = AmgHierarchy::build(&a, &cfg);
            let opts = SolveOpts {
                tol: 1e-10,
                max_iters: 300,
            };
            let (x, res) = pcg(&a, &b, &amg, &opts);
            assert!(res.converged, "AMG-CG must converge on Laplace3D(16)");
            fingerprint(
                (x.iter().chain(&res.history).map(|v| v.to_bits())).chain([res.iterations as u64]),
            )
        }
        other => panic!("unknown op {other}"),
    }
}

#[test]
fn each_op_opens_a_region_at_pool_2() {
    let exe = std::env::current_exe().expect("path of this test binary");
    for op in OPS {
        let out = Command::new(&exe)
            .args(["--exact", "child_runs_one_op_on_a_cold_pool", "--nocapture"])
            .env(CHILD_OP, op)
            .output()
            .expect("run this test binary again");
        assert!(
            out.status.success(),
            "{op}:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// The body of one child process; does nothing when the suite runs it.
#[test]
fn child_runs_one_op_on_a_cold_pool() {
    let Ok(op) = std::env::var(CHILD_OP) else {
        return;
    };
    assert_eq!(spawned_workers(), 0, "the pool must start cold");
    let want = with_pool(1, || run_op(&op));
    assert_eq!(spawned_workers(), 0, "{op}: a pool of one never dispatches");
    let got = with_pool(2, || run_op(&op));
    assert_eq!(got, want, "{op}: pool 2 differs from pool 1");
    assert!(spawned_workers() >= 1, "{op}: pool 2 must open a region");
}

#[test]
fn results_are_bitwise_equal_at_every_pool_size() {
    for op in OPS {
        let want = with_pool(1, || run_op(op));
        for pool in [1usize, 2, 3, 5, 8] {
            assert_eq!(with_pool(pool, || run_op(op)), want, "{op} at pool {pool}");
        }
    }
}
