//! Region-dispatch overhead: spawn-per-region vs the persistent pool.
//!
//! Before the persistent pool, every parallel region paid
//! `std::thread::scope` — one OS thread creation and join per worker per
//! region. This bench reconstructs that backend locally and races it
//! against the pool-backed `par` layer on identical block decompositions,
//! across region sizes from "barely parallel" to large, plus a
//! solver-shaped workload of many consecutive small regions (the pattern
//! of Gauss-Seidel sweeps and CG vector updates where per-region overhead
//! dominates).
//!
//! A second solver-shaped case puts ~5 us of serial work between the
//! regions (a dot product, a coarse solve), back to back and gapped at
//! pools 1, 2 and 4, and prints pool-N over pool-1: the cell the pool's
//! spin budget is sized on. A gap inside the budget finds the team awake;
//! the ratio says whether a pool of N then beats a pool of one. Cells with
//! a pool larger than the host measure dispatch overhead only.

use mis2_bench::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mis2_prim::hash::splitmix64;
use mis2_prim::{par, pool};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Workers per region for both dispatch strategies.
const TEAM: usize = 4;

/// The block size the `par` layer would pick for `n` items on this team
/// (mirrors its adaptive decomposition so both strategies do identical
/// work per block).
fn block_for(n: usize) -> usize {
    n.div_ceil(TEAM * 4).max(256)
}

/// Per-block body shared by both strategies: hash-sum a block of indices
/// into its own output slot (disjoint writes, a few ns per element).
fn block_sum(lo: usize, hi: usize, slot: &AtomicU64) {
    let mut acc = 0u64;
    for i in lo..hi {
        acc = acc.wrapping_add(splitmix64(i as u64));
    }
    slot.store(acc, Ordering::Relaxed);
}

/// The pre-pool backend, reconstructed: spawn scoped threads for every
/// region, workers claiming the same fixed blocks from an atomic counter.
fn spawn_per_region(n: usize, out: &[AtomicU64]) {
    let block = block_for(n);
    let nblocks = n.div_ceil(block);
    let next = AtomicUsize::new(0);
    let drain = || loop {
        let b = next.fetch_add(1, Ordering::Relaxed);
        if b >= nblocks {
            break;
        }
        block_sum(b * block, (b * block + block).min(n), &out[b]);
    };
    std::thread::scope(|s| {
        for _ in 1..TEAM.min(nblocks) {
            s.spawn(drain);
        }
        drain();
    });
}

/// The same region through the `par` layer: blocks drained by the warm
/// parked pool.
fn pooled_region(n: usize, out: &[AtomicU64]) {
    let block = block_for(n);
    par::for_chunks(&vec![(); n][..], block, |b, chunk| {
        let lo = b * block;
        block_sum(lo, lo + chunk.len(), &out[b]);
    });
}

/// 1000 regions of `n` elements with `gap` of serial work on the leader
/// after each, at pool size `team`: median seconds of 9 runs.
fn gapped_sweep_seconds(team: usize, n: usize, gap: Duration, out: &[AtomicU64]) -> f64 {
    let mut runs: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            pool::with_pool(team, || {
                for _ in 0..1000 {
                    pooled_region(n, out);
                    let g = Instant::now();
                    while g.elapsed() < gap {
                        std::hint::spin_loop();
                    }
                }
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn bench_region_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("region_overhead");
    group.sample_size(40);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    // Single-region latency across region sizes. On small regions the
    // dispatch cost *is* the runtime, which is where the parked pool must
    // win; on large regions both converge to the memory-bound work.
    for &n in &[4_096usize, 32_768, 262_144, 1_048_576] {
        let out: Vec<AtomicU64> = (0..n.div_ceil(256)).map(|_| AtomicU64::new(0)).collect();
        group.bench_with_input(BenchmarkId::new("spawn_per_region", n), &n, |b, &n| {
            b.iter(|| spawn_per_region(n, &out))
        });
        group.bench_with_input(BenchmarkId::new("parked_pool", n), &n, |b, &n| {
            b.iter(|| pool::with_pool(TEAM, || pooled_region(n, &out)))
        });
    }

    // Solver-shaped workload: 100 consecutive small regions per iteration,
    // the shape of multicolor Gauss-Seidel sweeps and CG vector kernels.
    let n = 8_192usize;
    let out: Vec<AtomicU64> = (0..n.div_ceil(256)).map(|_| AtomicU64::new(0)).collect();
    group.bench_function("solver_sweep_100x8k/spawn_per_region", |b| {
        b.iter(|| {
            for _ in 0..100 {
                spawn_per_region(n, &out);
            }
        })
    });
    group.bench_function("solver_sweep_100x8k/parked_pool", |b| {
        b.iter(|| {
            pool::with_pool(TEAM, || {
                for _ in 0..100 {
                    pooled_region(n, &out);
                }
            })
        })
    });

    group.finish();

    // The gapped solver shape, and the same regions back to back, at pools
    // 1, 2 and 4. `pooled_region` cuts for TEAM = 4, so every pool size
    // drains the same 16 blocks.
    let host = pool::max_threads();
    for (shape, gap) in [
        ("back_to_back", Duration::ZERO),
        ("gapped_5us", Duration::from_micros(5)),
    ] {
        let p1 = gapped_sweep_seconds(1, n, gap, &out);
        println!(
            "region_overhead/solver_1000x8k/{shape}/pool-1   {:>9.3} ms",
            p1 * 1e3
        );
        for team in [2usize, 4] {
            let pn = gapped_sweep_seconds(team, n, gap, &out);
            println!(
                "region_overhead/solver_1000x8k/{shape}/pool-{team}   {:>9.3} ms   pool-{team} over pool-1 = {:.2}x{}",
                pn * 1e3,
                pn / p1,
                if team > host { "   (pool > host CPUs: overhead only)" } else { "" }
            );
        }
    }
}

criterion_group!(benches, bench_region_overhead);
criterion_main!(benches);
