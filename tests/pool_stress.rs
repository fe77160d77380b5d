//! Stress tests for the persistent worker pool behind `mis2_prim::par`.
//!
//! The pool (see `mis2_prim::pool`) keeps OS threads alive across parallel
//! regions; between regions a worker polls for the next open team slot for
//! a short spin budget and then parks on a condvar. These tests hammer
//! exactly the transitions that handshake has to get right — rapid
//! back-to-back tiny regions, regions separated by serial gaps shorter and
//! longer than the spin budget, nested re-entrancy, interleaved pool-size
//! changes, panics inside workers, and many OS threads opening regions
//! concurrently — and assert that every result stays **bitwise-identical
//! to the serial path**: plain sequential loops, which is also what a pool
//! of one runs.
//!
//! Every test body runs under [`guarded`]: a lost wake-up or a leader
//! waiting for a check-out that never comes fails the test after
//! [`GUARD`] instead of hanging the suite.

use mis2_prim::hash::splitmix64;
use mis2_prim::par;
use mis2_prim::pool::{self, contended_regions, spawned_workers, with_pool, MAX_TEAM};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Wall-clock limit of one test body. The whole file takes seconds; the
/// limit is generous so a 1-CPU CI leg under load still passes.
const GUARD: Duration = Duration::from_secs(120);

/// The pool's private spin budget (`SPIN_BUDGET` in `pool.rs`), restated
/// here only to place the serial gaps of the gapped tests around it.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Tests share the process-wide pool. All but one hold this lock shared;
/// `workers_park_after_the_spin_budget` measures the process's CPU time
/// and holds it exclusively so nobody else's work is on the meter.
static POOL_IN_USE: RwLock<()> = RwLock::new(());

/// Run `body` on a thread of its own and fail, instead of hanging, when it
/// has not finished after [`GUARD`].
fn guarded(exclusive: bool, body: impl FnOnce() + Send + 'static) {
    let _exclusive = exclusive.then(|| POOL_IN_USE.write().unwrap_or_else(PoisonError::into_inner));
    let _shared = (!exclusive).then(|| POOL_IN_USE.read().unwrap_or_else(PoisonError::into_inner));
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(body)));
    });
    match rx.recv_timeout(GUARD) {
        Ok(Ok(())) => runner.join().expect("test body already reported"),
        Ok(Err(payload)) => resume_unwind(payload),
        Err(_) => {
            panic!("no result after {GUARD:?}: a lost wake-up or a deadlock in the pool handshake")
        }
    }
}

/// Serial work on the calling thread for about `gap` (a leader between
/// two regions; a sleep would idle the CPU the worker spins next to).
fn serial_gap(gap: Duration) {
    let t = Instant::now();
    while t.elapsed() < gap {
        std::hint::spin_loop();
    }
}

/// Order-sensitive fingerprint of a u64 sequence.
fn fingerprint(data: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in data {
        h = splitmix64(h ^ x);
    }
    h
}

/// The reference result computed with plain sequential loops — what every
/// pool size must reproduce exactly.
fn serial_map(n: usize, salt: u64) -> Vec<u64> {
    (0..n).map(|i| splitmix64(i as u64 ^ salt)).collect()
}

#[test]
fn rapid_back_to_back_tiny_regions() {
    guarded(false, || {
        // Thousands of regions barely above the parallel cutoff: each one is a
        // full check-in/drain/check-out cycle taken from the workers' spin,
        // so any lost-wakeup or stale-count bug in the handshake shows up as
        // a hang or a wrong result here. Pinned to a multi-worker cap so the
        // pool path runs even where available_parallelism() is 1 (the CI
        // small-machine legs).
        let n = 5_000usize;
        with_pool(4, || {
            for round in 0..2_000u64 {
                let got = par::map_range(0..n, |i| splitmix64(i as u64 ^ round));
                // Spot-check cheaply every round, fully every 256th.
                assert_eq!(got[0], splitmix64(round), "round {round}");
                assert_eq!(
                    got[n - 1],
                    splitmix64((n - 1) as u64 ^ round),
                    "round {round}"
                );
                if round % 256 == 0 {
                    assert_eq!(got, serial_map(n, round), "round {round}");
                }
            }
        });
    });
}

#[test]
fn rapid_regions_mix_of_operations() {
    guarded(false, || {
        // Alternate every par entry point back-to-back so regions of different
        // shapes (for/map/reduce/find) reuse the same team.
        let n = 40_000usize;
        let items: Vec<u64> = serial_map(n, 7);
        let want_sum: u64 = items.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        let want_count = items.iter().filter(|&&x| x % 3 == 0).count();
        let want_pos = items.iter().position(|&x| x % 1009 == 0);
        with_pool(3, || {
            for _ in 0..200 {
                let hits = AtomicUsize::new(0);
                par::for_each(&items, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.into_inner(), n);
                let sum = par::map_reduce(&items, |&x| x, 0u64, |a, b| a.wrapping_add(b));
                assert_eq!(sum, want_sum);
                assert_eq!(par::count(&items, |&x| x % 3 == 0), want_count);
                let pos = par::find_map_range(0..n, |i| (items[i] % 1009 == 0).then_some(i));
                assert_eq!(pos, want_pos);
            }
        });
    });
}

#[test]
fn nested_with_pool_reentrancy() {
    guarded(false, || {
        // with_pool inside with_pool, and par regions whose bodies open more
        // regions (which must degrade to serial on the worker, not deadlock on
        // the single team) while also installing their own caps.
        let n = 30_000usize;
        let want = serial_map(n, 99);
        let got = with_pool(5, || {
            with_pool(3, || {
                par::map_range(0..n, |i| {
                    // Nested region from inside a region: runs serially.
                    let inner = par::map_reduce_range(
                        0..4u32,
                        |j| splitmix64(j as u64),
                        0u64,
                        |a, b| a.wrapping_add(b),
                    );
                    // Nested cap change inside a worker body must be harmless
                    // and restored.
                    let inner2 = with_pool(2, || {
                        par::count(&[1u8, 2, 3, 4, 5, 6], |&x| x % 2 == 0) as u64
                    });
                    assert_eq!(inner2, 3);
                    splitmix64(i as u64 ^ 99) ^ (inner ^ inner) ^ (inner2 - 3)
                })
            })
        });
        assert_eq!(got, want);
    });
}

#[test]
fn interleaved_pool_size_changes() {
    guarded(false, || {
        // Sweep the cap up and down between (and around) regions; every size
        // must reproduce the serial fingerprint bit-for-bit.
        let n = 64_000usize;
        let want = fingerprint(serial_map(n, 5));
        let data: Vec<f64> = (0..n)
            .map(|i| (splitmix64(i as u64) as f64) / 1e16)
            .collect();
        let want_sum = data
            .chunks(par::DET_BLOCK)
            .fold(0.0f64, |acc, c| acc + c.iter().sum::<f64>());
        for &t in [1usize, 2, 3, 5, 8, 2, 8, 1, 5, 3].iter().cycle().take(60) {
            let (fp, sum) = with_pool(t, || {
                let fp = fingerprint(par::map_range(0..n, |i| splitmix64(i as u64 ^ 5)));
                let sum = par::chunked_reduce(
                    &data,
                    par::DET_BLOCK,
                    |c| c.iter().sum::<f64>(),
                    0.0,
                    |a, b| a + b,
                );
                (fp, sum)
            });
            assert_eq!(fp, want, "pool size {t}");
            assert_eq!(sum.to_bits(), want_sum.to_bits(), "pool size {t}");
        }
    });
}

#[test]
fn panic_in_worker_propagates_and_pool_survives() {
    guarded(false, || {
        // Pinned to a multi-worker cap so the panic really unwinds inside pool
        // workers even on 1-CPU machines.
        let n = 100_000usize;
        with_pool(4, || {
            for round in 0..20 {
                // A block panics mid-region: the panic must re-surface on the
                // calling thread with its payload intact...
                let bad = (10_007 * (round + 1)) % n;
                let err = catch_unwind(AssertUnwindSafe(|| {
                    par::for_range(0..n, |i| {
                        if i == bad {
                            panic!("boom at {i}");
                        }
                    });
                }))
                .expect_err("panic in a region body must propagate to the caller");
                let msg = err
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "<non-string payload>".into());
                assert!(msg.contains(&format!("boom at {bad}")), "payload: {msg}");
                // ...and the pool must keep working afterwards (workers caught
                // the unwind and went back to the idle state).
                let got = par::map_range(0..n, |i| splitmix64(i as u64 ^ round as u64));
                assert_eq!(got, serial_map(n, round as u64), "round {round}");
            }
        });
    });
}

#[test]
fn concurrent_callers_stay_bitwise_identical() {
    guarded(false, || {
        // Many OS threads opening regions at once: each leader gets its own
        // sub-team staffed from workers the others have not claimed — every
        // caller must still get the serial answer, and (since the pool can
        // grow to cover 8 leaders x 3 helpers) nobody should be forced into
        // the contended inline-drain fallback the single-team pool had.
        // Exercises the multi-entry dispatch path and the state mutex.
        let n = 50_000usize;
        let callers = 8usize;
        let rounds = 40u64;
        let contended_before = contended_regions();
        std::thread::scope(|s| {
            for c in 0..callers as u64 {
                s.spawn(move || {
                    // Each caller pins a multi-worker cap so the team is
                    // contended even where available_parallelism() is 1.
                    with_pool(4, || {
                        for r in 0..rounds {
                            let salt = c * 1_000 + r;
                            let got = fingerprint(par::map_range(0..n, move |i| {
                                splitmix64(i as u64 ^ salt)
                            }));
                            assert_eq!(
                                got,
                                fingerprint(serial_map(n, salt)),
                                "caller {c} round {r}"
                            );
                        }
                    });
                });
            }
        });
        assert_eq!(
            contended_regions(),
            contended_before,
            "8 concurrent leaders must split the pool into sub-teams, not drain inline \
             (the pre-sub-team pool serialized them on one winner-takes-all team)"
        );
    });
}

#[test]
fn concurrent_callers_with_distinct_caps() {
    guarded(false, || {
        // The cap is thread-local: concurrent sweeps at different sizes must
        // not bleed into each other.
        let n = 30_000usize;
        let want = fingerprint(serial_map(n, 123));
        std::thread::scope(|s| {
            for (idx, t) in [1usize, 2, 3, 5, 8, 8, 2, 1].into_iter().enumerate() {
                s.spawn(move || {
                    for _ in 0..25 {
                        let got = with_pool(t, || {
                            fingerprint(par::map_range(0..n, |i| splitmix64(i as u64 ^ 123)))
                        });
                        assert_eq!(got, want, "caller {idx} with cap {t}");
                    }
                });
            }
        });
    });
}

#[test]
fn pool_growth_is_bounded_and_monotone() {
    guarded(false, || {
        let before = spawned_workers();
        with_pool(8, || {
            let _ = par::map_range(0..100_000usize, |i| splitmix64(i as u64));
        });
        let mid = spawned_workers();
        with_pool(2, || {
            let _ = par::map_range(0..100_000usize, |i| splitmix64(i as u64));
        });
        let after = spawned_workers();
        assert!(mid >= before && after >= mid, "pool must never shrink");
        assert!(after < MAX_TEAM, "pool must respect the hard team ceiling");
        assert!(mid >= 1, "a region at cap 8 must have spawned a worker");
    });
}

#[test]
fn gapped_bursts_around_the_spin_budget() {
    // A solver iteration is bursts of tiny regions with serial work in
    // between. Gaps shorter than the spin budget find the workers polling,
    // gaps longer find them parked, and a gap near the budget races a
    // worker's decision to park against the leader's decision not to
    // notify — the interleaving a lost wake-up would come from. Every
    // result must be the serial one at every cap.
    guarded(false, || {
        let n = 5_000usize;
        let gaps = [
            Duration::ZERO,
            SPIN_BUDGET / 2,
            SPIN_BUDGET * 2,
            Duration::from_millis(2),
        ];
        for cap in [2usize, 3, 8] {
            with_pool(cap, || {
                for (g, &gap) in gaps.iter().enumerate() {
                    for round in 0..40u64 {
                        for burst in 0..8u64 {
                            let salt = (cap as u64) << 32 | (g as u64) << 16 | round << 4 | burst;
                            let got = par::map_range(0..n, |i| splitmix64(i as u64 ^ salt));
                            assert_eq!(got, serial_map(n, salt), "cap {cap} gap {gap:?}");
                        }
                        serial_gap(gap);
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_leaders_meet_spinning_workers() {
    // Four leaders open regions a fraction of the spin budget apart, so
    // each finds workers that are mid-spin after serving another leader:
    // check-ins from the spin race each other and the leaders' dispatch
    // for the same entries.
    guarded(false, || {
        let n = 5_000usize;
        let leaders = 4u64;
        let start = Barrier::new(leaders as usize);
        std::thread::scope(|s| {
            for c in 0..leaders {
                let start = &start;
                s.spawn(move || {
                    with_pool(3, || {
                        start.wait();
                        for r in 0..300u64 {
                            let salt = c << 32 | r;
                            let got = par::map_range(0..n, |i| splitmix64(i as u64 ^ salt));
                            assert_eq!(got, serial_map(n, salt), "leader {c} round {r}");
                            serial_gap(SPIN_BUDGET / 8);
                        }
                    });
                });
            }
        });
    });
}

#[test]
fn panic_in_a_worker_that_joined_from_the_spin() {
    // The block that panics is one a *worker* runs, in a region opened
    // right after another (zero gap), so the worker checks in from its
    // spin, not from the condvar. The leader's own blocks wait until a
    // worker has taken one, which forces that interleaving.
    guarded(false, || {
        let n = 5_000usize;
        for round in 0..20u64 {
            let warm = with_pool(2, || par::map_range(0..n, |i| splitmix64(i as u64 ^ round)));
            assert_eq!(warm, serial_map(n, round));
            let leader = std::thread::current().id();
            let worker_ran = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool::run_region_on(2, 64, &|b| {
                    if std::thread::current().id() != leader {
                        if !worker_ran.swap(true, Ordering::SeqCst) {
                            panic!("boom in worker block {b}");
                        }
                    } else {
                        let t = Instant::now();
                        while !worker_ran.load(Ordering::SeqCst)
                            && t.elapsed() < Duration::from_secs(10)
                        {
                            std::thread::yield_now();
                        }
                    }
                });
            }));
            let err = result.expect_err("the worker's panic must reach the leader");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("boom in worker block"), "payload: {msg}");
            // The worker caught the unwind and serves the next region.
            let got = with_pool(2, || {
                par::map_range(0..n, |i| splitmix64(i as u64 ^ !round))
            });
            assert_eq!(got, serial_map(n, !round), "round {round}");
        }
    });
}

/// CPU time (user + system) this process has used, from `/proc/self/stat`
/// (fields 14 and 15, in ticks of 10 ms).
#[cfg(target_os = "linux")]
fn process_cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields 3.. follow its ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let ticks: u64 = rest
        .split(' ')
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    Duration::from_millis(ticks * 10)
}

#[cfg(target_os = "linux")]
#[test]
fn workers_park_after_the_spin_budget() {
    // Parked means parked: once the burst is over, seven workers may spin
    // out their budget (7 x 100 us) and must then cost nothing. A worker
    // that kept polling would burn the whole 200 ms.
    guarded(true, || {
        with_pool(8, || {
            for round in 0..200u64 {
                let got = par::map_range(0..5_000usize, |i| splitmix64(i as u64 ^ round));
                assert_eq!(got[17], splitmix64(17 ^ round));
            }
        });
        let before = process_cpu_time();
        std::thread::sleep(Duration::from_millis(200));
        let used = process_cpu_time() - before;
        assert!(
            used < Duration::from_millis(20),
            "an idle pool used {used:?} of CPU in 200 ms"
        );
    });
}
