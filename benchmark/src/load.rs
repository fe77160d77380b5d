//! The load generator: closed loops only, in rounds. Every caller of this
//! system (a multilevel pipeline, a solver) waits for a reply before its
//! next step, and on a two-CPU host an open-loop generator would measure
//! the scheduler, not the program.
//!
//! A round is one op per client (all clients at once), then one reading of
//! the workload's yardstick (`yard.rs`) while the program is idle. Every
//! latency of the round is kept twice: as it was measured, and divided by
//! the round's yardstick reading. The second is what the end-to-end
//! metrics are made of, because on the sizing host the first says more
//! about the minute it was taken in than about the program.

use crate::hist::LogHistogram;
use crate::stats;
use crate::trace::{self, Recorder, Span};
use std::time::{Duration, Instant};

/// A relative latency is recorded in the histogram as this many units per
/// yardstick reading.
const REL_SCALE: f64 = 1e9;

/// What one client thread accumulates during a phase.
pub struct Client {
    pub rec: Recorder,
    hist: LogHistogram,
    rel: LogHistogram,
    /// Latencies of this round's correct ops, until the round's yardstick
    /// reading is in.
    round: Vec<u64>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Client {
    /// Account one finished op. Only a correct op contributes a latency
    /// sample and counts toward throughput: a failed, refused or wrong
    /// answer is not a fast answer.
    pub fn done(&mut self, latency: Duration, verdict: Result<(), String>) {
        self.attempted += 1;
        match verdict {
            Ok(()) => {
                let ns = latency.as_nanos() as u64;
                self.hist.record(ns);
                self.round.push(ns);
            }
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
    }

    /// Close a round: record its latencies relative to `yardstick`.
    /// Returns how many correct ops the round held.
    fn settle(&mut self, yardstick: Duration) -> usize {
        let per_ns = REL_SCALE / yardstick.as_nanos().max(1) as f64;
        for ns in &self.round {
            self.rel.record((*ns as f64 * per_ns) as u64);
        }
        let n = self.round.len();
        self.round.clear();
        n
    }
}

/// What one round came to.
struct Round {
    /// Correct ops completed, all clients together.
    done: usize,
    /// Seconds from the round's start until the last client returned.
    busy_s: f64,
    /// The yardstick reading that followed, in seconds.
    yardstick_s: f64,
}

/// Consecutive blocks the rounds are cut into for `rel_throughput`.
const RATE_BLOCKS: usize = 16;

/// The merged result of one measured phase.
#[derive(Default)]
pub struct Phase {
    /// Latencies of the correct ops, in nanoseconds.
    pub hist: LogHistogram,
    /// The same latencies, each over its round's yardstick reading.
    rel: LogHistogram,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds the clients spent issuing ops (yardstick time excluded).
    pub busy_s: f64,
    rounds: Vec<Round>,
    pub spans: Vec<Span>,
    pub first_failure: Option<String>,
}

impl Phase {
    /// Correct ops completed per second the clients were issuing ops.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.busy_s
    }

    /// Correct ops completed in the time of one yardstick reading. A
    /// median of means: the rounds are cut into [`RATE_BLOCKS`] consecutive
    /// blocks, each block gives its ops per busy second times its mean
    /// reading, and the median block is reported. Within a block the many
    /// short stalls of a busy host average out on both sides of the
    /// ratio; across blocks one long freeze moves one block, not the
    /// median.
    pub fn rel_throughput(&self) -> f64 {
        let blocks = RATE_BLOCKS.min(self.rounds.len()).max(1);
        let rates: Vec<f64> = (0..blocks)
            .map(|b| {
                let block = &self.rounds
                    [b * self.rounds.len() / blocks..(b + 1) * self.rounds.len() / blocks];
                let done: usize = block.iter().map(|r| r.done).sum();
                let busy: f64 = block.iter().map(|r| r.busy_s).sum();
                let reading: f64 =
                    block.iter().map(|r| r.yardstick_s).sum::<f64>() / block.len() as f64;
                done as f64 / busy * reading
            })
            .collect();
        stats::median(&rates)
    }

    /// The latency below which a share `q` of the ops lie, in yardstick
    /// readings.
    pub fn rel_quantile(&self, q: f64) -> f64 {
        self.rel.quantile_ns(q) / REL_SCALE
    }

    /// Median yardstick reading, in milliseconds: the base of every
    /// relative figure of the phase.
    pub fn yardstick_ms(&self) -> f64 {
        let readings: Vec<f64> = self.rounds.iter().map(|r| r.yardstick_s).collect();
        stats::median(&readings) * 1e3
    }

    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Fold a later phase of the same kind into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.hist.merge(&other.hist);
        self.rel.merge(&other.rel);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_s += other.busy_s;
        self.rounds.extend(other.rounds);
        self.spans = trace::merge(vec![std::mem::take(&mut self.spans), other.spans]);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Run rounds for `duration`: in each, client `i` calls `op(&mut
/// states[i], client)` once, all clients at the same time, and when all
/// have returned `yardstick` is read once. A round under way at the
/// deadline completes and counts. One client runs on the calling thread;
/// more run on scoped threads.
pub fn closed_loop<S: Send>(
    states: &mut [S],
    duration: Duration,
    traced: bool,
    origin: Instant,
    yardstick: &mut dyn FnMut() -> Duration,
    op: impl Fn(&mut S, &mut Client) + Sync,
) -> Phase {
    let lanes = states.len();
    let mut clients: Vec<Client> = (0..lanes)
        .map(|lane| Client {
            rec: Recorder::new(traced, origin, lane, lanes),
            hist: LogHistogram::default(),
            rel: LogHistogram::default(),
            round: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        })
        .collect();
    let mut phase = Phase::default();
    let start = Instant::now();
    while start.elapsed() < duration {
        let t = Instant::now();
        let mut pairs = states.iter_mut().zip(clients.iter_mut());
        let (first_state, first_client) = pairs.next().expect("at least one client");
        std::thread::scope(|scope| {
            for (state, client) in pairs {
                let op = &op;
                scope.spawn(move || op(state, client));
            }
            op(first_state, first_client);
        });
        let busy_s = t.elapsed().as_secs_f64();
        let reading = yardstick();
        let done = clients.iter_mut().map(|c| c.settle(reading)).sum();
        phase.busy_s += busy_s;
        phase.rounds.push(Round {
            done,
            busy_s,
            yardstick_s: reading.as_secs_f64(),
        });
    }
    let mut spans = Vec::new();
    for client in clients {
        phase.hist.merge(&client.hist);
        phase.rel.merge(&client.rel);
        phase.attempted += client.attempted;
        phase.failed += client.failed;
        if phase.first_failure.is_none() {
            phase.first_failure = client.first_failure;
        }
        spans.push(client.rec.into_spans());
    }
    phase.spans = trace::merge(spans);
    phase
}

/// Slices the traced run cuts its measured time into (untraced, traced,
/// untraced, traced).
const TRACE_SLICES: u32 = 4;

/// The traced run's measured phase: closed loops of equal length,
/// alternately untraced and traced, so that a host that speeds up or slows
/// down during the run touches both sides alike. Returns `(untraced,
/// traced)`; their throughput gap is the tracing overhead.
pub fn alternating<S: Send>(
    states: &mut [S],
    total: Duration,
    origin: Instant,
    yardstick: &mut dyn FnMut() -> Duration,
    op: impl Fn(&mut S, &mut Client) + Sync,
) -> (Phase, Phase) {
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    for slice in 0..TRACE_SLICES {
        let on = slice % 2 == 1;
        let phase = closed_loop(states, total / TRACE_SLICES, on, origin, yardstick, &op);
        if on { &mut traced } else { &mut plain }.absorb(phase);
    }
    (plain, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_and_times_every_op() {
        let mut states = [0u64, 0u64];
        let mut readings = 0u64;
        let phase = closed_loop(
            &mut states,
            Duration::from_millis(60),
            true,
            Instant::now(),
            &mut || {
                readings += 1;
                Duration::from_millis(10)
            },
            |n, c| {
                let op = c.rec.begin("harness.op");
                let t = Instant::now();
                std::thread::sleep(Duration::from_millis(5));
                *n += 1;
                c.rec.end(op);
                // Every fourth op of a client is reported wrong.
                let verdict = if *n % 4 == 0 {
                    Err(format!("op {n} wrong"))
                } else {
                    Ok(())
                };
                c.done(t.elapsed(), verdict);
            },
        );
        let issued = states[0] + states[1];
        assert_eq!(phase.attempted, issued);
        assert!(issued >= 8, "{issued}");
        // One op per client per round, one reading per round.
        assert_eq!(states[0], states[1]);
        assert_eq!(phase.rounds() as u64, states[0]);
        assert_eq!(readings, states[0]);
        assert_eq!(phase.failed, states[0] / 4 + states[1] / 4);
        assert_eq!(phase.hist.count(), phase.attempted - phase.failed);
        assert!(phase.first_failure.as_deref().unwrap().ends_with("wrong"));
        assert!(phase.busy_s >= 0.06 && phase.busy_s < 0.5);
        assert!(phase.hist.quantile_ns(0.5) >= 5e6);
        assert_eq!(phase.spans.len() as u64, issued);
        // Two lanes: op ids interleave without colliding.
        let mut ids: Vec<u64> = phase.spans.iter().map(|s| s.op_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, issued);
        assert!((phase.throughput() - (issued - phase.failed) as f64 / phase.busy_s).abs() < 1e-9);
        // A 5 ms op over a 10 ms yardstick reading: half a reading, give
        // or take how long the sleep really took.
        assert_eq!(phase.yardstick_ms(), 10.0);
        let p50 = phase.rel_quantile(0.5);
        assert!((0.5..1.5).contains(&p50), "{p50}");
        assert!(
            (p50 - phase.hist.quantile_ns(0.5) / 10e6).abs() < 1e-6,
            "{p50}"
        );
        // Two clients, so up to two ops per 5 ms: at most four a reading.
        let rate = phase.rel_throughput();
        assert!(rate > 1.0 && rate <= 4.0, "{rate}");
    }

    #[test]
    fn relative_throughput_is_a_median_of_block_means() {
        // Two ops in 10 ms, then a 5 ms reading: one op per reading.
        let mut phase = Phase {
            rounds: (0..64)
                .map(|_| Round {
                    done: 2,
                    busy_s: 0.010,
                    yardstick_s: 0.005,
                })
                .collect(),
            ..Default::default()
        };
        assert!((phase.rel_throughput() - 1.0).abs() < 1e-12);
        // One frozen reading moves one block of sixteen, not the median.
        phase.rounds[20].yardstick_s = 0.5;
        assert!((phase.rel_throughput() - 1.0).abs() < 1e-12);
        // Stalls that hit ops and readings alike cancel within a block.
        for r in phase.rounds.iter_mut().step_by(4) {
            r.busy_s *= 2.0;
            r.yardstick_s *= 2.0;
        }
        assert!((phase.rel_throughput() - 1.0).abs() < 1e-12);
        // Fewer rounds than blocks: a block per round.
        phase.rounds.truncate(3);
        assert!((phase.rel_throughput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alternating_traces_every_other_slice() {
        let mut states = [()];
        let (plain, traced) = alternating(
            &mut states,
            Duration::from_millis(40),
            Instant::now(),
            &mut || Duration::from_millis(1),
            |_, c| {
                let op = c.rec.begin("harness.op");
                let t = Instant::now();
                std::thread::sleep(Duration::from_millis(1));
                c.rec.end(op);
                c.done(t.elapsed(), Ok(()));
            },
        );
        assert!(plain.spans.is_empty());
        assert_eq!(traced.spans.len() as u64, traced.attempted);
        assert!(plain.attempted > 0 && traced.attempted > 0);
        assert!(plain.busy_s >= 0.02 && traced.busy_s >= 0.02);
        assert_eq!(plain.rounds() as u64, plain.attempted);
    }
}
