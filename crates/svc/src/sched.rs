//! The batching job scheduler: a bounded MPMC queue drained by a fixed set
//! of worker-leader threads, each running its job on a pool **sub-team**.
//!
//! ## Why not one team per request?
//!
//! Before pool sub-teams, concurrent leaders serialized on the single
//! parked team — one request won the workers and the rest drained their
//! regions inline (the ROADMAP open item this subsystem resolves). Even
//! with sub-teams, a thread per request oversubscribes the machine the
//! moment requests outnumber cores, and MIS-2-sized jobs are small and
//! bursty (Blelloch et al.: expected polylog depth per MIS pass), so the
//! winning shape is a *few* warm leaders batching many cheap jobs:
//!
//! * `K = min(4, threads)` leader threads pull jobs from one bounded queue
//!   of 64 slots;
//! * each leader runs its job under `with_pool(team)` where
//!   `team = threads / K`, so the K concurrent jobs *split* the parked
//!   workers via `mis2_prim::pool`'s sub-team dispatch instead of fighting
//!   over one team;
//! * the bounded queue applies backpressure to producers (connection
//!   handlers block in [`Scheduler::submit_with`] when the queue is full).
//!
//! ## Completion delivery
//!
//! The scheduler's primitive is **completion delivery**, not blocking:
//! [`Scheduler::submit_with`] takes the job *and* a [`Completion`]
//! callback, and the worker-leader that finishes the job hands the
//! structured [`crate::ops::Response`] to the callback instead of parking
//! a waiter. That is what lets the server keep one reader parsing new
//! requests while earlier jobs run — each completion pushes its response
//! into the connection's writer channel, in whatever order jobs finish,
//! and the per-connection writer renders it for its protocol (v1 text
//! line or v3 binary frame).
//!
//! A completion is invoked **exactly once** for every accepted job, on
//! whichever thread retires it: a worker-leader after a run or a panic
//! (`ERR job panicked`), or the thread calling [`Scheduler::shutdown`]
//! for jobs still queued (`ERR scheduler shut down`). Completions must
//! never block indefinitely — a blocked completion wedges a worker-leader
//! (or the shutdown path) for every other connection. The server
//! guarantees this with its window-slot protocol: a completion only ever
//! sends into channel capacity its request already reserved.
//!
//! [`Scheduler::submit`] remains as a thin blocking adapter: it submits
//! with a completion that fills a one-shot slot and returns a
//! [`JobHandle`] whose `wait()` parks on that slot — exactly the v1
//! one-request-per-connection behavior, now layered on the completion
//! mode.
//!
//! Per-job statistics (queue wait, run time, team size) are aggregated in
//! [`SchedStats`] and surfaced through the `STATS` request.

use mis2_prim::pool;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A unit of work: produces the [`crate::ops::Response`] for one request.
/// Carrying the structured response (rather than a pre-rendered `String`)
/// is what lets the v3 server hand interned response bytes straight to the
/// writer — the protocol-specific rendering happens per connection, after
/// the scheduler is done.
pub type Job = Box<dyn FnOnce() -> crate::ops::Response + Send>;

/// Receives the finished response for one job, exactly once, on the
/// thread that retired the job. Must not block indefinitely (see the
/// module docs).
pub type Completion = Box<dyn FnOnce(crate::ops::Response) + Send>;

/// Scheduler sizing. The leaders follow from the budget: `min(4, threads)`
/// worker-leaders, each job on a sub-team of `threads / workers`; the
/// queue holds 64 jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedConfig {
    /// Total thread budget shared by all concurrently running jobs
    /// (0 = all logical CPUs).
    pub threads: usize,
}

/// Most worker-leader threads, whatever the thread budget.
const MAX_WORKERS: usize = 4;

/// Jobs the bounded queue holds; producers block while it is full.
const QUEUE_CAP: usize = 64;

/// Aggregated per-job statistics (durations in microseconds).
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Jobs completed (including panicked ones).
    pub jobs: AtomicU64,
    /// Total time jobs spent queued before a worker picked them up.
    /// Saturates instead of wrapping, so the mean stays meaningful on
    /// long-lived servers.
    pub queue_wait_us: AtomicU64,
    /// Number of waits summed into `queue_wait_us` (equals `jobs`, but
    /// paired explicitly so `STATS` consumers can compute a mean
    /// without relying on that coincidence).
    pub queue_wait_count: AtomicU64,
    /// Total time jobs spent running. Saturates instead of wrapping.
    pub run_us: AtomicU64,
    /// Jobs that panicked (reported to the client as `ERR`).
    pub panics: AtomicU64,
}

/// Add without wrapping: a duration sum that hits `u64::MAX` pins there
/// rather than silently restarting from zero.
fn saturating_add(counter: &AtomicU64, n: u64) {
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(n))
    });
}

/// One-shot completion slot a submitter waits on.
struct DoneSlot {
    result: Mutex<Option<crate::ops::Response>>,
    ready: Condvar,
}

impl DoneSlot {
    fn complete(&self, resp: crate::ops::Response) {
        *self.result.lock().unwrap() = Some(resp);
        self.ready.notify_all();
    }
}

/// Handle to a job submitted through the blocking adapter
/// [`Scheduler::submit`]; [`JobHandle::wait`] blocks until the completion
/// publishes the response, rendered to its v1 text line.
pub struct JobHandle(Arc<DoneSlot>);

impl JobHandle {
    pub fn wait(self) -> String {
        let mut guard = self.0.result.lock().unwrap();
        loop {
            if let Some(resp) = guard.take() {
                return resp.to_line();
            }
            guard = self.0.ready.wait(guard).unwrap();
        }
    }
}

struct Queued {
    job: Job,
    enqueued: Instant,
    done: Completion,
}

struct Queue {
    jobs: VecDeque<Queued>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    team: usize,
    stats: SchedStats,
}

/// See the module docs.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    nworkers: usize,
}

impl Scheduler {
    pub fn new(cfg: SchedConfig) -> Scheduler {
        let threads = if cfg.threads == 0 {
            pool::max_threads()
        } else {
            cfg.threads.clamp(1, pool::MAX_TEAM)
        };
        // Never more leaders than budgeted threads: each leader runs a job
        // concurrently, so workers > threads would oversubscribe the very
        // budget `threads` declares.
        let nworkers = threads.min(MAX_WORKERS);
        // K concurrent jobs split the thread budget; each leader thread
        // counts toward its own sub-team. Floor division keeps the sum of
        // sub-teams within the budget (at most nworkers - 1 budgeted
        // threads stay idle from the remainder).
        let team = threads / nworkers;
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            team,
            stats: SchedStats::default(),
        });
        let workers = (0..nworkers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mis2-svc-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("failed to spawn scheduler worker")
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
            nworkers,
        }
    }

    /// Sub-team size each job runs with.
    pub fn team(&self) -> usize {
        self.inner.team
    }

    /// Number of worker-leader threads.
    pub fn workers(&self) -> usize {
        self.nworkers
    }

    /// Aggregated job statistics.
    pub fn stats(&self) -> &SchedStats {
        &self.inner.stats
    }

    /// Enqueue a job with a completion callback, blocking while the queue
    /// is full (backpressure). The completion receives the full response
    /// line exactly once — from a worker-leader in completion order, or
    /// immediately (on this thread) with an `ERR` line if the scheduler is
    /// already shut down. This is the primitive the pipelined server
    /// builds on; see the module docs for the no-blocking rule completions
    /// must obey.
    pub fn submit_with(&self, job: Job, done: Completion) {
        let mut q = self.inner.queue.lock().unwrap();
        while q.jobs.len() >= QUEUE_CAP && !q.shutdown {
            q = self.inner.not_full.wait(q).unwrap();
        }
        if q.shutdown {
            drop(q);
            done(crate::ops::Response::err("scheduler shut down"));
            return;
        }
        q.jobs.push_back(Queued {
            job,
            enqueued: Instant::now(),
            done,
        });
        drop(q);
        self.inner.not_empty.notify_one();
    }

    /// Blocking adapter over [`Scheduler::submit_with`]: the returned
    /// handle's `wait()` parks until the completion fires. After
    /// [`Scheduler::shutdown`] the job is rejected immediately with an
    /// `ERR` response.
    pub fn submit(&self, job: Job) -> JobHandle {
        let done = Arc::new(DoneSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let slot = Arc::clone(&done);
        self.submit_with(job, Box::new(move |resp| slot.complete(resp)));
        JobHandle(done)
    }

    /// Stop the workers; queued-but-unstarted jobs complete with `ERR`
    /// and later [`Scheduler::submit`] calls are rejected. Idempotent, and
    /// takes `&self` so it works through a shared `Arc` even while
    /// connection handlers still hold clones.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.shutdown = true;
            let drained: Vec<Queued> = q.jobs.drain(..).collect();
            drop(q);
            // Completions run outside the queue lock: one may (briefly)
            // take other locks, and holding the queue lock across foreign
            // code invites lock-order inversions.
            for queued in drained {
                (queued.done)(crate::ops::Response::err("scheduler shut down"));
            }
        }
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
        for w in self.workers.lock().unwrap().drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let queued = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(item) = q.jobs.pop_front() {
                    break item;
                }
                q = inner.not_empty.wait(q).unwrap();
            }
        };
        inner.not_full.notify_one();
        let wait_us = queued.enqueued.elapsed().as_micros() as u64;
        let start = Instant::now();
        // The job runs on this leader plus a sub-team of parked pool
        // workers; concurrent leaders' sub-teams split the pool. A panic
        // inside a job must not kill the worker — it becomes an ERR
        // response for that one request.
        let resp = match catch_unwind(AssertUnwindSafe(|| pool::with_pool(inner.team, queued.job)))
        {
            Ok(resp) => resp,
            Err(_) => {
                inner.stats.panics.fetch_add(1, Ordering::Relaxed);
                crate::ops::Response::err("job panicked")
            }
        };
        let run_us = start.elapsed().as_micros() as u64;
        inner.stats.jobs.fetch_add(1, Ordering::Relaxed);
        saturating_add(&inner.stats.queue_wait_us, wait_us);
        inner.stats.queue_wait_count.fetch_add(1, Ordering::Relaxed);
        saturating_add(&inner.stats.run_us, run_us);
        // A panicking completion must not take the worker-leader down with
        // it (the job's response is lost to its connection, but every
        // other connection keeps its scheduler).
        let done = queued.done;
        if catch_unwind(AssertUnwindSafe(move || done(resp))).is_err() {
            inner.stats.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Response;

    fn ok(body: &str) -> Response {
        Response::ok_text(body.to_string())
    }

    fn sched(threads: usize) -> Scheduler {
        Scheduler::new(SchedConfig { threads })
    }

    #[test]
    fn jobs_complete_with_their_own_results() {
        let s = sched(2);
        let handles: Vec<JobHandle> = (0..20)
            .map(|i| s.submit(Box::new(move || Response::ok_text(format!("job {i}")))))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.wait(), format!("OK job {i}"));
        }
        assert_eq!(s.stats().jobs.load(Ordering::Relaxed), 20);
        // Every summed wait is paired with a count, so a mean queue
        // wait is computable from STATS.
        assert_eq!(s.stats().queue_wait_count.load(Ordering::Relaxed), 20);
        s.shutdown();
    }

    #[test]
    fn duration_sums_saturate_instead_of_wrapping() {
        let c = AtomicU64::new(u64::MAX - 5);
        saturating_add(&c, 100);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
        saturating_add(&c, 1);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn team_splits_thread_budget_across_workers() {
        // At most four leaders, never more than the budget, and each job's
        // sub-team is the budget's share per leader, rounded down.
        for (threads, workers, team) in [(1, 1, 1), (2, 2, 1), (3, 3, 1), (8, 4, 2)] {
            let s = sched(threads);
            assert_eq!(
                (s.workers(), s.team()),
                (workers, team),
                "threads {threads}"
            );
            s.shutdown();
        }
    }

    #[test]
    fn panicking_job_yields_err_and_worker_survives() {
        let s = sched(1);
        let bad = s.submit(Box::new(|| panic!("kaboom")));
        assert!(bad.wait().starts_with("ERR "));
        let good = s.submit(Box::new(|| ok("fine")));
        assert_eq!(good.wait(), "OK fine");
        assert_eq!(s.stats().panics.load(Ordering::Relaxed), 1);
        s.shutdown();
    }

    #[test]
    fn bounded_queue_applies_backpressure_but_completes_everything() {
        // One worker held on a gate and a full queue of 64 behind it: the
        // 65th submit blocks until the gate opens, and every job completes.
        let s = sched(1);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let held = s.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
            ok("held")
        }));
        started_rx.recv().unwrap();
        let queued: Vec<JobHandle> = (0..QUEUE_CAP)
            .map(|i| s.submit(Box::new(move || Response::ok_text(format!("{i}")))))
            .collect();
        let (returned_tx, returned_rx) = std::sync::mpsc::channel::<JobHandle>();
        std::thread::scope(|scope| {
            scope.spawn(|| returned_tx.send(s.submit(Box::new(|| ok("last")))).unwrap());
            let wait = std::time::Duration::from_millis(100);
            assert!(
                returned_rx.recv_timeout(wait).is_err(),
                "a submit past a full queue returned"
            );
            gate_tx.send(()).unwrap();
            assert_eq!(returned_rx.recv().unwrap().wait(), "OK last");
        });
        assert_eq!(held.wait(), "OK held");
        for (i, h) in queued.into_iter().enumerate() {
            assert_eq!(h.wait(), format!("OK {i}"));
        }
        assert_eq!(s.stats().jobs.load(Ordering::Relaxed), QUEUE_CAP as u64 + 2);
        s.shutdown();
    }

    #[test]
    fn completions_deliver_in_completion_order_not_submit_order() {
        // Two workers: a slow job submitted first and a fast job second.
        // The fast job's completion must arrive first — the scheduler
        // delivers in completion order, which is the whole point of the
        // pipelined v3 protocol.
        let s = sched(2);
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let slow_tx = tx.clone();
        s.submit_with(
            Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(150));
                ok("slow")
            }),
            Box::new(move |resp| slow_tx.send(resp.to_line()).unwrap()),
        );
        let fast_tx = tx.clone();
        s.submit_with(
            Box::new(|| ok("fast")),
            Box::new(move |resp| fast_tx.send(resp.to_line()).unwrap()),
        );
        assert_eq!(rx.recv().unwrap(), "OK fast");
        assert_eq!(rx.recv().unwrap(), "OK slow");
        s.shutdown();
    }

    #[test]
    fn shutdown_retires_queued_jobs_through_their_completions() {
        // One worker busy with a slow job; three more queue behind it.
        // Shutdown must hand every queued job's completion an ERR line
        // (exactly-once delivery), while the in-flight job finishes.
        let s = sched(1);
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let slow_tx = tx.clone();
        s.submit_with(
            Box::new(move || {
                started_tx.send(()).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(100));
                ok("slow")
            }),
            Box::new(move |resp| slow_tx.send(resp.to_line()).unwrap()),
        );
        started_rx.recv().unwrap();
        for _ in 0..3 {
            let tx = tx.clone();
            s.submit_with(
                Box::new(|| ok("never runs")),
                Box::new(move |resp| tx.send(resp.to_line()).unwrap()),
            );
        }
        s.shutdown();
        drop(tx);
        let mut lines: Vec<String> = rx.iter().collect();
        lines.sort();
        assert_eq!(lines.len(), 4, "every completion fires exactly once");
        assert_eq!(lines[3], "OK slow");
        assert!(
            lines[..3].iter().all(|l| l.starts_with("ERR ")),
            "{lines:?}"
        );
        // A post-shutdown submit_with completes inline with ERR.
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        s.submit_with(
            Box::new(|| ok("never")),
            Box::new(move |resp| tx.send(resp.to_line()).unwrap()),
        );
        assert!(rx.recv().unwrap().starts_with("ERR "));
    }

    #[test]
    fn panicking_completion_does_not_kill_the_worker() {
        let s = sched(1);
        s.submit_with(
            Box::new(|| ok("doomed")),
            Box::new(|_| panic!("completion kaboom")),
        );
        // The same (only) worker must still retire later jobs.
        let good = s.submit(Box::new(|| ok("fine")));
        assert_eq!(good.wait(), "OK fine");
        assert_eq!(s.stats().panics.load(Ordering::Relaxed), 1);
        s.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_jobs_and_is_idempotent() {
        let s = sched(1);
        let slow = s.submit(Box::new(|| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            ok("slow")
        }));
        assert_eq!(slow.wait(), "OK slow");
        s.shutdown();
        // shutdown takes &self (handlers may still hold Arc clones), so
        // the same scheduler must now reject and survive a second call.
        let rejected = s.submit(Box::new(|| ok("never")));
        assert!(rejected.wait().starts_with("ERR "));
        s.shutdown();
    }
}
