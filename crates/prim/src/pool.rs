//! The persistent worker pool behind the `par` execution layer, plus
//! thread-count capping for the strong-scaling experiments and for serial
//! execution: [`with_pool`]`(1, f)` runs every region of `f` as a plain
//! loop on the caller, and a process that never opens a wider region never
//! spawns a worker.
//!
//! ## Pool lifecycle
//!
//! * **Lazy init** — no thread is created until the first parallel region
//!   actually dispatches. The pool then spawns exactly as many workers as
//!   that region's team needs (team size minus the calling thread) and
//!   grows monotonically on demand, up to [`MAX_TEAM`]` - 1` workers.
//! * **Spin, then park** — a leader publishes its region as an *entry* (job
//!   pointer + open team slots) under the pool mutex; a worker that finds an
//!   entry with an open slot checks in, drains blocks from that region's
//!   shared atomic counter and checks out. Between regions a worker first
//!   polls an atomic mirror of the open-slot count for a short fixed *time*
//!   (the private `SPIN_BUDGET`; every miss is a `spin_loop` hint and a
//!   `yield_now`, so a pool larger than the host never starves its leader)
//!   and only then blocks on a condvar (parked by the OS, zero CPU). A
//!   solver iteration is regions separated by microseconds of serial work:
//!   inside the budget the next region finds its team awake and costs two
//!   mutex acquisitions per participant and no system call. The leader
//!   signals the condvar only for the slots that awake workers cannot
//!   cover, and after closing the door polls its job's atomic `active`
//!   count for the same budget before it blocks waiting for a worker still
//!   inside a block. Several entries coexist, so concurrent leaders each
//!   staff a **sub-team** from the workers the others have not claimed. No
//!   thread is created or torn down per region. There is one protocol, and
//!   the budget is a constant, not an option: past it the pool is as idle
//!   as a purely parked one (`tests/pool_stress.rs` measures that), and no
//!   caller in the workspace wants another value.
//! * **Cap semantics** — [`with_pool`]`(n)` does *not* control how many
//!   threads exist; it caps how many pool workers *participate* in the
//!   regions the closure runs (the calling thread counts toward `n`).
//!   Workers beyond the cap simply stay idle. The cap is thread-local,
//!   so concurrent sweeps at different sizes don't interfere.
//! * **Shutdown** — there is none: workers are detached and park forever.
//!   The Rust runtime terminates the process when `main` returns, and a
//!   condvar-parked thread costs only its stack until then. This mirrors
//!   the OpenMP runtime the paper's thread sweeps assume (a warm team
//!   living for the life of the process, spin-waiting between regions).
//!
//! ## Determinism contract
//!
//! The pool never influences *what* is computed, only *who* computes it:
//! regions decompose into the same fixed blocks regardless of the team
//! size (see [`crate::par`]), and workers claim whole blocks from one
//! atomic counter. Results are therefore bitwise-identical at every pool
//! size, pool 1 included — the property `tests/cross_backend.rs` and
//! `tests/pool_stress.rs` pin down.
//!
//! ## Concurrency semantics
//!
//! * Nested regions (a `par` call from inside a worker or leader draining
//!   a region) run serially on the calling thread — same results, no
//!   oversubscription, no deadlock.
//! * If several OS threads open regions at the same time, each leader gets
//!   its own **sub-team**: the pool staffs every concurrent region from the
//!   workers that are not already claimed by another region, growing the
//!   pool on demand (up to [`MAX_TEAM`]` - 1` workers total). Only when no
//!   worker can be freed or spawned does a leader drain its region inline
//!   on its own thread — counted by [`contended_regions`]. By the
//!   determinism contract the results are unchanged either way; only the
//!   schedule differs.
//! * A panic in any block is caught, the remaining blocks still execute
//!   (matching the previous `std::thread::scope` semantics), and the
//!   first panic payload is re-raised on the thread that opened the
//!   region. Workers survive panics and return to the idle state.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// 0 = no override (use all logical CPUs).
    static THREAD_CAP: Cell<usize> = const { Cell::new(0) };
}

/// Hard ceiling on a region's team size (leader + pool workers).
/// `with_pool` caps above this are clamped so a typo cannot fork-bomb the
/// process with idle threads.
pub const MAX_TEAM: usize = 256;

/// Number of logical CPUs a region uses when no [`with_pool`] cap is
/// installed. Read from the OS once per process: std recomputes
/// `available_parallelism` on every call (a system call or a cgroup file
/// read), and [`current_threads`] asks on every uncapped region.
pub fn max_threads() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Team size the next `par` region opened on this thread will request: the
/// `with_pool` cap if one is installed, else [`max_threads`].
pub fn current_threads() -> usize {
    let cap = THREAD_CAP.with(|c| c.get());
    if cap == 0 {
        max_threads()
    } else {
        cap.min(MAX_TEAM)
    }
}

/// Execute `body(b)` for every `b in 0..nblocks`, each exactly once, on a
/// sub-team of at most `team` participants: the calling thread plus up to
/// `team - 1` workers claimed from the persistent pool.
///
/// Unlike [`with_pool`] (which caps every region a closure opens), this
/// runs *one* region on an explicitly sized slice of the pool, and it
/// composes with other leaders: concurrent `run_region_on` calls from
/// different OS threads each staff their own sub-team from the workers the
/// others have not claimed. This is the single entry point into sub-team
/// dispatch — every `par` region arrives here (with the [`with_pool`] cap
/// as its `team`), which is how the `mis2-svc` scheduler's K
/// `with_pool(threads / K)`-capped jobs run side by side. Call it directly
/// when you manage individual regions yourself.
///
/// Degrades to a plain loop on the caller when `team <= 1` or when called
/// from inside another parallel region (no oversubscription, no deadlock),
/// with bitwise-identical results in every case. That loop is the serial
/// path: a pool of one spawns no thread and takes no lock.
pub fn run_region_on(team: usize, nblocks: usize, body: &(dyn Fn(usize) + Sync)) {
    if nblocks == 0 {
        return;
    }
    let team = team.clamp(1, MAX_TEAM).min(nblocks);
    if team >= 2 && !team::in_region() {
        team::run_region(nblocks, team, body);
        return;
    }
    for b in 0..nblocks {
        body(b);
    }
}

/// Run `f` with the `par` execution layer capped to at most `num_threads`
/// participants per region (the calling thread plus `num_threads - 1`
/// pool workers).
///
/// The cap bounds *participation*, not thread creation: the persistent
/// pool keeps every worker it has ever spawned, and workers beyond the cap
/// stay idle for the duration of `f`. All `par` parallelism inside `f`
/// (including calls in other crates of this workspace) honors the cap,
/// and — by the determinism contract of [`crate::par`] — produces results
/// identical to every other pool size. `with_pool(1, f)` is the serial
/// path: every region inside `f` runs as a plain loop on the caller.
pub fn with_pool<R: Send>(num_threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let prev = THREAD_CAP.with(|c| c.replace(num_threads.clamp(1, MAX_TEAM)));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

pub(crate) use team::in_region;
pub use team::{contended_regions, spawned_workers};

/// The persistent team: pool workers that spin briefly, then park, between
/// regions, and the check-in/check-out handshake a leader staffs a region
/// through.
mod team {
    use std::cell::Cell;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
    use std::time::{Duration, Instant};

    /// How long (wall time) an idle worker polls for the next open team
    /// slot before it parks, and how long a leader polls for its last
    /// worker to check out before it blocks. The gaps between the regions
    /// of one solver iteration (a serial restriction, a dense coarse solve,
    /// a run of short dot products) are tens of microseconds, and waking a
    /// parked thread costs from a few microseconds to a few hundred, so
    /// the budget covers most of those gaps and little more. Sized on the
    /// repo benchmark's `lib_amg`: 20 us already gives most of the gain,
    /// 100 us all but a few percent of what 1 ms gives, and past it a
    /// worker only burns CPU a shared host has other uses for. It is a
    /// constant, not an option: no caller of this workspace needs another
    /// value, and after it the pool costs zero CPU exactly as before.
    const SPIN_BUDGET: Duration = Duration::from_micros(100);

    thread_local! {
        /// Set while this thread is draining a region, so nested `par`
        /// calls degrade to serial instead of oversubscribing (or
        /// deadlocking on the single team).
        static IN_REGION: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn in_region() -> bool {
        IN_REGION.with(|c| c.get())
    }

    /// RAII for the nesting flag: regions must clear it even when a block
    /// panics on the draining thread.
    struct RegionFlag;
    impl RegionFlag {
        fn set() -> RegionFlag {
            IN_REGION.with(|c| c.set(true));
            RegionFlag
        }
    }
    impl Drop for RegionFlag {
        fn drop(&mut self) {
            IN_REGION.with(|c| c.set(false));
        }
    }

    /// One parallel region. Lives on the leader's stack; a worker only
    /// dereferences it between its check-in (`active += 1`, under the pool
    /// mutex, while the region's entry is still listed) and its check-out
    /// (`active -= 1`, its last access), and the leader does not return (or
    /// unwind) until it has unlisted the entry and then read `active == 0`.
    struct Job {
        /// Lifetime-erased pointer to the region body. Valid for the
        /// duration of the region by the check-in/check-out protocol.
        body: *const (dyn Fn(usize) + Sync),
        /// Next unclaimed block.
        next: AtomicUsize,
        nblocks: usize,
        /// Workers checked in and not yet checked out. Incremented only
        /// under the pool mutex while the entry is listed, so once the
        /// leader has unlisted the entry it can only fall. The check-out
        /// decrement is `Release` and the leader's poll `Acquire`: every
        /// write a worker made through `body` (and to `panic`) happens
        /// before the leader sees zero.
        active: AtomicUsize,
        /// First panic payload from any block, re-raised by the leader.
        panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    }

    /// Raw job pointer made `Send` so it can sit in the shared pool state.
    #[derive(Clone, Copy)]
    struct JobPtr(*const Job);
    // SAFETY: the pointer is only dereferenced by a checked-in worker (see
    // `Job`), and every field it reaches is `Sync` (atomics, a mutex, and
    // a `dyn Fn + Sync` body).
    unsafe impl Send for JobPtr {}

    /// One concurrently running region's claim on the pool: how many team
    /// slots are still open. Several entries coexist — that is what lets
    /// concurrent leaders split the pool into sub-teams instead of
    /// serializing on a single job slot.
    struct Entry {
        /// Unique (monotone) id; the leader unlists its entry by id.
        id: u64,
        job: JobPtr,
        /// Open team slots an idle worker may still claim.
        to_join: usize,
    }

    struct State {
        /// Claims of all currently running regions (usually 0 or 1 long;
        /// one per concurrent leader under scheduler load).
        entries: Vec<Entry>,
        /// Id source for entries.
        next_id: u64,
        /// Sum of `to_join` over `entries`: slots promised but unclaimed.
        /// Mirrored into [`Shared::open`] on every change.
        pending: usize,
        /// Workers currently checked in to any entry.
        busy: usize,
        /// Workers blocked on [`Shared::work`]. A worker that is neither
        /// busy nor parked is awake and re-scans `entries` under the mutex
        /// before it parks, so it cannot miss a listed slot.
        parked: usize,
        /// Leaders blocked on [`Shared::done`].
        waiting_leaders: usize,
        /// Worker threads spawned so far (monotone).
        spawned: usize,
        /// Regions that wanted helpers but got none (see
        /// [`super::contended_regions`]).
        contended: u64,
    }

    impl State {
        /// Workers that exist and are neither running a region nor already
        /// promised to one — the staffing budget for a new sub-team.
        fn free_workers(&self) -> usize {
            self.spawned - self.busy - self.pending
        }

        /// Set `pending` and publish it to the spinning workers.
        fn set_pending(&mut self, pool: &Shared, pending: usize) {
            self.pending = pending;
            pool.open.store(pending, Ordering::Relaxed);
        }

        /// Close entry `id`'s remaining slots (a no-op when the leader has
        /// already unlisted it).
        fn close_door(&mut self, pool: &Shared, id: u64) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
                let closed = std::mem::take(&mut e.to_join);
                self.set_pending(pool, self.pending - closed);
            }
        }
    }

    struct Shared {
        state: Mutex<State>,
        /// Mirror of `State::pending` that idle workers poll without the
        /// mutex. `Relaxed` everywhere: it publishes no data, only the
        /// hint "look at `entries` now" — the entry list itself is read
        /// under the mutex.
        open: AtomicUsize,
        /// Workers park here once their spin budget is spent.
        work: Condvar,
        /// Leaders park here when a worker is still inside its block
        /// after the leader's spin budget is spent.
        done: Condvar,
    }

    impl Shared {
        fn lock(&self) -> MutexGuard<'_, State> {
            // No code path panics while holding the guard (block bodies
            // run unlocked, under catch_unwind), so poisoning is a bug.
            self.state.lock().expect("pool state mutex poisoned")
        }
    }

    fn shared() -> &'static Shared {
        static POOL: OnceLock<Shared> = OnceLock::new();
        POOL.get_or_init(|| Shared {
            state: Mutex::new(State {
                entries: Vec::new(),
                next_id: 0,
                pending: 0,
                busy: 0,
                parked: 0,
                waiting_leaders: 0,
                spawned: 0,
                contended: 0,
            }),
            open: AtomicUsize::new(0),
            work: Condvar::new(),
            done: Condvar::new(),
        })
    }

    /// Number of persistent workers the process-wide pool has spawned so
    /// far. Zero until the first region with a team of two or more
    /// dispatches (lazy init), so zero for a process that only ever runs
    /// under `with_pool(1)`. Grows monotonically, never shrinks.
    pub fn spawned_workers() -> usize {
        shared().lock().spawned
    }

    /// Number of regions (since process start) that wanted helpers but
    /// drained entirely inline because every pool worker was claimed by
    /// other regions and no new worker could be spawned. With sub-team
    /// dispatch this stays at zero under ordinary concurrent load — it
    /// climbs only when the [`super::MAX_TEAM`] ceiling (or OS thread
    /// exhaustion) forces the old winner-takes-all fallback.
    pub fn contended_regions() -> u64 {
        shared().lock().contended
    }

    /// Poll `ready` until it holds or `deadline` passes; returns whether
    /// it held. Every miss yields the CPU: on a pool larger than the host
    /// the thread being waited for may need this very core.
    fn spin_until(deadline: Instant, ready: impl Fn() -> bool) -> bool {
        loop {
            if ready() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    /// Claim blocks from the shared counter until none remain. A panic in
    /// a block is recorded (first wins) and draining continues — the same
    /// observable behavior the old `std::thread::scope` backend had, where
    /// sibling workers kept running and the panic surfaced at join.
    fn drain(job: &Job) {
        // SAFETY: the leader keeps `job.body` alive until every checked-in
        // worker (and itself) has finished draining.
        let body = unsafe { &*job.body };
        loop {
            let b = job.next.fetch_add(1, Ordering::Relaxed);
            if b >= job.nblocks {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(b))) {
                let mut slot = job.panic.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }

    /// Body of every persistent worker: check in to any region that has an
    /// open team slot, drain, check out; with no slot open, poll
    /// [`Shared::open`] for [`SPIN_BUDGET`], then park on the condvar.
    /// With several entries live at once a worker simply serves whichever
    /// region it finds first — the sub-teams of concurrent leaders are
    /// staffed from one shared set of workers.
    fn worker_loop() {
        let pool = shared();
        // When this idle spell's spin budget runs out. One budget per
        // spell: losing the race for a slot does not restart it, so
        // workers beyond a long series of small-cap regions still park.
        let mut spin_deadline: Option<Instant> = None;
        let mut st = pool.lock();
        loop {
            let Some(idx) = st.entries.iter().position(|e| e.to_join > 0) else {
                let deadline = *spin_deadline.get_or_insert_with(|| Instant::now() + SPIN_BUDGET);
                drop(st);
                let seen = spin_until(deadline, || pool.open.load(Ordering::Relaxed) > 0);
                st = pool.lock();
                if !seen && st.pending == 0 {
                    // Decided under the mutex: a leader that lists a slot
                    // after this sees us in `parked` and notifies.
                    st.parked += 1;
                    st = pool.work.wait(st).expect("pool state mutex poisoned");
                    st.parked -= 1;
                    spin_deadline = None;
                }
                continue;
            };
            // Open slot found: check in.
            let id = st.entries[idx].id;
            let job = st.entries[idx].job;
            st.entries[idx].to_join -= 1;
            let pending = st.pending - 1;
            st.set_pending(pool, pending);
            st.busy += 1;
            // SAFETY: the entry is listed and we hold the mutex, so the
            // leader has not yet unlisted it and is still inside
            // `run_region`: the `Job` is alive.
            unsafe { &*job.0 }.active.fetch_add(1, Ordering::Relaxed);
            drop(st);
            {
                let _flag = RegionFlag::set();
                // SAFETY: checked in above — the leader cannot leave
                // `run_region` until our check-out below.
                drain(unsafe { &*job.0 });
            }
            spin_deadline = None;
            st = pool.lock();
            st.busy -= 1;
            // drain() only returns once every block is claimed, so close
            // the door: a sibling joining now could only make a no-op pass
            // over the exhausted counter.
            st.close_door(pool, id);
            // Check out. SAFETY: still checked in until this decrement,
            // which is the last access to the `Job` — the leader may free
            // it the moment it reads zero.
            let last = unsafe { &*job.0 }.active.fetch_sub(1, Ordering::Release) == 1;
            if last && st.waiting_leaders > 0 {
                pool.done.notify_all();
            }
        }
    }

    /// List `job` with up to `helpers` team slots, staffed from workers
    /// not claimed by other regions and lazily spawning new ones (up to
    /// the global [`super::MAX_TEAM`]` - 1` ceiling). Returns the entry id
    /// and how many parked workers must be woken to fill the slots that
    /// awake workers cannot cover, or `None` when every worker is taken
    /// and none can be spawned — the caller then drains alone (the
    /// contended fallback, counted).
    fn dispatch(pool: &'static Shared, job: &Job, helpers: usize) -> Option<(u64, usize)> {
        let mut st = pool.lock();
        while st.free_workers() < helpers && st.spawned < super::MAX_TEAM - 1 {
            let spawned = std::thread::Builder::new()
                .name(format!("mis2-par-{}", st.spawned))
                .spawn(worker_loop);
            match spawned {
                Ok(_) => st.spawned += 1,
                // Resource exhaustion: run with the team we have.
                Err(_) => break,
            }
        }
        let slots = helpers.min(st.free_workers());
        if slots == 0 {
            st.contended += 1;
            return None;
        }
        st.next_id += 1;
        let id = st.next_id;
        st.entries.push(Entry {
            id,
            job: JobPtr(job),
            to_join: slots,
        });
        let pending = st.pending + slots;
        st.set_pending(pool, pending);
        // Awake idle workers (spinning, just spawned, or between a
        // check-out and their next scan) each take an open slot without
        // being told; only the slots beyond them need a parked worker.
        let awake = st.spawned - st.busy - st.parked;
        let wakes = st.pending.saturating_sub(awake).min(st.parked);
        Some((id, wakes))
    }

    /// Retire entry `id`: unlist it, which closes the door to late
    /// joiners, then wait — polling for [`SPIN_BUDGET`], after that
    /// blocked on `done` — until every checked-in worker has checked out.
    /// Only after this may the `Job` (on the leader's stack) be dropped.
    fn retire(pool: &'static Shared, id: u64, job: &Job) {
        {
            let mut st = pool.lock();
            let i = st.entries.iter().position(|e| e.id == id);
            let unclaimed = st
                .entries
                .swap_remove(i.expect("own entry is listed"))
                .to_join;
            let pending = st.pending - unclaimed;
            st.set_pending(pool, pending);
        }
        let checked_out = || job.active.load(Ordering::Acquire) == 0;
        if spin_until(Instant::now() + SPIN_BUDGET, checked_out) {
            return;
        }
        let mut st = pool.lock();
        st.waiting_leaders += 1;
        // The last check-out decrements and tests `waiting_leaders` under
        // this mutex, so it either precedes this check or notifies.
        while !checked_out() {
            st = pool.done.wait(st).expect("pool state mutex poisoned");
        }
        st.waiting_leaders -= 1;
    }

    /// Execute `body(b)` for every `b in 0..nblocks`, each exactly once,
    /// on a sub-team of at most `team` threads (the caller plus pool
    /// workers). Reached through [`super::run_region_on`] by every region
    /// with a team of two or more.
    pub(crate) fn run_region(nblocks: usize, team: usize, body: &(dyn Fn(usize) + Sync)) {
        debug_assert!(team >= 2 && nblocks > 0 && !in_region());
        let job = Job {
            // SAFETY: lifetime erasure only — the pointer never outlives
            // this call (see `retire`).
            body: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(body)
            },
            next: AtomicUsize::new(0),
            nblocks,
            active: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let pool = shared();
        let helpers = team.min(super::MAX_TEAM) - 1;
        let ticket = dispatch(pool, &job, helpers);
        // A notification landing on no waiter (the worker it was counted
        // for woke on its own) is simply lost, which is fine: the leader
        // drains every block itself regardless, so a missed wake can only
        // cost parallelism, never progress.
        if let Some((_, wakes)) = ticket {
            for _ in 0..wakes {
                pool.work.notify_one();
            }
        }
        {
            // The leader always participates; with the pool fully claimed
            // elsewhere it simply drains every block itself — identical
            // results.
            let _flag = RegionFlag::set();
            drain(&job);
        }
        if let Some((id, _)) = ticket {
            retire(pool, id, &job);
        }
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_size_is_respected() {
        assert_eq!(with_pool(3, current_threads), 3);
    }

    #[test]
    fn cap_is_restored_after_with_pool() {
        let ambient = current_threads();
        with_pool(2, || {
            with_pool(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 2);
        });
        assert_eq!(current_threads(), ambient);
    }

    #[test]
    fn oversized_cap_is_clamped() {
        assert_eq!(with_pool(1_000_000, current_threads), MAX_TEAM);
    }

    #[test]
    fn single_thread_pool_works() {
        let sum = with_pool(1, || {
            crate::par::map_reduce(
                &(0..1000u64).collect::<Vec<_>>(),
                |&x| x,
                0u64,
                |a, b| a + b,
            )
        });
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn max_threads_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn run_region_on_visits_every_block_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for team in [1usize, 2, 4] {
            for nblocks in [0usize, 1, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..nblocks).map(|_| AtomicUsize::new(0)).collect();
                run_region_on(team, nblocks, &|b| {
                    hits[b].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "team {team}, nblocks {nblocks}"
                );
            }
        }
    }

    #[test]
    fn concurrent_sub_teams_all_complete() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Several leaders running regions at once on explicit sub-teams:
        // every block of every region must still run exactly once, and —
        // with the pool free to grow — nobody should be forced into the
        // contended inline-drain fallback.
        let before = contended_regions();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
                        run_region_on(3, 32, &|b| {
                            hits[b].fetch_add(1, Ordering::Relaxed);
                        });
                        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                    }
                });
            }
        });
        assert_eq!(
            contended_regions(),
            before,
            "sub-team dispatch must staff concurrent leaders without inline drains"
        );
    }

    #[test]
    fn workers_are_lazy_and_bounded() {
        // Other tests in this binary may already have dispatched regions,
        // so only monotone properties can be asserted.
        let before = spawned_workers();
        assert!(before < MAX_TEAM);
        let n = 100_000usize;
        let got = with_pool(3, || {
            crate::par::map_range(0..n, |i| crate::hash::splitmix64(i as u64))
        });
        assert_eq!(got.len(), n);
        let after = spawned_workers();
        assert!(after >= before, "pool must never shrink");
        assert!(after >= 1, "a region at cap 3 must have spawned a worker");
        assert!(after < MAX_TEAM);
    }
}
