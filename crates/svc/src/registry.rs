//! The graph registry: a **memory-bounded, cost-aware evicting cache** of
//! interned graphs and their derived artifacts, each artifact with its
//! **serialized response bytes**.
//!
//! Graphs (suite workloads built at the registry's [`Scale`], or `.mtx`
//! files) are interned behind `Arc<CsrGraph>`; every derived artifact
//! (MIS-2 result, coarse hierarchy, solve result) is cached by
//! `(graph ref, `[`OpKey`]`)`; and the artifact's entry also holds its
//! rendered response body ([`RespBytes`]) once a response has been
//! served, so a repeat request on either protocol is answered without
//! re-serializing the artifact — the writer copies the shared `Arc`'d
//! bytes into its batch buffer.
//!
//! Everything resident for one graph lives in one **slot**, found by one
//! hash of the graph key: the graph while it is interned, and its
//! artifacts (a handful per graph, scanned). That is what makes a repeat
//! cheap: [`Registry::probe`] takes the graph token and [`OpKey`] borrowed
//! from the request line, takes one lock, resolves a `.mtx` spelling
//! through the alias memo under it, finds the slot, stamps the artifact
//! and the graph, bumps `hits` / `resp_hits` under the same lock, and
//! hands the shared bytes to the caller's closure under that lock — no
//! allocation, no clone of the key, and no clone of the bytes' `Arc`
//! when the caller copies them straight onto its wire batch.
//!
//! ## Cache semantics
//!
//! * **Single-flight everywhere.** Graph interning and artifact
//!   computation share one in-flight protocol (`Registry::claim`): of N
//!   concurrent requests for a cold key, exactly one builds/computes
//!   while the rest wait on the in-flight marker — a cold burst for one
//!   graph pays **one** build (`graph_builds` counts the real builds).
//!   The marker is cleared by a panic-safe drop guard, so a failed or
//!   panicked flight never parks later requests forever; the next waiter
//!   simply takes over.
//! * **Canonical keys.** `.mtx` paths are canonicalized before keying
//!   ([`GraphRef::try_canonical`]), so `./g.mtx` and `g.mtx` intern one
//!   graph. Successful resolutions are memoized, so a spelling pays the
//!   filesystem lookup once and an interned graph keeps serving all its
//!   known spellings even after the backing file is deleted.
//! * **Computation happens outside the cache lock**, so a slow build never
//!   blocks requests for other graphs.
//! * **Derivation: a compute starts from what is already here.** Before a
//!   flight computes, it probes the op's [`OpKey::priors`] of the same
//!   graph in order (for `COARSEN n`: `COARSEN n-1` … `COARSEN 2`, then
//!   `MIS2`) and hands the first one found to [`ops::compute_from`]; the
//!   registry knows nothing else about what an op means. The rule is
//!   **resident-only** — the probe runs under the lock the miss already
//!   holds, never waits on another flight and never enters the
//!   single-flight path, so there is no new lock order; it **refreshes no
//!   LRU stamp** and bumps neither `hits` nor `misses` (the longer
//!   hierarchy contains the shorter, so the shorter stays the next
//!   victim; each request still bumps exactly one counter); and it leaves
//!   **bytes unchanged** — a derived artifact equals a from-scratch one
//!   bit for bit and is charged the same `heap_bytes()`. The prior's `Arc`
//!   is held across the compute (pinned, like the graph) and dropped
//!   before the insert. `derived` counts these computes. A prior still in
//!   flight is not resident: a client that pipelines `MIS2 g` and
//!   `COARSEN g 2` in one window gets the derived or the from-scratch
//!   compute by whichever worker finishes first (0 to 3 of 6 derived in a
//!   pipelined pass over six suite graphs) — the same reply at a different
//!   cost. A client that wants the saving waits for the first reply, as a
//!   session of dependent requests does anyway.
//! * **Memory budget.** [`Registry::with_budget`] bounds the approximate
//!   heap bytes of everything cached (`heap_bytes()` on [`CsrGraph`] and
//!   [`Artifact`]; 0 = unbounded, the [`Registry::new`] default). When an
//!   insert pushes `bytes` over the budget, entries are evicted until it
//!   fits again. Outside the budget, each scheduler leader (at most
//!   `min(4, threads)`) keeps Algorithm 1's work arrays from its last
//!   MIS-2 run, about 60 bytes per vertex; a `Vec` never shrinks, so that
//!   is of the largest graph the leader has run MIS-2 on.
//! * **Cost-aware segmented LRU eviction.** Victims are chosen from two
//!   segments in order: *artifacts* (cheap to recompute from their
//!   still-interned graph), then *graphs* (a rebuild pays file I/O or
//!   generation, and usually invalidates nothing — artifacts outlive
//!   their graph's eviction). A response's bytes live in its artifact's
//!   entry and are charged there, so they leave only with that artifact
//!   — one eviction — and a key still resident keeps answering from its
//!   bytes under any pressure. Within a segment the least-recently-used
//!   entry goes first. **Pinned entries are never dropped mid-use**: an
//!   entry whose `Arc` is still shared (in-flight compute, a response
//!   being rendered, a caller-held handle) is skipped, so `bytes` can
//!   transiently exceed the budget under concurrent load but settles back
//!   under it as handles drop (`stats()` re-enforces the budget before
//!   reporting). A held `Arc<RespBytes>` pins nothing: the bytes outlive
//!   their artifact's eviction in the holder's hands, and the cache stops
//!   serving them.
//! * **Determinism is unaffected.** Every operation is deterministic, so
//!   a hit, a recompute after eviction, and a fresh compute are observably
//!   identical — the budget can change latency and the `evictions` /
//!   `graph_builds` / `misses` counters, never a response byte.

use crate::ops::{self, Artifact, OpKey};
use crate::proto::{self, GraphRef};
use mis2_graph::{io, suite, CsrGraph, Scale};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Snapshot of the registry's counters for `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Graphs interned right now.
    pub graphs: usize,
    /// Artifacts cached right now.
    pub artifacts: usize,
    /// Artifact-cache hits.
    pub hits: u64,
    /// Artifact-cache misses (each one paid a compute).
    pub misses: u64,
    /// Computes that started from a resident artifact; a subset of
    /// `misses`.
    pub derived: u64,
    /// Approximate heap bytes of everything cached right now.
    pub bytes: usize,
    /// Memory budget in bytes (0 = unbounded).
    pub mem_budget: usize,
    /// Entries (graphs + artifacts) evicted so far.
    pub evictions: u64,
    /// Graphs actually built/loaded (interning is single-flight, so a
    /// cold burst of N identical requests bumps this by exactly 1).
    pub graph_builds: u64,
    /// Artifact entries holding interned response bytes right now.
    pub resp: usize,
    /// Approximate heap bytes of those response bytes (a subset of
    /// `bytes`).
    pub resp_bytes: usize,
    /// Requests answered straight from interned response bytes — every
    /// `resp_hits` is also counted in `hits` (the artifact was logically
    /// reused), so `hits + misses` still equals the request count.
    pub resp_hits: u64,
}

/// The interned serialized response for one `(graph, op)` key: the body
/// text (everything after `OK `) as ready-to-send bytes, plus the wire
/// token it was rendered with. Response bodies embed the client's graph
/// spelling ([`GraphRef::token`]); cache keys are canonical — so a hit
/// under a *different* spelling of the same graph must re-render (token
/// mismatch), replacing the entry. In practice clients reuse one
/// spelling and every repeat is a zero-serialization hit.
pub struct RespBytes {
    /// The wire token the body embeds.
    pub token: String,
    /// The response body, ready for the wire.
    pub body: Box<[u8]>,
}

impl RespBytes {
    /// Approximate heap footprint charged against the memory budget.
    pub fn heap_bytes(&self) -> usize {
        self.token.capacity() + self.body.len()
    }
}

type ArtifactKey = (GraphRef, OpKey);

/// Maximum memoized `.mtx` spelling resolutions (see `State::aliases`).
const ALIAS_CAP: usize = 1024;

/// One cached value with its byte cost and LRU stamp.
struct Entry<T> {
    value: Arc<T>,
    /// The value's bytes plus those of `resp`.
    bytes: usize,
    last_used: u64,
    /// An artifact's interned response bytes, once rendered; always
    /// `None` on a graph. No in-flight marker: rendering from a cached
    /// artifact is cheap enough that a rare concurrent double-render
    /// (last insert wins, bytes identical) beats another wait/notify
    /// protocol.
    resp: Option<Arc<RespBytes>>,
}

impl<T> Entry<T> {
    fn new(value: &Arc<T>, bytes: usize, last_used: u64) -> Entry<T> {
        Entry {
            value: Arc::clone(value),
            bytes,
            last_used,
            resp: None,
        }
    }

    /// Evictable iff the registry holds the only reference to the value
    /// — an `Arc` shared with an in-flight compute or a caller is pinned
    /// and must not be dropped mid-use.
    fn evictable(&self) -> bool {
        Arc::strong_count(&self.value) == 1
    }

    /// The interned bytes, if they were rendered with the wire `token`
    /// (response bodies echo the client's spelling).
    fn resp_for(&self, token: &str) -> Option<&Arc<RespBytes>> {
        self.resp.as_ref().filter(|r| r.token == token)
    }
}

/// Everything resident under one graph key: the graph while it is
/// interned, and its artifacts, each with its response bytes. One hash of
/// the key finds all of them. Artifacts outlive their graph's eviction,
/// and a slot goes only when both are gone.
#[derive(Default)]
struct Slot {
    graph: Option<Entry<CsrGraph>>,
    /// One per op asked of the graph (a handful), so a scan beats a map.
    artifacts: Vec<(OpKey, Entry<Artifact>)>,
}

impl Slot {
    fn artifact_mut(&mut self, op: &OpKey) -> Option<&mut Entry<Artifact>> {
        self.artifacts
            .iter_mut()
            .find(|(k, _)| k == op)
            .map(|(_, e)| e)
    }

    /// A use of `op`'s artifact: `read` its entry and, if that yields,
    /// stamp the artifact and the graph with `tick`. A graph answered
    /// purely through its artifacts must not look LRU-coldest and be
    /// evicted first (the hottest tenant paying the rebuilds).
    fn use_artifact<R>(
        &mut self,
        op: &OpKey,
        tick: u64,
        read: impl FnOnce(&Entry<Artifact>) -> Option<R>,
    ) -> Option<R> {
        let (_, e) = self.artifacts.iter_mut().find(|(k, _)| k == op)?;
        let r = read(e)?;
        e.last_used = tick;
        if let Some(g) = &mut self.graph {
            g.last_used = tick;
        }
        Some(r)
    }

    /// `(stamp, index)` of each evictable entry in one segment: the
    /// artifacts (by index) or the graph (`None`).
    fn evictable(&self, artifacts: bool) -> impl Iterator<Item = (u64, Option<usize>)> + '_ {
        let graph = (self.graph.iter())
            .filter(move |_| !artifacts)
            .map(|e| (e.last_used, e.evictable(), None));
        let arts = (self.artifacts.iter().enumerate())
            .filter(move |_| artifacts)
            .map(|(i, (_, e))| (e.last_used, e.evictable(), Some(i)));
        graph
            .chain(arts)
            .filter(|&(_, evictable, _)| evictable)
            .map(|(stamp, _, index)| (stamp, index))
    }

    /// Remove the entry [`Slot::evictable`] named, returning its bytes.
    fn remove(&mut self, index: Option<usize>) -> usize {
        match index {
            Some(i) => self.artifacts.swap_remove(i).1.bytes,
            None => self.graph.take().map_or(0, |e| e.bytes),
        }
    }

    fn is_empty(&self) -> bool {
        self.graph.is_none() && self.artifacts.is_empty()
    }
}

/// The registry's counters, bumped under the lock together with the
/// change they count.
#[derive(Default)]
struct Counts {
    hits: u64,
    misses: u64,
    derived: u64,
    evictions: u64,
    graph_builds: u64,
    resp_hits: u64,
}

/// The slots plus the keys currently being built (single-flight), under
/// one lock so the byte accounting and eviction see a consistent view.
struct State {
    /// One map per [`GraphRef`] kind (suite names at 0, `.mtx` paths at
    /// 1; see [`kind`]), keyed by the canonical token, so a probe hashes
    /// the `&str` it was handed and clones nothing.
    slots: [HashMap<String, Slot>; 2],
    /// The keys being built or computed right now (single-flight).
    inflight: HashSet<FlightKey>,
    /// Memoized `.mtx` spelling → canonical key resolutions (successful
    /// ones only). Keeps every known `.mtx` spelling serving cache hits
    /// with no per-request `fs::canonicalize` syscall — and keeps serving
    /// them even after the backing file vanishes, like any resident
    /// entry. Capped at [`ALIAS_CAP`] entries (cleared wholesale when
    /// full): the memo is a pure performance/resilience cache, and
    /// spellings are client-controlled, so letting it grow unbounded would
    /// reopen the very memory hole the budget closes.
    aliases: HashMap<String, GraphRef>,
    /// Sum of `bytes` over every entry.
    bytes: usize,
    /// Monotonic access clock for LRU stamps.
    tick: u64,
    counts: Counts,
}

/// The index of a key's kind in [`State::slots`].
fn kind(key: &GraphRef) -> usize {
    matches!(key, GraphRef::Mtx(_)) as usize
}

impl State {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The slot of a canonical key.
    fn slot_mut(&mut self, key: &GraphRef) -> Option<&mut Slot> {
        self.slots[kind(key)].get_mut(key.token())
    }

    /// The slot a request's graph spelling names: a suite name is its own
    /// key, and a `.mtx` spelling resolves through the alias memo only.
    fn spelled_slot_mut(&mut self, mtx: bool, token: &str) -> Option<&mut Slot> {
        if !mtx {
            return self.slots[0].get_mut(token);
        }
        let canon = self.aliases.get(token)?;
        self.slots[kind(canon)].get_mut(canon.token())
    }

    /// The slot of a canonical key, created empty if absent.
    fn slot_entry(&mut self, key: &GraphRef) -> &mut Slot {
        self.slots[kind(key)]
            .entry(key.token().to_string())
            .or_default()
    }

    /// Count a byte hit: every `resp_hits` is also a hit (the artifact
    /// was logically reused).
    fn counted<R>(&mut self, hit: Option<R>) -> Option<R> {
        if hit.is_some() {
            self.counts.hits += 1;
            self.counts.resp_hits += 1;
        }
        hit
    }
}

/// See the module docs.
pub struct Registry {
    scale: Scale,
    /// Byte budget; 0 = unbounded.
    budget: usize,
    state: Mutex<State>,
    /// Signaled whenever an in-flight build/compute finishes (either way).
    inflight_done: Condvar,
}

/// Remove the least-recently-used *evictable* entry of one cache
/// segment (artifacts or graphs) across all slots, returning the bytes it
/// freed (`None`: empty or all pinned); a slot left empty goes with it.
/// Stamps are unique within a segment, so the victim does not depend on
/// the maps' iteration order. An O(n) scan — cache cardinality is the
/// tenant/workload count, not the graph size, so scanning under the lock
/// stays cheaper than maintaining an order structure that must also skip
/// pinned entries.
fn pop_lru(slots: &mut [HashMap<String, Slot>; 2], artifacts: bool) -> Option<usize> {
    let (k, key, index) = slots
        .iter()
        .enumerate()
        .flat_map(|(k, map)| map.iter().map(move |(key, slot)| (k, key, slot)))
        .flat_map(|(k, key, slot)| {
            slot.evictable(artifacts)
                .map(move |(stamp, index)| (stamp, k, key, index))
        })
        .min_by_key(|&(stamp, ..)| stamp)
        .map(|(_, k, key, index)| (k, key.clone(), index))?;
    let slot = slots[k].get_mut(&key)?;
    let freed = slot.remove(index);
    if slot.is_empty() {
        slots[k].remove(&key);
    }
    Some(freed)
}

/// What a flight builds: a graph (`None`) or one of its artifacts.
type FlightKey = (GraphRef, Option<OpKey>);

/// Drop guard clearing an in-flight marker even if the build panics (a
/// leaked marker would park every later request for this key forever; the
/// scheduler catches job panics, so the process lives on).
struct Flight<'a> {
    reg: &'a Registry,
    key: FlightKey,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.reg.state.lock().unwrap().inflight.remove(&self.key);
        self.reg.inflight_done.notify_all();
    }
}

/// How [`Registry::claim`] ended: the cache held it, or this caller
/// builds it (the lock, still held, and the flight).
enum Claim<'a, R> {
    Resident(R),
    Ours(MutexGuard<'a, State>, Flight<'a>),
}

impl Registry {
    /// An unbounded registry whose suite workloads build at `scale`.
    pub fn new(scale: Scale) -> Registry {
        Registry::with_budget(scale, 0)
    }

    /// A registry bounding its cached bytes to `mem_budget` (0 =
    /// unbounded). See the module docs for the eviction policy.
    pub fn with_budget(scale: Scale, mem_budget: usize) -> Registry {
        Registry {
            scale,
            budget: mem_budget,
            state: Mutex::new(State {
                slots: Default::default(),
                inflight: HashSet::new(),
                aliases: HashMap::new(),
                bytes: 0,
                tick: 0,
                counts: Counts::default(),
            }),
            inflight_done: Condvar::new(),
        }
    }

    /// The scale suite workloads are built at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The memory budget in bytes (0 = unbounded).
    pub fn mem_budget(&self) -> usize {
        self.budget
    }

    /// Resolve a request's graph reference to its cache key, memoizing
    /// successful `.mtx` resolutions. The memo means a spelling pays the
    /// `fs::canonicalize` syscall once, not per request — and once a graph
    /// is interned, its known spellings keep hitting the cache even after
    /// the backing file is deleted (resident entries don't need the
    /// file). Failed resolutions are *not* memoized (the file may appear
    /// later) and fall back to the literal spelling.
    fn canon_key(&self, gref: &GraphRef) -> GraphRef {
        let GraphRef::Mtx(path) = gref else {
            return gref.clone();
        };
        if let Some(k) = self.state.lock().unwrap().aliases.get(path) {
            return k.clone();
        }
        match gref.try_canonical() {
            Some(canon) => {
                let mut st = self.state.lock().unwrap();
                if st.aliases.len() >= ALIAS_CAP {
                    // Wholesale reset: the memo only saves a syscall per
                    // request, and evicting precisely would need its own
                    // LRU machinery for what is client-controlled input.
                    st.aliases.clear();
                }
                st.aliases.insert(path.clone(), canon.clone());
                canon
            }
            None => gref.clone(),
        }
    }

    /// The single-flight protocol, written once: under the lock,
    /// `resident` looks in the cache; on a miss the first caller claims
    /// `key` and builds, and every other caller waits for that flight to
    /// end (either way) and looks again.
    fn claim<R>(
        &self,
        key: FlightKey,
        mut resident: impl FnMut(&mut State) -> Option<R>,
    ) -> Claim<'_, R> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(r) = resident(&mut st) {
                return Claim::Resident(r);
            }
            if st.inflight.insert(key.clone()) {
                return Claim::Ours(st, Flight { reg: self, key });
            }
            st = self.inflight_done.wait(st).unwrap();
        }
    }

    /// Intern (load or generate) a graph, single-flight: a cold burst of N
    /// identical requests pays exactly one build.
    pub fn graph(&self, gref: &GraphRef) -> Result<Arc<CsrGraph>, String> {
        let key = self.canon_key(gref);
        self.graph_canonical(key)
    }

    /// [`Registry::graph`] on an already-canonical key. Canonicalization
    /// happens exactly once per request, at the public entry points: a
    /// second `fs::canonicalize` here could resolve differently (the path
    /// re-pointed between the two calls) and file an artifact computed
    /// from one file under another file's key.
    fn graph_canonical(&self, key: GraphRef) -> Result<Arc<CsrGraph>, String> {
        let claim = self.claim((key.clone(), None), |st| {
            let tick = st.next_tick();
            let e = st.slot_mut(&key)?.graph.as_mut()?;
            e.last_used = tick;
            Some(Arc::clone(&e.value))
        });
        let _flight = match claim {
            Claim::Resident(g) => return Ok(g),
            Claim::Ours(_st, flight) => flight, // the lock drops here
        };
        let built = match &key {
            GraphRef::Suite(name) => suite::try_build(name, self.scale)?,
            GraphRef::Mtx(path) => match io::read_graph_file(path) {
                Ok(g) => g,
                Err(e) => {
                    // The canonical path no longer reads (file deleted or
                    // a symlink repointed after the graph was evicted):
                    // drop every memoized spelling for it, so the next
                    // request re-canonicalizes fresh instead of being
                    // parked on this dead resolution forever.
                    self.state
                        .lock()
                        .unwrap()
                        .aliases
                        .retain(|_, canon| canon != &key);
                    return Err(format!("cannot read {path}: {e}"));
                }
            },
        };
        let bytes = built.heap_bytes();
        let value = Arc::new(built);
        let mut st = self.state.lock().unwrap();
        let tick = st.next_tick();
        st.bytes += bytes;
        st.counts.graph_builds += 1;
        st.slot_entry(&key).graph = Some(Entry::new(&value, bytes, tick));
        self.enforce_budget(&mut st);
        Ok(value)
    }

    /// Get or compute the artifact for `(graph, op)`, single-flight: of N
    /// concurrent requests for a cold key, exactly one computes while the
    /// others wait for its insert (or for its failure, in which case the
    /// next waiter takes over the compute).
    pub fn artifact(&self, gref: &GraphRef, op: &OpKey) -> Result<Arc<Artifact>, String> {
        let key = (self.canon_key(gref), *op);
        self.artifact_keyed(key)
    }

    /// [`Registry::artifact`] on an already-canonical key — same contract
    /// as [`Registry::graph_canonical`]: canonicalization happens exactly
    /// once per request, at the public entry points.
    fn artifact_keyed(&self, key: ArtifactKey) -> Result<Arc<Artifact>, String> {
        let (graph, op) = &key;
        let claim = self.claim((graph.clone(), Some(*op)), |st| {
            let tick = st.next_tick();
            let s = st.slot_mut(graph)?;
            let value = s.use_artifact(op, tick, |e| Some(Arc::clone(&e.value)))?;
            st.counts.hits += 1;
            Some(value)
        });
        let (mut st, _flight) = match claim {
            Claim::Resident(value) => return Ok(value),
            Claim::Ours(st, flight) => (st, flight),
        };
        // The derivation rule (module docs): the first of the op's priors
        // that is resident right now, as found — no stamp, no counter, no
        // wait.
        let prior = st.slot_mut(graph).and_then(|s| {
            op.priors()
                .iter()
                .find_map(|p| s.artifact_mut(p).map(|e| Arc::clone(&e.value)))
        });
        drop(st);
        let g = self.graph_canonical(graph.clone())?;
        let computed = ops::compute_from(&g, op, prior.as_deref());
        let derived = prior.is_some();
        // Unpin the prior before the insert, so that this insert may
        // already evict it.
        drop(prior);
        let bytes = computed.heap_bytes();
        let value = Arc::new(computed);
        let mut st = self.state.lock().unwrap();
        let tick = st.next_tick();
        st.bytes += bytes;
        st.counts.misses += 1;
        st.counts.derived += derived as u64;
        st.slot_entry(graph)
            .artifacts
            .push((*op, Entry::new(&value, bytes, tick)));
        self.enforce_budget(&mut st);
        Ok(value)
    }

    /// Probe the interned response bytes for `(graph, op)`: `Some` iff the
    /// artifact's entry holds bytes rendered with this request's wire
    /// token (response bodies echo the client's spelling). A hit counts in
    /// `hits` (the artifact was logically reused) and in `resp_hits`, and
    /// refreshes the artifact's and the graph's LRU stamps, so a key
    /// served purely through byte hits never looks cold.
    ///
    /// One lock, one hash of the graph key, no allocation: the artifact
    /// and its graph share one slot, a `.mtx` spelling resolves through
    /// the alias memo inside the same lock, and the counters are bumped
    /// under it. A spelling the registry has not resolved yet is a miss:
    /// resolving it is a filesystem call, which belongs to the miss path
    /// ([`Registry::response`]).
    pub fn try_response(&self, gref: &GraphRef, op: &OpKey) -> Option<Arc<RespBytes>> {
        self.probe_spelled(
            matches!(gref, GraphRef::Mtx(_)),
            gref.token(),
            op,
            Arc::clone,
        )
    }

    /// [`Registry::try_response`] on a graph token as a request line
    /// spells it ([`crate::proto::RequestView`]), classified the way
    /// [`GraphRef::parse`] classifies it: a connection's inline hit path.
    /// A hit hands the interned bytes to `hit` under the registry lock
    /// and returns what it returns, so a caller that copies the bytes out
    /// (the epoll loop frames them straight into its wire batch) clones
    /// no `Arc`. `hit` must not block or call into the registry.
    pub fn probe<R>(
        &self,
        graph: &str,
        op: &OpKey,
        hit: impl FnOnce(&Arc<RespBytes>) -> R,
    ) -> Option<R> {
        self.probe_spelled(proto::names_file(graph), graph, op, hit)
    }

    fn probe_spelled<R>(
        &self,
        mtx: bool,
        token: &str,
        op: &OpKey,
        hit: impl FnOnce(&Arc<RespBytes>) -> R,
    ) -> Option<R> {
        let mut st = self.state.lock().unwrap();
        let tick = st.next_tick();
        let r = st
            .spelled_slot_mut(mtx, token)
            .and_then(|s| s.use_artifact(op, tick, |e| e.resp_for(token).map(hit)));
        st.counted(r)
    }

    /// [`Registry::try_response`] on an already-canonical key.
    fn try_response_keyed(&self, key: &ArtifactKey, token: &str) -> Option<Arc<RespBytes>> {
        let mut st = self.state.lock().unwrap();
        let tick = st.next_tick();
        let hit = st
            .slot_mut(&key.0)
            .and_then(|s| s.use_artifact(&key.1, tick, |e| e.resp_for(token).cloned()));
        st.counted(hit)
    }

    /// Get or render the interned response bytes for `(graph, op)`. A miss
    /// goes through the artifact cache (hit or single-flight compute, with
    /// the usual counters), renders the body once, and stores it in the
    /// artifact's entry, charged in that entry's bytes. Every request bumps
    /// exactly one of `hits`/`misses`, whichever cache level served it, so
    /// the `hits + misses == requests` invariant is unchanged.
    pub fn response(&self, gref: &GraphRef, op: &OpKey) -> Result<Arc<RespBytes>, String> {
        let key = (self.canon_key(gref), *op);
        if let Some(r) = self.try_response_keyed(&key, gref.token()) {
            return Ok(r);
        }
        // Held until the bytes are in its entry: a pinned artifact cannot
        // be evicted in between.
        let artifact = self.artifact_keyed(key.clone())?;
        let body = ops::body(gref.token(), op, &artifact);
        let value = Arc::new(RespBytes {
            token: gref.token().to_string(),
            body: body.into_bytes().into_boxed_slice(),
        });
        let mut st = self.state.lock().unwrap();
        if let Some(e) = st.slot_mut(&key.0).and_then(|s| s.artifact_mut(op)) {
            // Replacing bytes (token mismatch or a concurrent render)
            // takes the old charge away with them.
            let old = e
                .resp
                .replace(Arc::clone(&value))
                .map_or(0, |r| r.heap_bytes());
            e.bytes = e.bytes - old + value.heap_bytes();
            st.bytes = st.bytes - old + value.heap_bytes();
            self.enforce_budget(&mut st);
        }
        Ok(value)
    }

    /// Evict until `bytes <= budget` or nothing evictable remains.
    /// Segmented LRU: least-recently-used artifacts first (recomputable
    /// from their interned graph), each with its response bytes, then
    /// graphs; pinned entries (shared `Arc`s) are never dropped mid-use.
    fn enforce_budget(&self, st: &mut State) {
        if self.budget == 0 {
            return;
        }
        while st.bytes > self.budget {
            let Some(freed) =
                pop_lru(&mut st.slots, true).or_else(|| pop_lru(&mut st.slots, false))
            else {
                break; // everything left is pinned; retried on the next insert
            };
            st.bytes -= freed;
            st.counts.evictions += 1;
        }
    }

    /// Counter snapshot for `STATS`. Re-enforces the budget first, so
    /// entries unpinned since the last insert are collected and the
    /// reported `bytes` respects the budget whenever nothing is in use.
    pub fn stats(&self) -> RegistryStats {
        let mut st = self.state.lock().unwrap();
        self.enforce_budget(&mut st);
        let slots = || st.slots.iter().flat_map(HashMap::values);
        let artifacts = || slots().flat_map(|s| s.artifacts.iter().map(|(_, e)| e));
        let resp: Vec<usize> = artifacts()
            .filter_map(|e| e.resp.as_ref().map(|r| r.heap_bytes()))
            .collect();
        let c = &st.counts;
        RegistryStats {
            graphs: slots().filter(|s| s.graph.is_some()).count(),
            artifacts: artifacts().count(),
            hits: c.hits,
            misses: c.misses,
            derived: c.derived,
            bytes: st.bytes,
            mem_budget: self.budget,
            evictions: c.evictions,
            graph_builds: c.graph_builds,
            resp: resp.len(),
            resp_bytes: resp.iter().sum(),
            resp_hits: c.resp_hits,
        }
    }
}

/// Parse a `STATS key=value ...` body into its pairs, in line order.
/// Words without `=` (the leading `STATS` itself) and non-numeric values
/// are skipped, so the parser tolerates future gauges it doesn't know.
pub fn parse_stats_body(body: &str) -> Vec<(&str, u64)> {
    body.split_whitespace()
        .filter_map(|w| {
            let (k, v) = w.split_once('=')?;
            Some((k, v.parse::<u64>().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphs_are_interned_once() {
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Suite("ecology2".into());
        let a = reg.graph(&r).unwrap();
        let b = reg.graph(&r).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same Arc must be shared");
        let s = reg.stats();
        assert_eq!(s.graphs, 1);
        assert_eq!(s.graph_builds, 1);
        assert_eq!(s.bytes, a.heap_bytes());
    }

    #[test]
    fn artifacts_hit_after_first_compute() {
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Suite("parabolic_fem".into());
        let a = reg.artifact(&r, &OpKey::Mis2).unwrap();
        let b = reg.artifact(&r, &OpKey::Mis2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = reg.stats();
        assert_eq!((s.hits, s.misses, s.artifacts), (1, 1, 1));
        // A different op key is its own cache line.
        reg.artifact(&r, &OpKey::Coarsen { levels: 2 }).unwrap();
        assert_eq!(reg.stats().artifacts, 2);
    }

    #[test]
    fn cold_bursts_are_single_flight() {
        // 8 threads racing for the same cold key: exactly one compute
        // (misses == 1), everyone gets the same Arc.
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Suite("ecology2".into());
        let arcs: Vec<Arc<Artifact>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| reg.artifact(&r, &OpKey::Mis2).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(arcs.iter().all(|a| Arc::ptr_eq(a, &arcs[0])));
        let st = reg.stats();
        assert_eq!(st.misses, 1, "burst must pay exactly one compute");
        assert_eq!(st.hits, 7);
    }

    #[test]
    fn graph_interning_is_single_flight() {
        // 8 threads racing to intern the same cold graph: exactly one
        // build (graph_builds == 1), everyone shares the Arc.
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Suite("thermal2".into());
        let arcs: Vec<Arc<CsrGraph>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| reg.graph(&r).unwrap())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(arcs.iter().all(|a| Arc::ptr_eq(a, &arcs[0])));
        let st = reg.stats();
        assert_eq!(st.graph_builds, 1, "burst must pay exactly one build");
        assert_eq!(st.graphs, 1);
    }

    #[test]
    fn failed_flight_releases_the_key() {
        // A failing compute (unknown graph) must clear the in-flight
        // marker so later requests aren't parked forever.
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Suite("not_a_matrix".into());
        assert!(reg.artifact(&r, &OpKey::Mis2).is_err());
        assert!(reg.artifact(&r, &OpKey::Mis2).is_err());
        assert!(reg.graph(&r).is_err());
        assert!(reg.graph(&r).is_err());
    }

    #[test]
    fn unknown_graphs_error_and_cache_nothing() {
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Suite("not_a_matrix".into());
        assert!(reg.graph(&r).is_err());
        assert!(reg.artifact(&r, &OpKey::Mis2).is_err());
        let s = reg.stats();
        assert_eq!((s.graphs, s.artifacts), (0, 0));
        assert_eq!((s.bytes, s.graph_builds), (0, 0));
    }

    #[test]
    fn mtx_files_load_through_the_registry() {
        let g = mis2_graph::gen::erdos_renyi(30, 60, 3);
        let dir = std::env::temp_dir().join("mis2_svc_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        io::write_graph_file(&g, &path).unwrap();
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Mtx(path.to_str().unwrap().into());
        let loaded = reg.graph(&r).unwrap();
        assert_eq!(*loaded, g);
    }

    #[test]
    fn an_mtx_lying_about_its_rows_is_an_error_not_an_abort() {
        let dir = std::env::temp_dir().join("mis2_svc_registry_rows");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n4294967294 4294967294 0\n",
        )
        .unwrap();
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Mtx(path.to_str().unwrap().into());
        let e = reg.graph(&r).unwrap_err();
        assert!(e.contains("can be allocated"), "{e}");
        let s = reg.stats();
        assert_eq!((s.graphs, s.graph_builds, s.bytes), (0, 0, 0), "{s:?}");
    }

    #[test]
    fn mtx_path_spellings_intern_one_graph() {
        // dir/g.mtx and dir/../dir/g.mtx name the same file: canonical
        // keying must yield one interned graph, one build, one cache entry.
        let g = mis2_graph::gen::erdos_renyi(24, 48, 9);
        let dir = std::env::temp_dir().join("mis2_svc_registry_canon");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        io::write_graph_file(&g, &path).unwrap();
        let plain = path.to_str().unwrap().to_string();
        let dotted = format!(
            "{}/../{}/g.mtx",
            dir.to_str().unwrap(),
            dir.file_name().unwrap().to_str().unwrap()
        );
        let reg = Registry::new(Scale::Tiny);
        let a = reg.graph(&GraphRef::Mtx(plain.clone())).unwrap();
        let b = reg.graph(&GraphRef::Mtx(dotted.clone())).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "spellings must share one Arc");
        let s = reg.stats();
        assert_eq!((s.graphs, s.graph_builds), (1, 1));
        // The artifact cache keys canonically too.
        reg.artifact(&GraphRef::Mtx(plain), &OpKey::Mis2).unwrap();
        reg.artifact(&GraphRef::Mtx(dotted), &OpKey::Mis2).unwrap();
        let s = reg.stats();
        assert_eq!((s.artifacts, s.hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn interned_mtx_graphs_survive_file_deletion() {
        // Once interned, a graph is served from memory: deleting the
        // backing file must not break cache hits for any known spelling
        // (the alias memo resolves without touching the filesystem).
        let g = mis2_graph::gen::erdos_renyi(20, 40, 5);
        let dir = std::env::temp_dir().join("mis2_svc_registry_unlink");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        io::write_graph_file(&g, &path).unwrap();
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Mtx(path.to_str().unwrap().into());
        let first = reg.graph(&r).unwrap();
        reg.artifact(&r, &OpKey::Mis2).unwrap();
        std::fs::remove_file(&path).unwrap();
        let after = reg.graph(&r).unwrap();
        assert!(
            Arc::ptr_eq(&first, &after),
            "resident graph must keep serving"
        );
        reg.artifact(&r, &OpKey::Mis2).unwrap();
        assert_eq!(reg.stats().hits, 1, "artifact must hit after deletion");
    }

    #[cfg(unix)]
    #[test]
    fn stale_alias_is_invalidated_when_its_canonical_path_dies() {
        // A memoized spelling→canonical resolution must not outlive the
        // canonical path: after the graph is evicted and the symlink the
        // spelling resolves through is repointed, the dead resolution is
        // dropped on the failed read and the next request re-canonicalizes
        // to the new target.
        let g1 = mis2_graph::gen::erdos_renyi(20, 40, 1);
        let g2 = mis2_graph::gen::erdos_renyi(25, 50, 2);
        let dir = std::env::temp_dir().join("mis2_svc_registry_repoint");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        io::write_graph_file(&g1, dir.join("v1.mtx")).unwrap();
        io::write_graph_file(&g2, dir.join("v2.mtx")).unwrap();
        let cur = dir.join("cur.mtx");
        std::os::unix::fs::symlink(dir.join("v1.mtx"), &cur).unwrap();

        // 1-byte budget: the graph is evicted as soon as it is unpinned.
        let reg = Registry::with_budget(Scale::Tiny, 1);
        let spelling = GraphRef::Mtx(cur.to_str().unwrap().into());
        assert_eq!(*reg.graph(&spelling).unwrap(), g1);
        assert_eq!(reg.stats().graphs, 0, "1-byte budget must evict");

        // Repoint the symlink and delete the old target.
        std::fs::remove_file(&cur).unwrap();
        std::os::unix::fs::symlink(dir.join("v2.mtx"), &cur).unwrap();
        std::fs::remove_file(dir.join("v1.mtx")).unwrap();

        // The stale alias makes this first request fail (it still names
        // the dead v1 path) but the failure must clear the memo...
        assert!(reg.graph(&spelling).is_err());
        // ...so the next request resolves fresh and serves v2.
        assert_eq!(*reg.graph(&spelling).unwrap(), g2);
    }

    /// Total cached bytes after computing MIS-2 artifacts for `names`.
    fn bytes_for(names: &[&str]) -> usize {
        let reg = Registry::new(Scale::Tiny);
        for n in names {
            reg.artifact(&GraphRef::Suite((*n).into()), &OpKey::Mis2)
                .unwrap();
        }
        reg.stats().bytes
    }

    #[test]
    fn eviction_respects_budget_and_stays_deterministic() {
        let names = ["ecology2", "parabolic_fem", "thermal2", "tmt_sym"];
        let unbounded = bytes_for(&names);
        // Budget for roughly half the working set: forces churn but always
        // fits any single graph+artifact pair.
        let budget = unbounded / 2;
        let reg = Registry::with_budget(Scale::Tiny, budget);
        let reference = Registry::new(Scale::Tiny);
        for round in 0..3 {
            for n in &names {
                let r = GraphRef::Suite((*n).into());
                let bounded =
                    ops::body("g", &OpKey::Mis2, &reg.artifact(&r, &OpKey::Mis2).unwrap());
                let want = ops::body(
                    "g",
                    &OpKey::Mis2,
                    &reference.artifact(&r, &OpKey::Mis2).unwrap(),
                );
                assert_eq!(
                    bounded, want,
                    "round {round} graph {n}: eviction changed bytes"
                );
                let s = reg.stats();
                assert!(
                    s.bytes <= budget,
                    "round {round} graph {n}: bytes {} over budget {budget}",
                    s.bytes
                );
            }
        }
        let s = reg.stats();
        assert!(s.evictions > 0, "churn over budget must evict: {s:?}");
        assert!(
            s.misses > names.len() as u64,
            "evicted artifacts must be recomputed on return: {s:?}"
        );
    }

    #[test]
    fn artifacts_evict_before_their_graphs() {
        // Budget sized so one graph + artifact fits but two artifacts
        // don't: requesting a second op on the same graph must evict the
        // first *artifact*, never the interned graph.
        let r = GraphRef::Suite("ecology2".into());
        let probe = Registry::new(Scale::Tiny);
        let g = probe.graph(&r).unwrap();
        let a = probe.artifact(&r, &OpKey::Mis2).unwrap();
        let budget = g.heap_bytes() + a.heap_bytes() + a.heap_bytes() / 2;
        drop((g, a));

        let reg = Registry::with_budget(Scale::Tiny, budget);
        reg.artifact(&r, &OpKey::Mis2).unwrap();
        let g_first = reg.graph(&r).unwrap();
        reg.artifact(&r, &OpKey::Coarsen { levels: 2 }).unwrap();
        let s = reg.stats();
        assert!(
            s.evictions > 0,
            "second artifact must force eviction: {s:?}"
        );
        assert_eq!(s.graphs, 1, "the graph segment must survive: {s:?}");
        assert!(
            Arc::ptr_eq(&g_first, &reg.graph(&r).unwrap()),
            "graph re-interned"
        );
        assert_eq!(reg.stats().graph_builds, 1, "graph must never be rebuilt");
    }

    #[test]
    fn pinned_entries_are_never_evicted_mid_use() {
        // Hold the Arc of the first artifact while churning well past the
        // budget: the held entry must survive (hit, same Arc), bytes may
        // transiently exceed the budget instead.
        let names = ["ecology2", "parabolic_fem", "thermal2", "tmt_sym"];
        let budget = bytes_for(&names[..1]) / 2; // smaller than one pair
        let reg = Registry::with_budget(Scale::Tiny, budget);
        let r0 = GraphRef::Suite(names[0].into());
        let held = reg.artifact(&r0, &OpKey::Mis2).unwrap();
        for n in &names[1..] {
            reg.artifact(&GraphRef::Suite((*n).into()), &OpKey::Mis2)
                .unwrap();
        }
        let again = reg.artifact(&r0, &OpKey::Mis2).unwrap();
        assert!(
            Arc::ptr_eq(&held, &again),
            "a pinned artifact must survive eviction pressure"
        );
        drop((held, again));
        // Unpinned now: the next stats() housekeeping collects it.
        let s = reg.stats();
        assert!(s.bytes <= budget, "{s:?}");
    }

    #[test]
    fn response_bytes_intern_and_hit() {
        let reg = Registry::new(Scale::Tiny);
        let r = GraphRef::Suite("ecology2".into());
        let a = reg.response(&r, &OpKey::Mis2).unwrap();
        assert_eq!(a.token, "ecology2");
        assert!(a.body.starts_with(b"MIS2 ecology2 size="));
        let b = reg.response(&r, &OpKey::Mis2).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the interned Arc");
        let via_probe = reg.try_response(&r, &OpKey::Mis2).unwrap();
        assert!(Arc::ptr_eq(&a, &via_probe));
        let s = reg.stats();
        assert_eq!((s.resp, s.artifacts, s.graphs), (1, 1, 1));
        assert_eq!((s.hits, s.misses, s.resp_hits), (2, 1, 2));
        assert!(s.resp_bytes > 0 && s.resp_bytes < s.bytes, "{s:?}");
    }

    #[test]
    fn response_rerenders_on_token_mismatch_without_double_counting() {
        // Two spellings of one .mtx file: canonical keying shares the
        // artifact, but response bodies embed the wire token, so the
        // second spelling must re-render (artifact hit, not a byte hit)
        // and replace the interned entry without double-charging bytes.
        let g = mis2_graph::gen::erdos_renyi(26, 52, 11);
        let dir = std::env::temp_dir().join("mis2_svc_registry_resp_token");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        io::write_graph_file(&g, &path).unwrap();
        let plain = path.to_str().unwrap().to_string();
        let dotted = format!(
            "{}/../{}/g.mtx",
            dir.to_str().unwrap(),
            dir.file_name().unwrap().to_str().unwrap()
        );
        let reg = Registry::new(Scale::Tiny);
        let a = reg
            .response(&GraphRef::Mtx(plain.clone()), &OpKey::Mis2)
            .unwrap();
        assert_eq!(a.token, plain);
        let b = reg
            .response(&GraphRef::Mtx(dotted.clone()), &OpKey::Mis2)
            .unwrap();
        assert_eq!(b.token, dotted, "body must echo the request's spelling");
        let s = reg.stats();
        assert_eq!((s.resp, s.artifacts, s.graphs), (1, 1, 1));
        assert_eq!(
            (s.hits, s.misses, s.resp_hits),
            (1, 1, 0),
            "the re-render is an artifact hit, not a byte hit: {s:?}"
        );
        assert_eq!(s.resp_bytes, b.heap_bytes(), "old entry's charge must go");
        // The replacing spelling now owns the entry.
        assert!(reg
            .try_response(&GraphRef::Mtx(dotted), &OpKey::Mis2)
            .is_some());
        assert!(reg
            .try_response(&GraphRef::Mtx(plain), &OpKey::Mis2)
            .is_none());
    }

    #[test]
    fn a_surviving_key_keeps_its_bytes_under_pressure() {
        let r = GraphRef::Suite("ecology2".into());
        let ops3 = [
            OpKey::Mis2,
            OpKey::Coarsen { levels: 2 },
            OpKey::Coarsen { levels: 3 },
        ];
        let probe = Registry::new(Scale::Tiny);
        let graph = probe.graph(&r).unwrap().heap_bytes();
        probe.response(&r, &ops3[0]).unwrap();
        // The first key's artifact and its bytes.
        let first = probe.stats().bytes - graph;
        for op in &ops3[1..] {
            probe.response(&r, op).unwrap();
        }
        // The full working set minus the first key: the third insert must
        // evict exactly that key, bytes and all, and nothing else.
        let budget = probe.stats().bytes - first;
        let reg = Registry::with_budget(Scale::Tiny, budget);
        for op in &ops3 {
            reg.response(&r, op).unwrap();
        }
        let s = reg.stats();
        assert_eq!((s.artifacts, s.resp, s.graphs), (2, 2, 1), "{s:?}");
        assert!(
            reg.try_response(&r, &ops3[0]).is_none(),
            "the LRU key must be the victim"
        );
        for op in &ops3[1..] {
            assert!(
                reg.try_response(&r, op).is_some(),
                "{op:?} is resident and must answer from its bytes: {s:?}"
            );
        }
    }

    #[test]
    fn response_hit_refreshes_artifact_and_graph_stamps() {
        // A key served purely through byte hits must not look LRU-cold at
        // the artifact segment: touch (op1) via try_response, then apply
        // enough pressure to evict one artifact — the victim must be the
        // untouched op2, not op1.
        let r = GraphRef::Suite("ecology2".into());
        let (op1, op2, op3) = (
            OpKey::Mis2,
            OpKey::Coarsen { levels: 2 },
            OpKey::Coarsen { levels: 3 },
        );
        let probe = Registry::new(Scale::Tiny);
        for op in [&op1, &op2, &op3] {
            probe.artifact(&r, op).unwrap();
        }
        // Graph + all three artifacts minus one byte: holding every
        // artifact is over budget, so exactly one artifact must go, with
        // its response bytes.
        let budget = probe.stats().bytes - 1;
        let reg = Registry::with_budget(Scale::Tiny, budget);
        reg.response(&r, &op1).unwrap();
        reg.response(&r, &op2).unwrap();
        assert!(reg.try_response(&r, &op1).is_some(), "refreshing hit");
        reg.response(&r, &op3).unwrap();
        let s = reg.stats();
        assert_eq!(s.resp, s.artifacts, "survivors keep their bytes: {s:?}");
        assert_eq!(s.artifacts, 2, "{s:?}");
        assert_eq!(s.graphs, 1, "the graph must survive: {s:?}");
        // op1 (refreshed by the byte hit) must be resident, op2 evicted.
        let (h0, m0) = (s.hits, s.misses);
        reg.artifact(&r, &op1).unwrap();
        let s = reg.stats();
        assert_eq!(
            (s.hits, s.misses),
            (h0 + 1, m0),
            "the byte-hit-refreshed artifact was evicted: {s:?}"
        );
        reg.artifact(&r, &op2).unwrap();
        assert_eq!(
            reg.stats().misses,
            m0 + 1,
            "the untouched artifact must have been the victim"
        );
    }

    #[test]
    fn response_bytes_are_invalidated_with_their_artifact() {
        // Invalidation, not a space decision: when an artifact is evicted
        // its interned response bytes go too, even while a response
        // holding the Arc is still in flight (the Arc keeps the bytes
        // alive; the cache just stops serving them).
        let reg = Registry::with_budget(Scale::Tiny, 1);
        let r = GraphRef::Suite("ecology2".into());
        let held = reg.response(&r, &OpKey::Mis2).unwrap(); // pins the entry
        let s = reg.stats(); // re-enforces: the unpinned artifact evicts
        assert_eq!(s.artifacts, 0, "{s:?}");
        assert_eq!(
            (s.resp, s.resp_bytes),
            (0, 0),
            "response bytes must be invalidated with their artifact: {s:?}"
        );
        assert!(
            reg.try_response(&r, &OpKey::Mis2).is_none(),
            "invalidated bytes must not serve"
        );
        assert!(held.body.starts_with(b"MIS2 "), "held Arc stays valid");
    }

    #[test]
    fn coarsen_starts_from_resident_priors_under_a_budget() {
        let r = GraphRef::Suite("ecology2".into());
        let session = [
            OpKey::Mis2,
            OpKey::Coarsen { levels: 2 },
            OpKey::Coarsen { levels: 8 },
        ];
        let run = |reg: &Registry, ops: &[OpKey]| -> Vec<String> {
            ops.iter()
                .map(|op| ops::body("g", op, &reg.artifact(&r, op).unwrap()))
                .collect()
        };
        let probe = Registry::new(Scale::Tiny);
        let want = run(&probe, &session);
        // One byte short of the whole session: the last insert must evict.
        let reg = Registry::with_budget(Scale::Tiny, probe.stats().bytes - 1);
        assert_eq!(run(&reg, &session), want);
        let s = reg.stats();
        assert_eq!((s.misses, s.hits, s.derived), (3, 0, 2), "{s:?}");
        assert_eq!((s.artifacts, s.graphs), (2, 1), "{s:?}");
        // Derived or not, the bytes are those of a registry that never
        // held a prior.
        let fresh = Registry::new(Scale::Tiny);
        assert_eq!(run(&fresh, &session[2..]), want[2..]);
        assert_eq!(fresh.stats().derived, 0);
    }

    #[test]
    fn a_prior_lookup_refreshes_no_stamp() {
        // `COARSEN 2` is the oldest entry when `COARSEN 8` starts from it.
        // The longer hierarchy contains the shorter, so the shorter stays
        // the next victim: reading it as a prior is not a use.
        let r = GraphRef::Suite("ecology2".into());
        let (c2, c8) = (OpKey::Coarsen { levels: 2 }, OpKey::Coarsen { levels: 8 });
        let probe = Registry::new(Scale::Tiny);
        for op in [&c2, &OpKey::Mis2, &c8] {
            probe.artifact(&r, op).unwrap();
        }
        let reg = Registry::with_budget(Scale::Tiny, probe.stats().bytes - 1);
        for op in [&c2, &OpKey::Mis2, &c8] {
            reg.artifact(&r, op).unwrap();
        }
        let s = reg.stats();
        assert_eq!((s.misses, s.derived, s.artifacts), (3, 1, 2), "{s:?}");
        reg.artifact(&r, &OpKey::Mis2).unwrap();
        assert_eq!(reg.stats().hits, 1, "the MIS-2 was not the victim");
        reg.artifact(&r, &c2).unwrap();
        assert_eq!(reg.stats().misses, 4, "the prior was the victim");
    }

    #[test]
    fn coarsen_falls_back_to_the_mis2_then_to_scratch() {
        // A 1-byte budget keeps only what a caller pins.
        let r = GraphRef::Suite("ecology2".into());
        let (c2, c8) = (OpKey::Coarsen { levels: 2 }, OpKey::Coarsen { levels: 8 });
        let want = ops::body(
            "g",
            &c8,
            &Registry::new(Scale::Tiny).artifact(&r, &c8).unwrap(),
        );
        let reg = Registry::with_budget(Scale::Tiny, 1);
        let mis2 = reg.artifact(&r, &OpKey::Mis2).unwrap();
        drop(reg.artifact(&r, &c2).unwrap());
        let s = reg.stats();
        assert_eq!(
            (s.artifacts, s.derived),
            (1, 1),
            "only the pinned MIS-2 stays: {s:?}"
        );
        // `COARSEN 2` is gone: the next prior in line is the MIS-2 ...
        let from_mis2 = reg.artifact(&r, &c8).unwrap();
        assert_eq!(ops::body("g", &c8, &from_mis2), want);
        assert_eq!(reg.stats().derived, 2);
        drop((mis2, from_mis2));
        assert_eq!(reg.stats().artifacts, 0);
        // ... and with nothing resident, the graph alone.
        let from_scratch = reg.artifact(&r, &c8).unwrap();
        assert_eq!(ops::body("g", &c8, &from_scratch), want);
        let s = reg.stats();
        assert_eq!((s.misses, s.hits, s.derived), (4, 0, 2), "{s:?}");
    }

    #[test]
    fn zero_budget_means_unbounded() {
        let reg = Registry::with_budget(Scale::Tiny, 0);
        for n in ["ecology2", "parabolic_fem", "thermal2"] {
            reg.artifact(&GraphRef::Suite(n.into()), &OpKey::Mis2)
                .unwrap();
        }
        let s = reg.stats();
        assert_eq!(s.evictions, 0);
        assert_eq!((s.graphs, s.artifacts), (3, 3));
    }

    #[test]
    fn stats_bodies_parse_and_skip_unknown_words() {
        let pairs = parse_stats_body("STATS graphs=2 bytes=100 note=x evictions=3");
        assert_eq!(pairs, vec![("graphs", 2), ("bytes", 100), ("evictions", 3)]);
    }
}
