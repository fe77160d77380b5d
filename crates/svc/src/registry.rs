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
//! ## Cache semantics
//!
//! * **Single-flight everywhere.** Both graph interning and artifact
//!   computation use the same in-flight protocol: of N concurrent requests
//!   for a cold key, exactly one builds/computes while the rest wait on
//!   the in-flight marker — a cold burst for one graph pays **one** build
//!   (`graph_builds` counts the real builds). The marker is cleared by a
//!   panic-safe drop guard, so a failed or panicked flight never parks
//!   later requests forever; the next waiter simply takes over.
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
//!   fits again.
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
use crate::proto::GraphRef;
use mis2_graph::{io, suite, CsrGraph, Scale};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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
}

/// Both caches plus the keys currently being built (single-flight), under
/// one lock so the byte accounting and eviction see a consistent view.
struct State {
    graphs: HashMap<GraphRef, Entry<CsrGraph>>,
    artifacts: HashMap<ArtifactKey, Entry<Artifact>>,
    graphs_inflight: HashSet<GraphRef>,
    artifacts_inflight: HashSet<ArtifactKey>,
    /// Memoized spelling → canonical key resolutions (successful ones
    /// only). Keeps every known `.mtx` spelling serving cache hits with
    /// no per-request `fs::canonicalize` syscall — and keeps serving them
    /// even after the backing file vanishes, like any resident entry.
    /// Capped at [`ALIAS_CAP`] entries (cleared wholesale when full): the
    /// memo is a pure performance/resilience cache, and spellings are
    /// client-controlled, so letting it grow unbounded would reopen the
    /// very memory hole the budget closes.
    aliases: HashMap<GraphRef, GraphRef>,
    /// Sum of `bytes` over both maps.
    bytes: usize,
    /// Monotonic access clock for LRU stamps.
    tick: u64,
}

impl State {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
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
    hits: AtomicU64,
    misses: AtomicU64,
    derived: AtomicU64,
    evictions: AtomicU64,
    graph_builds: AtomicU64,
    resp_hits: AtomicU64,
}

/// Remove the least-recently-used *evictable* entry from one cache
/// segment, returning the bytes it freed (`None`: empty or all pinned).
/// An O(n) scan — cache cardinality is the tenant/workload count, not the
/// graph size, so scanning under the lock stays cheaper than maintaining
/// an order structure that must also skip pinned entries.
fn pop_lru<K, T>(map: &mut HashMap<K, Entry<T>>) -> Option<usize>
where
    K: Clone + Eq + std::hash::Hash,
{
    let key = map
        .iter()
        .filter(|(_, e)| e.evictable())
        .min_by_key(|(_, e)| e.last_used)
        .map(|(k, _)| k.clone())?;
    map.remove(&key).map(|e| e.bytes)
}

/// Drop guard clearing an in-flight marker even if the build panics (a
/// leaked marker would park every later request for this key forever; the
/// scheduler catches job panics, so the process lives on).
struct Flight<'a> {
    reg: &'a Registry,
    graph: Option<GraphRef>,
    artifact: Option<ArtifactKey>,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let mut st = self.reg.state.lock().unwrap();
        if let Some(k) = self.graph.take() {
            st.graphs_inflight.remove(&k);
        }
        if let Some(k) = self.artifact.take() {
            st.artifacts_inflight.remove(&k);
        }
        drop(st);
        self.reg.inflight_done.notify_all();
    }
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
                graphs: HashMap::new(),
                artifacts: HashMap::new(),
                graphs_inflight: HashSet::new(),
                artifacts_inflight: HashSet::new(),
                aliases: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            inflight_done: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            derived: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            graph_builds: AtomicU64::new(0),
            resp_hits: AtomicU64::new(0),
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
        if matches!(gref, GraphRef::Suite(_)) {
            return gref.clone();
        }
        if let Some(k) = self.state.lock().unwrap().aliases.get(gref) {
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
                st.aliases.insert(gref.clone(), canon.clone());
                canon
            }
            None => gref.clone(),
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
        {
            let mut st = self.state.lock().unwrap();
            loop {
                let tick = st.next_tick();
                if let Some(e) = st.graphs.get_mut(&key) {
                    e.last_used = tick;
                    return Ok(Arc::clone(&e.value));
                }
                if st.graphs_inflight.insert(key.clone()) {
                    break; // our flight: build below
                }
                st = self.inflight_done.wait(st).unwrap();
            }
        }
        let _flight = Flight {
            reg: self,
            graph: Some(key.clone()),
            artifact: None,
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
        self.graph_builds.fetch_add(1, Ordering::Relaxed);
        let bytes = built.heap_bytes();
        let value = Arc::new(built);
        let mut st = self.state.lock().unwrap();
        let tick = st.next_tick();
        st.bytes += bytes;
        st.graphs.insert(key, Entry::new(&value, bytes, tick));
        self.enforce_budget(&mut st);
        Ok(value)
    }

    /// Get or compute the artifact for `(graph, op)`, single-flight: of N
    /// concurrent requests for a cold key, exactly one computes while the
    /// others wait for its insert (or for its failure, in which case the
    /// next waiter takes over the compute).
    pub fn artifact(&self, gref: &GraphRef, op: &OpKey) -> Result<Arc<Artifact>, String> {
        let key = (self.canon_key(gref), op.clone());
        self.artifact_keyed(key)
    }

    /// [`Registry::artifact`] on an already-canonical key — same contract
    /// as [`Registry::graph_canonical`]: canonicalization happens exactly
    /// once per request, at the public entry points.
    fn artifact_keyed(&self, key: ArtifactKey) -> Result<Arc<Artifact>, String> {
        let op = key.1.clone();
        let prior = {
            let mut st = self.state.lock().unwrap();
            loop {
                let tick = st.next_tick();
                if let Some(e) = st.artifacts.get_mut(&key) {
                    e.last_used = tick;
                    let value = Arc::clone(&e.value);
                    // The hit also counts as use of the underlying graph:
                    // without this touch, a graph served purely through
                    // artifact hits would look LRU-coldest and be evicted
                    // first — the hottest tenant paying the rebuilds.
                    if let Some(g) = st.graphs.get_mut(&key.0) {
                        g.last_used = tick;
                    }
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                if st.artifacts_inflight.insert(key.clone()) {
                    break; // our flight: compute below
                }
                st = self.inflight_done.wait(st).unwrap();
            }
            // The derivation rule (module docs): the first of the op's
            // priors that is resident right now, as found — no stamp, no
            // counter, no wait.
            let mut probe = key.clone();
            op.priors().into_iter().find_map(|p| {
                probe.1 = p;
                st.artifacts.get(&probe).map(|e| Arc::clone(&e.value))
            })
        };
        let _flight = Flight {
            reg: self,
            graph: None,
            artifact: Some(key.clone()),
        };
        let g = self.graph_canonical(key.0.clone())?;
        let computed = ops::compute_from(&g, &op, prior.as_deref());
        self.misses.fetch_add(1, Ordering::Relaxed);
        if prior.is_some() {
            self.derived.fetch_add(1, Ordering::Relaxed);
        }
        // Unpin the prior before the insert, so that this insert may
        // already evict it.
        drop(prior);
        let bytes = computed.heap_bytes();
        let value = Arc::new(computed);
        let mut st = self.state.lock().unwrap();
        let tick = st.next_tick();
        st.bytes += bytes;
        st.artifacts.insert(key, Entry::new(&value, bytes, tick));
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
    /// This is the server's inline fast path: cheap enough (one lock, one
    /// probe) to run on a connection's reader before anything is
    /// scheduled.
    pub fn try_response(&self, gref: &GraphRef, op: &OpKey) -> Option<Arc<RespBytes>> {
        let key = (self.canon_key(gref), op.clone());
        self.try_response_keyed(&key, gref.token())
    }

    /// [`Registry::try_response`] on an already-canonical key.
    fn try_response_keyed(&self, key: &ArtifactKey, token: &str) -> Option<Arc<RespBytes>> {
        let mut st = self.state.lock().unwrap();
        let tick = st.next_tick();
        let e = st.artifacts.get_mut(key)?;
        // No bytes yet, or a different spelling of the graph: re-render.
        let value = Arc::clone(e.resp.as_ref().filter(|r| r.token == token)?);
        e.last_used = tick;
        if let Some(g) = st.graphs.get_mut(&key.0) {
            g.last_used = tick;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.resp_hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Get or render the interned response bytes for `(graph, op)`. A miss
    /// goes through the artifact cache (hit or single-flight compute, with
    /// the usual counters), renders the body once, and stores it in the
    /// artifact's entry, charged in that entry's bytes. Every request bumps
    /// exactly one of `hits`/`misses`, whichever cache level served it, so
    /// the `hits + misses == requests` invariant is unchanged.
    pub fn response(&self, gref: &GraphRef, op: &OpKey) -> Result<Arc<RespBytes>, String> {
        let key = (self.canon_key(gref), op.clone());
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
        if let Some(e) = st.artifacts.get_mut(&key) {
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
            let Some(freed) = pop_lru(&mut st.artifacts).or_else(|| pop_lru(&mut st.graphs)) else {
                break; // everything left is pinned; retried on the next insert
            };
            st.bytes -= freed;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot for `STATS`. Re-enforces the budget first, so
    /// entries unpinned since the last insert are collected and the
    /// reported `bytes` respects the budget whenever nothing is in use.
    pub fn stats(&self) -> RegistryStats {
        let mut st = self.state.lock().unwrap();
        self.enforce_budget(&mut st);
        let resp: Vec<usize> = st
            .artifacts
            .values()
            .filter_map(|e| e.resp.as_ref().map(|r| r.heap_bytes()))
            .collect();
        RegistryStats {
            graphs: st.graphs.len(),
            artifacts: st.artifacts.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            derived: self.derived.load(Ordering::Relaxed),
            bytes: st.bytes,
            mem_budget: self.budget,
            evictions: self.evictions.load(Ordering::Relaxed),
            graph_builds: self.graph_builds.load(Ordering::Relaxed),
            resp: resp.len(),
            resp_bytes: resp.iter().sum(),
            resp_hits: self.resp_hits.load(Ordering::Relaxed),
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
