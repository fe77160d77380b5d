//! # mis2-svc — the graph-service subsystem
//!
//! Serves the workspace's MIS-2 / coarsening / solver operations to many
//! concurrent clients from one warm process, std-only. Three layers:
//!
//! * [`registry`] — loads or generates each graph once (suite workload
//!   names or `.mtx` paths, canonicalized), interns it behind
//!   `Arc<CsrGraph>`, and caches every derived artifact keyed by
//!   `(graph, op, params)`. Multilevel pipelines re-coarsen the same
//!   graphs over and over (Schulz, *Scalable Graph Algorithms*); the
//!   registry turns the repeats into cache hits. An artifact's entry also
//!   holds its interned response bytes once served, so a repeat on either
//!   protocol is answered inline. Both caches are **memory-bounded**
//!   (`--mem-budget`): approximate heap bytes are accounted per entry and
//!   segmented-LRU eviction (artifacts, each with its bytes, before
//!   graphs; pinned entries never) keeps the working set under the budget
//!   without changing a single response byte. Graph interning and
//!   artifact computes are both single-flight.
//! * [`sched`] — a bounded MPMC job queue drained by a few worker-leader
//!   threads, each running its job on a pool **sub-team**
//!   (`mis2_prim::pool` sub-team dispatch), so K concurrent jobs split the
//!   parked workers instead of serializing on one team. The scheduler's
//!   primitive is **completion delivery** (`submit_with`): the leader that
//!   finishes a job hands the response to a callback instead of parking a
//!   waiter (blocking `submit` remains as a thin adapter). Per-job
//!   queue-wait and run-time statistics feed the `STATS` request.
//! * [`server`] / [`client`] — a loopback TCP server speaking the
//!   line-oriented protocol of [`proto`] (`MIS2 g`, `COARSEN g L`,
//!   `SOLVE g cg|gmres`, `STATS`, `PING`, `QUIT`). Two wire protocols,
//!   two jobs. Connections start in blocking **v1** text lines, one
//!   request in flight — what a person types at `nc` or `mis2svc
//!   client`. The `V3` hello upgrades to the pipelined **binary frame**
//!   protocol of [`codec`], what programs speak: every request carries a
//!   client-chosen tag in a fixed 13-byte little-endian header, the
//!   reader keeps parsing while earlier jobs run (up to the
//!   `max_inflight` window), responses leave in *completion* order with
//!   the tag letting the client reassemble, response bytes are interned
//!   in the registry and served zero-serialization on cache hits (on v1
//!   too), and
//!   the per-connection writer coalesces each batch into one buffer and
//!   one write. [`client::Client`] is the blocking v1 client and
//!   [`client::V3Client`] drives a v3 window, `request_many(..)`
//!   reassembling by tag. Both protocols mix freely on one server.
//!   Connections are fronted by one of two interchangeable **I/O
//!   backends** ([`IoBackend`], `--io-backend epoll|threads`): the
//!   portable thread-per-conn path (reader + writer thread each), or —
//!   default on Linux — the `evloop` readiness loop, one thread
//!   multiplexing every connection over raw `epoll` with an `eventfd`
//!   doorbell for scheduler completions. Both drive the same sans-I/O
//!   connection state machine (the private `conn` module, which names no
//!   socket and no thread; each driver is one file importing only from
//!   it and [`server`]), so responses are bitwise-identical between
//!   backends; the epoll loop buys connection *scale* (thousands of idle
//!   clients cost an fd each, not threads — `tests/svc_c10k.rs` is the
//!   proof).
//! * [`metrics`] — full-stack request observability, recorded on every
//!   protocol: log2-bucket latency histograms per op × outcome, per-stage
//!   spans (parse → queue → run → write), a ring of the last 64 slow
//!   requests (`--slow-ms`), all behind one lock taken once per retired
//!   write batch, and the
//!   versioned `METRICS` text exposition that the router merges
//!   bucket-wise across a cluster ([`metrics::merge_expositions`]).
//!   `STATS` prints the same counters as one line: one table,
//!   [`server::COUNTERS`], pairs each `STATS` key with its `METRICS`
//!   series.
//! * [`shard`] — cluster scale: a consistent-hash [`shard::Ring`] over
//!   shard identities and the `mis2svc route` proxy ([`shard::route`])
//!   fronting N server processes. The router runs the server's own
//!   accept path and connection state machine; what it adds is the
//!   *upstream* service behind the machine's one seam (the *local* one
//!   being registry + scheduler): ring lookup, one pipelined v3 upstream
//!   per shard per downstream connection, tag remapping, fail-fast `ERR
//!   shard down` containment when a shard dies, and cluster `STATS` and
//!   `METRICS` bodies printed from one merge of the shards' expositions.
//!   The router is the one place that shards: clients dial it like a
//!   single server.
//!
//! The determinism contract of the underlying algorithms lifts to the
//! service: a response's *payload* is **bitwise-identical** to a direct
//! library call, for every client, concurrency level, arrival order,
//! sub-team size and I/O backend — `tests/svc_e2e.rs` and `tests/svc_v3.rs`
//! at the workspace root assert exactly that with concurrent blocking
//! and pipelined clients. [`ops`] is the single
//! definition of each request's semantics that both paths share.
//!
//! ```no_run
//! use mis2_svc::{client::Client, server};
//!
//! let handle = server::serve(server::ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let reply = client.request("MIS2 ecology2").unwrap();
//! assert!(reply.starts_with("OK MIS2 ecology2 size="));
//! handle.shutdown();
//! ```

pub mod client;
pub mod codec;
mod conn;
#[cfg(target_os = "linux")]
mod evloop;
pub mod metrics;
pub mod ops;
pub mod proto;
pub mod registry;
pub mod sched;
pub mod server;
pub mod shard;
mod threads;

pub use client::{Client, V3Client};
pub use ops::OpKey;
pub use proto::{GraphRef, Method, Request};
pub use registry::Registry;
pub use sched::{SchedConfig, Scheduler};
pub use server::{serve, IoBackend, ServerConfig, ServerHandle};
pub use shard::{route, Ring, RouterConfig, RouterHandle};
