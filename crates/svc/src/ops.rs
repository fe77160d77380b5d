//! The compute operations the service exposes, as pure functions of a
//! graph — one place that defines *exactly* what a request runs, so the
//! server, the direct library path used by tests, and the throughput
//! bench can never drift apart.
//!
//! Every operation is deterministic (seeded, fixed-block reductions), so a
//! response body — which embeds an order-sensitive fingerprint of the full
//! result — is bitwise-identical no matter which thread, sub-team size, or
//! backend computed it. That is the service's determinism contract.
//!
//! The same determinism lets a compute start from a cached artifact of
//! the same graph instead of the graph alone ([`compute_from`],
//! [`OpKey::priors`]): the paper's Algorithm 3 starts from Algorithm 1's
//! output, so `COARSEN` continues a resident `MIS2` or a shorter
//! `COARSEN`, and the bytes cannot tell.
//!
//! Served `SOLVE` runs on the graph it was asked about. Its operator is
//! `(max_degree + 1)·I − A`, and CG and GMRES only ever *apply* an
//! operator, so the `Solve` arm of [`compute_from`] builds a
//! [`GraphLaplacian`] (the graph's own rows, the diagonal term spliced in
//! where `v` sorts among its neighbours) and a [`Jacobi::constant`], and
//! nothing else: no matrix is assembled, no diagonal read back. The
//! matrix-free apply performs the IEEE operations of `spmv_into` on the
//! assembled matrix in the same order, so every `SOLVE` byte is what the
//! assembled path served (`tests/solve_golden.rs` holds them as literals).
//! The assembled `solve_matrix` lives on in this file's tests only, as the
//! oracle `solve_equals_the_assembled_oracle` compares against in iterate,
//! history and charged bytes.
//!
//! `SOLVE` deliberately stops short of the derivation chain. The operator
//! is strictly diagonally dominant, so Jacobi already converges in about
//! twenty iterations (`SOLVE ecology2 cg` 22, `SOLVE tmt_sym gmres` 19 at
//! `Scale::Tiny`); it does not consume the `Hierarchy` artifact through
//! `mis2_solver::AmgHierarchy`. Doing so would change the iteration
//! count, the iterate and so the body and fingerprint of every `SOLVE`
//! response — every golden in `tests/svc_e2e.rs`, CI's sweeps and the
//! benchmark's oracle — to serve an operator that does not need multigrid.
//! The paper's two coarsening use cases, MIS-2 aggregation AMG (Table V)
//! and cluster Gauss–Seidel (Table VI), are library paths; the repo
//! benchmark's `lib_amg` workload measures them as time to solution.

use crate::codec;
use crate::proto::{GraphRef, Method, Request};
use crate::registry::{Registry, RespBytes};
use mis2_coarsen::hierarchy::{extend, Level};
use mis2_core::Mis2Result;
use mis2_graph::CsrGraph;
use mis2_prim::hash::splitmix64;
use mis2_solver::{gmres, pcg, Jacobi, SolveOpts, SolveResult};
use mis2_sparse::gen::GraphLaplacian;
use std::sync::Arc;

/// Cache key for a derived artifact: the operation plus every parameter
/// that influences the result. Paired with a graph reference by the
/// registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKey {
    Mis2,
    Coarsen { levels: usize },
    Solve { method: Method },
}

impl OpKey {
    /// The ops whose artifact *of the same graph* [`compute_from`] can
    /// start this op from, most work saved first: a shorter hierarchy is a
    /// prefix of a longer one, and the MIS-2 is phase 1 of the first
    /// level. The registry probes these in order and knows nothing else
    /// about what an op means.
    pub fn priors(&self) -> Vec<OpKey> {
        match *self {
            OpKey::Coarsen { levels } if levels >= 2 => (2..levels)
                .rev()
                .map(|levels| OpKey::Coarsen { levels })
                .chain([OpKey::Mis2])
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// Solver iteration cap — bounds worst-case request latency; an
/// unconverged solve is still a valid, deterministic response.
pub const SOLVE_MAX_ITERS: usize = 200;
/// Solver relative-residual tolerance.
pub const SOLVE_TOL: f64 = 1e-8;
/// GMRES restart length.
pub const SOLVE_RESTART: usize = 30;
/// Coarsening stops once a level has at most this many vertices.
pub const COARSEN_MIN_VERTICES: usize = 64;

/// A cached derived result.
pub enum Artifact {
    Mis2(Mis2Result),
    Hierarchy(Vec<Level>),
    Solve(SolveArtifact),
}

impl Artifact {
    /// Approximate heap footprint in bytes — what the registry charges
    /// this artifact against its memory budget.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Artifact::Mis2(r) => r.heap_bytes(),
            Artifact::Hierarchy(h) => {
                mis2_coarsen::hierarchy::hierarchy_heap_bytes(h)
                    + h.capacity() * std::mem::size_of::<Level>()
            }
            Artifact::Solve(s) => s.heap_bytes(),
        }
    }
}

/// Result of a `SOLVE` request: the iterate and the solve statistics.
pub struct SolveArtifact {
    pub x: Vec<f64>,
    pub result: SolveResult,
}

impl SolveArtifact {
    /// Approximate heap footprint in bytes (iterate plus history).
    pub fn heap_bytes(&self) -> usize {
        self.x.capacity() * std::mem::size_of::<f64>() + self.result.heap_bytes()
    }
}

/// Order-sensitive 64-bit fingerprint of a u32 sequence (the same chain
/// the repo's golden-fingerprint tests use).
pub fn fingerprint_u32(data: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in data {
        h = splitmix64(h ^ x as u64);
    }
    h
}

/// Order-sensitive fingerprint of an f64 sequence over exact bit patterns,
/// so any reduction-order drift in the solvers is caught.
pub fn fingerprint_f64<'a>(data: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0x84222325_CBF29CE4u64;
    for x in data {
        h = splitmix64(h ^ x.to_bits());
    }
    h
}

/// The constant diagonal of the deterministic SPD operator a `SOLVE`
/// request runs on: adjacency off-diagonals of -1 under `max_degree + 1`
/// (strictly diagonally dominant, hence SPD).
fn solve_diag(g: &CsrGraph) -> f64 {
    (g.max_degree() + 1) as f64
}

/// The fixed right-hand side of a `SOLVE` request.
pub fn solve_rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect()
}

/// Run one operation on a graph. This is the single definition of each
/// request's semantics; everything else (server, tests, benches) calls
/// through here.
pub fn compute(g: &CsrGraph, op: &OpKey) -> Artifact {
    compute_from(g, op, None)
}

/// [`compute`], started from `prior` when that is an artifact of the
/// same graph under one of `op`'s [`OpKey::priors`]: `COARSEN` takes a
/// `Mis2` as phase 1 of its first level, or a shorter `Hierarchy` as its
/// prefix (cloned — the prior stays whole in the cache). Every step is
/// deterministic, so the artifact, its rendered body and its
/// [`Artifact::heap_bytes`] are the same from any start; a prior of a kind
/// the op cannot use is ignored.
pub fn compute_from(g: &CsrGraph, op: &OpKey, prior: Option<&Artifact>) -> Artifact {
    match op {
        OpKey::Mis2 => {
            let r = mis2_core::mis2(g);
            mis2_core::verify_mis2(g, &r.is_in).expect("internal error: served MIS-2 invalid");
            Artifact::Mis2(r)
        }
        OpKey::Coarsen { levels } => {
            let (prefix, mis2): (&[Level], _) = match prior {
                Some(Artifact::Hierarchy(h)) if h.len() <= *levels => (h, None),
                Some(Artifact::Mis2(r)) => (&[], Some(r)),
                _ => (&[], None),
            };
            Artifact::Hierarchy(extend(g, prefix, mis2, COARSEN_MIN_VERTICES, *levels))
        }
        OpKey::Solve { method } => {
            let n = g.num_vertices();
            let diag = solve_diag(g);
            let a = GraphLaplacian::new(g, diag);
            let b = solve_rhs(n);
            let opts = SolveOpts {
                tol: SOLVE_TOL,
                max_iters: SOLVE_MAX_ITERS,
            };
            let jacobi = Jacobi::constant(n, diag);
            let (x, result) = match method {
                Method::Cg => pcg(&a, &b, &jacobi, &opts),
                Method::Gmres => gmres(&a, &b, &jacobi, SOLVE_RESTART, &opts),
            };
            Artifact::Solve(SolveArtifact { x, result })
        }
    }
}

/// Render the response body (everything after `OK `) for an artifact.
pub fn body(graph_token: &str, op: &OpKey, artifact: &Artifact) -> String {
    match (op, artifact) {
        (OpKey::Mis2, Artifact::Mis2(r)) => {
            let fp = fingerprint_u32(
                r.in_set
                    .iter()
                    .copied()
                    .chain([r.iterations as u32, r.size() as u32]),
            );
            format!(
                "MIS2 {graph_token} size={} iters={} fp={fp:#018x}",
                r.size(),
                r.iterations
            )
        }
        (OpKey::Coarsen { levels }, Artifact::Hierarchy(h)) => {
            let mut fp = 0xCBF2_9CE4_8422_2325u64;
            for lvl in h {
                fp = splitmix64(fp ^ lvl.graph.num_vertices() as u64);
                fp = splitmix64(fp ^ lvl.graph.num_edges() as u64);
                if let Some(agg) = &lvl.agg {
                    fp = splitmix64(fp ^ fingerprint_u32(agg.labels.iter().copied()));
                }
            }
            let coarsest = &h.last().expect("hierarchy is never empty").graph;
            format!(
                "COARSEN {graph_token} want={levels} levels={} coarsest_v={} coarsest_e={} \
                 fp={fp:#018x}",
                h.len(),
                coarsest.num_vertices(),
                coarsest.num_edges()
            )
        }
        (OpKey::Solve { method }, Artifact::Solve(s)) => {
            let fp = splitmix64(
                fingerprint_f64(s.x.iter().chain(s.result.history.iter()))
                    ^ s.result.iterations as u64,
            );
            format!(
                "SOLVE {graph_token} {} n={} iters={} converged={} fp={fp:#018x}",
                method.name(),
                s.x.len(),
                s.result.iterations,
                s.result.converged
            )
        }
        _ => unreachable!("artifact kind always matches its op key"),
    }
}

/// The body of a response: freshly rendered text, or response bytes
/// interned in the registry, which a hit serves without rendering again.
pub enum Body {
    Text(String),
    Interned(Arc<RespBytes>),
}

/// One response, protocol-agnostic: `to_line()` renders the v1 text
/// form (`OK ...` / `ERR ...`), while the v3 writer folds `status()` into
/// a binary header and copies `body_bytes()` behind it — for a
/// [`Body::Interned`] body, without re-serializing anything.
///
/// This is the type the scheduler's jobs produce and its completions
/// receive, so interned bytes survive the whole job → completion → writer
/// path as one shared `Arc`.
pub struct Response {
    ok: bool,
    body: Body,
}

impl Response {
    /// A successful response with a freshly rendered body.
    pub fn ok_text(body: String) -> Response {
        Response {
            ok: true,
            body: Body::Text(body),
        }
    }

    /// An error response (newlines collapsed, so the v1 rendering stays
    /// one line).
    pub fn err(msg: &str) -> Response {
        Response {
            ok: false,
            body: Body::Text(msg.replace('\n', "; ")),
        }
    }

    /// A successful response served from interned bytes — only `OK`
    /// bodies are ever interned (errors are never cached).
    pub fn interned(bytes: Arc<RespBytes>) -> Response {
        Response {
            ok: true,
            body: Body::Interned(bytes),
        }
    }

    /// Rebuild a response from its v3 wire form (status byte + payload)
    /// — the inverse of [`Response::status`] / [`Response::body_bytes`],
    /// used by the shard router to re-emit an upstream shard's frame to a
    /// downstream client. Response payloads are always UTF-8 (servers
    /// render them from strings); invalid bytes are replaced rather than
    /// trusted, exactly like [`crate::codec::Frame::to_line`].
    pub fn from_wire(status: u8, payload: &[u8]) -> Response {
        Response {
            ok: status == codec::STATUS_OK,
            body: Body::Text(String::from_utf8_lossy(payload).into_owned()),
        }
    }

    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// The v3 frame status byte this response carries.
    pub fn status(&self) -> u8 {
        codec::status_byte(self.ok)
    }

    /// The body bytes as they go on a v3 wire (no `OK `/`ERR ` prefix).
    pub fn body_bytes(&self) -> &[u8] {
        match &self.body {
            Body::Text(s) => s.as_bytes(),
            Body::Interned(b) => &b.body,
        }
    }

    /// Render the v1 text line ([`codec::status_line`]).
    pub fn to_line(&self) -> String {
        codec::status_line(self.status(), self.body_bytes())
    }
}

/// The `(graph, op)` a compute request names; `None` for the
/// connection-level requests (`STATS`/`PING`/`QUIT`).
pub fn request_op(req: &Request) -> Option<(&GraphRef, OpKey)> {
    match req {
        Request::Mis2 { graph } => Some((graph, OpKey::Mis2)),
        Request::Coarsen { graph, levels } => Some((graph, OpKey::Coarsen { levels: *levels })),
        Request::Solve { graph, method } => Some((graph, OpKey::Solve { method: *method })),
        Request::Stats | Request::Metrics | Request::Ping | Request::Quit => None,
    }
}

/// Execute one *compute* request against a registry. The success path
/// returns the registry's interned response bytes ([`Response::interned`])
/// so every protocol — and every later cache hit — serves the same shared
/// serialization. `STATS`/`PING`/`QUIT` are connection-level and handled
/// by the server, not here.
pub fn execute_response(reg: &Registry, req: &Request) -> Response {
    let Some((graph, op)) = request_op(req) else {
        return Response::err("not a compute request");
    };
    match reg.response(graph, &op) {
        Ok(bytes) => Response::interned(bytes),
        Err(e) => Response::err(&e),
    }
}

/// Text-line adapter over [`execute_response`]: the full v1 response line.
/// The direct-call side of every e2e diff goes through here.
pub fn execute(reg: &Registry, req: &Request) -> String {
    execute_response(reg, req).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::GraphRef;
    use mis2_graph::Scale;

    #[test]
    fn compute_is_deterministic_per_op() {
        let g = mis2_graph::gen::laplace2d(24, 24);
        for op in [
            OpKey::Mis2,
            OpKey::Coarsen { levels: 3 },
            OpKey::Solve { method: Method::Cg },
            OpKey::Solve {
                method: Method::Gmres,
            },
        ] {
            let a = body("g", &op, &compute(&g, &op));
            let b = body("g", &op, &compute(&g, &op));
            assert_eq!(a, b, "{op:?}");
        }
    }

    /// What a derived `COARSEN` must reproduce: the levels themselves, the
    /// rendered body and the bytes the registry charges.
    fn served<'a>(token: &str, op: &OpKey, a: &'a Artifact) -> (&'a [Level], String, usize) {
        let Artifact::Hierarchy(levels) = a else {
            panic!("wrong artifact kind");
        };
        (levels, body(token, op, a), a.heap_bytes())
    }

    #[test]
    fn coarsen_from_any_prior_equals_from_scratch() {
        // Every length up to one past the natural end and the protocol's
        // cap, from the MIS-2 and from every shorter hierarchy, pools 1 and
        // 3 — on inputs small enough for the whole cross product that end
        // by both stop rules.
        use crate::proto::MAX_LEVELS;
        use mis2_graph::gen;
        let graphs = [
            // Isolated vertices survive every level: "no progress".
            ("rmat", gen::rmat(10, 4, 0.57, 0.19, 0.19, 3)),
            // At most COARSEN_MIN_VERTICES: the input is the hierarchy.
            ("path", gen::path(40)),
            ("grid", gen::laplace2d(24, 24)),
            ("random", gen::erdos_renyi(400, 1200, 5)),
        ];
        let coarsen = |levels| OpKey::Coarsen { levels };
        let (mut stopped_small, mut stopped_stuck) = (false, false);
        for (name, g) in &graphs {
            let full = compute(g, &coarsen(MAX_LEVELS));
            let (full, ..) = served(name, &coarsen(MAX_LEVELS), &full);
            let depth = full.len();
            let coarsest = &full[depth - 1].graph;
            if coarsest.num_vertices() <= COARSEN_MIN_VERTICES {
                stopped_small = true;
            } else {
                assert!(
                    depth < MAX_LEVELS,
                    "{name}: small inputs end before the cap"
                );
                assert_eq!(coarsest.num_edges(), 0, "{name}");
                stopped_stuck = true;
            }
            // `depth + 1` levels is a request past the natural end: a
            // prefix of that length has already stopped.
            let lens: Vec<usize> = (1..=depth + 1).chain([MAX_LEVELS]).collect();
            let scratch: Vec<Artifact> = lens.iter().map(|&n| compute(g, &coarsen(n))).collect();
            let mis2 = compute(g, &OpKey::Mis2);
            // A `Solve` is no prior of `COARSEN`: ignored.
            let solve = compute(g, &OpKey::Solve { method: Method::Cg });
            for (i, &n) in lens.iter().enumerate() {
                let op = coarsen(n);
                let want = served(name, &op, &scratch[i]);
                for prior in [&mis2, &solve].into_iter().chain(&scratch[..i]) {
                    for pool in [1, 3] {
                        let got =
                            mis2_prim::pool::with_pool(pool, || compute_from(g, &op, Some(prior)));
                        assert_eq!(
                            served(name, &op, &got),
                            want,
                            "{name} COARSEN {n} pool {pool}"
                        );
                    }
                }
            }
        }
        assert!(
            stopped_small && stopped_stuck,
            "both stop rules must be met"
        );
    }

    #[test]
    fn coarsen_from_a_prior_equals_from_scratch_over_the_suite() {
        // The suite's structure (the small cases above carry the cross
        // product): the full hierarchy from the MIS-2, and from
        // `COARSEN 2`, against from scratch.
        let op = OpKey::Coarsen {
            levels: crate::proto::MAX_LEVELS,
        };
        for (name, g) in mis2_graph::suite::build_all(Scale::Tiny) {
            let scratch = compute(&g, &op);
            let want = served(name, &op, &scratch);
            let priors = [
                (3, compute(&g, &OpKey::Mis2)),
                (1, compute(&g, &OpKey::Coarsen { levels: 2 })),
            ];
            for (pool, prior) in &priors {
                let got = mis2_prim::pool::with_pool(*pool, || compute_from(&g, &op, Some(prior)));
                assert_eq!(served(name, &op, &got), want, "{name} pool {pool}");
            }
        }
    }

    #[test]
    fn op_keys_name_their_priors_longest_first() {
        let c = |levels| OpKey::Coarsen { levels };
        assert_eq!(c(4).priors(), vec![c(3), c(2), OpKey::Mis2]);
        assert_eq!(c(2).priors(), vec![OpKey::Mis2]);
        for op in [c(1), OpKey::Mis2, OpKey::Solve { method: Method::Cg }] {
            assert_eq!(op.priors(), vec![], "{op:?}");
        }
    }

    /// The operator of a `SOLVE`, assembled: what the service ran before it
    /// applied the graph directly, kept as the oracle for that path.
    fn solve_matrix(g: &CsrGraph) -> mis2_sparse::CsrMatrix {
        mis2_sparse::gen::from_graph_with_diag(g, solve_diag(g))
    }

    #[test]
    fn solve_equals_the_assembled_oracle() {
        // Everything a `Solve` artifact holds, and what the registry charges
        // for it (`svc_cold` sizes its budget by those bytes), against CG /
        // GMRES on the assembled matrix with the diagonal read back from it.
        use mis2_graph::gen;
        let mut graphs = mis2_graph::suite::build_all(Scale::Tiny);
        // Isolated vertices (diagonal-only rows), and no rows at all.
        graphs.push(("rmat", gen::rmat(10, 4, 0.57, 0.19, 0.19, 3)));
        graphs.push(("empty", CsrGraph::empty(0)));
        let opts = SolveOpts {
            tol: SOLVE_TOL,
            max_iters: SOLVE_MAX_ITERS,
        };
        for (name, g) in &graphs {
            let a = solve_matrix(g);
            let b = solve_rhs(a.nrows());
            let jacobi = Jacobi::new(&a);
            for method in [Method::Cg, Method::Gmres] {
                let (x, result) = match method {
                    Method::Cg => pcg(&a, &b, &jacobi, &opts),
                    Method::Gmres => gmres(&a, &b, &jacobi, SOLVE_RESTART, &opts),
                };
                let want = Artifact::Solve(SolveArtifact { x, result });
                let op = OpKey::Solve { method };
                for pool in [1, 3] {
                    let got = mis2_prim::pool::with_pool(pool, || compute(g, &op));
                    let (Artifact::Solve(got_s), Artifact::Solve(want_s)) = (&got, &want) else {
                        panic!("wrong artifact kind");
                    };
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                    let what = format!("{name} {} pool {pool}", method.name());
                    assert_eq!(bits(&got_s.x), bits(&want_s.x), "{what}: x");
                    assert_eq!(
                        bits(&got_s.result.history),
                        bits(&want_s.result.history),
                        "{what}: history"
                    );
                    assert_eq!(got_s.result, want_s.result, "{what}");
                    assert_eq!(got.heap_bytes(), want.heap_bytes(), "{what}: charged bytes");
                    assert_eq!(body(name, &op, &got), body(name, &op, &want), "{what}");
                }
            }
        }
    }

    #[test]
    fn solve_converges_on_small_laplacian() {
        let g = mis2_graph::gen::laplace2d(16, 16);
        let Artifact::Solve(s) = compute(&g, &OpKey::Solve { method: Method::Cg }) else {
            panic!("wrong artifact kind");
        };
        assert!(
            s.result.converged,
            "Jacobi-CG must converge on a 16x16 grid"
        );
    }

    #[test]
    fn execute_formats_ok_and_err_lines() {
        let reg = Registry::new(Scale::Tiny);
        let ok_line = execute(
            &reg,
            &Request::Mis2 {
                graph: GraphRef::Suite("ecology2".into()),
            },
        );
        assert!(ok_line.starts_with("OK MIS2 ecology2 size="), "{ok_line}");
        let err_line = execute(
            &reg,
            &Request::Mis2 {
                graph: GraphRef::Suite("nope".into()),
            },
        );
        assert!(err_line.starts_with("ERR "), "{err_line}");
        assert!(!err_line.contains('\n'), "{err_line}");
    }

    #[test]
    fn response_renders_lines_and_status_bytes() {
        let ok = Response::ok_text("PONG".into());
        assert!(ok.is_ok());
        assert_eq!(ok.status(), codec::STATUS_OK);
        assert_eq!(ok.to_line(), "OK PONG");
        assert_eq!(ok.body_bytes(), b"PONG");

        let err = Response::err("a\nb");
        assert!(!err.is_ok());
        assert_eq!(err.status(), codec::STATUS_ERR);
        assert_eq!(err.to_line(), "ERR a; b");
    }

    #[test]
    fn wire_form_round_trips_through_from_wire() {
        for resp in [Response::ok_text("PONG".into()), Response::err("nope")] {
            let back = Response::from_wire(resp.status(), resp.body_bytes());
            assert_eq!(back.status(), resp.status());
            assert_eq!(back.to_line(), resp.to_line());
        }
    }

    #[test]
    fn interned_responses_share_the_registry_bytes() {
        let reg = Registry::new(Scale::Tiny);
        let req = Request::parse("MIS2 ecology2").unwrap();
        let resp = execute_response(&reg, &req);
        assert!(resp.is_ok());
        let Body::Interned(bytes) = &resp.body else {
            panic!("compute success must carry interned bytes");
        };
        let again = reg
            .response(&GraphRef::Suite("ecology2".into()), &OpKey::Mis2)
            .unwrap();
        assert!(
            Arc::ptr_eq(bytes, &again),
            "the response and the registry must share one interned Arc"
        );
        assert_eq!(resp.to_line(), execute(&reg, &req));
    }
}
