//! The line-oriented request protocol spoken over the loopback socket:
//! v1, the blocking text protocol a person types at `nc` or `mis2svc
//! client`. (The binary v3 framing programs pipeline over lives in
//! [`crate::codec`]; its request payloads are these same request texts.)
//!
//! ## v1 — one request line, one response line, in order
//!
//! UTF-8, fields separated by single spaces:
//!
//! ```text
//! request  = "MIS2" SP graph
//!          | "COARSEN" SP graph SP levels        ; 1 <= levels <= 32
//!          | "SOLVE" SP graph SP ("cg"|"gmres")
//!          | "STATS" | "METRICS" | "PING" | "QUIT"
//! graph    = suite workload name | path ending in ".mtx"
//! response = "OK" SP body | "ERR" SP message
//! ```
//!
//! A v1 connection can have exactly one request in flight: the server
//! answers each line before reading the next, so responses arrive in
//! request order. The one line that is not a request is the `V3` upgrade
//! hello ([`crate::codec::HELLO_V3`]); any other word — the retired `V2`
//! hello and its `T<n>` tags included — is an unknown command, answered
//! `ERR unknown command: ...` with the connection kept.
//!
//! The protocol is deliberately tiny and text-only: it exists so many
//! clients can multiplex MIS-2 / coarsening / solver work onto one warm
//! process, not to be a general RPC system. Responses for compute requests
//! embed order-sensitive fingerprints of the full result (see
//! [`crate::ops`]), which is how the end-to-end tests assert that a served
//! answer is bitwise-identical to a direct library call.

use std::fmt;

/// Maximum request line length in bytes (excluding the newline). Longer
/// lines get `ERR line too long` and the connection is closed — an
/// unterminated line must not grow the server's read buffer without bound.
pub const MAX_LINE: usize = 64 * 1024;

/// How a request names its graph: a synthetic suite workload (built by
/// `mis2_graph::suite`) or a Matrix Market file on the server's disk.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GraphRef {
    /// A name from `mis2_graph::suite::workloads()`.
    Suite(String),
    /// A path to a `.mtx` file, resolved on the server side.
    Mtx(String),
}

impl GraphRef {
    /// Classify a protocol token: anything ending in `.mtx` is a file
    /// path, everything else a suite workload name.
    pub fn parse(tok: &str) -> Result<GraphRef, String> {
        if tok.is_empty() {
            return Err("empty graph name".into());
        }
        if tok.ends_with(".mtx") {
            Ok(GraphRef::Mtx(tok.to_string()))
        } else {
            Ok(GraphRef::Suite(tok.to_string()))
        }
    }

    /// The token as it appears on the wire (and in response bodies).
    pub fn token(&self) -> &str {
        match self {
            GraphRef::Suite(s) | GraphRef::Mtx(s) => s,
        }
    }

    /// The cache-key form of this reference: `.mtx` paths are
    /// canonicalized (`.`/`..`/symlinks resolved against the filesystem),
    /// so `./g.mtx` and `g.mtx` intern **one** graph instead of two cache
    /// entries. Suite names are already canonical. `None` means the path
    /// did not resolve (typically a missing file); callers fall back to
    /// the literal spelling — which keeps error messages in the client's
    /// words — and must not memoize the failure, since the file may
    /// appear later. Response bodies always echo the wire token, never
    /// this form.
    pub fn try_canonical(&self) -> Option<GraphRef> {
        match self {
            GraphRef::Suite(_) => Some(self.clone()),
            GraphRef::Mtx(path) => std::fs::canonicalize(path)
                .ok()
                .map(|real| GraphRef::Mtx(real.to_string_lossy().into_owned())),
        }
    }
}

impl fmt::Display for GraphRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Krylov method selector for `SOLVE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Method {
    Cg,
    Gmres,
}

impl Method {
    pub fn parse(tok: &str) -> Result<Method, String> {
        match tok {
            "cg" => Ok(Method::Cg),
            "gmres" => Ok(Method::Gmres),
            other => Err(format!("unknown solve method: {other} (want cg|gmres)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Method::Cg => "cg",
            Method::Gmres => "gmres",
        }
    }
}

/// Maximum `levels` a `COARSEN` request may ask for.
pub const MAX_LEVELS: usize = 32;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Request {
    Mis2 { graph: GraphRef },
    Coarsen { graph: GraphRef, levels: usize },
    Solve { graph: GraphRef, method: Method },
    Stats,
    Metrics,
    Ping,
    Quit,
}

impl Request {
    /// Parse one request line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut it = line.split_whitespace();
        let cmd = it.next().ok_or_else(|| "empty request".to_string())?;
        let req = match cmd {
            "MIS2" => Request::Mis2 {
                graph: GraphRef::parse(it.next().ok_or("MIS2 needs a graph")?)?,
            },
            "COARSEN" => {
                let graph = GraphRef::parse(it.next().ok_or("COARSEN needs a graph")?)?;
                let levels: usize = it
                    .next()
                    .ok_or("COARSEN needs a level count")?
                    .parse()
                    .map_err(|_| "COARSEN levels must be an integer".to_string())?;
                if levels == 0 || levels > MAX_LEVELS {
                    return Err(format!("COARSEN levels must be in 1..={MAX_LEVELS}"));
                }
                Request::Coarsen { graph, levels }
            }
            "SOLVE" => {
                let graph = GraphRef::parse(it.next().ok_or("SOLVE needs a graph")?)?;
                let method = Method::parse(it.next().ok_or("SOLVE needs cg|gmres")?)?;
                Request::Solve { graph, method }
            }
            "STATS" => Request::Stats,
            "METRICS" => Request::Metrics,
            "PING" => Request::Ping,
            "QUIT" => Request::Quit,
            other => {
                return Err(format!(
                    "unknown command: {other} (want MIS2|COARSEN|SOLVE|STATS|METRICS|PING|QUIT)"
                ))
            }
        };
        if let Some(extra) = it.next() {
            return Err(format!("trailing token: {extra}"));
        }
        Ok(req)
    }

    /// Render back to the wire form (inverse of [`Request::parse`]).
    pub fn to_line(&self) -> String {
        match self {
            Request::Mis2 { graph } => format!("MIS2 {graph}"),
            Request::Coarsen { graph, levels } => format!("COARSEN {graph} {levels}"),
            Request::Solve { graph, method } => format!("SOLVE {graph} {}", method.name()),
            Request::Stats => "STATS".into(),
            Request::Metrics => "METRICS".into(),
            Request::Ping => "PING".into(),
            Request::Quit => "QUIT".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for line in [
            "MIS2 ecology2",
            "MIS2 /tmp/g.mtx",
            "COARSEN af_shell7 3",
            "SOLVE Laplace3D_100 cg",
            "SOLVE tmt_sym gmres",
            "STATS",
            "METRICS",
            "PING",
            "QUIT",
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(req.to_line(), line, "round trip of {line}");
        }
    }

    #[test]
    fn mtx_paths_are_classified_by_suffix() {
        assert_eq!(
            Request::parse("MIS2 data/g.mtx").unwrap(),
            Request::Mis2 {
                graph: GraphRef::Mtx("data/g.mtx".into())
            }
        );
        assert_eq!(
            Request::parse("MIS2 ecology2").unwrap(),
            Request::Mis2 {
                graph: GraphRef::Suite("ecology2".into())
            }
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "",
            "MIS2",
            "FROBNICATE x",
            "COARSEN g",
            "COARSEN g zero",
            "COARSEN g 0",
            "COARSEN g 33",
            "SOLVE g",
            "SOLVE g jacobi",
            "MIS2 a b",
            "STATS extra",
            "METRICS extra",
        ] {
            assert!(Request::parse(line).is_err(), "must reject {line:?}");
        }
    }

    #[test]
    fn retired_v2_spellings_are_unknown_commands() {
        for line in ["V2", "T1 PING"] {
            let e = Request::parse(line).unwrap_err();
            assert!(e.starts_with("unknown command: "), "{line:?} -> {e}");
        }
    }
}
