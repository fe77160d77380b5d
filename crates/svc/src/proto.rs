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

use crate::ops::OpKey;
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
        Ok(GraphRef::from_token(tok))
    }

    /// [`GraphRef::parse`] on a token known to be non-empty.
    fn from_token(tok: &str) -> GraphRef {
        if names_file(tok) {
            GraphRef::Mtx(tok.to_string())
        } else {
            GraphRef::Suite(tok.to_string())
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

/// Whether a graph token names a Matrix Market file (it ends in `.mtx`)
/// rather than a suite workload: the one rule [`GraphRef::parse`] and the
/// registry's borrowed probe both classify by.
pub(crate) fn names_file(tok: &str) -> bool {
    tok.ends_with(".mtx")
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

/// One request line parsed without allocating: the command and, for a
/// compute request, the graph token as the line spells it and the
/// [`OpKey`] it names. This is the request grammar; [`Request::parse`] is
/// this view made owned. A server probes its cache straight from the view
/// ([`crate::Registry::probe`]) and builds the owned request only on a
/// miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestView<'a> {
    /// `MIS2`, `COARSEN` or `SOLVE`.
    Compute {
        graph: &'a str,
        op: OpKey,
    },
    Stats,
    Metrics,
    Ping,
    Quit,
}

impl<'a> RequestView<'a> {
    /// Parse one request line (without the trailing newline). Only an
    /// error allocates (its message).
    pub fn parse(line: &'a str) -> Result<RequestView<'a>, String> {
        let mut it = Tokens::new(line);
        let cmd = it.next().ok_or("empty request")?;
        let view = match cmd {
            "MIS2" => RequestView::Compute {
                graph: it.next().ok_or("MIS2 needs a graph")?,
                op: OpKey::Mis2,
            },
            "COARSEN" => {
                let graph = it.next().ok_or("COARSEN needs a graph")?;
                let levels: usize = it
                    .next()
                    .ok_or("COARSEN needs a level count")?
                    .parse()
                    .map_err(|_| "COARSEN levels must be an integer")?;
                if levels == 0 || levels > MAX_LEVELS {
                    return Err(format!("COARSEN levels must be in 1..={MAX_LEVELS}"));
                }
                RequestView::Compute {
                    graph,
                    op: OpKey::Coarsen { levels },
                }
            }
            "SOLVE" => {
                let graph = it.next().ok_or("SOLVE needs a graph")?;
                let method = Method::parse(it.next().ok_or("SOLVE needs cg|gmres")?)?;
                RequestView::Compute {
                    graph,
                    op: OpKey::Solve { method },
                }
            }
            "STATS" => RequestView::Stats,
            "METRICS" => RequestView::Metrics,
            "PING" => RequestView::Ping,
            "QUIT" => RequestView::Quit,
            other => {
                return Err(format!(
                    "unknown command: {other} (want MIS2|COARSEN|SOLVE|STATS|METRICS|PING|QUIT)"
                ))
            }
        };
        if let Some(extra) = it.next() {
            return Err(format!("trailing token: {extra}"));
        }
        Ok(view)
    }

    /// The owned request this view stands for.
    pub fn to_request(self) -> Request {
        match self {
            RequestView::Compute { graph, op } => {
                let graph = GraphRef::from_token(graph);
                match op {
                    OpKey::Mis2 => Request::Mis2 { graph },
                    OpKey::Coarsen { levels } => Request::Coarsen { graph, levels },
                    OpKey::Solve { method } => Request::Solve { graph, method },
                }
            }
            RequestView::Stats => Request::Stats,
            RequestView::Metrics => Request::Metrics,
            RequestView::Ping => Request::Ping,
            RequestView::Quit => Request::Quit,
        }
    }
}

/// The whitespace-separated tokens of a line: exactly those of
/// [`str::split_whitespace`]. An ASCII line is split by bytes, on the six
/// ASCII characters `char::is_whitespace` accepts (`\x0B` among them,
/// which `u8::is_ascii_whitespace` leaves out); any other line goes
/// through `split_whitespace` itself.
enum Tokens<'a> {
    Ascii(&'a str),
    Unicode(std::str::SplitWhitespace<'a>),
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Tokens<'a> {
        if line.is_ascii() {
            Tokens::Ascii(line)
        } else {
            Tokens::Unicode(line.split_whitespace())
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = match self {
            Tokens::Ascii(rest) => rest,
            Tokens::Unicode(it) => return it.next(),
        };
        let sep = |b: &u8| matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r');
        let start = rest.as_bytes().iter().position(|b| !sep(b))?;
        let tail = &rest[start..];
        let len = tail.as_bytes().iter().position(sep).unwrap_or(tail.len());
        let (tok, after) = tail.split_at(len);
        *rest = after;
        Some(tok)
    }
}

impl Request {
    /// Parse one request line (without the trailing newline): the
    /// [`RequestView`] of the line, made owned.
    pub fn parse(line: &str) -> Result<Request, String> {
        RequestView::parse(line).map(RequestView::to_request)
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

    /// Seeded mutations of request lines (splitmix64, as in the root
    /// `tests/proptests.rs`): every whitespace `split_whitespace` knows,
    /// ASCII or not, between, before and after the tokens; empty tokens;
    /// level spellings at and past the bounds; unknown methods and
    /// commands; trailing tokens. On every line the byte tokenizer yields
    /// `split_whitespace`'s tokens, and the view accepts exactly the lines
    /// `Request::parse` turns into a compute request, with the same graph
    /// and op, which are the line's own tokens.
    #[test]
    fn the_view_and_the_parser_agree_on_mutated_lines() {
        use mis2_prim::hash::splitmix64;
        const WS: [&str; 8] = [" ", "\t", "\x0B", "\x0C", "\r", "\n", "\u{A0}", "\u{3000}"];
        const CMDS: [&str; 10] = [
            "MIS2", "COARSEN", "SOLVE", "STATS", "METRICS", "PING", "QUIT", "FROB", "mis2", "V2",
        ];
        const GRAPHS: [&str; 6] = ["ecology2", "g.mtx", "./g.mtx", "é.mtx", "a\u{A0}b", "x"];
        const ARGS: [&str; 10] = [
            "0", "32", "33", "+3", "03", "-1", "2", "cg", "gmres", "jacobi",
        ];
        let mut state = 0x5EED_u64;
        let mut next = |n: usize| {
            state = splitmix64(state);
            (state % n as u64) as usize
        };
        let mut accepted = 0;
        for _ in 0..20_000 {
            let mut line = String::new();
            for t in 0..1 + next(4) {
                if t > 0 || next(4) == 0 {
                    for _ in 0..=next(2) {
                        line += WS[next(WS.len())];
                    }
                }
                let pool: &[&str] = match t {
                    // Half the lines name a compute command.
                    0 if next(2) == 0 => &CMDS[..3],
                    0 => &CMDS,
                    1 => &GRAPHS,
                    2 => &ARGS,
                    _ => [&CMDS[..], &GRAPHS, &ARGS][next(3)],
                };
                if next(8) > 0 {
                    line += pool[next(pool.len())];
                }
            }
            if next(4) == 0 {
                line += WS[next(WS.len())];
            }

            let toks: Vec<&str> = line.split_whitespace().collect();
            assert!(Tokens::new(&line).eq(toks.iter().copied()), "{line:?}");
            let view = RequestView::parse(&line);
            let owned = Request::parse(&line);
            match (&view, &owned) {
                (Ok(RequestView::Compute { graph, op }), Ok(req)) => {
                    accepted += 1;
                    let want = GraphRef::parse(graph).unwrap();
                    assert_eq!(crate::ops::request_op(req), Some((&want, *op)), "{line:?}");
                    assert_eq!(*graph, toks[1], "{line:?}");
                    let from_toks = match (toks[0], toks.len()) {
                        ("MIS2", 2) => OpKey::Mis2,
                        ("COARSEN", 3) => OpKey::Coarsen {
                            levels: toks[2].parse().unwrap(),
                        },
                        ("SOLVE", 3) => OpKey::Solve {
                            method: Method::parse(toks[2]).unwrap(),
                        },
                        _ => panic!("accepted {line:?}"),
                    };
                    assert_eq!(*op, from_toks, "{line:?}");
                }
                (Ok(v), Ok(req)) => {
                    assert_eq!(crate::ops::request_op(req), None, "{line:?}");
                    assert_eq!(v.to_request(), *req, "{line:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{line:?}"),
                _ => panic!("{line:?}: view {view:?}, parse {owned:?}"),
            }
        }
        assert!(accepted > 1_000, "only {accepted} compute lines drawn");
    }
}
