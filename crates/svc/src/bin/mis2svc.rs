//! `mis2svc` — the graph-service daemon and its command-line client.
//!
//! ```text
//! mis2svc serve  [--addr HOST:PORT] [--threads N] [--scale tiny|small|paper]
//!                [--mem-budget BYTES[k|m|g]] [--max-inflight N]
//!                [--max-conns N] [--slow-ms MS]
//!                [--io-backend epoll|threads]
//! mis2svc route  --shard HOST:PORT [--shard HOST:PORT ...]
//!                [--addr HOST:PORT] [--max-inflight N] [--max-conns N]
//! mis2svc client --addr HOST:PORT REQUEST...
//! mis2svc workloads [--addr HOST:PORT --pipeline N]
//! ```
//!
//! `--mem-budget` bounds the registry's cached bytes (graphs, and
//! artifacts with their interned response bytes; 0 or absent =
//! unbounded): over budget, artifacts evict before graphs in LRU order, a
//! response's bytes leaving only with their artifact, and responses stay
//! byte-identical either way. `--max-inflight` caps how
//! many pipelined (v3) requests one connection may keep outstanding
//! (absent = 64). `--threads` is the compute budget (absent = every
//! CPU): the scheduler runs `min(4, N)` worker-leaders over a fixed
//! 64-job queue. Zero is a usage error for every flag whose zero value
//! the server cannot honor (`--threads`, `--max-conns`,
//! `--max-inflight`): the explicit `0` would silently become a default
//! — worse, a `--max-inflight 0` hello would advertise a window no client
//! accepts — so the daemon refuses it up front, mirroring the client's
//! `max_inflight=0` hello rejection. `--slow-ms` sets the slow-request
//! ring's capture threshold (default 500); `0` is legal and captures
//! **every** request — the knob CI uses to prove the ring works.
//! `--io-backend` selects the connection engine: `epoll` (one nonblocking
//! readiness loop, the Linux default) or `threads` (reader+writer thread
//! per connection, the portable fallback and the default elsewhere). Responses are bitwise-identical either way; an
//! explicit `epoll` on a non-Linux host is a usage error rather than a
//! silent downgrade.
//!
//! `serve` binds the loopback listener, prints `mis2svc listening on ADDR`
//! and serves until killed. `client` sends one request line (the remaining
//! arguments joined by spaces), prints the response, and exits 0 iff the
//! response is `OK ...`. `workloads` lists the suite graph names — used by
//! the CI smoke leg to sweep every workload through a running server.
//! With `--addr` and `--pipeline N` it instead runs the whole sweep
//! (MIS2 + COARSEN 2 per workload, plus two SOLVEs) through a
//! binary-frame [`V3Client`] with an N-deep window, printing one
//! response per line in request order, frames rendered back to text, so
//! the output is directly comparable to a sequential v1 sweep. That is
//! exactly what the CI v3 smoke legs diff.
//!
//! `route` runs the shard router: each `--shard` names one running
//! `mis2svc serve` process, requests are consistent-hashed to the shard
//! owning their graph, and the router is protocol-transparent — `client`
//! and `workloads --pipeline N` work against it
//! unchanged, with responses byte-identical to a single unsharded
//! server's. `STATS` and `METRICS` through the router are printed from
//! one merge of the shards' expositions: the `STATS` line carries every
//! counter summed across shards (`uptime_s=` takes the minimum), plus
//! `shards= shards_up= shard_bytes= shard_evictions=` at the end; a dead
//! shard fails fast with `ERR shard down` on its keys only.

use mis2_graph::{suite, Scale};
use mis2_svc::{client::Client, client::V3Client, server, shard};

fn usage() -> ! {
    eprintln!(
        "usage: mis2svc serve  [--addr HOST:PORT] [--threads N] [--scale tiny|small|paper]\n\
         \x20                     [--mem-budget BYTES[k|m|g]] [--max-inflight N]\n\
         \x20                     [--max-conns N] [--slow-ms MS]\n\
         \x20                     [--io-backend epoll|threads]\n\
         \x20      mis2svc route  --shard HOST:PORT [--shard HOST:PORT ...]\n\
         \x20                     [--addr HOST:PORT] [--max-inflight N] [--max-conns N]\n\
         \x20      mis2svc client --addr HOST:PORT REQUEST...\n\
         \x20      mis2svc workloads [--addr HOST:PORT --pipeline N]"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => cmd_serve(&argv[1..]),
        Some("route") => cmd_route(&argv[1..]),
        Some("client") => cmd_client(&argv[1..]),
        Some("workloads") => cmd_workloads(&argv[1..]),
        _ => usage(),
    }
}

/// A positive count. An explicit `0` is a usage error: it would silently
/// become the flag's default — or, for `--max-inflight`, a hello
/// advertising a window no client accepts — so the daemon refuses it up
/// front instead of serving with a value the operator didn't ask for.
fn parse_nonzero(flag: &str, s: &str) -> usize {
    match s.parse::<usize>() {
        Ok(0) => {
            eprintln!("error: {flag} must be at least 1 (got 0)");
            usage();
        }
        Ok(v) => v,
        Err(_) => {
            eprintln!("error: {flag} expects a positive integer, got {s:?}");
            usage();
        }
    }
}

/// A count where `0` is a legal, meaningful value (`--slow-ms 0` =
/// capture every request) — unlike [`parse_nonzero`].
fn parse_u64(flag: &str, s: &str) -> u64 {
    s.parse::<u64>().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects a non-negative integer, got {s:?}");
        usage()
    })
}

/// `--io-backend epoll|threads`. An explicit `epoll` on a host without
/// the syscall is refused up front (the config layer would silently
/// degrade a *defaulted* epoll to threads, but an operator who typed the
/// flag should learn the machine can't honor it).
fn parse_io_backend(s: &str) -> server::IoBackend {
    let backend: server::IoBackend = s.parse().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    if backend == server::IoBackend::Epoll && !cfg!(target_os = "linux") {
        eprintln!("error: --io-backend epoll is Linux-only; use --io-backend threads");
        usage();
    }
    backend
}

/// Byte count with an optional binary suffix: `4m` = 4 MiB, `200k`, `1g`.
/// `0` is legal here (documented as "unbounded"); overflow is not.
fn parse_bytes(flag: &str, s: &str) -> usize {
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|v| v.checked_shl(shift).filter(|b| *b >> shift == v))
        .unwrap_or_else(|| {
            eprintln!("error: {flag} expects BYTES[k|m|g] within the machine's usize, got {s:?}");
            usage()
        })
}

fn cmd_serve(argv: &[String]) {
    let mut cfg = server::ServerConfig::default();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> &str {
            *i += 1;
            argv.get(*i).map(String::as_str).unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--addr" => cfg.addr = take(&mut i).to_string(),
            "--threads" => cfg.threads = parse_nonzero("--threads", take(&mut i)),
            "--max-conns" => cfg.max_conns = parse_nonzero("--max-conns", take(&mut i)),
            "--mem-budget" => cfg.mem_budget = parse_bytes("--mem-budget", take(&mut i)),
            "--max-inflight" => cfg.max_inflight = parse_nonzero("--max-inflight", take(&mut i)),
            "--slow-ms" => cfg.slow_ms = parse_u64("--slow-ms", take(&mut i)),
            "--io-backend" => cfg.io_backend = parse_io_backend(take(&mut i)),
            "--scale" => cfg.scale = Scale::parse(take(&mut i)).unwrap_or_else(|| usage()),
            _ => usage(),
        }
        i += 1;
    }
    match server::serve(cfg) {
        Ok(handle) => {
            println!("mis2svc listening on {}", handle.addr());
            handle.wait();
        }
        Err(e) => {
            eprintln!("error: cannot serve: {e}");
            std::process::exit(1);
        }
    }
}

/// `route`: front N running `mis2svc serve` shards with the
/// consistent-hash router of [`shard::route`]. Prints the bound address
/// (`mis2svc routing on ADDR`) and serves until killed; every shard must
/// answer a v3 hello at startup, and the advertised downstream window is
/// clamped to the smallest shard window.
fn cmd_route(argv: &[String]) {
    let mut cfg = shard::RouterConfig::default();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> &str {
            *i += 1;
            argv.get(*i).map(String::as_str).unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--addr" => cfg.addr = take(&mut i).to_string(),
            "--shard" => cfg.shards.push(take(&mut i).to_string()),
            "--max-conns" => cfg.max_conns = parse_nonzero("--max-conns", take(&mut i)),
            "--max-inflight" => cfg.max_inflight = parse_nonzero("--max-inflight", take(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    if cfg.shards.is_empty() {
        eprintln!("error: route needs at least one --shard");
        usage();
    }
    match shard::route(cfg) {
        Ok(handle) => {
            println!("mis2svc routing on {}", handle.addr());
            handle.wait();
        }
        Err(e) => {
            eprintln!("error: cannot route: {e}");
            std::process::exit(1);
        }
    }
}

/// The sweep the CI smoke legs run: MIS2, COARSEN 2 and a solve by each
/// method per suite workload (Table II plus the R-MAT power-law extras).
fn sweep_lines() -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for w in suite::all_workloads() {
        lines.push(format!("MIS2 {}", w.name));
        lines.push(format!("COARSEN {} 2", w.name));
        lines.push(format!("SOLVE {} cg", w.name));
        lines.push(format!("SOLVE {} gmres", w.name));
    }
    lines
}

/// `workloads`: list the suite graph names; with `--addr` + `--pipeline N`
/// run the full sweep through an N-deep v3 window instead, printing the
/// responses in request order (frames rendered back to text),
/// byte-comparable to a sequential v1 sweep.
fn cmd_workloads(argv: &[String]) {
    let mut addr: Option<String> = None;
    let mut pipeline: Option<usize> = None;
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> &str {
            *i += 1;
            argv.get(*i).map(String::as_str).unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--addr" => addr = Some(take(&mut i).to_string()),
            "--pipeline" => pipeline = Some(parse_nonzero("--pipeline", take(&mut i))),
            _ => usage(),
        }
        i += 1;
    }
    let (addr, window) = match (addr, pipeline) {
        (None, None) => {
            for w in suite::all_workloads() {
                println!("{}", w.name);
            }
            return;
        }
        (Some(addr), Some(window)) => (addr, window),
        _ => usage(), // --addr and --pipeline only make sense together
    };
    let lines = sweep_lines();
    let mut client = V3Client::connect(&addr, window).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let responses = client.request_many(&lines).unwrap_or_else(|e| {
        eprintln!("error: v3 sweep failed: {e}");
        std::process::exit(1);
    });
    print_sweep_percentiles(&lines, client.last_latencies_ns());
    let _ = client.quit();
    let mut failed = false;
    for response in &responses {
        println!("{response}");
        failed |= !response.starts_with("OK ");
    }
    if failed {
        std::process::exit(1);
    }
}

/// Per-op client-observed p50/p95/p99 of the sweep, to **stderr** —
/// stdout stays byte-comparable across protocols (the CI smoke legs
/// sort+diff it), and timings would never diff clean.
fn print_sweep_percentiles(lines: &[String], latencies_ns: &[u64]) {
    for op in ["MIS2", "COARSEN", "SOLVE"] {
        let mut sample: Vec<u64> = lines
            .iter()
            .zip(latencies_ns)
            .filter(|(l, _)| l.split_whitespace().next() == Some(op))
            .map(|(_, ns)| *ns)
            .collect();
        if sample.is_empty() {
            continue;
        }
        sample.sort_unstable();
        let p = |q| mis2_svc::metrics::percentile_ns(&sample, q) / 1_000;
        eprintln!(
            "workloads/latency: op={op} n={} p50_us={} p95_us={} p99_us={}",
            sample.len(),
            p(0.50),
            p(0.95),
            p(0.99)
        );
    }
}

fn cmd_client(argv: &[String]) {
    let mut addr: Option<String> = None;
    let mut words: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                i += 1;
                addr = Some(argv.get(i).cloned().unwrap_or_else(|| usage()));
            }
            w => words.push(w),
        }
        i += 1;
    }
    let (Some(addr), false) = (addr, words.is_empty()) else {
        usage()
    };
    let request = words.join(" ");
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    match client.request(&request) {
        Ok(response) => {
            // A METRICS body arrives as one escaped line; print the real
            // multi-line exposition. Anything else prints verbatim. The
            // exit code keys off the original response either way.
            match response.strip_prefix("OK METRICS ") {
                Some(body) => println!("{}", mis2_svc::metrics::unescape_body(body)),
                None => println!("{response}"),
            }
            if !response.starts_with("OK ") {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: request failed: {e}");
            std::process::exit(1);
        }
    }
}
