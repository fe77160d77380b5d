//! Cache accounting pinned request by request: a scripted mix of hits
//! and misses on two suite graphs and on two spellings of one `.mtx`
//! file, served under a memory budget that forces evictions, alternating
//! v1 lines and v3 frames. After every step the `STATS` counters and the
//! set of keys that still answer from their interned bytes are literals,
//! so any change to LRU stamps, eviction order or hit counting shows up
//! as a mismatch at the first step it moves.
//!
//! Each step replays the script's prefix on a fresh server, so reading
//! which keys are resident (a probe refreshes stamps) never perturbs a
//! later step. Regenerate only for an intended change of policy:
//! `cargo test -q --test svc_hit_accounting -- --ignored --nocapture print_pins`.

use mis2::svc::{
    client::{Client, V3Client},
    ops,
    proto::Request,
    IoBackend, ServerConfig, ServerHandle,
};
use mis2_graph::{gen, io, Scale};
use std::path::PathBuf;

/// Fits one suite graph with its `COARSEN 2` and a little more, so the
/// second suite graph forces evictions in both segments. Every budget
/// from 900 000 to 980 000 bytes yields the same literals, a margin far
/// beyond what the temporary directory's path length adds to the `.mtx`
/// entries (their response bodies echo it).
const BUDGET: usize = 940_000;

/// `E`: ecology2; `P`: parabolic_fem; `M1` / `M2`: two spellings of one
/// `.mtx` file. Even steps go over v1, odd steps over v3.
const SCRIPT: [&str; 17] = [
    "MIS2 E",
    "MIS2 E",
    "COARSEN E 2",
    "MIS2 M1",
    "MIS2 M1",
    "MIS2 M2",
    "MIS2 M2",
    "MIS2 M1",
    "MIS2 P",
    "COARSEN E 2",
    "SOLVE P cg",
    "MIS2 E",
    "MIS2 M2",
    "MIS2 P",
    "MIS2 M2",
    "COARSEN E 2",
    "MIS2 M2",
];

/// The keys whose residency is read after each step, in the order of
/// the `RESIDENT` strings.
const KEYS: [&str; 6] = [
    "MIS2 E",
    "COARSEN E 2",
    "MIS2 M1",
    "MIS2 M2",
    "MIS2 P",
    "SOLVE P cg",
];

/// The `STATS` keys pinned after each step, in the order of `PINS` rows.
const STATS: [&str; 10] = [
    "hits",
    "resp_hits",
    "misses",
    "derived",
    "evictions",
    "graph_builds",
    "jobs",
    "graphs",
    "artifacts",
    "resp",
];

const PINS: [[u64; 10]; 17] = [
    [0, 0, 1, 0, 0, 1, 1, 1, 1, 1],    // MIS2 E
    [1, 1, 1, 0, 0, 1, 1, 1, 1, 1],    // MIS2 E
    [1, 1, 2, 1, 0, 1, 2, 1, 2, 2],    // COARSEN E 2
    [1, 1, 3, 1, 0, 2, 3, 2, 3, 3],    // MIS2 M1
    [2, 2, 3, 1, 0, 2, 3, 2, 3, 3],    // MIS2 M1
    [3, 2, 3, 1, 0, 2, 4, 2, 3, 3],    // MIS2 M2
    [4, 3, 3, 1, 0, 2, 4, 2, 3, 3],    // MIS2 M2
    [5, 3, 3, 1, 0, 2, 5, 2, 3, 3],    // MIS2 M1
    [5, 3, 4, 1, 2, 3, 6, 3, 2, 2],    // MIS2 P
    [5, 3, 5, 1, 6, 3, 7, 1, 1, 1],    // COARSEN E 2
    [5, 3, 6, 1, 7, 4, 8, 2, 1, 1],    // SOLVE P cg
    [5, 3, 7, 1, 7, 4, 9, 2, 2, 2],    // MIS2 E
    [5, 3, 8, 1, 7, 5, 10, 3, 3, 3],   // MIS2 M2
    [5, 3, 9, 1, 7, 5, 11, 3, 4, 4],   // MIS2 P
    [6, 4, 9, 1, 7, 5, 11, 3, 4, 4],   // MIS2 M2
    [6, 4, 10, 2, 12, 5, 12, 2, 1, 1], // COARSEN E 2
    [6, 4, 11, 2, 12, 5, 13, 2, 2, 2], // MIS2 M2
];

/// One char per `KEYS` entry: `1` when `try_response` answers.
const RESIDENT: [&str; 17] = [
    "100000", "100000", "110000", "111000", "111000", "110100", "110100", "111000", "001010",
    "010000", "000001", "100001", "100101", "100111", "100111", "010000", "010100",
];

/// The `.mtx` file behind `M1` / `M2`, and the two spellings.
fn mtx() -> (String, String) {
    let dir: PathBuf = std::env::temp_dir().join("mis2_svc_hit_accounting");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.mtx");
    io::write_graph_file(&gen::erdos_renyi(30, 60, 3), &path).unwrap();
    let dir = dir.to_str().unwrap();
    (format!("{dir}/g.mtx"), format!("{dir}/./g.mtx"))
}

/// A script line with its graph letters spelled out.
fn spell(line: &str, m: &(String, String)) -> String {
    let (cmd, rest) = line.split_once(' ').unwrap();
    let (g, tail) = rest.split_once(' ').map_or((rest, ""), |(g, t)| (g, t));
    let graph = match g {
        "E" => "ecology2",
        "P" => "parabolic_fem",
        "M1" => &m.0,
        "M2" => &m.1,
        other => panic!("unknown graph letter {other}"),
    };
    format!("{cmd} {graph} {tail}").trim_end().to_string()
}

fn stat(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {line}"))
}

/// Serve the first `steps` script lines on a fresh server; return the
/// pinned counters and the residency string after the last one.
fn replay(steps: usize, m: &(String, String), io_backend: IoBackend) -> ([u64; 10], String) {
    let h: ServerHandle = mis2::svc::serve(ServerConfig {
        threads: 2,
        scale: Scale::Tiny,
        mem_budget: BUDGET,
        io_backend,
        ..Default::default()
    })
    .unwrap();
    let mut v1 = Client::connect(h.addr()).unwrap();
    let mut v3 = V3Client::connect(h.addr(), 4).unwrap();
    for (i, line) in SCRIPT[..steps].iter().enumerate() {
        let line = spell(line, m);
        let reply = if i % 2 == 0 {
            v1.request(&line).unwrap()
        } else {
            v3.request(&line).unwrap()
        };
        assert!(reply.starts_with("OK "), "step {i} {line}: {reply}");
    }
    let stats = v1.request("STATS").unwrap();
    let counts = STATS.map(|k| stat(&stats, k));
    let resident: String = KEYS
        .iter()
        .map(|k| {
            let req = Request::parse(&spell(k, m)).unwrap();
            let (g, op) = ops::request_op(&req).unwrap();
            if h.registry().try_response(g, &op).is_some() {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    let _ = v1.quit();
    let _ = v3.quit();
    h.shutdown();
    (counts, resident)
}

#[test]
fn every_step_matches_its_pinned_counters_and_residency() {
    let m = mtx();
    for (step, backend) in
        (1..=SCRIPT.len()).flat_map(|s| [(s, IoBackend::Epoll), (s, IoBackend::Threads)])
    {
        let (counts, resident) = replay(step, &m, backend);
        let at = format!(
            "{backend:?}, after step {} ({})",
            step - 1,
            SCRIPT[step - 1]
        );
        assert_eq!(counts, PINS[step - 1], "{at}: counters {STATS:?} moved");
        assert_eq!(resident, RESIDENT[step - 1], "{at}: residency of {KEYS:?}");
    }
}

#[test]
#[ignore]
fn print_pins() {
    let m = mtx();
    let mut pins = String::new();
    let mut resident = String::new();
    for step in 1..=SCRIPT.len() {
        let (counts, r) = replay(step, &m, IoBackend::Epoll);
        pins += &format!("    {counts:?}, // {}\n", SCRIPT[step - 1]);
        resident += &format!("    \"{r}\",\n");
    }
    println!("const PINS: [[u64; 10]; {}] = [\n{pins}];", SCRIPT.len());
    println!("const RESIDENT: [&str; {}] = [\n{resident}];", SCRIPT.len());
}
