//! The library surface audit, kept true: every `pub mod` of the seven
//! library crates has a row in README's "Crate map" reason table naming the
//! paper table, figure or algorithm, the served op or the benchmark
//! workload that needs it, and every row names a module that exists.
//!
//! The same holds for settings: every `pub` field of the six config
//! structs has a row in README's "Settings" table naming the caller that
//! needs a value other than the default, or the deployment setting it is,
//! and every row names a field that exists.
//!
//! The same goes for shared mutable writes and `unsafe`: every file
//! outside `mis2-prim` that builds a `SharedMut`, and every one with a line
//! naming `unsafe`, has a row naming the reason, and the `unsafe` lines
//! under `crates/` and `src/` stay at or below a literal. A new site has to
//! update a table on purpose.
//!
//! And the serial specs of Algorithms 1, 2 and 3, the bitwise oracles of
//! the engine and of the two coarsenings, stay specs: short, safe, and
//! free of the primitives the parallel code runs on.
//!
//! The service's connection machine stays sans-I/O, and its two I/O
//! drivers never import from each other.
//!
//! And each rule of the service's wire and report contract is written in
//! one function of `crates/svc/src`: the v3 frame length check, the
//! client's `V3` hello, the `OK `/`ERR ` status prefix, the exposition's
//! schema header, and the registry's single-flight wait.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const CRATES: [&str; 7] = [
    "prim", "graph", "sparse", "core", "color", "coarsen", "solver",
];

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `crate::module` for every `pub mod module;` line of the seven `lib.rs`.
fn public_modules() -> Vec<String> {
    let mut mods = Vec::new();
    for krate in CRATES {
        for line in read(&format!("crates/{krate}/src/lib.rs")).lines() {
            if let Some(name) = line
                .strip_prefix("pub mod ")
                .and_then(|rest| rest.strip_suffix(';'))
            {
                mods.push(format!("{krate}::{name}"));
            }
        }
    }
    mods
}

/// Item → reason, from the rows `` | `a::b` | reason | `` of README's
/// `## {heading}` section.
fn reason_table(heading: &str) -> BTreeMap<String, String> {
    let readme = read("README.md");
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("README has a `## {heading}` section"));
    let mut table = BTreeMap::new();
    for line in section.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // A row `| a | b |` splits into ["", a, b, ""].
        if cells.len() != 4 {
            continue;
        }
        if let Some(module) = cells[1]
            .strip_prefix('`')
            .and_then(|c| c.strip_suffix('`'))
            .filter(|m| m.contains("::"))
        {
            table.insert(module.to_string(), cells[2].to_string());
        }
    }
    table
}

#[test]
fn every_public_module_has_a_reason_in_readme() {
    let mods = public_modules();
    assert!(mods.len() >= CRATES.len(), "parsed only {mods:?}");
    let table = reason_table("Crate map");
    for m in &mods {
        match table.get(m) {
            None => panic!("`{m}` is `pub mod` but has no row in README's Crate map"),
            Some(reason) => assert!(!reason.is_empty(), "`{m}` has an empty reason in README"),
        }
    }
    for m in table.keys() {
        assert!(
            mods.contains(m),
            "README's Crate map lists `{m}`, which is not a `pub mod`"
        );
    }
}

/// The config structs whose `pub` fields are the settings of the library
/// and the service, with the file each is declared in.
const CONFIG_STRUCTS: [(&str, &str); 6] = [
    ("AmgConfig", "crates/solver/src/amg.rs"),
    ("SolveOpts", "crates/solver/src/cg.rs"),
    ("Mis2Config", "crates/core/src/engine.rs"),
    ("ServerConfig", "crates/svc/src/server.rs"),
    ("SchedConfig", "crates/svc/src/sched.rs"),
    ("RouterConfig", "crates/svc/src/shard.rs"),
];

/// `Struct::field` for every `pub field:` line inside each config struct's
/// braces.
fn settings() -> Vec<String> {
    let mut fields = Vec::new();
    for (name, file) in CONFIG_STRUCTS {
        let text = read(file);
        let body = text
            .split_once(&format!("pub struct {name} {{\n"))
            .and_then(|(_, rest)| rest.split_once("\n}"))
            .unwrap_or_else(|| panic!("{file} declares no `pub struct {name} {{`"))
            .0;
        let before = fields.len();
        for line in body.lines() {
            if let Some(field) = line
                .trim_start()
                .strip_prefix("pub ")
                .and_then(|rest| rest.split_once(':'))
                .map(|(field, _)| field.trim())
            {
                fields.push(format!("{name}::{field}"));
            }
        }
        assert!(fields.len() > before, "`{name}` has no `pub` field");
    }
    fields
}

#[test]
fn every_setting_names_its_caller_in_readme() {
    let fields = settings();
    let table = reason_table("Settings");
    for f in &fields {
        match table.get(f) {
            None => panic!("`{f}` is a `pub` setting but has no row in README's Settings"),
            Some(caller) => assert!(!caller.is_empty(), "`{f}` names no caller in README"),
        }
    }
    for f in table.keys() {
        assert!(
            fields.contains(f),
            "README's Settings lists `{f}`, which is not a `pub` field of a config struct"
        );
    }
}

/// Every file that calls `SharedMut::new`, with the reason its writes
/// cannot go through `par`'s safe `&mut` forms (an index-owned write —
/// slot `i` written by the task for `i` — always can, a write split into
/// contiguous pieces cuts them as `&mut` windows and hands them out
/// through `par::for_chunks_mut`, a worklist's ascending writes go through
/// `par::map_windows`, and writes whose disjointness rests on a caller's
/// coloring through `prim::cells`).
const SHARED_MUT_SITES: [(&str, &str); 4] = [
    (
        "crates/core/src/reference.rs",
        "the frozen seed engine, kept as written",
    ),
    (
        "crates/prim/src/bucket.rs",
        "the place pass over several chunks scatters each chunk into one span per key",
    ),
    (
        "crates/prim/src/par.rs",
        "`for_chunks_mut`, the one hand-off of a `&mut` piece of a slice to a pool block",
    ),
    (
        "crates/prim/src/ptr.rs",
        "the unit tests of `SharedMut::write` and `SharedMut::read`",
    ),
];

/// Every file outside `crates/prim` with a line naming `unsafe`, with the
/// reason it cannot leave that to `prim`. The algorithm crates name none.
const UNSAFE_FILES: [(&str, &str); 2] = [
    (
        "crates/core/src/reference.rs",
        "the frozen seed engine, kept as written",
    ),
    (
        "crates/svc/src/evloop.rs",
        "epoll and eventfd syscalls, and the fds they return",
    ),
];

/// Lines naming `unsafe` under `crates/` and `src/`, as counted by
/// `grep -rw --include=*.rs unsafe crates src | wc -l`. The last seven
/// went when `map_range`, `map_blocks`, `compact::pack_into`, `reduce`'s
/// fused forms and `rows::assemble` moved to `&mut` windows handed out by
/// `par::for_chunks_mut`, with one `set_len` under both maps.
const MAX_UNSAFE_LINES: usize = 38;

/// Every `.rs` file under `dir`, relative to the repository root.
fn rust_files(dir: &str) -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack = vec![root.join(dir)];
    let mut files = Vec::new();
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path.strip_prefix(root).unwrap().to_path_buf());
            }
        }
    }
    files.sort();
    files
}

/// Whether `line` holds `word` with no identifier character on either side.
fn has_word(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word).any(|(i, _)| {
        let before = line[..i].chars().next_back();
        let after = line[i + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

#[test]
fn shared_mut_sites_and_unsafe_lines_are_the_audited_ones() {
    let files: Vec<PathBuf> = ["crates", "src"]
        .iter()
        .flat_map(|d| rust_files(d))
        .collect();
    let sites: Vec<String> = files
        .iter()
        .filter(|f| read(f.to_str().unwrap()).contains("SharedMut::new"))
        .map(|f| f.display().to_string())
        .collect();
    let mut want: Vec<String> = SHARED_MUT_SITES
        .iter()
        .map(|(f, _)| f.to_string())
        .collect();
    want.sort();
    assert_eq!(
        sites, want,
        "files building a `SharedMut` differ from the audited table"
    );
    assert!(SHARED_MUT_SITES.iter().all(|(_, why)| !why.is_empty()));
    let unsafe_per_file: Vec<(String, usize)> = files
        .iter()
        .map(|f| {
            let text = read(f.to_str().unwrap());
            let lines = text.lines().filter(|l| has_word(l, "unsafe")).count();
            (f.display().to_string(), lines)
        })
        .collect();
    let unsafe_files: Vec<&str> = unsafe_per_file
        .iter()
        .filter(|(f, lines)| *lines > 0 && !f.starts_with("crates/prim"))
        .map(|(f, _)| f.as_str())
        .collect();
    let mut want: Vec<&str> = UNSAFE_FILES.iter().map(|(f, _)| *f).collect();
    want.sort();
    assert_eq!(
        unsafe_files, want,
        "files outside `crates/prim` naming `unsafe` differ from the audited table"
    );
    assert!(UNSAFE_FILES.iter().all(|(_, why)| !why.is_empty()));
    let unsafe_lines: usize = unsafe_per_file.iter().map(|(_, lines)| lines).sum();
    assert!(
        unsafe_lines <= MAX_UNSAFE_LINES,
        "{unsafe_lines} `unsafe` lines under crates/ and src/, at most {MAX_UNSAFE_LINES} audited"
    );
}

/// Each serial spec with the lines it may have above its `#[cfg(test)]`:
/// Algorithm 1's, and Algorithms 2 and 3's.
const SPECS: [(&str, usize); 2] = [
    ("crates/core/src/spec.rs", 100),
    ("crates/coarsen/src/spec.rs", 150),
];

#[test]
fn the_spec_is_short_safe_and_uses_no_primitive() {
    for (path, max_lines) in SPECS {
        let text = read(path);
        let above_tests = text.split("#[cfg(test)]").next().unwrap();
        let lines = above_tests.lines().count();
        assert!(
            lines <= max_lines,
            "{path} has {lines} lines above its tests, at most {max_lines}"
        );
        for (i, line) in text.lines().enumerate() {
            assert!(
                !has_word(line, "unsafe"),
                "{path}:{}: names `unsafe`",
                i + 1
            );
            assert!(
                !has_word(line, "mis2_prim"),
                "{path}:{}: imports from `mis2_prim`",
                i + 1
            );
        }
    }
}

/// What `crates/svc/src/conn.rs` may not name: it is the connection
/// machine, and a socket or a thread belongs to a driver.
const CONN_FORBIDDEN: [&str; 5] = [
    "TcpStream",
    "TcpListener",
    "std::net",
    "std::thread",
    "mpsc",
];

#[test]
fn the_connection_machine_is_sans_io_and_the_drivers_never_meet() {
    let conn = read("crates/svc/src/conn.rs");
    for (i, line) in conn.lines().enumerate() {
        for word in CONN_FORBIDDEN {
            assert!(!line.contains(word), "conn.rs:{}: names `{word}`", i + 1);
        }
    }
    // Each driver imports from the machine and the process only, so
    // deleting one driver touches no line of the other.
    for (driver, other) in [("evloop", "threads::"), ("threads", "evloop::")] {
        let text = read(&format!("crates/svc/src/{driver}.rs"));
        for (i, line) in text.lines().enumerate() {
            assert!(
                !line.contains(other),
                "{driver}.rs:{}: names `{other}`",
                i + 1
            );
        }
    }
}

/// The identifier a declaration word starts with (`name(..` → `name`).
fn ident<'a>(word: Option<&&'a str>) -> &'a str {
    word.map_or("", |w| w.split(['(', '<']).next().unwrap())
}

/// `(file::Type::function, line)` for every non-test, non-comment line of
/// `crates/svc/src`, the function being the innermost `fn` the line sits
/// in and `Type` the `impl` around it (each empty outside one).
fn svc_code_lines() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for file in rust_files("crates/svc/src") {
        let text = read(file.to_str().unwrap());
        let above_tests = text.split("#[cfg(test)]").next().unwrap();
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        // (indent, name) of each open `impl` or `fn` block, innermost last.
        let mut open: Vec<(usize, String)> = Vec::new();
        for line in above_tests.lines() {
            let code = line.trim_start();
            let indent = line.len() - code.len();
            if code.starts_with("//") || code.is_empty() {
                continue;
            }
            if code.starts_with('}') && open.last().is_some_and(|(i, _)| *i == indent) {
                open.pop();
                continue;
            }
            // A one-line item (`fn f() {}`, `fn g();`) opens no block.
            let opens = !code.ends_with(';') && !code.ends_with('}');
            let words: Vec<&str> = code.split_whitespace().collect();
            let is_impl = words[0] == "impl" || words[0].starts_with("impl<");
            let fn_at = words.iter().position(|w| *w == "fn").filter(|&at| {
                words[..at]
                    .iter()
                    .all(|w| w.starts_with("pub") || matches!(*w, "const" | "unsafe"))
            });
            if opens && is_impl {
                let ty = match words.iter().position(|w| *w == "for") {
                    Some(at) => ident(words.get(at + 1)),
                    None => ident(words.get(1)),
                };
                open.push((indent, format!("{ty}::")));
            } else if let Some(at) = fn_at.filter(|_| opens) {
                open.push((indent, ident(words.get(at + 1)).to_string()));
            }
            let ty = open.iter().rev().find(|(_, n)| n.ends_with("::"));
            let f = open.last().filter(|(_, n)| !n.ends_with("::"));
            let label = format!(
                "{name}::{}{}",
                ty.map_or("", |(_, t)| t.as_str()),
                f.map_or("", |(_, f)| f.as_str())
            );
            out.push((label, code.to_string()));
        }
    }
    out
}

/// The functions holding a line that `is_site` picks out.
fn sites(lines: &[(String, String)], is_site: impl Fn(&str) -> bool) -> Vec<String> {
    let mut fns: Vec<String> = lines
        .iter()
        .filter(|(_, code)| is_site(code))
        .map(|(f, _)| f.clone())
        .collect();
    fns.sort();
    fns.dedup();
    fns
}

#[test]
fn each_wire_and_report_rule_of_the_service_is_written_once() {
    let lines = svc_code_lines();
    // An operand of a comparison, not a word in a message.
    let compared = |c: &str| {
        let c = c.replace("codec::", "");
        [">", "<", ">=", "<="].iter().any(|op| {
            c.contains(&format!("{op} MAX_PAYLOAD")) || c.contains(&format!("MAX_PAYLOAD {op}"))
        })
    };
    let rules: [(&str, Vec<String>, &str); 5] = [
        (
            "`MAX_PAYLOAD` compared against a header length",
            sites(&lines, |c| compared(c) && !c.contains(".len()")),
            "codec.rs::parse_frame",
        ),
        (
            "`HELLO_V3` written to a socket",
            sites(&lines, |c| c.contains("HELLO_V3") && c.contains("write")),
            "client.rs::connect_v3",
        ),
        (
            "the `ERR ` status prefix",
            sites(&lines, |c| c.contains("\"ERR ")),
            "codec.rs::status_prefix",
        ),
        (
            "the `# mis2svc metrics schema` header written",
            sites(&lines, |c| {
                c.contains("# mis2svc metrics schema")
                    && ["format!", "write", "push_str"]
                        .iter()
                        .any(|w| c.contains(w))
            }),
            "metrics.rs::Exposition::render",
        ),
        (
            "the registry's single-flight wait",
            sites(&lines, |c| c.contains("inflight_done.wait(")),
            "registry.rs::Registry::claim",
        ),
    ];
    for (rule, found, want) in rules {
        assert_eq!(
            found,
            [want],
            "{rule}: written in {found:?}, want one function"
        );
    }
}
