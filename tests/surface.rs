//! The library surface audit, kept true: every `pub mod` of the seven
//! library crates has a row in README's "Crate map" reason table naming the
//! paper table, figure or algorithm, the served op or the benchmark
//! workload that needs it, and every row names a module that exists.
//!
//! The same goes for shared mutable writes: every file outside `mis2-prim`
//! that builds a `SharedMut` has a row naming the invariant or reason its
//! writes need one, and the `unsafe` lines under `crates/` and `src/` stay
//! at or below a literal. A new site has to update the table on purpose.
//!
//! And the serial spec of Algorithm 1, the engine's bitwise oracle, stays
//! a spec: short, safe, and free of the primitives the engine runs on.

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

/// Module → reason, from the rows `` | `crate::module` | reason | `` of the
/// "Crate map" section.
fn reason_table() -> BTreeMap<String, String> {
    let readme = read("README.md");
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Crate map"))
        .expect("README has a `## Crate map` section");
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
    let table = reason_table();
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

/// Every file outside `crates/prim` that calls `SharedMut::new`, with the
/// reason its writes cannot go through `par`'s safe `&mut` forms (an
/// index-owned write — slot `i` written by the task for `i` — always can).
const SHARED_MUT_SITES: [(&str, &str); 5] = [
    (
        "crates/core/src/engine.rs",
        "T[v] / M[v] written at worklist-listed v, beside each block's keep flags",
    ),
    (
        "crates/core/src/reference.rs",
        "the frozen seed engine, kept as written",
    ),
    (
        "crates/coarsen/src/mis2_agg.rs",
        "secondary roots label their neighbors; roots of an MIS-2 share none",
    ),
    (
        "crates/coarsen/src/d2c.rs",
        "same-colored roots label their neighbors; a distance-2 coloring shares none",
    ),
    (
        "crates/solver/src/gs.rs",
        "a color's clusters read neighbor x while writing their own; no two are adjacent",
    ),
];

/// Lines naming `unsafe` under `crates/` and `src/`, as counted by
/// `grep -rw --include=*.rs unsafe crates src | wc -l`.
const MAX_UNSAFE_LINES: usize = 51;

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
        .filter(|f| !f.starts_with("crates/prim"))
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
    let unsafe_lines: usize = files
        .iter()
        .map(|f| {
            let text = read(f.to_str().unwrap());
            text.lines().filter(|l| has_word(l, "unsafe")).count()
        })
        .sum();
    assert!(
        unsafe_lines <= MAX_UNSAFE_LINES,
        "{unsafe_lines} `unsafe` lines under crates/ and src/, at most {MAX_UNSAFE_LINES} audited"
    );
}

/// Lines of `crates/core/src/spec.rs` above its `#[cfg(test)]`, at most.
const MAX_SPEC_LINES: usize = 100;

#[test]
fn the_spec_is_short_safe_and_uses_no_primitive() {
    let text = read("crates/core/src/spec.rs");
    let above_tests = text.split("#[cfg(test)]").next().unwrap();
    let lines = above_tests.lines().count();
    assert!(
        lines <= MAX_SPEC_LINES,
        "spec.rs has {lines} lines above its tests, at most {MAX_SPEC_LINES}"
    );
    for (i, line) in text.lines().enumerate() {
        assert!(
            !has_word(line, "unsafe"),
            "spec.rs:{}: names `unsafe`",
            i + 1
        );
        assert!(
            !has_word(line, "mis2_prim"),
            "spec.rs:{}: imports from `mis2_prim`",
            i + 1
        );
    }
}
