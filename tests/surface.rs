//! The library surface audit, kept true: every `pub mod` of the seven
//! library crates has a row in README's "Crate map" reason table naming the
//! paper table, figure or algorithm, the served op or the benchmark
//! workload that needs it, and every row names a module that exists.

use std::collections::BTreeMap;
use std::path::Path;

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
