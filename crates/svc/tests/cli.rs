//! CLI contract tests for the `mis2svc` bin: zero/overflow flag values
//! must be refused **server-side** with a usage error and exit code 2 —
//! before a socket is ever bound — mirroring the client's rejection of a
//! `max_inflight=0` hello.

use std::process::{Command, Output};

fn mis2svc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mis2svc"))
        .args(args)
        .output()
        .expect("failed to spawn mis2svc")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

#[test]
fn zero_valued_serve_flags_are_usage_errors() {
    for flag in ["--threads", "--max-conns", "--max-inflight"] {
        let out = mis2svc(&["serve", flag, "0"]);
        assert_eq!(out.status.code(), Some(2), "{flag} 0 must exit 2");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("{flag} must be at least 1")),
            "{flag}: {err}"
        );
        assert!(err.contains("usage:"), "{flag}: {err}");
    }
}

/// `--workers` and `--queue-cap` are not flags: the scheduler's leaders
/// and queue follow from `--threads`.
#[test]
fn scheduler_sizing_flags_are_usage_errors() {
    for flag in ["--workers", "--queue-cap"] {
        let out = mis2svc(&["serve", flag, "2"]);
        assert_eq!(out.status.code(), Some(2), "{flag} must exit 2");
        let err = stderr(&out);
        assert!(err.contains("usage:"), "{flag}: {err}");
        assert!(
            !err.contains(flag),
            "{flag} is still in the usage text: {err}"
        );
    }
}

#[test]
fn non_numeric_and_overflowing_flag_values_are_usage_errors() {
    for (args, needle) in [
        (&["serve", "--threads", "lots"][..], "--threads"),
        (&["serve", "--max-inflight", "-1"][..], "--max-inflight"),
        // 20 nines overflow a 64-bit usize before the `g` shift even runs.
        (
            &["serve", "--mem-budget", "99999999999999999999g"][..],
            "--mem-budget",
        ),
        // Suffix arithmetic overflow: fits a usize, but not once shifted.
        (
            &["serve", "--mem-budget", "99999999999999999g"][..],
            "--mem-budget",
        ),
    ] {
        let out = mis2svc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn zero_mem_budget_stays_legal_as_unbounded() {
    // `--mem-budget 0` is documented as "unbounded", so it must parse —
    // prove it by tripping on a *later* bad flag instead of this one.
    let out = mis2svc(&["serve", "--mem-budget", "0", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    // The usage text mentions --mem-budget, so check the error line only.
    assert!(
        !err.contains("error: --mem-budget"),
        "--mem-budget 0 must not be the reported error: {err}"
    );
}

#[test]
fn unknown_io_backend_is_a_usage_error() {
    let out = mis2svc(&["serve", "--io-backend", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown io backend: bogus"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn zero_pipeline_window_is_a_usage_error() {
    let out = mis2svc(&["workloads", "--addr", "127.0.0.1:1", "--pipeline", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--pipeline must be at least 1"),
        "{}",
        stderr(&out)
    );
}

/// `--pipeline N` means v3; `--proto` is not a flag, whatever its value.
#[test]
fn unknown_workloads_proto_is_a_usage_error() {
    let out = mis2svc(&[
        "workloads",
        "--addr",
        "127.0.0.1:1",
        "--pipeline",
        "4",
        "--proto",
        "v3",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}
