//! What the numbers were measured on: the host stamp written into every
//! result file, the process's peak memory, and a fixed calibration load
//! run before and after each workload to notice a host that changed speed
//! underneath the run.

use crate::json::Value;
use std::process::Command;
use std::time::Instant;

pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line a command prints, or `unknown` when it cannot be run (the
/// acceptance checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain and build identity of a run.
pub fn stamp() -> Value {
    Value::obj([
        ("host_cpus", Value::from(cpus() as u64)),
        (
            "git_rev",
            Value::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(first_line("rustc", &["-V"]))),
        // The benchmark always links the threaded `parallel` feature of
        // every crate; the serial backend is a different program.
        ("feature_backend", Value::str("parallel")),
        (
            "io_backend",
            Value::str(mis2_svc::IoBackend::platform_default().effective().name()),
        ),
        ("os", Value::str(std::env::consts::OS)),
        ("arch", Value::str(std::env::consts::ARCH)),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reading of the calibration load.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Streaming sum over a 4 MiB array, in GB/s of array bytes read. The
    /// array is small on purpose: it must not show in `peak_rss_mb`.
    pub stream_gbs: f64,
    /// A dependent integer multiply-add chain, in millions of steps per
    /// second: pure core speed, no memory.
    pub spin_mops: f64,
}

const STREAM_WORDS: usize = 512 << 10;
const STREAM_PASSES: usize = 256;
const SPIN_STEPS: u64 = 200_000_000;
const REPEATS: usize = 3;

/// Run the calibration load: the same single-threaded work every time,
/// about a quarter of a second. Each half runs three times and the
/// fastest counts, so a reading says what the host can do, not what else
/// it was doing. Only the ratio between two readings means anything.
pub fn calibrate() -> Calibration {
    let data: Vec<u64> = (0..STREAM_WORDS as u64).collect();
    let pass = |data: &[u64]| data.iter().copied().fold(0u64, u64::wrapping_add);
    let fastest = |work: &mut dyn FnMut()| {
        (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                work();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let stream_s = fastest(&mut || {
        for _ in 0..STREAM_PASSES {
            std::hint::black_box(pass(std::hint::black_box(&data)));
        }
    });
    let spin_s = fastest(&mut || {
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..SPIN_STEPS {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
    });
    Calibration {
        stream_gbs: (STREAM_WORDS * 8 * STREAM_PASSES) as f64 / stream_s / 1e9,
        spin_mops: SPIN_STEPS as f64 / spin_s / 1e6,
    }
}

/// A start-to-end change of either calibration reading beyond this share
/// marks the run `drifted`.
pub const DRIFT_LIMIT_PCT: f64 = 10.0;

/// Largest relative change between two calibration readings, in percent.
pub fn drift_pct(before: Calibration, after: Calibration) -> f64 {
    let rel = |a: f64, b: f64| (a - b).abs() / a.max(b);
    100.0 * rel(before.stream_gbs, after.stream_gbs).max(rel(before.spin_mops, after.spin_mops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_the_larger_relative_change() {
        let a = Calibration {
            stream_gbs: 10.0,
            spin_mops: 1000.0,
        };
        let b = Calibration {
            stream_gbs: 9.0,
            spin_mops: 1300.0,
        };
        assert!((drift_pct(a, a)).abs() < 1e-12);
        assert!((drift_pct(a, b) - 100.0 * 300.0 / 1300.0).abs() < 1e-9);
        assert!((drift_pct(a, b) - drift_pct(b, a)).abs() < 1e-12);
    }

    #[test]
    fn stamp_and_rss_are_filled_in() {
        let s = stamp();
        assert!(s.get("host_cpus").unwrap().as_f64().unwrap() >= 1.0);
        assert!(matches!(s.get("rustc"), Some(Value::Str(_))));
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn calibration_reads_positive_rates() {
        let c = calibrate();
        assert!(c.stream_gbs > 0.0 && c.spin_mops > 0.0);
    }
}
