//! STREAM-style memory bandwidth measurement.
//!
//! Figure 3 of the paper normalizes MIS-2 throughput by each device's
//! theoretical memory bandwidth (1200 GB/s MI100, 900 GB/s V100, 238 GB/s
//! Skylake, 317 GB/s TX2) to show bandwidth-limited efficiency. With a
//! single host we *measure* the achievable triad bandwidth per thread-count
//! profile and normalize by that, which is the same methodology with
//! measured rather than datasheet numbers.

use mis2_prim::par;
use std::time::Instant;

/// Measured triad bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct Bandwidth {
    /// Threads used.
    pub threads: usize,
    /// GB/s achieved by `a[i] = b[i] + s * c[i]`.
    pub gbps: f64,
}

/// Measure triad bandwidth with `threads` workers over arrays of
/// `elements` f64 each (3 arrays; choose `elements` so the working set
/// exceeds LLC).
pub fn measure_triad(threads: usize, elements: usize, repeats: usize) -> Bandwidth {
    mis2_prim::pool::with_pool(threads, || {
        let b: Vec<f64> = (0..elements).map(|i| i as f64 * 0.5).collect();
        let c: Vec<f64> = (0..elements).map(|i| (i % 97) as f64).collect();
        let mut a = vec![0.0f64; elements];
        // Warmup.
        par::for_each_mut_indexed(&mut a, |i, a| *a = b[i] + 3.0 * c[i]);
        let t = Instant::now();
        for _ in 0..repeats {
            par::for_each_mut_indexed(&mut a, |i, a| *a = b[i] + 3.0 * c[i]);
        }
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        // Triad moves 3 arrays (2 reads + 1 write) per pass.
        let bytes = 3.0 * elements as f64 * 8.0 * repeats as f64;
        Bandwidth {
            threads,
            gbps: bytes / secs / 1e9,
        }
    })
}

/// Default measurement: 32 MiB working set per array, 8 repeats.
pub fn measure_default(threads: usize) -> Bandwidth {
    measure_triad(threads, 4 << 20, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_positive_and_sane() {
        let bw = measure_triad(1, 1 << 20, 2);
        assert!(bw.gbps > 0.1, "{} GB/s", bw.gbps);
        assert!(bw.gbps < 10_000.0, "{} GB/s", bw.gbps);
        assert_eq!(bw.threads, 1);
    }
}
