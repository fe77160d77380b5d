//! Log-bucket latency histogram: fixed memory however many samples are
//! recorded, so the hot workloads (millions of requests in a run) keep no
//! per-request vector.
//!
//! Values below 128 ns have a bucket each; above that every power of two
//! is cut into 128 equal buckets, so a bucket is never wider than 1/128
//! (0.8%) of the values it holds. A quantile is read by walking the
//! cumulative counts and interpolating linearly inside the bucket it falls
//! in: it moves continuously with the data instead of snapping to bucket
//! edges, which would make a steady latency read exactly the same on every
//! run.
//!
//! The cold workloads record a few dozen to a few hundred ops a run, too few
//! to fill buckets: up to 4096 samples are also kept as they are, and while
//! a histogram holds no more than that its quantiles are exact (linear
//! between order statistics).

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^42 ns (73 minutes), far past any op here.
const MAX_BITS: u32 = 42;
const NBUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) << SUB_BITS;
/// Samples kept verbatim next to the buckets.
const EXACT: usize = 4096;

pub struct LogHistogram {
    buckets: Vec<u64>,
    /// The first [`EXACT`] samples; complete while `count` is no larger.
    exact: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn index_of(v: u64) -> usize {
    let v = v.min((1 << MAX_BITS) - 1);
    if v < SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) & (SUB - 1)) as usize
}

/// Lowest value of bucket `idx` and the number of distinct values in it.
fn bounds_of(idx: usize) -> (u64, u64) {
    if (idx as u64) < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB_BITS) as u32 - 1;
    let low = (SUB + (idx as u64 & (SUB - 1))) << shift;
    (low, 1 << shift)
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; NBUCKETS],
            exact: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    pub fn record(&mut self, ns: u64) {
        self.buckets[index_of(ns)] += 1;
        if self.exact.len() < EXACT {
            self.exact.push(ns);
        }
        self.count += 1;
        self.sum += ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        let room = EXACT - self.exact.len();
        self.exact
            .extend_from_slice(&other.exact[..other.exact.len().min(room)]);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every recorded value, exact.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// The value below which a share `q` (0..=1) of the samples lie, in
    /// nanoseconds; 0 for an empty histogram. Clamped to the exact
    /// minimum and maximum seen, so interpolation never reports a value
    /// outside the data.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.exact.len() as u64 == self.count {
            let mut sorted = self.exact.clone();
            sorted.sort_unstable();
            let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let (low, high) = (sorted[at.floor() as usize], sorted[at.ceil() as usize]);
            return low as f64 + (at - at.floor()) * (high - low) as f64;
        }
        self.bucket_quantile_ns(q)
    }

    /// The bucket reading of `quantile_ns`, for a non-empty histogram.
    fn bucket_quantile_ns(&self, q: f64) -> f64 {
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(f64::MIN_POSITIVE);
        let mut before = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= target {
                let (low, width) = bounds_of(idx);
                let frac = (target - before as f64) / c as f64;
                let v = low as f64 + frac * width as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            before += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it() {
        let mut probes: Vec<u64> = (0..400).collect();
        for bits in 7..44 {
            let p = 1u64 << bits;
            probes.extend([p - 1, p, p + 1, p + p / 3, 2 * p - 1]);
        }
        for v in probes {
            let idx = index_of(v);
            assert!(idx < NBUCKETS, "{v}");
            let (low, width) = bounds_of(idx);
            let clamped = v.min((1 << MAX_BITS) - 1);
            assert!(
                low <= clamped && clamped < low + width,
                "{v}: [{low}, +{width})"
            );
            assert!(
                width == 1 || width as f64 / low as f64 <= 1.0 / 128.0,
                "{v}"
            );
        }
    }

    #[test]
    fn bucket_indices_are_monotone_and_contiguous() {
        let mut next_low = 0;
        for idx in 0..NBUCKETS {
            let (low, width) = bounds_of(idx);
            assert_eq!(low, next_low, "bucket {idx}");
            next_low = low + width;
        }
        assert_eq!(next_low, 1 << MAX_BITS);
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_bucket_width() {
        // 1..=100_000 microseconds in nanoseconds, shuffled by a stride.
        let n = 100_000u64;
        let mut h = LogHistogram::default();
        for i in 0..n {
            h.record(((i * 7919) % n + 1) * 1_000);
        }
        assert_eq!(h.count(), n);
        for q in [0.5, 0.75, 0.9, 0.95, 0.99] {
            let exact = q * n as f64 * 1_000.0;
            let got = h.quantile_ns(q);
            assert!(
                (got - exact).abs() / exact < 0.008,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.quantile_ns(0.0), 1_000.0);
        assert_eq!(h.quantile_ns(1.0), 100_000_000.0);
        assert_eq!(h.sum_ns(), 1_000 * (n * (n + 1) / 2) as u128);
    }

    #[test]
    fn interpolation_moves_with_the_data_inside_one_bucket() {
        // Two sample sets whose medians fall in the same bucket, reached
        // at different depths, must not read the same.
        let (low, high) = (1_000_000, 1_010_000);
        assert_ne!(index_of(low), index_of(high));
        let (mut a, mut b) = (LogHistogram::default(), LogHistogram::default());
        for _ in 0..10 {
            a.record(low);
            b.record(low);
        }
        for i in 0..30 {
            a.record(high + i);
        }
        for i in 0..90 {
            b.record(high + i / 3);
        }
        assert_eq!(index_of(high), index_of(high + 29));
        let (ma, mb) = (a.bucket_quantile_ns(0.5), b.bucket_quantile_ns(0.5));
        assert!(ma != mb && ma > low as f64 && mb > ma, "{ma} {mb}");
    }

    #[test]
    fn few_samples_read_exactly_and_many_fall_back_to_buckets() {
        let mut h = LogHistogram::default();
        for v in [400_000_007u64, 100_000_003, 300_000_001, 200_000_009] {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(0.0), 100_000_003.0);
        assert_eq!(h.quantile_ns(1.0), 400_000_007.0);
        // Halfway between the second and third of four.
        assert_eq!(h.quantile_ns(0.5), 250_000_005.0);
        // One sample past the exact store: bucket resolution, not exact.
        let mut big = LogHistogram::default();
        for i in 0..=EXACT as u64 {
            big.record(1_000_000 + i * 1_000);
        }
        let exact_median = 1_000_000.0 + (EXACT / 2) as f64 * 1_000.0;
        let got = big.quantile_ns(0.5);
        assert!(got != exact_median && (got - exact_median).abs() / exact_median < 0.008);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut all) = (
            LogHistogram::default(),
            LogHistogram::default(),
            LogHistogram::default(),
        );
        for i in 0..1000u64 {
            let v = i * i + 17;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum_ns(), all.sum_ns());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.bucket_quantile_ns(q), all.bucket_quantile_ns(q));
            assert_eq!(a.quantile_ns(q), all.quantile_ns(q));
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile_ns(0.5), 0.0);
        assert_eq!(h.count(), 0);
    }
}
