//! Order statistics over a handful of run results, and the rule that says
//! which tail percentile a sample count supports.

/// Median of a non-empty slice (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), which is what the acceptance check of this
/// benchmark computes its spreads with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the acceptance check holds against a metric's bound.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The tail percentiles a workload may fix, highest first.
pub const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

/// The highest tail percentile with at least ten samples beyond it
/// (choosing-metrics, section 1), or `None` below 40 samples.
pub fn supported_tail_pct(samples: u64) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|pct| samples * u64::from(100 - pct) >= 10 * 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 9, 11, 12], n=4) == [4.0, 5.0, 11.0]
        assert_eq!(
            quartiles(&[9.0, 2.0, 4.0, 12.0, 4.0, 5.0, 11.0]),
            (4.0, 11.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
        assert_eq!(iqr_over_median(&ten), 1.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_tail_pct(39), None);
        assert_eq!(supported_tail_pct(40), Some(75));
        assert_eq!(supported_tail_pct(99), Some(75));
        assert_eq!(supported_tail_pct(100), Some(90));
        assert_eq!(supported_tail_pct(199), Some(90));
        assert_eq!(supported_tail_pct(200), Some(95));
        assert_eq!(supported_tail_pct(999), Some(95));
        assert_eq!(supported_tail_pct(1000), Some(99));
        assert_eq!(supported_tail_pct(6_400_000), Some(99));
    }
}
