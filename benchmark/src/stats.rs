//! Order statistics over timing samples.
//!
//! Interference on a shared box only ever makes a sample slower, and it
//! comes in phases, so the harness reports a low time-quantile (the
//! fast tail) instead of a mean or median; see README.md.

/// Sort a sample vector ascending (NaN-free by construction: samples
/// are `Duration`s converted to seconds).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Nearest-rank quantile of an ascending slice: the element with
/// `floor(q · n)` samples strictly before it (clamped to the last).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((sorted.len() as f64) * q).floor() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The fast-tail time: the lowest time-quantile the sample count
/// supports. Ten samples are faster than it (a tenth of them, while
/// there are fewer than a hundred), and never fewer than one in fifty —
/// the tenth percentile of a hundred samples, the second of a thousand.
/// The lower the quantile, the less of a run has to be undisturbed for
/// the run to report what the program can do.
pub fn fast(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "fast tail of no samples");
    let n = sorted.len();
    sorted[(n / 50).max((n / 10).min(10))]
}

/// Median by the same nearest-rank rule.
pub fn p50(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.50)
}

/// The highest percentile that still has ten samples beyond it, capped
/// at the 99th and never below the median: with fewer than 1000 samples
/// a "p99" would be set by a handful of outliers.
pub fn p_high(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    let p99 = ((n as f64) * 0.99).floor() as usize;
    let supported = p99.min(n.saturating_sub(11)).max(n / 2);
    sorted[supported.min(n - 1)]
}

/// Median of values in any order.
pub fn median(values: &[f64]) -> f64 {
    p50(&sorted(values.to_vec()))
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` (exclusive
/// method) computes them — the rule the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile range over the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p50(&v), 51.0);
        assert_eq!(quantile(&v, 0.10), 11.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0, "clamped to the last sample");
    }

    #[test]
    fn fast_tail_has_ten_faster_samples_or_a_tenth_and_at_least_two_percent() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<f64>>();
        assert_eq!(fast(&[5.0]), 5.0);
        assert_eq!(fast(&upto(11)), 2.0, "a tenth of eleven");
        assert_eq!(fast(&upto(100)), 11.0, "ten samples are faster");
        assert_eq!(fast(&upto(500)), 11.0, "still ten: the 2nd percentile");
        assert_eq!(fast(&upto(1000)), 21.0, "one in fifty");
        assert_eq!(fast(&upto(3000)), 61.0);
    }

    #[test]
    fn fast_tail_ignores_slow_samples() {
        let mut v = vec![1.0; 20];
        v.extend(vec![50.0; 80]);
        assert_eq!(fast(&sorted(v)), 1.0, "a fifth of the run undisturbed");
    }

    #[test]
    fn p_high_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p_high(&v), 90.0, "100 samples support p89, not p99");
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(p_high(&v), 1981.0, "2000 samples support p99");
        assert_eq!(p_high(&[1.0, 2.0]), 2.0, "never below the median");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(p_high(&v), p50(&v));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
