//! Order statistics: medians, quartiles and exact percentiles.
//!
//! The product's `LatencyHistogram` answers a quantile with the upper
//! bound of a power-of-two bucket, so it cannot show a change smaller
//! than 2x. Everything the benchmark reports is computed here from raw
//! samples instead.

/// Median of `values` (mean of the two middle elements for even counts).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads printed here are the spreads the acceptance rule uses.
/// Fewer than two samples have no spread: all three equal the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let q = |i: usize| {
                // Position i*(n+1)/4, clamped to [1, n-1] like CPython.
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Interquartile range as a share of the median (0.0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / med.abs()
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Exact nearest-rank percentile of an ascending-sorted sample:
/// the smallest element with at least `q` of the sample at or below it.
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank —
/// a tail read off a handful of samples is noise, not a percentile.
pub fn exact_percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_exact_and_refuses_thin_tails() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(exact_percentile(&v, 0.5), Some(500));
        // p99 leaves exactly ten samples beyond rank 990.
        assert_eq!(exact_percentile(&v, 0.99), Some(990));
        // p99.9 would leave one sample beyond it: refused.
        assert_eq!(exact_percentile(&v, 0.999), None);
        assert_eq!(exact_percentile(&v[..19], 0.5), None);
        assert_eq!(exact_percentile(&v[..20], 0.5), Some(10));
        assert_eq!(exact_percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_resolves_changes_a_log_bucket_hides() {
        // 134 ms and 140 ms fall in one power-of-two bucket (2^27 ns);
        // the exact percentile tells them apart.
        let a: Vec<u64> = (0..100).map(|i| 134_000_000 + i).collect();
        let b: Vec<u64> = (0..100).map(|i| 140_000_000 + i).collect();
        assert!(exact_percentile(&a, 0.5).unwrap() < exact_percentile(&b, 0.5).unwrap());
    }
}
