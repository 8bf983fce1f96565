//! Estimators: exact percentiles from sorted samples, medians over
//! slices, and the quartile spread the acceptance procedure uses.
//!
//! `pdo_obs::Histogram` is deliberately not used for reported latencies:
//! its 12.5 % bucket width quantises a p50 to two or three distinct values,
//! which is wider than the bounds this benchmark has to hold.

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Largest of `xs`; 0 when empty.
pub fn max_of(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Smallest of `xs`; 0 when empty.
pub fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and returns its nearest-rank percentile `q`
/// as `f64` (0 when empty).
pub fn percentile_u32(samples: &mut [u32], q: f64) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, q).map_or(0.0, f64::from)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the acceptance procedure compares against a metric's bound.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_slice_ignores_stalled_slices() {
        // Three steady slices and seven that lost their core for part of
        // their time: the median follows the stalls, the best does not.
        let rates = [
            100.0, 50.0, 70.0, 100.0, 60.0, 55.0, 100.0, 80.0, 65.0, 75.0,
        ];
        assert_eq!(max_of(&rates), 100.0);
        assert!(median(&rates) < 75.0);
        let p50s = [4.0, 8.0, 5.5, 4.0, 7.0];
        assert_eq!(min_of(&p50s), 4.0);
        assert_eq!((max_of(&[]), min_of(&[])), (0.0, 0.0));
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.5), Some(50));
        assert_eq!(percentile_sorted(&s, 0.99), Some(99));
        assert_eq!(percentile_sorted(&s, 1.0), Some(100));
        assert_eq!(percentile_sorted(&s, 0.0), Some(1));
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), None);
        let mut unsorted = [9u32, 1, 5];
        assert_eq!(percentile_u32(&mut unsorted, 0.5), 5.0);
        // No interpolation: the result is always one of the samples.
        assert_eq!(percentile_sorted(&[10u32, 1000], 0.5), Some(10));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
    }
}
