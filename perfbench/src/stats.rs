//! Order statistics the benchmark reports: medians, quartiles, the tail
//! percentile rule, and geometric means.

/// The median of `samples` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The smallest of `samples`. `NaN` for an empty slice.
pub fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The three quartile cut points of `samples`, computed exactly as
/// Python's `statistics.quantiles(samples, n=4)` does (the default
/// "exclusive" method), so spreads the benchmark prints agree with the
/// ones computed from its results. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let step = (i + 1) * m;
        // Python clamps the index into the sample but not the weight, so
        // tiny samples extrapolate past their ends.
        let j = (step / 4).clamp(1, n - 1);
        let delta = step as f64 - 4.0 * j as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Percentiles the tail rule may pick, highest first. The top is 95
/// because the tail metric is named after p95: more samples never
/// promote it further. On a 2-vCPU shared host the p99 of a service
/// round trip measures scheduler and hypervisor stalls rather than the
/// program: one competing busy thread moved it by 30% while it moved
/// p95 by 3%.
const TAIL_LADDER: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

/// The number of samples strictly beyond the nearest-rank `p`th
/// percentile of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of the `p`th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it, or `None` when even the median does not (fewer than
/// 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// The nearest-rank `p`th percentile of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    s[nearest_rank(s.len(), p) - 1]
}

/// The tail of a timing sample by [`tail_percentile`]: the value and the
/// percentile it sits at. Falls back to the median when the sample is too
/// small for any percentile to have ten samples beyond it.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let p = tail_percentile(samples.len()).unwrap_or(50.0);
    (percentile(samples, p), p)
}

/// The geometric mean of positive values; `NaN` when empty or when any
/// value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
        assert!(minimum(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[1.0, 2.0, 3.0]).unwrap();
        assert!(
            close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 3.0),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert!(
            close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5),
            "{q:?}"
        );
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // Too few samples for any percentile.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: only the median leaves ten beyond it.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 40 samples: p75 is rank 30, ten beyond.
        assert_eq!(tail_percentile(40), Some(75.0));
        // 100 samples: p90 is rank 90, ten beyond; p95 leaves five.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        // Larger samples stay at p95.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000_000), Some(95.0));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_picks_the_nearest_rank_value() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), (90.0, 90.0));
        let small: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&small), (3.0, 50.0));
        assert_eq!(percentile(&samples, 50.0), 50.0);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!(close(geomean(&[2.0, 8.0]), 4.0));
        assert!(close(geomean(&[5.0]), 5.0));
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[1.0, f64::NAN]).is_nan());
    }
}
