//! Medians, quartiles and histogram quantiles.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses by default ("exclusive");
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// Quantile `q` of a log₂-bucketed histogram (bucket 0 counts zeros,
/// bucket `k` counts `[2^(k-1), 2^k)`), interpolated linearly inside the
/// bucket that holds it, as Prometheus' `histogram_quantile` does.
/// `NaN` for an empty histogram.
pub fn histogram_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (k, &c) in counts.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= rank {
            if k == 0 {
                return 0.0;
            }
            let lo = 2f64.powi(k as i32 - 1);
            let share = (rank - below as f64) / c as f64;
            return lo + share * lo;
        }
        below += c;
    }
    2f64.powi(counts.len() as i32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(5.5 / 5.5));
    }

    #[test]
    fn histogram_quantile_interpolates_inside_a_bucket() {
        // 10 samples in [256, 512): the median sits half-way through.
        let mut counts = vec![0u64; 12];
        counts[9] = 10;
        assert_eq!(histogram_quantile(&counts, 0.5), 384.0);
        assert_eq!(histogram_quantile(&counts, 1.0), 512.0);
        counts[0] = 10; // ten zeros below
        assert_eq!(histogram_quantile(&counts, 0.25), 0.0);
        assert_eq!(histogram_quantile(&counts, 0.75), 384.0);
        assert!(histogram_quantile(&[0, 0], 0.5).is_nan());
    }
}
