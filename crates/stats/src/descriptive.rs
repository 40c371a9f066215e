//! Descriptive statistics: moments, quantiles, histograms and boxplots.
//!
//! The boxplot statistics here drive the paper's background-traffic
//! thresholding (Section 6.1): the per-device threshold τ is the *upper
//! whisker* of the device's traffic distribution.

/// Arithmetic mean of the finite values in `xs`; `NaN` if there are none.
pub fn mean(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &x in xs {
        if x.is_finite() {
            sum += x;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Unbiased sample variance of the finite values; `NaN` with fewer than two.
pub fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m.is_nan() {
        return f64::NAN;
    }
    let mut ss = 0.0;
    let mut n = 0usize;
    for &x in xs {
        if x.is_finite() {
            ss += (x - m) * (x - m);
            n += 1;
        }
    }
    if n < 2 {
        f64::NAN
    } else {
        ss / (n - 1) as f64
    }
}

/// Sample standard deviation; `NaN` with fewer than two finite values.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Quantile of the finite values using linear interpolation between order
/// statistics (R's default "type 7", the same convention as NumPy).
///
/// `q` must lie in `[0, 1]`. Returns `NaN` for an all-missing input.
///
/// The two order statistics are found by selection in O(n) expected time,
/// bit-identical to interpolating over a sorted copy (see `Selection`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0, 1]");
    let mut vals = Vec::with_capacity(xs.len());
    let mut neg_zero = false;
    for &x in xs {
        if x.is_finite() {
            neg_zero |= is_neg_zero(x);
            vals.push(x);
        }
    }
    if vals.is_empty() {
        return f64::NAN;
    }
    let n = vals.len();
    let (lo, hi) = type7_ranks(n, q);
    Selection::new(xs, vals, neg_zero, &[lo, hi]).quantile(q)
}

/// Type-7 quantile over an already ascending-sorted, all-finite slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    type7(sorted.len(), q, |r| sorted[r])
}

/// The two sorted positions `(⌊h⌋, ⌈h⌉)`, `h = q·(n − 1)`, that a type-7
/// quantile interpolates between.
fn type7_ranks(n: usize, q: f64) -> (usize, usize) {
    let h = q * (n - 1) as f64;
    (h.floor() as usize, h.ceil() as usize)
}

/// Type-7 interpolation over `n ≥ 1` values whose `r`-th order statistic
/// is `stat(r)`.
fn type7(n: usize, q: f64, stat: impl Fn(usize) -> f64) -> f64 {
    let h = q * (n - 1) as f64;
    let (lo, hi) = type7_ranks(n, q);
    if lo == hi {
        stat(lo)
    } else {
        stat(lo) + (h - lo as f64) * (stat(hi) - stat(lo))
    }
}

fn is_neg_zero(x: f64) -> bool {
    x.to_bits() == (-0.0f64).to_bits()
}

/// The finite values of a sample, partially ordered by selection so that
/// chosen order statistics sit at their sorted positions — what a stable
/// sort would give at those positions, bit for bit, in O(n) expected time
/// instead of O(n log n).
///
/// Selection is unstable, which only matters for the one set of distinct
/// bit patterns that compare equal: `-0.0` and `0.0`. When the sample
/// holds a `-0.0`, a zero-valued order statistic takes the sign of the
/// zero a stable sort puts at that position: the `(r − #negatives)`-th
/// zero of the input.
struct Selection<'a> {
    input: &'a [f64],
    vals: Vec<f64>,
    neg_zero: bool,
}

impl<'a> Selection<'a> {
    /// Places every rank in `ranks` (the finite values of `input` are
    /// `vals`; `neg_zero` says whether one of them is `-0.0`).
    fn new(input: &'a [f64], mut vals: Vec<f64>, neg_zero: bool, ranks: &[usize]) -> Self {
        let mut ranks = ranks.to_vec();
        ranks.sort_unstable();
        ranks.dedup();
        select_ranks(&mut vals, 0, &ranks);
        Selection {
            input,
            vals,
            neg_zero,
        }
    }

    /// The `r`-th order statistic; `r` must be one of the placed ranks.
    fn at(&self, r: usize) -> f64 {
        let x = self.vals[r];
        if x != 0.0 || !self.neg_zero {
            return x;
        }
        let below = self
            .input
            .iter()
            .filter(|&&v| v < 0.0 && v.is_finite())
            .count();
        self.input
            .iter()
            .copied()
            .filter(|&v| v == 0.0)
            .nth(r - below)
            .expect("a zero order statistic has a zero at its position")
    }

    fn quantile(&self, q: f64) -> f64 {
        type7(self.vals.len(), q, |r| self.at(r))
    }
}

/// Partially orders `v` — whose first element has sorted position `base`
/// — so that `v[r − base]` is the `r`-th smallest value for every `r` in
/// `ranks` (ascending, distinct). Each selection splits the slice at its
/// rank and the other ranks recurse into the side they fall in.
///
/// The values are finite, so IEEE total order ranks them like `<` except
/// that it puts `-0.0` before `0.0`: the value at each rank is the same
/// number either way, and [`Selection::at`] settles a zero's sign.
fn select_ranks(v: &mut [f64], base: usize, ranks: &[usize]) {
    let mid = ranks.len() / 2;
    let Some(&r) = ranks.get(mid) else {
        return;
    };
    let (left, _, right) = v.select_nth_unstable_by(r - base, f64::total_cmp);
    select_ranks(left, base, &ranks[..mid]);
    select_ranks(right, r + 1, &ranks[mid + 1..]);
}

/// Median of the finite values.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Tukey boxplot statistics: quartiles, IQR whiskers and outliers.
///
/// The whiskers extend to the most extreme data points within
/// `1.5 × IQR` of the quartiles; everything beyond is an outlier. The paper
/// uses the **upper whisker** as the per-device background-traffic threshold
/// τ, because background traffic dominates the probability mass and active
/// traffic shows up as outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotStats {
    /// Minimum finite value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum finite value.
    pub max: f64,
    /// Largest data point `<= q3 + 1.5*IQR`.
    pub upper_whisker: f64,
    /// Smallest data point `>= q1 - 1.5*IQR`.
    pub lower_whisker: f64,
    /// Number of points above the upper whisker.
    pub upper_outliers: usize,
    /// Number of points below the lower whisker.
    pub lower_outliers: usize,
    /// Number of finite observations.
    pub n: usize,
}

impl BoxplotStats {
    /// Computes boxplot statistics over the finite values of `xs`.
    ///
    /// Returns `None` if there is no finite value.
    ///
    /// Linear time: the quartiles come from selection (see `Selection`),
    /// and min/max, whiskers and outlier counts from scans. Every field is
    /// bit-identical to reading them off a stably sorted copy, `-0.0`/`0.0`
    /// ties included: each scan keeps the element a stable sort puts first
    /// (minimum, lower whisker) or last (maximum, upper whisker) among
    /// equal values, i.e. the first or last in input order.
    pub fn from_samples(xs: &[f64]) -> Option<BoxplotStats> {
        let mut vals = Vec::with_capacity(xs.len());
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut neg_zero = false;
        for &x in xs {
            if x.is_finite() {
                min = if x < min { x } else { min };
                max = if x >= max { x } else { max };
                neg_zero |= is_neg_zero(x);
                vals.push(x);
            }
        }
        let n = vals.len();
        if n == 0 {
            return None;
        }
        let (l1, h1) = type7_ranks(n, 0.25);
        let (l2, h2) = type7_ranks(n, 0.5);
        let (l3, h3) = type7_ranks(n, 0.75);
        let sel = Selection::new(xs, vals, neg_zero, &[l1, h1, l2, h2, l3, h3]);
        let q1 = sel.quantile(0.25);
        let q3 = sel.quantile(0.75);
        let iqr = q3 - q1;
        let hi_fence = q3 + 1.5 * iqr;
        let lo_fence = q1 - 1.5 * iqr;
        // Largest point within the upper fence (last of its ties) and
        // smallest within the lower fence (first of its ties); the quartile
        // itself if none is. Finite data never equals the ±∞ seeds.
        let (mut upper, mut lower) = (f64::NEG_INFINITY, f64::INFINITY);
        for &x in xs {
            if x.is_finite() {
                upper = if x <= hi_fence && x >= upper {
                    x
                } else {
                    upper
                };
                lower = if x >= lo_fence && x < lower { x } else { lower };
            }
        }
        let upper_whisker = if upper == f64::NEG_INFINITY {
            q3
        } else {
            upper
        };
        let lower_whisker = if lower == f64::INFINITY { q1 } else { lower };
        let upper_outliers = sel.vals.iter().filter(|&&x| x > upper_whisker).count();
        let lower_outliers = sel.vals.iter().filter(|&&x| x < lower_whisker).count();
        Some(BoxplotStats {
            min,
            q1,
            median: sel.quantile(0.5),
            q3,
            max,
            upper_whisker,
            lower_whisker,
            upper_outliers,
            lower_outliers,
            n,
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Total outlier count.
    pub fn outliers(&self) -> usize {
        self.upper_outliers + self.lower_outliers
    }
}

/// A fixed-width histogram over `[min, max)` with an overflow bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub min: f64,
    /// Bin width.
    pub width: f64,
    /// Count of values in each bin `[min + i*width, min + (i+1)*width)`.
    pub counts: Vec<usize>,
    /// Values below `min`.
    pub underflow: usize,
    /// Values at or above the last edge.
    pub overflow: usize,
}

impl Histogram {
    /// Total number of counted values, including under/overflow.
    pub fn total(&self) -> usize {
        self.counts.iter().sum::<usize>() + self.underflow + self.overflow
    }

    /// The `(left_edge, count)` pairs of the regular bins.
    pub fn bins(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.min + i as f64 * self.width, c))
    }
}

/// Builds a histogram of the finite values with `n_bins` equal bins covering
/// `[min, max)`.
///
/// # Panics
/// Panics if `n_bins == 0` or `max <= min`.
pub fn histogram(xs: &[f64], min: f64, max: f64, n_bins: usize) -> Histogram {
    assert!(n_bins > 0, "histogram needs at least one bin");
    assert!(max > min, "histogram range must be non-empty");
    let width = (max - min) / n_bins as f64;
    let mut counts = vec![0usize; n_bins];
    let mut underflow = 0;
    let mut overflow = 0;
    for &x in xs {
        if !x.is_finite() {
            continue;
        }
        if x < min {
            underflow += 1;
        } else if x >= max {
            overflow += 1;
        } else {
            let i = (((x - min) / width) as usize).min(n_bins - 1);
            counts[i] += 1;
        }
    }
    Histogram {
        min,
        width,
        counts,
        underflow,
        overflow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_skip_missing() {
        let xs = [1.0, 2.0, f64::NAN, 3.0];
        assert_eq!(mean(&xs), 2.0);
        assert!((variance(&xs) - 1.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_moments() {
        assert!(mean(&[]).is_nan());
        assert!(mean(&[f64::NAN]).is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn quantile_type7_matches_r() {
        // R: quantile(c(1,2,3,4), probs=c(0.25, 0.5, 0.75)) -> 1.75 2.50 3.25
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 3.25).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn boxplot_detects_outliers() {
        // 20 small values and one huge spike: the spike must sit above the
        // upper whisker, like a burst of active traffic.
        let mut xs: Vec<f64> = (0..20).map(|i| (i % 5) as f64).collect();
        xs.push(1_000_000.0);
        let b = BoxplotStats::from_samples(&xs).unwrap();
        assert_eq!(b.upper_outliers, 1);
        assert!(b.upper_whisker <= 4.0 + 1.5 * b.iqr());
        assert_eq!(b.max, 1_000_000.0);
        assert_eq!(b.n, 21);
    }

    #[test]
    fn boxplot_no_outliers() {
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let b = BoxplotStats::from_samples(&xs).unwrap();
        assert_eq!(b.outliers(), 0);
        assert_eq!(b.upper_whisker, 9.0);
        assert_eq!(b.lower_whisker, 1.0);
        assert_eq!(b.median, 5.0);
    }

    #[test]
    fn boxplot_all_missing_is_none() {
        assert!(BoxplotStats::from_samples(&[f64::NAN, f64::NAN]).is_none());
        assert!(BoxplotStats::from_samples(&[]).is_none());
    }

    #[test]
    fn boxplot_single_value() {
        let b = BoxplotStats::from_samples(&[7.0]).unwrap();
        assert_eq!(b.median, 7.0);
        assert_eq!(b.upper_whisker, 7.0);
        assert_eq!(b.outliers(), 0);
    }

    #[test]
    fn histogram_counts_and_edges() {
        let xs = [0.0, 0.5, 1.0, 1.5, 2.5, -1.0, 10.0, f64::NAN];
        let h = histogram(&xs, 0.0, 3.0, 3);
        assert_eq!(h.counts, vec![2, 2, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 7);
        let bins: Vec<(f64, usize)> = h.bins().collect();
        assert_eq!(bins[0], (0.0, 2));
        assert_eq!(bins[2], (2.0, 1));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = histogram(&[1.0], 0.0, 1.0, 0);
    }
}
