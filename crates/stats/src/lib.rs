//! Statistical primitives for wireless-traffic time-series analysis.
//!
//! Everything the paper's framework needs, implemented from scratch:
//!
//! * [`special`] — log-gamma, regularized incomplete beta, error function and
//!   the distribution functions (normal, Student's *t*, Kolmogorov) built on
//!   them. These power every p-value in the crate.
//! * [`descriptive`] — means, variances, quantiles, histograms and the
//!   boxplot statistics used for background-traffic thresholding.
//! * [`rank`] — mid-rank transforms with tie handling.
//! * [`correlation`] — Pearson, Spearman and Kendall coefficients, each with
//!   a two-sided significance test (the ingredients of the paper's
//!   Definition 1).
//! * [`corprofile`] — per-series profiles that make batch pairwise
//!   correlation cheap while staying bit-identical to [`correlation`].
//! * [`kernels`] — the cache/autovectorization-friendly inner loops the
//!   profiles, CCF folds, rank transforms and KS scan all bottom out in,
//!   bit-identical at every `f64` decision surface and benchmarked
//!   per-kernel against the loops they replaced (BENCH_kernels).
//! * [`sketch`] — per-series pruning sketches whose coefficient upper
//!   bounds let batch engines discard provably-below-threshold pairs
//!   without exact work (zero false dismissals).
//! * [`ks`] — the two-sample Kolmogorov–Smirnov test (Definition 2's
//!   distribution check).
//! * [`mod@acf`] — autocorrelation and cross-correlation functions
//!   (Figure 2), pairwise-complete under gaps with typed degenerate cases
//!   and a reusable per-series kernel ([`CcfSide`]) for lag-search engines.
//! * [`stationarity`] — KPSS and Augmented Dickey–Fuller tests (Section 4.2).
//! * [`ols`] — the small dense least-squares solver behind ADF.
//! * [`kde`] — Gaussian kernel density estimation (Figure 1a).
//! * [`zipf`] — rank-frequency power-law fitting (the paper's claim that
//!   traffic values follow Zipf's law).
//! * [`distance`] — Euclidean distance, z-normalization and Dynamic Time
//!   Warping, the baselines the correlation measure is compared against.
//!
//! All routines are missing-aware where it matters: series comparisons use
//! pairwise-complete observations, mirroring how the paper handles gateways
//! with gaps.

pub mod acf;
pub mod ar;
pub mod corprofile;
pub mod correlation;
pub mod descriptive;
pub mod distance;
pub mod kde;
pub mod kernels;
pub mod ks;
pub mod ols;
pub mod rank;
pub mod sketch;
pub mod special;
pub mod spectrum;
pub mod stationarity;
pub mod zipf;

pub use acf::{
    acf, ccf, ccf_cell, ccf_cell_counted, ccf_cells_batch, effective_sample_size,
    significance_bound, significance_bound_effective, CcfSide, CorrelogramError,
};
pub use ar::{fit_ar, fit_ar_aic, forecast_rmse, ArModel, ForecastComparison};
pub use corprofile::{cor_tests_profiled, CorProfile, CorScratch};
pub use correlation::{kendall, pearson, spearman, CorrelationCoefficient, CorrelationTest};
pub use descriptive::{
    histogram, mean, median, quantile, std_dev, variance, BoxplotStats, Histogram,
};
pub use distance::{dtw, dtw_banded, euclidean, z_normalize};
pub use kde::Kde;
pub use ks::{ks_two_sample, ks_two_sample_sorted, KsTest};
pub use ols::OlsFit;
pub use rank::{mid_ranks, rank_series, ranks_and_ties, tie_group_sizes, RankedSeries};
pub use sketch::{
    gaussian_breakpoints, mindist_cell_gaps, prune_pair, CorSketch, PruneTier, SketchConfig,
    PRUNE_MARGIN,
};
pub use spectrum::{dominant_period, fft, ljung_box, periodogram, LjungBox, SpectralLine};
pub use stationarity::{adf_test, kpss_test, AdfResult, KpssResult};
pub use zipf::{fit_ranked, fit_zipf, ZipfFit};

/// The significance level used throughout the paper (α = 0.05).
pub const ALPHA: f64 = 0.05;

/// Filters two equally long sample slices down to the index pairs where both
/// values are finite ("pairwise-complete observations").
///
/// Returns the retained `(x, y)` pairs as two vectors of equal length.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn pairwise_complete(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(x.len(), y.len(), "paired samples must have equal length");
    let mut xs = Vec::with_capacity(x.len());
    let mut ys = Vec::with_capacity(y.len());
    for (&a, &b) in x.iter().zip(y) {
        if a.is_finite() && b.is_finite() {
            xs.push(a);
            ys.push(b);
        }
    }
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_complete_drops_either_side_missing() {
        let x = [1.0, f64::NAN, 3.0, 4.0];
        let y = [10.0, 20.0, f64::NAN, 40.0];
        let (xs, ys) = pairwise_complete(&x, &y);
        assert_eq!(xs, vec![1.0, 4.0]);
        assert_eq!(ys, vec![10.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pairwise_complete_rejects_length_mismatch() {
        let _ = pairwise_complete(&[1.0], &[1.0, 2.0]);
    }
}
