//! The correlation similarity measure (Definition 1).
//!
//! `cor(X, Y)` is the maximum of the *statistically significant* Pearson,
//! Spearman and Kendall correlation coefficients at level α = 0.05; when
//! none is significant, `cor(X, Y) = 0`. The three coefficients capture
//! complementary dependencies (linear, monotone, rank-concordance), share
//! the `[-1, 1]` domain and strength semantics, and taking the maximum keeps
//! whichever dependence is present. The measure is invariant to scaling —
//! it follows the *evolution* of traffic rather than its absolute volume.

use wtts_stats::sketch::{prune_pair, CorSketch, SketchConfig};
use wtts_stats::{
    kendall, pearson, spearman, CorProfile, CorrelationCoefficient, CorrelationTest, ALPHA,
};

/// Full result of evaluating the correlation similarity measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorSimilarity {
    /// The similarity value: the largest significant coefficient, or `0`.
    pub value: f64,
    /// Which coefficient supplied the value, `None` if none was significant.
    pub best: Option<CorrelationCoefficient>,
    /// The underlying Pearson test.
    pub pearson: CorrelationTest,
    /// The underlying Spearman test.
    pub spearman: CorrelationTest,
    /// The underlying Kendall test.
    pub kendall: CorrelationTest,
}

impl CorSimilarity {
    /// The Definition-1 reduction of a pair's three tests: the largest
    /// coefficient significant at level `alpha`, `0` when none is. Both the
    /// from-scratch and the profiled Definition-1 paths reduce here.
    pub fn from_tests(
        pearson: CorrelationTest,
        spearman: CorrelationTest,
        kendall: CorrelationTest,
        alpha: f64,
    ) -> CorSimilarity {
        let mut value = 0.0;
        let mut best = None;
        for test in [&pearson, &spearman, &kendall] {
            if test.significant(alpha) && (best.is_none() || test.value > value) {
                value = test.value;
                best = Some(test.coefficient);
            }
        }
        CorSimilarity {
            value,
            best,
            pearson,
            spearman,
            kendall,
        }
    }

    /// Whether any coefficient was significant.
    pub fn is_significant(&self) -> bool {
        self.best.is_some()
    }

    /// The distance form `1 − cor` used for clustering (Figure 3).
    pub fn distance(&self) -> f64 {
        1.0 - self.value
    }
}

/// Evaluates Definition 1 at significance level `alpha`.
///
/// Missing values are handled pairwise by the underlying tests.
pub fn correlation_similarity_at(x: &[f64], y: &[f64], alpha: f64) -> CorSimilarity {
    CorSimilarity::from_tests(pearson(x, y), spearman(x, y), kendall(x, y), alpha)
}

/// Evaluates Definition 1 at the paper's α = 0.05.
pub fn correlation_similarity(x: &[f64], y: &[f64]) -> CorSimilarity {
    correlation_similarity_at(x, y, ALPHA)
}

/// The similarity value alone: `cor(X, Y)` of Definition 1.
///
/// ```
/// use wtts_core::similarity::cor;
///
/// let x: Vec<f64> = (0..24).map(|h| if h >= 18 { 1000.0 + h as f64 } else { 5.0 }).collect();
/// let scaled: Vec<f64> = x.iter().map(|v| v * 3.0).collect();
/// assert!(cor(&x, &scaled) > 0.99); // invariant to scaling
/// assert_eq!(cor(&[1.0, 2.0], &[2.0, 4.0]), 0.0); // too short: not significant
/// ```
pub fn cor(x: &[f64], y: &[f64]) -> f64 {
    correlation_similarity(x, y).value
}

/// The derived distance `1 − cor(X, Y)` (`0` = identical evolution, `1` =
/// no significant dependence, up to `2` for perfect anti-correlation).
pub fn cor_distance(x: &[f64], y: &[f64]) -> f64 {
    1.0 - cor(x, y)
}

/// Whether `cor(x, y) ≥ threshold`, answered as cheaply as possible: a
/// sketch-bound check first (for same-mask pairs at a positive threshold),
/// exact Definition 1 only when the bounds cannot rule the pair out.
/// Always agrees with `cor(x, y) >= threshold`.
pub fn cor_at_least(x: &[f64], y: &[f64], threshold: f64) -> bool {
    let (px, py) = (CorProfile::new(x), CorProfile::new(y));
    if px.same_mask(&py) && threshold > 0.0 {
        let cfg = SketchConfig::default();
        let sx = CorSketch::from_profile(&px, &cfg);
        let sy = CorSketch::from_profile(&py, &cfg);
        if prune_pair(&sx, &sy, threshold).is_some() {
            return false;
        }
    }
    cor(x, y) >= threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_series_uses_pearson_or_equivalent() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 2.0).collect();
        let sim = correlation_similarity(&x, &y);
        assert!(sim.is_significant());
        assert!((sim.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_invariance() {
        // The defining property: scaling traffic volume must not change the
        // similarity.
        let x: Vec<f64> = (0..40).map(|i| ((i * 13) % 23) as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| ((i * 13) % 23) as f64 * 1e6).collect();
        assert!((cor(&x, &y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_nonlinear_prefers_rank_coefficients() {
        let x: Vec<f64> = (1..60).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v * v).collect();
        let sim = correlation_similarity(&x, &y);
        // Spearman/Kendall are exactly 1; Pearson is below 1.
        assert!((sim.value - 1.0).abs() < 1e-9);
        assert_eq!(sim.best, Some(CorrelationCoefficient::Spearman));
        assert!(sim.pearson.value < 1.0);
    }

    #[test]
    fn independent_noise_is_zero() {
        // Deterministic hash-style pseudo-noise with no real dependence.
        let hash = |i: usize, k: f64| ((i as f64 * k).sin() * 43758.5453).fract().abs();
        let x: Vec<f64> = (0..30).map(|i| hash(i, 12.9898)).collect();
        let y: Vec<f64> = (0..30).map(|i| hash(i, 78.233)).collect();
        let sim = correlation_similarity(&x, &y);
        if !sim.is_significant() {
            assert_eq!(sim.value, 0.0);
        } else {
            // If one squeaks under alpha it must still be weak.
            assert!(sim.value.abs() < 0.5);
        }
    }

    #[test]
    fn too_short_series_is_zero() {
        assert_eq!(cor(&[1.0, 2.0], &[2.0, 4.0]), 0.0);
        assert_eq!(cor(&[], &[]), 0.0);
    }

    #[test]
    fn constant_series_is_zero() {
        let x = [5.0; 20];
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert_eq!(cor(&x, &y), 0.0);
    }

    #[test]
    fn anti_correlation_is_negative_when_significant() {
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..30).map(|i| -(i as f64)).collect();
        let sim = correlation_similarity(&x, &y);
        assert!(sim.is_significant());
        assert!(sim.value < -0.99);
        assert!(sim.distance() > 1.99);
    }

    #[test]
    fn distance_complements_similarity() {
        let x: Vec<f64> = (0..25).map(|i| (i % 7) as f64).collect();
        let y: Vec<f64> = (0..25).map(|i| ((i % 7) * 3) as f64).collect();
        assert!((cor_distance(&x, &y) - (1.0 - cor(&x, &y))).abs() < 1e-12);
    }

    #[test]
    fn alpha_controls_significance() {
        // A weak-ish correlation on few points: significant at a loose alpha
        // only.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0];
        let strict = correlation_similarity_at(&x, &y, 0.01);
        let loose = correlation_similarity_at(&x, &y, 0.20);
        assert_eq!(strict.value, 0.0);
        assert!(loose.value > 0.5);
    }

    #[test]
    fn takes_the_maximum_significant_coefficient() {
        let x: Vec<f64> = (1..40).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.sqrt()).collect();
        let sim = correlation_similarity(&x, &y);
        let max = sim
            .pearson
            .value
            .max(sim.spearman.value)
            .max(sim.kendall.value);
        assert!((sim.value - max).abs() < 1e-12);
    }

    #[test]
    fn cor_at_least_agrees_with_exact() {
        let mk = |phase: f64| -> Vec<f64> {
            (0..48)
                .map(|i| (i as f64 * 0.3 + phase).sin() * 50.0 + i as f64 * 1e-3)
                .collect()
        };
        let series = [mk(0.0), mk(0.1), mk(1.6), mk(3.1)];
        for a in &series {
            for b in &series {
                for thr in [-0.5, 0.0, 0.3, 0.6, 0.9] {
                    assert_eq!(cor_at_least(a, b, thr), cor(a, b) >= thr, "threshold {thr}");
                }
            }
        }
        // Differing masks take the exact path and still agree.
        let mut holey = mk(0.2);
        holey[7] = f64::NAN;
        assert_eq!(
            cor_at_least(&holey, &series[0], 0.6),
            cor(&holey, &series[0]) >= 0.6
        );
    }

    #[test]
    fn missing_values_tolerated() {
        let mut x: Vec<f64> = (0..60).map(|i| (i % 11) as f64).collect();
        let y: Vec<f64> = (0..60).map(|i| ((i % 11) * 2) as f64).collect();
        x[5] = f64::NAN;
        x[17] = f64::NAN;
        assert!(cor(&x, &y) > 0.99);
    }
}
