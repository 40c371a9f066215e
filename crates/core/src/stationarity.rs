//! Strong stationarity over non-overlapping windows (Definition 2).
//!
//! A gateway's series is *strongly stationary* for a window size when
//!
//! * the correlation similarity (Definition 1) exceeds `0.6` between **all**
//!   pairs of non-overlapping windows, and
//! * the two-sample Kolmogorov–Smirnov test is **not** rejected for any
//!   window pair (the value distributions are indistinguishable).
//!
//! Unlike classical wide-sense stationarity (which Section 4.2 shows fails
//! on every gateway), this notion asks for *repetitive behavior across
//! calendar windows* — exactly the regularity that motifs formalize.

use crate::engine::{cor_profiled, profile_one};
use crate::obs::{sim_millis, PipelineObs};
use wtts_stats::{ks_two_sample, CorProfile, CorScratch, ALPHA};

/// The paper's correlation threshold for strong stationarity.
pub const STATIONARITY_COR: f64 = 0.6;

/// Outcome of a strong-stationarity check over a set of windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationarityCheck {
    /// Smallest pairwise correlation similarity observed.
    pub min_cor: f64,
    /// Whether every pair exceeded the correlation threshold.
    pub correlations_pass: bool,
    /// Whether any KS test rejected distribution equality.
    pub ks_rejected: bool,
    /// Number of windows with observations that entered the check.
    pub n_windows: usize,
}

impl StationarityCheck {
    /// Definition 2 verdict.
    pub fn is_stationary(&self) -> bool {
        self.correlations_pass && !self.ks_rejected
    }
}

/// Whether one pairwise similarity clears Definition 2's correlation bar,
/// which is strict: `cor > 0.6`.
pub(crate) fn correlation_passes(c: f64) -> bool {
    c > STATIONARITY_COR
}

/// Definition 2 with the paper's thresholds (`cor > 0.6`, α = 0.05):
/// checks strong stationarity across `windows`, each a slice of samples at
/// the same binning.
///
/// Windows with no finite observation are skipped — a gateway that missed a
/// whole week is judged on the weeks it reported. Returns `None` when fewer
/// than two windows carry observations (stationarity is then undefined).
///
/// When `obs` is `Some`, the sweep opens a span on
/// [`PipelineObs::stationarity_sweep`], counts each two-sample KS test on
/// `ks_tests`, and records every pairwise similarity (in thousandths) into
/// `stationarity_sim_millis`.
pub fn strong_stationarity(
    windows: &[&[f64]],
    obs: Option<&PipelineObs>,
) -> Option<StationarityCheck> {
    let observed: Vec<&&[f64]> = windows
        .iter()
        .filter(|w| w.iter().any(|v| v.is_finite()))
        .collect();
    if observed.len() < 2 {
        return None;
    }
    let _span = obs.map(|o| o.stationarity_sweep.enter());
    // Profile each window once; the quadratic pair loop then reuses the
    // per-window masks, moments and rank artifacts (full f64 precision, as
    // min_cor feeds threshold comparisons downstream).
    let profiles: Vec<CorProfile> = observed.iter().map(|w| profile_one(w, obs)).collect();
    let mut scratch = CorScratch::new();
    let mut min_cor = f64::INFINITY;
    let mut correlations_pass = true;
    let mut ks_rejected = false;
    for i in 0..observed.len() {
        for j in (i + 1)..observed.len() {
            let c = cor_profiled(&profiles[i], &profiles[j], &mut scratch);
            min_cor = min_cor.min(c);
            if !correlation_passes(c) {
                correlations_pass = false;
            }
            if let Some(o) = obs {
                o.stationarity_sim_millis.record(sim_millis(c));
            }
            if let Some(ks) = ks_two_sample(observed[i], observed[j]) {
                if let Some(o) = obs {
                    o.ks_tests.incr();
                }
                if ks.rejected(ALPHA) {
                    ks_rejected = true;
                }
            }
        }
    }
    Some(StationarityCheck {
        min_cor,
        correlations_pass,
        ks_rejected,
        n_windows: observed.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cor;

    /// A repeating daily-shaped window with slight deterministic variation.
    fn shaped_window(phase: usize) -> Vec<f64> {
        (0..24)
            .map(|h| {
                let base = if (18..23).contains(&h) { 100.0 } else { 5.0 };
                base + ((h * 7 + phase) % 5) as f64
            })
            .collect()
    }

    #[test]
    fn repeating_pattern_is_stationary() {
        let w: Vec<Vec<f64>> = (0..4).map(shaped_window).collect();
        let refs: Vec<&[f64]> = w.iter().map(|v| v.as_slice()).collect();
        let check = strong_stationarity(&refs, None).unwrap();
        assert!(check.is_stationary(), "{check:?}");
        assert!(check.min_cor > 0.9);
        assert_eq!(check.n_windows, 4);
    }

    #[test]
    fn shifted_behavior_fails_correlation() {
        // Morning window vs evening window: anti-aligned activity.
        let morning: Vec<f64> = (0..24)
            .map(|h| {
                if (6..10).contains(&h) {
                    100.0
                } else {
                    2.0 + (h % 3) as f64
                }
            })
            .collect();
        let evening: Vec<f64> = (0..24)
            .map(|h| {
                if (18..22).contains(&h) {
                    100.0
                } else {
                    2.0 + (h % 3) as f64
                }
            })
            .collect();
        let check = strong_stationarity(&[&morning, &evening], None).unwrap();
        assert!(!check.is_stationary());
        assert!(!check.correlations_pass);
    }

    #[test]
    fn distribution_change_fails_ks() {
        // Same *shape* (perfectly correlated) but hugely different scale:
        // correlation passes, the KS distribution check must catch it.
        let small: Vec<f64> = (0..200).map(|i| (i % 24) as f64).collect();
        let large: Vec<f64> = small.iter().map(|v| v * 1000.0).collect();
        let check = strong_stationarity(&[&small, &large], None).unwrap();
        assert!(check.correlations_pass, "shape identical");
        assert!(check.ks_rejected, "scale change must reject KS");
        assert!(!check.is_stationary());
    }

    #[test]
    fn empty_windows_are_skipped() {
        let w1 = shaped_window(0);
        let w2 = shaped_window(1);
        let missing = vec![f64::NAN; 24];
        let check = strong_stationarity(&[&w1, &missing, &w2], None).unwrap();
        assert_eq!(check.n_windows, 2);
        assert!(check.is_stationary());
    }

    #[test]
    fn fewer_than_two_windows_is_none() {
        let w1 = shaped_window(0);
        let missing = vec![f64::NAN; 24];
        assert!(strong_stationarity(&[&w1, &missing], None).is_none());
        assert!(strong_stationarity(&[], None).is_none());
    }

    #[test]
    fn threshold_is_strict() {
        // A pair correlating at exactly the threshold must fail (the
        // definition demands > 0.6); the next float up passes.
        assert!(!correlation_passes(STATIONARITY_COR));
        assert!(correlation_passes(STATIONARITY_COR.next_up()));
        // And the verdict is exactly "the weakest pair clears the bar".
        let w: Vec<Vec<f64>> = (0..4).map(shaped_window).collect();
        let refs: Vec<&[f64]> = w.iter().map(|v| v.as_slice()).collect();
        let check = strong_stationarity(&refs, None).unwrap();
        assert_eq!(check.correlations_pass, correlation_passes(check.min_cor));
    }

    #[test]
    fn min_cor_reported() {
        let w: Vec<Vec<f64>> = (0..3).map(shaped_window).collect();
        let refs: Vec<&[f64]> = w.iter().map(|v| v.as_slice()).collect();
        let check = strong_stationarity(&refs, None).unwrap();
        // min_cor is the weakest link; verify against a manual scan.
        let mut manual = f64::INFINITY;
        for i in 0..3 {
            for j in (i + 1)..3 {
                manual = manual.min(cor(&w[i], &w[j]));
            }
        }
        assert!((check.min_cor - manual).abs() < 1e-12);
    }
}
