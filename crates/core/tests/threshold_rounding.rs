//! Regression tests for `CondensedMatrix` f32 quantization at decision
//! thresholds, plus the observability bit-identity and conservation
//! guarantees.
//!
//! The condensed similarity matrix stores `f64` correlations rounded to
//! `f32`. Near a decision threshold that rounding is one-sided trouble: an
//! exact similarity in the half-ULP band just *below* φ = 0.8 (or 0.6)
//! rounds **up** across the threshold, so a pre-fix `≥ φ` comparison on the
//! `f32` admits a pair the paper's Definition 5 excludes. The tests here
//! construct such pairs by bisection and assert motif discovery now rejects
//! them (re-verifying near-threshold comparisons in `f64`), while pairs
//! comfortably over the threshold still join.

use wtts_core::motif::{discover_motifs, discover_motifs_indexed, Motif, MotifConfig, MotifIndex};
use wtts_core::obs::PipelineObs;
use wtts_core::{
    cor, cor_matrix, cor_matrix_pruned, profile_series, sketch_series, strong_stationarity,
    CorMatrixConfig, PruneConfig,
};

/// Motif discovery with `obs` watching every stage, index build included.
fn discover_observed(windows: &[Vec<f64>], config: &MotifConfig, obs: &PipelineObs) -> Vec<Motif> {
    let index = MotifIndex::observed(windows, config.min_observations, Some(obs));
    discover_motifs_indexed(&index, config, Some(obs))
}

/// The base window: one large outlier followed by scrambled small values.
/// Paired with [`probe_window`], the Pearson coefficient is a smooth,
/// monotone function of the probe's outlier `t` — ideal for bisection.
fn anchor_window(n: usize) -> Vec<f64> {
    let mut w = vec![1000.0];
    w.extend((1..n).map(|k| ((k * 37) % 19) as f64));
    w
}

/// The probe window: outlier `t` at the anchor's outlier position, then a
/// *differently* scrambled small tail, so the rank-based coefficients stay
/// fixed (and low) for every `t` above the tail's maximum of 16.
fn probe_window(n: usize, t: f64) -> Vec<f64> {
    let mut w = vec![t];
    w.extend((1..n).map(|k| ((k * 53) % 17) as f64));
    w
}

/// Bisects the probe outlier until `cor(anchor, probe)` lands in the f64
/// band just below `threshold` that rounds *up* to an f32 `≥ threshold` —
/// the exact inputs on which a verdict taken off the f32 matrix flips.
fn pair_rounding_up_across(threshold: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let x = anchor_window(n);
    // Keep t above the probe tail's value range so ranks never change.
    let mut lo = 20.0f64;
    let mut hi = 1e7f64;
    let c_lo = cor(&x, &probe_window(n, lo));
    let c_hi = cor(&x, &probe_window(n, hi));
    assert!(
        c_lo < threshold && c_hi > threshold,
        "bisection bracket broken: cor({lo}) = {c_lo}, cor({hi}) = {c_hi}"
    );
    for _ in 0..200 {
        let mid = lo + (hi - lo) / 2.0;
        if mid == lo || mid == hi {
            break;
        }
        if cor(&x, &probe_window(n, mid)) < threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let y = probe_window(n, lo);
    let exact = cor(&x, &y);
    assert!(
        exact < threshold,
        "premise: exact f64 similarity {exact} must sit below {threshold}"
    );
    assert!(
        (exact as f32) as f64 >= threshold,
        "premise: f32 rounding must carry {exact} up across {threshold} \
         (rounded to {})",
        exact as f32
    );
    (x, y)
}

/// A probe pair comfortably above the threshold (no rounding ambiguity).
fn pair_clearly_above(threshold: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let x = anchor_window(n);
    let mut lo = 20.0f64;
    let mut hi = 1e7f64;
    // Aim mid-way between the threshold and 1 — far outside any band.
    let target = (threshold + 1.0) / 2.0;
    for _ in 0..200 {
        let mid = lo + (hi - lo) / 2.0;
        if mid == lo || mid == hi {
            break;
        }
        if cor(&x, &probe_window(n, mid)) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let y = probe_window(n, hi);
    let exact = cor(&x, &y);
    assert!(exact >= target && exact < 0.99, "control pair at {exact}");
    (x, y)
}

/// A pair whose exact similarity sits a half f32 ULP below φ = 0.8 must not
/// form a motif: the pre-fix code admitted it off the rounded-up f32.
#[test]
fn f32_round_up_at_phi_does_not_flip_membership() {
    let (x, y) = pair_rounding_up_across(0.8, 24);
    let motifs = discover_motifs(&[x, y], &MotifConfig::default());
    assert!(
        motifs.is_empty(),
        "pair below φ in f64 formed a motif off the rounded f32: {motifs:?}"
    );
}

/// The same construction at the merge/group threshold value 0.6 (¾φ, the
/// dominance threshold and the stationarity threshold share it).
#[test]
fn f32_round_up_at_group_threshold_does_not_flip_membership() {
    let (x, y) = pair_rounding_up_across(0.6, 24);
    let motifs = discover_motifs(
        &[x, y],
        &MotifConfig {
            phi: 0.6,
            ..MotifConfig::default()
        },
    );
    assert!(
        motifs.is_empty(),
        "pair below 0.6 in f64 formed a motif off the rounded f32: {motifs:?}"
    );
}

/// Positive control: the re-verification guard must not reject pairs that
/// genuinely clear the threshold.
#[test]
fn clearly_similar_pair_still_forms_a_motif() {
    let (x, y) = pair_clearly_above(0.8, 24);
    let motifs = discover_motifs(&[x, y], &MotifConfig::default());
    assert_eq!(motifs.len(), 1, "control pair must form one motif");
    assert_eq!(motifs[0].support(), 2);
}

/// The near-threshold pair is exactly what the observability layer's
/// `f64_reverified` counter instruments: discovering over it must trigger
/// at least one f64 re-verification, and the books must balance.
#[test]
fn near_threshold_pair_is_reverified_and_counted() {
    let (x, y) = pair_rounding_up_across(0.8, 24);
    let obs = PipelineObs::new();
    let motifs = discover_observed(&[x, y], &MotifConfig::default(), &obs);
    assert!(motifs.is_empty());
    let snap = obs.snapshot();
    assert_eq!(snap.check_laws(), Vec::<String>::new());
    assert!(
        snap.f64_reverified >= 1,
        "the constructed pair must land in the re-verification band"
    );
    assert_eq!(snap.pairs_evaluated, 1);
    assert_eq!(snap.near_phi, 1, "the pair sits within 1e-3 of φ");
}

/// Fixture for the bit-identity checks: three clusters plus noise and a
/// NaN-holed window, big enough to exercise candidate, growth and merge
/// phases.
fn mixed_windows() -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = (0..6)
        .map(|s| {
            (0..24)
                .map(|b| {
                    let base = if b >= 18 { 900.0 } else { 8.0 };
                    base + ((b * 7 + s * 13) % 11) as f64
                })
                .collect()
        })
        .collect();
    windows.extend((0..5).map(|s| {
        (0..24)
            .map(|b| {
                let base = if (6..9).contains(&b) { 700.0 } else { 5.0 };
                base + ((b * 5 + s * 17) % 13) as f64
            })
            .collect()
    }));
    windows.extend((0..4).map(|s: usize| {
        (0..24)
            .map(|b: usize| ((b * 7919 + s * 104729) % 997) as f64)
            .collect()
    }));
    let mut holey: Vec<f64> = (0..24).map(|b| (b % 7) as f64).collect();
    holey[3] = f64::NAN;
    holey[15] = f64::NAN;
    windows.push(holey);
    windows
}

/// Enabling observability must not change a single output bit: the metrics
/// layer only observes, never decides.
#[test]
fn observed_runs_are_bit_identical_to_unobserved() {
    let windows = mixed_windows();
    let obs = PipelineObs::new();

    // Motif discovery.
    let plain = discover_motifs(&windows, &MotifConfig::default());
    let observed = discover_observed(&windows, &MotifConfig::default(), &obs);
    assert_eq!(plain, observed);

    // The condensed and the pruned matrix, compared bit for bit.
    let profiles = profile_series(&windows, None);
    let profiles_obs = profile_series(&windows, Some(&obs));
    let config = CorMatrixConfig::default();
    let m_plain = cor_matrix(&profiles, &config, None);
    let m_obs = cor_matrix(&profiles_obs, &config, Some(&obs));
    assert_eq!(m_plain.n(), m_obs.n());
    for (a, b) in m_plain.values().iter().zip(m_obs.values()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let prune = PruneConfig::at_threshold(0.6);
    let sketches = sketch_series(&profiles, &prune.sketch, None);
    let sketches_obs = sketch_series(&profiles_obs, &prune.sketch, Some(&obs));
    let p_plain = cor_matrix_pruned(&profiles, &sketches, &prune, None);
    let p_obs = cor_matrix_pruned(&profiles_obs, &sketches_obs, &prune, Some(&obs));
    assert_eq!(p_plain, p_obs);

    // Stationarity sweeps, min_cor compared bit for bit.
    let refs: Vec<&[f64]> = windows.iter().map(|w| w.as_slice()).collect();
    let s_plain = strong_stationarity(&refs, None).unwrap();
    let s_obs = strong_stationarity(&refs, Some(&obs)).unwrap();
    assert_eq!(s_plain.min_cor.to_bits(), s_obs.min_cor.to_bits());
    assert_eq!(s_plain, s_obs);

    // And the registry that watched all of it is coherent.
    let snap = obs.snapshot();
    assert_eq!(snap.check_laws(), Vec::<String>::new());
    assert!(snap.pairs_evaluated > 0);
    assert!(snap.prune_pairs_total > 0);
    assert!(snap.ks_tests > 0);
    assert!(snap.stationarity_sim_millis.total() > 0);
}

/// The snapshot's conservation law holds at quiescence after a
/// multi-threaded matrix fill.
#[test]
fn row_fill_stages_conserve_across_threads() {
    let windows = mixed_windows();
    let obs = PipelineObs::new();
    let profiles = profile_series(&windows, None);
    let config = CorMatrixConfig { threads: Some(4) };
    let _ = cor_matrix(&profiles, &config, Some(&obs));
    let snap = obs.snapshot();
    assert_eq!(snap.check_laws(), Vec::<String>::new());
    assert_eq!(snap.row_fill.entered, (windows.len() - 1) as u64);
}
