//! Property-based tests of the framework's invariants.

use proptest::prelude::*;
use wtts_core::background::{capped_tau, estimate_tau, remove_background, TAU_CAP};
use wtts_core::clustering::average_linkage;
use wtts_core::dominance::{dominant_devices, rank_dominants, DominantDevice};
use wtts_core::engine::{
    cor_matrix, cor_matrix_pruned, correlation_similarity_profiled, profile_series, sketch_series,
    CorMatrixConfig, PruneConfig,
};
use wtts_core::sax::{alphabet_utilization, dominant_symbol_share, paa, sax_word};
use wtts_core::similarity::{cor, correlation_similarity};
use wtts_core::stationarity::strong_stationarity;
use wtts_core::streaming::OnlinePearson;
use wtts_stats::{CorProfile, CorScratch};
use wtts_timeseries::TimeSeries;

fn traffic(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1e7, len)
}

/// A traffic sample that may be a NaN hole (missing minute) or a quantized
/// value (heavy ties) — the two regimes that exercise the engine's
/// pairwise-deletion fallback and tie corrections.
fn holey_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        5 => 0.0f64..1e7,
        2 => Just(f64::NAN),
        3 => (0u32..4).prop_map(|q| (q * 250) as f64),
    ]
}

/// Definition 4 from scratch: `correlation_similarity` per device, then the
/// shared ranking. The profiled scan must match it bit for bit.
fn dominance_oracle(total: &TimeSeries, devices: &[TimeSeries], phi: f64) -> Vec<DominantDevice> {
    rank_dominants(
        devices
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                let sim = correlation_similarity(total.values(), d.values()).value;
                (sim > phi).then_some((i, sim))
            })
            .collect(),
    )
}

/// Same devices in the same order, same ranks, `to_bits`-equal similarities.
fn assert_dominance_matches_oracle(total: &TimeSeries, devices: &[TimeSeries]) {
    for phi in [0.0, 0.6, 0.8] {
        let fast = dominant_devices(total, devices, phi);
        let oracle = dominance_oracle(total, devices, phi);
        assert_eq!(fast.len(), oracle.len(), "phi {phi}: dominant count");
        for (f, o) in fast.iter().zip(&oracle) {
            assert_eq!(f.device, o.device, "phi {phi}: device order");
            assert_eq!(f.rank, o.rank, "phi {phi}: rank of device {}", o.device);
            assert_eq!(
                f.similarity.to_bits(),
                o.similarity.to_bits(),
                "phi {phi}: similarity of device {}",
                o.device
            );
        }
    }
}

/// How a device's finite minutes relate to the total's — which tier of
/// `cor_tests_profiled` the pair takes.
fn mask_tier(total: &[f64], device: &[f64]) -> &'static str {
    let device_within = total
        .iter()
        .zip(device)
        .all(|(t, d)| !d.is_finite() || t.is_finite());
    let total_within = total
        .iter()
        .zip(device)
        .all(|(t, d)| !t.is_finite() || d.is_finite());
    match (device_within, total_within) {
        (true, true) => "equal",
        (true, false) => "device subset",
        (false, true) => "total subset",
        (false, false) => "incomparable",
    }
}

/// A gateway whose devices cover every degenerate case of Definition 4: a
/// complete shaper, a holey portable following it, noise, a constant, an
/// all-NaN device, a device with two finite minutes, and (last) a copy of
/// the total. `outage` blanks a minute range on every device.
fn dominance_fixture(outage: std::ops::Range<usize>) -> (TimeSeries, Vec<TimeSeries>) {
    let n = 720;
    let burst = |i: usize| {
        if (i / 45) % 4 == 1 {
            40_000.0 + ((i * 37) % 11) as f64
        } else {
            ((i * 13) % 7) as f64
        }
    };
    let shaper: Vec<f64> = (0..n).map(burst).collect();
    let portable: Vec<f64> = (0..n)
        .map(|i| {
            if (i / 90) % 3 == 2 {
                f64::NAN
            } else {
                (burst(i) * 0.01).floor() + ((i * 7) % 5) as f64
            }
        })
        .collect();
    let noise: Vec<f64> = (0..n).map(|i| ((i * 7919) % 100) as f64).collect();
    let constant = vec![300.0; n];
    let absent = vec![f64::NAN; n];
    let blip: Vec<f64> = (0..n)
        .map(|i| if i == 5 || i == 400 { 7.0 } else { f64::NAN })
        .collect();
    let mut devices: Vec<TimeSeries> = [shaper, portable, noise, constant, absent, blip]
        .into_iter()
        .map(|mut v| {
            v[outage.clone()].fill(f64::NAN);
            TimeSeries::per_minute(v)
        })
        .collect();
    let total = TimeSeries::sum_all(devices.iter()).expect("devices present");
    devices.push(total.clone());
    (total, devices)
}

#[test]
fn dominance_bit_identical_on_every_mask_tier() {
    let mut tiers = std::collections::BTreeSet::new();
    // A complete total (equal and subset masks), a total with an outage
    // (subset of a non-complete mask), and that total with NaN injected
    // where the portable is connected (incomparable masks; the shaper's
    // mask becomes a superset of the total's).
    let (complete_total, complete_devices) = dominance_fixture(0..0);
    let (outage_total, outage_devices) = dominance_fixture(600..620);
    let mut poisoned = outage_total.clone();
    poisoned.values_mut()[10..20].fill(f64::NAN);
    for (total, devices) in [
        (&complete_total, &complete_devices),
        (&outage_total, &outage_devices),
        (&poisoned, &outage_devices),
    ] {
        for d in devices {
            tiers.insert(mask_tier(total.values(), d.values()));
        }
        assert_dominance_matches_oracle(total, devices);
    }
    assert_eq!(
        tiers.into_iter().collect::<Vec<_>>(),
        ["device subset", "equal", "incomparable", "total subset"],
        "fixture must reach every mask tier"
    );
    let strict = dominant_devices(&complete_total, &complete_devices, 0.8);
    assert!(
        strict.iter().any(|d| d.device == 0) && strict.iter().any(|d| d.device == 6),
        "the shaper and the total's copy dominate: {strict:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The profiled dominance scan equals the per-device from-scratch
    /// oracle on random holey, tie-heavy gateways, with and without NaN
    /// injected into the total where the first device is finite.
    #[test]
    fn dominance_matches_per_device_oracle(
        data in prop::collection::vec(holey_value(), 24..160),
        len in 6usize..20,
        poison in 0usize..3,
    ) {
        let devices: Vec<TimeSeries> = data
            .chunks_exact(len)
            .map(|c| TimeSeries::per_minute(c.to_vec()))
            .collect();
        let Some(mut total) = TimeSeries::sum_all(devices.iter()) else {
            continue;
        };
        let finite: Vec<usize> = (0..len).filter(|&i| devices[0].values()[i].is_finite()).collect();
        for &i in finite.iter().take(poison) {
            total.values_mut()[i] = f64::NAN;
        }
        assert_dominance_matches_oracle(&total, &devices);
    }

    /// cor() always lies in [-1, 1] and equals 0 or a significant
    /// coefficient.
    #[test]
    fn cor_is_bounded_and_consistent(x in traffic(3..50), y in traffic(3..50)) {
        let n = x.len().min(y.len());
        let sim = correlation_similarity(&x[..n], &y[..n]);
        prop_assert!((-1.0..=1.0).contains(&sim.value));
        match sim.best {
            None => prop_assert_eq!(sim.value, 0.0),
            Some(_) => {
                let candidates = [sim.pearson.value, sim.spearman.value, sim.kendall.value];
                prop_assert!(candidates.iter().any(|c| (c - sim.value).abs() < 1e-12));
            }
        }
    }

    /// Background removal is idempotent and never increases totals.
    #[test]
    fn background_removal_idempotent(values in traffic(5..300), tau in 0.0f64..1e5) {
        let s = TimeSeries::per_minute(values);
        let once = remove_background(&s, tau);
        let twice = remove_background(&once, tau);
        prop_assert_eq!(once.values(), twice.values());
        prop_assert!(once.total() <= s.total() + 1e-9);
        prop_assert!(capped_tau(tau) <= TAU_CAP);
    }

    /// The estimated tau always lies within the observed value range.
    #[test]
    fn tau_within_range(values in traffic(5..300)) {
        let s = TimeSeries::per_minute(values.clone());
        let tau = estimate_tau(&s).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(tau >= min - 1e-9 && tau <= max + 1e-9);
    }

    /// Strong stationarity of any window set against itself holds whenever
    /// the windows carry signal.
    #[test]
    fn stationarity_reflexive(w in traffic(8..60)) {
        let constant = w.iter().all(|&v| v == w[0]);
        if let Some(check) = strong_stationarity(&[&w, &w], None) {
            if !constant {
                prop_assert!(!check.ks_rejected, "identical distributions");
                prop_assert!((check.min_cor - 1.0).abs() < 1e-9 || !check.correlations_pass);
            }
        }
    }

    /// Average-linkage dendrograms have monotone non-decreasing heights for
    /// ultrametric-ish inputs and always n-1 merges.
    #[test]
    fn dendrogram_merge_count(n in 2usize..10) {
        // Symmetric random-ish distance matrix from a deterministic hash.
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = (((i * 31 + j * 17) % 97) as f64 + 1.0) / 97.0;
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        let dendro = average_linkage(&dist, n);
        prop_assert_eq!(dendro.steps.len(), n - 1);
        // Cutting at the maximum height yields a single cluster.
        let clusters = dendro.cut(2.0);
        prop_assert_eq!(clusters.len(), 1);
        prop_assert_eq!(clusters[0].len(), n);
        // Cutting below zero keeps singletons.
        prop_assert_eq!(dendro.cut(-1.0).len(), n);
    }

    /// SAX words always use a valid alphabet and PAA has the right length.
    #[test]
    fn sax_word_valid(values in traffic(8..200), segments in 2usize..32, alphabet in 2usize..10) {
        let p = paa(&values, segments);
        prop_assert_eq!(p.len(), segments);
        let word = sax_word(&values, segments, alphabet);
        prop_assert_eq!(word.len(), segments);
        for &s in &word {
            prop_assert!((s as usize) < alphabet);
        }
        let util = alphabet_utilization(&word, alphabet);
        prop_assert!(util > 0.0 && util <= 1.0);
        let share = dominant_symbol_share(&word);
        prop_assert!(share >= 1.0 / segments as f64 && share <= 1.0);
    }

    /// Online Pearson agrees with the batch Definition 1 Pearson component.
    #[test]
    fn online_matches_batch_pearson(x in traffic(3..100), y in traffic(3..100)) {
        let n = x.len().min(y.len());
        let mut online = OnlinePearson::new();
        for i in 0..n {
            online.push(x[i], y[i]);
        }
        let batch = wtts_stats::pearson(&x[..n], &y[..n]);
        match online.correlation() {
            Some(r) => prop_assert!((r - batch.value).abs() < 1e-6),
            None => prop_assert_eq!(batch.value, 0.0),
        }
    }

    /// cor distance is within [0, 2] and zero-distance implies similarity 1.
    #[test]
    fn cor_distance_bounds(x in traffic(5..60)) {
        let d = 1.0 - cor(&x, &x);
        prop_assert!((0.0..=2.0).contains(&d));
        let constant = x.iter().all(|&v| v == x[0]);
        if !constant {
            prop_assert!(d < 1e-9, "self-distance must vanish: {d}");
        }
    }

    /// Every cor_matrix entry is bit-identical to the per-pair Definition 1
    /// measure, including series with NaN holes and tie-heavy values.
    #[test]
    fn cor_matrix_bit_identical(data in prop::collection::vec(holey_value(), 30..120), len in 5usize..15) {
        let series: Vec<Vec<f64>> = data.chunks_exact(len).map(|c| c.to_vec()).collect();
        if series.len() < 2 {
            continue;
        }
        let profiles = profile_series(&series, None);
        let matrix = cor_matrix(&profiles, &CorMatrixConfig::default(), None);
        for i in 0..series.len() {
            for j in (i + 1)..series.len() {
                let reference = cor(&series[i], &series[j]) as f32;
                prop_assert_eq!(
                    matrix.get(i, j).to_bits(),
                    reference.to_bits(),
                    "pair ({}, {}): engine {} vs per-pair {}",
                    i, j, matrix.get(i, j), reference
                );
            }
        }
    }

    /// All-tied (constant) series take the degenerate path in every
    /// coefficient; the engine must reproduce it exactly, at any thread
    /// count.
    #[test]
    fn cor_matrix_handles_all_tied(v in 0.0f64..1e7, len in 3usize..20) {
        let constant = vec![v; len];
        let ramp: Vec<f64> = (0..len).map(|i| i as f64).collect();
        let series = [constant.clone(), ramp, constant];
        let profiles = profile_series(&series, None);
        for threads in [1, 4] {
            let matrix = cor_matrix(&profiles, &CorMatrixConfig { threads: Some(threads) }, None);
            for i in 0..series.len() {
                for j in (i + 1)..series.len() {
                    let reference = cor(&series[i], &series[j]) as f32;
                    prop_assert_eq!(matrix.get(i, j).to_bits(), reference.to_bits());
                }
            }
        }
    }

    /// Zero false dismissals: the sketch-pruned sparse matrix agrees with
    /// the dense matrix on every pair at or above the threshold — survivor
    /// values bit-identical, absent pairs certifiably below φ — and the
    /// tier counters conserve, for arbitrary series (NaN holes, ties) and
    /// arbitrary thresholds. At φ ≤ 0 nothing is pruned: every pair is
    /// present and bit-identical, which is what lets the pruned path stand
    /// in for the dense one.
    #[test]
    fn pruned_matrix_never_dismisses_falsely(
        data in prop::collection::vec(holey_value(), 40..160),
        len in 5usize..16,
        phi in -0.5f64..0.95,
    ) {
        let series: Vec<Vec<f64>> = data.chunks_exact(len).map(|c| c.to_vec()).collect();
        if series.len() < 2 {
            continue;
        }
        let profiles = profile_series(&series, None);
        let config = PruneConfig::at_threshold(phi);
        let sketches = sketch_series(&profiles, &config.sketch, None);
        let (sparse, stats) = cor_matrix_pruned(&profiles, &sketches, &config, None);
        let dense = cor_matrix(&profiles, &CorMatrixConfig::default(), None);
        prop_assert!(stats.conserved(), "tier counters must balance");
        prop_assert_eq!(stats.pairs_total, (series.len() * (series.len() - 1) / 2) as u64);
        for i in 0..series.len() {
            for j in (i + 1)..series.len() {
                let d = dense.get(i, j);
                match sparse.get(i, j) {
                    Some(s) => prop_assert_eq!(
                        s.to_bits(), d.to_bits(),
                        "survivor ({}, {}) differs: {} vs {}", i, j, s, d
                    ),
                    None => prop_assert!(
                        phi > 0.0 && (d as f64) < phi,
                        "pair ({}, {}) pruned at phi {} but dense is {}", i, j, phi, d
                    ),
                }
            }
        }
    }

    /// The profiled Definition 1 result matches correlation_similarity
    /// field for field (f64 bits) on inputs with NaN holes and ties.
    #[test]
    fn profiled_similarity_bit_identical(data in prop::collection::vec(holey_value(), 6..100)) {
        let len = data.len() / 2;
        let x = data[..len].to_vec();
        let y = data[len..2 * len].to_vec();
        let plain = correlation_similarity(&x, &y);
        let pa = CorProfile::new(&x);
        let pb = CorProfile::new(&y);
        let mut scratch = CorScratch::new();
        let fast = correlation_similarity_profiled(&pa, &pb, &mut scratch);
        prop_assert_eq!(plain.value.to_bits(), fast.value.to_bits());
        prop_assert_eq!(plain.best, fast.best);
        prop_assert_eq!(plain.pearson, fast.pearson);
        prop_assert_eq!(plain.spearman, fast.spearman);
        prop_assert_eq!(plain.kendall, fast.kendall);
    }
}
