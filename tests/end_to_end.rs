//! End-to-end pipeline tests: simulate → clean → aggregate → analyze,
//! exercising the workspace exactly as a downstream user would.

use wtts::core::background::{estimate_tau, remove_background};
use wtts::core::motif::{discover_motifs, MotifConfig};
use wtts::core::similarity::cor;
use wtts::core::{dominance, stationarity};
use wtts::gwsim::{Fleet, FleetConfig};
use wtts::timeseries::{aggregate, daily_windows, weekly_windows, Granularity, TimeSeries};

fn test_fleet() -> Fleet {
    Fleet::new(FleetConfig {
        n_gateways: 10,
        weeks: 2,
        seed: 0xE2E,
        ..FleetConfig::default()
    })
}

/// The gateway total must equal the sum of its devices at every minute.
#[test]
fn gateway_total_is_device_sum() {
    let fleet = test_fleet();
    let gw = fleet.gateway(0);
    let device_series: Vec<TimeSeries> = gw.devices.iter().map(|d| d.total()).collect();
    let manual = TimeSeries::sum_all(device_series.iter()).unwrap();
    let total = gw.aggregate_total();
    assert_eq!(manual.len(), total.len());
    for (a, b) in manual.values().iter().zip(total.values()) {
        match (a.is_finite(), b.is_finite()) {
            (true, true) => assert!((a - b).abs() < 1e-6),
            (false, false) => {}
            _ => panic!("missing-ness differs between device sum and total"),
        }
    }
}

/// Background removal must keep calendar alignment and only ever zero or
/// keep values.
#[test]
fn background_removal_pipeline() {
    let fleet = test_fleet();
    let gw = fleet.gateway(1);
    for d in &gw.devices {
        let Some(tau) = estimate_tau(&d.incoming) else {
            continue;
        };
        let active = remove_background(&d.incoming, tau);
        assert_eq!(active.len(), d.incoming.len());
        assert_eq!(active.start(), d.incoming.start());
        for (&orig, &cleaned) in d.incoming.values().iter().zip(active.values()) {
            if orig.is_finite() {
                assert!(cleaned == 0.0 || cleaned == orig);
            } else {
                assert!(cleaned.is_nan());
            }
        }
        assert!(active.total() <= d.incoming.total() + 1e-9);
    }
}

/// Aggregation must conserve total traffic at every granularity (no offset).
#[test]
fn aggregation_conserves_traffic() {
    let fleet = test_fleet();
    let total = fleet.gateway(2).aggregate_total();
    for g in [
        Granularity::minutes(5),
        Granularity::hours(1),
        Granularity::hours(8),
    ] {
        let agg = aggregate(&total, g, 0);
        let rel = (agg.total() - total.total()).abs() / total.total().max(1.0);
        assert!(
            rel < 1e-9,
            "traffic changed under {g} binning (rel err {rel})"
        );
    }
}

/// Weekly and daily windows of an aggregated series tile it completely.
#[test]
fn windows_tile_the_series() {
    let fleet = test_fleet();
    let total = fleet.gateway(3).aggregate_total();
    let agg = aggregate(&total, Granularity::hours(3), 0);
    let weeks = 2;
    let weekly = weekly_windows(&agg, weeks, 0);
    let daily = daily_windows(&agg, weeks, 0);
    assert_eq!(weekly.len(), 2);
    assert_eq!(daily.len(), 14);
    let weekly_sum: f64 = weekly.iter().map(|w| w.series.total()).sum();
    let daily_sum: f64 = daily.iter().map(|w| w.series.total()).sum();
    let scale = agg.total().max(1.0);
    assert!((weekly_sum - agg.total()).abs() / scale < 1e-9);
    assert!((daily_sum - agg.total()).abs() / scale < 1e-9);
}

/// Motifs discovered on simulated windows respect Definition 5's
/// constraints.
#[test]
fn discovered_motifs_respect_definition5() {
    let fleet = test_fleet();
    let mut windows = Vec::new();
    for gw in fleet.iter() {
        let agg = aggregate(&gw.aggregate_total(), Granularity::hours(3), 0);
        for w in daily_windows(&agg, 2, 0) {
            windows.push(w.series.into_values());
        }
    }
    let config = MotifConfig::default();
    let motifs = discover_motifs(&windows, &config);
    // With the default config the group threshold (¾·0.8) and the merge
    // threshold coincide at 0.6, so after merging every pair must still
    // reach 0.6, and every member must have entered through a φ-strong
    // partner that remains in the motif.
    let floor = config.group_threshold().min(config.merge_threshold);
    for m in &motifs {
        assert!(m.support() >= 2, "a motif needs at least two members");
        for &i in &m.members {
            let mut has_phi_partner = false;
            for &j in &m.members {
                if i == j {
                    continue;
                }
                let c = cor(&windows[i], &windows[j]);
                assert!(
                    c >= floor - 1e-6,
                    "members ({i},{j}) similarity {c} below the group floor"
                );
                if c >= config.phi - 1e-6 {
                    has_phi_partner = true;
                }
            }
            assert!(has_phi_partner, "member {i} has no phi-similar partner");
        }
    }
}

/// Dominance analysis returns well-formed, threshold-respecting rankings on
/// every simulated gateway.
#[test]
fn dominance_well_formed_across_fleet() {
    let fleet = test_fleet();
    for gw in fleet.iter() {
        let device_series: Vec<TimeSeries> = gw.devices.iter().map(|d| d.total()).collect();
        let total = TimeSeries::sum_all(device_series.iter()).unwrap();
        let dom = dominance::dominant_devices(&total, &device_series, 0.6);
        for (k, d) in dom.iter().enumerate() {
            assert_eq!(d.rank, k);
            assert!(d.similarity > 0.6);
            assert!(d.device < gw.devices.len());
        }
        for pair in dom.windows(2) {
            assert!(pair[0].similarity >= pair[1].similarity);
        }
    }
}

/// Strong stationarity on identical windows always holds; on opposite
/// windows never.
#[test]
fn stationarity_sanity_on_simulated_windows() {
    let fleet = test_fleet();
    // Find a gateway whose first week carries observations (late joiners
    // may miss it entirely).
    let w0 = fleet
        .iter()
        .find_map(|gw| {
            let agg = aggregate(&gw.aggregate_total(), Granularity::hours(8), 0);
            let weekly = weekly_windows(&agg, 2, 0);
            let w = weekly[0].series.values().to_vec();
            w.iter().any(|v| v.is_finite()).then_some(w)
        })
        .expect("some gateway reports in week 0");
    // A window is always strongly stationary against itself.
    let check = stationarity::strong_stationarity(&[&w0, &w0], None).unwrap();
    assert!(check.is_stationary());
    // Against its negation the correlations must fail.
    let neg: Vec<f64> = w0.iter().map(|v| -v).collect();
    let check = stationarity::strong_stationarity(&[&w0, &neg], None).unwrap();
    assert!(!check.correlations_pass);
}
