//! Batch pairwise correlation with the engine: profile a fleet's daily
//! windows once, then compute the full similarity matrix in one sweep.
//!
//! ```text
//! cargo run --release --example correlation_engine
//! ```

use std::time::Instant;
use wtts::core::engine::{cor_matrix, profile_series, CorMatrixConfig};
use wtts::core::similarity::cor;
use wtts::gwsim::{Fleet, FleetConfig};
use wtts::timeseries::{aggregate, daily_windows, Granularity};

fn main() {
    // Simulate a small fleet and slice every gateway's traffic into daily
    // windows at the paper's 3-hour binning (8 bins per day).
    let fleet = Fleet::new(FleetConfig {
        n_gateways: 8,
        weeks: 2,
        seed: 11,
        ..FleetConfig::default()
    });
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for g in 0..fleet.len() {
        let agg = aggregate(
            &fleet.gateway(g).aggregate_total(),
            Granularity::hours(3),
            0,
        );
        for w in daily_windows(&agg, fleet.config().weeks, 0) {
            windows.push(w.series.into_values());
        }
    }
    println!(
        "{} daily windows -> {} pairs",
        windows.len(),
        windows.len() * (windows.len() - 1) / 2
    );

    // Profile each window once, then sweep the upper triangle.
    let start = Instant::now();
    let profiles = profile_series(&windows, None);
    let matrix = cor_matrix(&profiles, &CorMatrixConfig::default(), None);
    let engine_time = start.elapsed();

    // The naive loop calls cor() per pair, redoing the per-series work
    // (masking, moments, ranks, sorting) n-1 times per window.
    let start = Instant::now();
    let mut checked = 0usize;
    for i in 0..windows.len() {
        for j in (i + 1)..windows.len() {
            let reference = cor(&windows[i], &windows[j]) as f32;
            assert_eq!(reference.to_bits(), matrix.get(i, j).to_bits());
            checked += 1;
        }
    }
    let naive_time = start.elapsed();

    println!("engine sweep: {engine_time:?}");
    println!("per-pair cor(): {naive_time:?} ({checked} pairs, results bit-identical)");
    println!(
        "speedup: {:.1}x",
        naive_time.as_secs_f64() / engine_time.as_secs_f64()
    );

    // The matrix answers similarity queries in O(1); show the strongest
    // cross-window pair.
    let mut best = (0, 1, f32::NEG_INFINITY);
    for i in 0..windows.len() {
        for j in (i + 1)..windows.len() {
            if matrix.get(i, j) > best.2 {
                best = (i, j, matrix.get(i, j));
            }
        }
    }
    println!(
        "strongest pair: windows {} and {} with cor = {:.3}",
        best.0, best.1, best.2
    );
}
