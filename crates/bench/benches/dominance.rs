//! Benchmark of the dominant-device scan (Definition 4) against the
//! per-device from-scratch scan it replaced, frozen in this file as the
//! baseline.
//!
//! The baseline calls `correlation_similarity(total, device)` once per
//! device, so every call re-compacts, re-ranks and re-sorts the gateway
//! total. `dominant_devices` profiles the total once per call and each
//! device once, and takes the subset-mask tier of `cor_tests_profiled` for
//! every device whose finite minutes lie inside the total's.
//!
//! Both scans are asserted bit-identical (device order, ranks and
//! similarity bits) on the bench gateways **before** any timing. A run
//! refreshes the committed baseline at `results/BENCH_dominance.json`
//! (median wall times of both scans on one 4-week simulated gateway and the
//! single-thread speedup, gated in CI by `scripts/perf_gate.py` against
//! `results/PERF_BUDGET.json`).
//!
//! `--smoke` asserts bit-identity on the first gateways of a 4-week fleet
//! without timing or touching the committed baseline (used by
//! `scripts/ci.sh`).

use std::hint::black_box;
use std::time::Instant;
use wtts_bench::perf;
use wtts_core::dominance::{dominant_devices, rank_dominants, DominantDevice, DOMINANCE_PHI};
use wtts_core::similarity::correlation_similarity;
use wtts_gwsim::{generate_gateway, FleetConfig};
use wtts_timeseries::TimeSeries;

/// Weeks of the simulated fleet (the paper's Fig-5 window).
const WEEKS: u32 = 4;

/// Gateways checked for bit-identity (the timed gateway is the first).
const CHECKED_GATEWAYS: usize = 8;

/// Timing samples per scan; the scans alternate sample by sample so a
/// drifting machine slows both alike.
const SAMPLES: usize = 9;

/// The pre-profile Definition-4 scan: from-scratch Definition 1 per device.
fn dominant_devices_baseline(
    gateway_total: &TimeSeries,
    device_series: &[TimeSeries],
    phi: f64,
) -> Vec<DominantDevice> {
    let hits: Vec<(usize, f64)> = device_series
        .iter()
        .enumerate()
        .filter_map(|(i, dev)| {
            let sim = correlation_similarity(gateway_total.values(), dev.values());
            (sim.value > phi).then_some((i, sim.value))
        })
        .collect();
    rank_dominants(hits)
}

/// One simulated gateway's total and per-device series.
fn gateway(id: usize) -> (TimeSeries, Vec<TimeSeries>) {
    let config = FleetConfig {
        n_gateways: CHECKED_GATEWAYS,
        weeks: WEEKS,
        ..FleetConfig::default()
    };
    let gw = generate_gateway(&config, id);
    let devices: Vec<TimeSeries> = gw.devices.iter().map(|d| d.total()).collect();
    let total = TimeSeries::sum_all(devices.iter()).expect("gateway has devices");
    (total, devices)
}

/// The profiled scan must reproduce the baseline bit for bit at the
/// paper's two thresholds and at φ = 0 (every positive similarity).
fn assert_bit_identical(total: &TimeSeries, devices: &[TimeSeries], what: &str) {
    for phi in [0.0, DOMINANCE_PHI, 0.8] {
        let fast = dominant_devices(total, devices, phi);
        let old = dominant_devices_baseline(total, devices, phi);
        assert_eq!(fast.len(), old.len(), "{what}, phi {phi}: dominant count");
        for (f, o) in fast.iter().zip(&old) {
            assert_eq!(
                (f.device, f.rank, f.similarity.to_bits()),
                (o.device, o.rank, o.similarity.to_bits()),
                "{what}, phi {phi}"
            );
        }
    }
}

/// Verifies bit-identity on the checked gateways, then times both scans on
/// gateway 0 and writes the JSON baseline the repo commits under
/// `results/`.
fn write_baseline() {
    for id in 0..CHECKED_GATEWAYS {
        let (total, devices) = gateway(id);
        assert_bit_identical(&total, &devices, &format!("gateway {id}"));
    }
    let (total, devices) = gateway(0);
    let (mut baseline, mut profiled) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        baseline.push(perf::time_ms(|| {
            dominant_devices_baseline(black_box(&total), black_box(&devices), DOMINANCE_PHI)
        }));
        profiled.push(perf::time_ms(|| {
            dominant_devices(black_box(&total), black_box(&devices), DOMINANCE_PHI)
        }));
    }
    let (baseline_ms, profiled_ms) = (perf::median(baseline), perf::median(profiled));
    let speedup = baseline_ms / profiled_ms;
    let dominants = dominant_devices(&total, &devices, DOMINANCE_PHI).len();
    println!(
        "dominance @ {} devices x {} minutes: baseline {baseline_ms:.3} ms, profiled {profiled_ms:.3} ms, speedup {speedup:.2}x",
        devices.len(),
        total.len()
    );
    let available = perf::available_parallelism();
    let json = format!(
        "{{\n\"bench\": \"dominance\",\n\"baseline\": \"per-device from-scratch scan frozen in benches/dominance.rs: correlation_similarity(total, device) per device, then rank_dominants\",\n\"weeks\": {WEEKS},\n\"minutes\": {},\n\"devices\": {},\n\"phi\": {DOMINANCE_PHI},\n\"dominants\": {dominants},\n\"checked_gateways\": {CHECKED_GATEWAYS},\n\"available_parallelism\": {available},\n\"threads\": 1,\n\"samples\": {SAMPLES},\n\"baseline_ms\": {baseline_ms:.3},\n\"profiled_ms\": {profiled_ms:.3},\n\"speedup_single_thread\": {speedup:.2},\n\"bit_identical\": true\n}}\n",
        total.len(),
        devices.len(),
    );
    perf::write_record("results/BENCH_dominance.json", &json);
}

/// CI smoke: bit-identity on the checked gateways, no timing, no baseline
/// refresh.
fn smoke() {
    let start = Instant::now();
    for id in 0..CHECKED_GATEWAYS {
        let (total, devices) = gateway(id);
        assert_bit_identical(&total, &devices, &format!("gateway {id}"));
    }
    println!(
        "dominance smoke: {CHECKED_GATEWAYS} gateways x 3 thresholds bit-identical to the per-device baseline in {:.2?}",
        start.elapsed(),
    );
}

fn main() {
    perf::dispatch(smoke, write_baseline);
}
