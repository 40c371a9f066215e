//! Benchmarks of the batch pairwise-correlation engine against the naive
//! per-pair sweep, over fleet sizes bracketing the paper's 196 gateways
//! (50 / 200 / 500 series of one weekly window at 3-hour binning).
//!
//! At every fleet size the engine's matrix is asserted equal to the
//! per-pair `cor()` sweep on every pair, as `f32` bits, **before** any
//! timing. A run then refreshes the committed baseline at
//! `results/BENCH_pairwise.json` (medians in milliseconds).
//!
//! `--smoke` asserts that bit-identity at 50 and 200 series, without
//! timing or touching the committed baseline (used by `scripts/ci.sh`).

use std::hint::black_box;
use std::time::Instant;
use wtts_bench::perf;
use wtts_core::engine::{cor_matrix, profile_series, CondensedMatrix, CorMatrixConfig};
use wtts_core::similarity::cor;

/// One weekly window at 3-hour binning.
const SERIES_LEN: usize = 56;
const FLEET_SIZES: [usize; 3] = [50, 200, 500];

/// Deterministic traffic-shaped series: evening-heavy base pattern, a hashed
/// wobble, and sparse NaN holes so both matrix code paths are exercised.
fn series_set(n: usize, len: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|s| {
            (0..len)
                .map(|t| {
                    if (t * 31 + s * 7) % 83 == 0 {
                        return f64::NAN;
                    }
                    let bin_of_day = t % 8;
                    let base = if bin_of_day >= 6 { 4_000.0 } else { 50.0 };
                    let h = (t as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(s as u64)
                        >> 33;
                    base * (1.0 + (s % 7) as f64 * 0.1) + (h % 997) as f64
                })
                .collect()
        })
        .collect()
}

/// The baseline: one `cor()` call per pair, upper triangle only.
fn per_pair_sweep(series: &[Vec<f64>]) -> Vec<f32> {
    let n = series.len();
    let mut out = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push(cor(&series[i], &series[j]) as f32);
        }
    }
    out
}

fn thread_counts() -> Vec<usize> {
    let available = perf::available_parallelism();
    let mut counts = vec![1, 2, 4];
    if !counts.contains(&available) {
        counts.push(available);
    }
    counts
}

fn engine_matrix(series: &[Vec<f64>], threads: usize) -> CondensedMatrix {
    let config = CorMatrixConfig {
        threads: Some(threads),
    };
    cor_matrix(&profile_series(series, None), &config, None)
}

/// The engine must reproduce the per-pair sweep on every pair, bit for bit.
fn assert_bit_identical(series: &[Vec<f64>]) {
    let n = series.len();
    let engine = engine_matrix(series, 1);
    let mut per_pair = per_pair_sweep(series).into_iter();
    for i in 0..n {
        for j in (i + 1)..n {
            let want = per_pair.next().expect("one baseline entry per pair");
            assert_eq!(
                engine.get(i, j).to_bits(),
                want.to_bits(),
                "pair ({i},{j}) of {n} series differs from per-pair cor()"
            );
        }
    }
}

/// Re-times every configuration and writes the JSON baseline the repo
/// commits under `results/`.
fn write_baseline() {
    let mut cases = Vec::new();
    for n in FLEET_SIZES {
        let series = series_set(n, SERIES_LEN);
        assert_bit_identical(&series);
        let samples = if n >= 500 { 3 } else { 9 };
        let per_pair = perf::median_ms(samples, || per_pair_sweep(black_box(&series)));
        let mut engine_entries = Vec::new();
        let mut single = f64::NAN;
        for threads in thread_counts() {
            let t = perf::median_ms(samples, || engine_matrix(black_box(&series), threads));
            if threads == 1 {
                single = t;
            }
            engine_entries.push(format!("      \"{threads}\": {t:.3}"));
        }
        cases.push(format!(
            "  {{\n    \"n_series\": {n},\n    \"n_pairs\": {},\n    \"per_pair_ms\": {per_pair:.3},\n    \"engine_ms_by_threads\": {{\n{}\n    }},\n    \"speedup_single_thread\": {:.2}\n  }}",
            n * (n - 1) / 2,
            engine_entries.join(",\n"),
            per_pair / single,
        ));
    }
    let available = perf::available_parallelism();
    let json = format!(
        "{{\n\"bench\": \"pairwise_matrix\",\n\"series_len\": {SERIES_LEN},\n\"available_parallelism\": {available},\n\"cases\": [\n{}\n]\n}}\n",
        cases.join(",\n"),
    );
    perf::write_record("results/BENCH_pairwise.json", &json);
}

/// CI smoke: engine-vs-per-pair bit-identity at the two smaller fleet
/// sizes, no timing, no baseline refresh.
fn smoke() {
    let start = Instant::now();
    for n in [50, 200] {
        assert_bit_identical(&series_set(n, SERIES_LEN));
    }
    println!(
        "pairwise_matrix smoke: 50 and 200 series bit-identical to per-pair cor() on every pair in {:.2?}",
        start.elapsed(),
    );
}

fn main() {
    perf::dispatch(smoke, write_baseline);
}
