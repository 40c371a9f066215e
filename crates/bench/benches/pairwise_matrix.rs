//! Benchmarks of the batch pairwise-correlation engine against the naive
//! per-pair sweep, over fleet sizes bracketing the paper's 196 gateways
//! (50 / 200 / 500 series of one weekly window at 3-hour binning).
//!
//! Besides the interactive Criterion output, a run refreshes the committed
//! baseline at `results/BENCH_pairwise.json` (medians in milliseconds).

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use std::time::Instant;
use wtts_core::engine::{cor_matrix, profile_series, CorMatrixConfig};
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
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, 4];
    if !counts.contains(&available) {
        counts.push(available);
    }
    counts
}

fn engine_config(threads: usize) -> CorMatrixConfig {
    CorMatrixConfig {
        threads: Some(threads),
    }
}

fn bench_pairwise_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise_matrix");
    group.sample_size(10);
    for n in FLEET_SIZES {
        let series = series_set(n, SERIES_LEN);
        group.bench_with_input(BenchmarkId::new("per_pair_cor", n), &n, |b, _| {
            b.iter(|| per_pair_sweep(black_box(&series)))
        });
        for threads in thread_counts() {
            let config = engine_config(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("engine_t{threads}"), n),
                &n,
                |b, _| {
                    b.iter(|| cor_matrix(&profile_series(black_box(&series), None), &config, None))
                },
            );
        }
    }
    group.finish();
}

/// Median wall time of `samples` runs, in milliseconds.
fn median_ms<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// Re-times every configuration and writes the JSON baseline the repo
/// commits under `results/`.
fn write_baseline() {
    let mut cases = Vec::new();
    for n in FLEET_SIZES {
        let series = series_set(n, SERIES_LEN);
        let samples = if n >= 500 { 3 } else { 9 };
        let per_pair = median_ms(samples, || {
            black_box(per_pair_sweep(black_box(&series)));
        });
        let mut engine_entries = Vec::new();
        let mut single = f64::NAN;
        for threads in thread_counts() {
            let config = engine_config(threads);
            let t = median_ms(samples, || {
                black_box(cor_matrix(
                    &profile_series(black_box(&series), None),
                    &config,
                    None,
                ));
            });
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
    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n\"bench\": \"pairwise_matrix\",\n\"series_len\": {SERIES_LEN},\n\"available_parallelism\": {available},\n\"cases\": [\n{}\n]\n}}\n",
        cases.join(",\n"),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_pairwise.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("baseline written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_pairwise_matrix);

fn main() {
    benches();
    write_baseline();
}
