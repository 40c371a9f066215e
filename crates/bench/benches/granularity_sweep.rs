//! Benchmark of the granularity-pyramid Definition-3 sweep against the
//! pre-pyramid per-candidate path, on the paper's hardest grid: the daily
//! sweep over every 1–180-minute granularity of one gateway's four-week
//! per-minute series.
//!
//! The baseline re-runs, per candidate, exactly what the experiments runner
//! used to execute to produce the daily figures: fig 8 called
//! `daily_window_correlation` and then `stationary_weekday_count`, and fig 7
//! independently re-ran `stationary_weekday_count` over the shared
//! candidates — three passes per candidate, each aggregating the minute
//! series from scratch, re-extracting windows and rebuilding profiles
//! (generalized here to the full 1–180 grid both figures now read from one
//! sweep). The sweep path builds one prefix-sum pyramid, shares windows,
//! profiles and the fused correlation + stationarity loop across all 180
//! candidates, and serves both figures from a single result.
//!
//! A run refreshes the committed baseline at
//! `results/BENCH_aggregation.json` (median wall times, the
//! single-thread speedup, and the bit-identity verdict — every score and
//! stationarity check is compared against the baseline before timing).
//!
//! `--smoke` runs a fast pass over a small series and asserts bit-identity
//! plus the observability conservation laws, without touching the committed
//! baseline.

use std::hint::black_box;
use std::time::Instant;
use wtts_bench::perf;
use wtts_core::engine::cor_profiled;
use wtts_core::obs::PipelineObs;
use wtts_core::stationarity::{strong_stationarity, StationarityCheck};
use wtts_core::sweep::{daily_sweep, DailySweep, SweepConfig};
use wtts_gwsim::{generate_gateway, FleetConfig};
use wtts_stats::{CorProfile, CorScratch};
use wtts_timeseries::{aggregate, daily_windows, Granularity, TimeSeries};

const WEEKS: u32 = 4;
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// One simulated gateway's four-week per-minute series, quantized to whole
/// bytes so the integer prefix-sum pyramid engages (real counter deltas are
/// integral; the simulator's shaping leaves fractional parts).
fn gateway_series(weeks: u32) -> TimeSeries {
    let config = FleetConfig {
        n_gateways: 1,
        weeks,
        ..FleetConfig::default()
    };
    let mut total = generate_gateway(&config, 0).aggregate_total();
    for v in total.values_mut() {
        *v = v.trunc();
    }
    total
}

/// The full sweep the paper's Section 7.1 asks for: every whole-minute
/// granularity from 1 to 180.
fn full_candidates() -> Vec<Granularity> {
    (1..=180).map(Granularity::minutes).collect()
}

struct BaselineCell {
    /// Pass 1 — the old `daily_window_correlation` body.
    score: Option<(f64, usize)>,
    /// Pass 2 — the old `daily_stationarity_by_weekday` body (fig 8).
    checks: [Option<StationarityCheck>; 7],
    /// Pass 3 — fig 7's independent `stationary_weekday_count` call.
    stationary_days: usize,
}

/// The old `daily_stationarity_by_weekday` body: aggregate from scratch,
/// extract daily windows, run the untouched `strong_stationarity` (which
/// profiles internally) per weekday.
fn baseline_stationarity(
    series: &TimeSeries,
    weeks: u32,
    g: Granularity,
) -> [Option<StationarityCheck>; 7] {
    let agg = aggregate(series, g, 0);
    let windows = daily_windows(&agg, weeks, 0);
    let mut checks: [Option<StationarityCheck>; 7] = Default::default();
    for (weekday, slot) in checks.iter_mut().enumerate() {
        let group: Vec<&[f64]> = windows
            .iter()
            .filter(|w| w.weekday.map(|d| d.index() as usize) == Some(weekday))
            .map(|w| w.series.values())
            .collect();
        *slot = strong_stationarity(&group, None);
    }
    checks
}

/// The pre-pyramid experiments path for one candidate: the three passes the
/// runner used to execute per gateway for the daily figures, each
/// re-aggregating and re-profiling from scratch.
fn baseline_cell(series: &TimeSeries, weeks: u32, g: Granularity) -> BaselineCell {
    // Pass 1: the old `daily_window_correlation` body (fig 8's score).
    let agg = aggregate(series, g, 0);
    let windows = daily_windows(&agg, weeks, 0);
    let mut scratch = CorScratch::new();
    let mut total = 0.0;
    let mut pairs = 0;
    for weekday in 0..7u8 {
        let group: Vec<&[f64]> = windows
            .iter()
            .filter(|w| w.weekday.map(|d| d.index()) == Some(weekday))
            .map(|w| w.series.values())
            .filter(|v| v.iter().any(|x| x.is_finite()))
            .collect();
        let profiles: Vec<CorProfile> = group.iter().map(|w| CorProfile::new(w)).collect();
        for i in 0..group.len() {
            for j in (i + 1)..group.len() {
                total += cor_profiled(&profiles[i], &profiles[j], &mut scratch);
                pairs += 1;
            }
        }
    }
    let score = (pairs > 0).then(|| (total / pairs as f64, pairs));

    // Pass 2: fig 8's stationarity sweep.
    let checks = baseline_stationarity(series, weeks, g);
    // Pass 3: fig 7's independent re-run of the same call.
    let stationary_days = baseline_stationarity(series, weeks, g)
        .iter()
        .filter(|c| c.is_some_and(|c| c.is_stationary()))
        .count();
    BaselineCell {
        score,
        checks,
        stationary_days,
    }
}

fn baseline_sweep(
    series: &TimeSeries,
    weeks: u32,
    candidates: &[Granularity],
) -> Vec<BaselineCell> {
    candidates
        .iter()
        .map(|&g| baseline_cell(series, weeks, g))
        .collect()
}

fn pyramid_sweep(
    series: &TimeSeries,
    weeks: u32,
    candidates: &[Granularity],
    threads: usize,
    obs: Option<&PipelineObs>,
) -> DailySweep {
    daily_sweep(
        std::slice::from_ref(series),
        weeks,
        candidates,
        0,
        &SweepConfig {
            threads: Some(threads),
        },
        obs,
    )
}

/// Every score and stationarity verdict must match the baseline bitwise.
fn assert_bit_identical(sweep: &DailySweep, baseline: &[BaselineCell]) {
    assert_eq!(sweep.cells[0].len(), baseline.len());
    for (k, (cell, reference)) in sweep.cells[0].iter().zip(baseline).enumerate() {
        let g = sweep.candidates[k];
        match (&reference.score, &cell.score) {
            (None, None) => {}
            (Some((mean, pairs)), Some(s)) => {
                assert_eq!(
                    mean.to_bits(),
                    s.mean_correlation.to_bits(),
                    "daily mean at {g}"
                );
                assert_eq!(*pairs, s.n_pairs, "pair count at {g}");
            }
            other => panic!("score presence mismatch at {g}: {other:?}"),
        }
        assert_eq!(&reference.checks, &cell.stationarity, "stationarity at {g}");
        assert_eq!(
            reference.stationary_days,
            cell.stationary_weekday_count(),
            "stationary-day count at {g}"
        );
    }
}

/// Verifies bit-identity on the full grid, then times both paths and writes
/// the JSON baseline the repo commits under `results/`.
fn write_baseline() {
    let series = gateway_series(WEEKS);
    let candidates = full_candidates();

    let reference = baseline_sweep(&series, WEEKS, &candidates);
    let sweep = pyramid_sweep(&series, WEEKS, &candidates, 1, None);
    assert_bit_identical(&sweep, &reference);

    let baseline_ms = perf::median_ms(5, || baseline_sweep(black_box(&series), WEEKS, &candidates));
    let mut entries = Vec::new();
    let mut single = f64::NAN;
    for threads in THREAD_COUNTS {
        let t = perf::median_ms(5, || {
            pyramid_sweep(black_box(&series), WEEKS, &candidates, threads, None)
        });
        if threads == 1 {
            single = t;
        }
        entries.push(format!("    \"{threads}\": {t:.3}"));
    }
    let available = perf::available_parallelism();
    let json = format!(
        "{{\n\"bench\": \"granularity_sweep\",\n\"baseline\": \"pre-PR figs 7+8 pattern: daily_window_correlation + 2x stationary_weekday_count per candidate, each aggregating from scratch\",\n\"series_len\": {},\n\"weeks\": {WEEKS},\n\"candidates\": {},\n\"available_parallelism\": {available},\n\"baseline_ms\": {baseline_ms:.3},\n\"sweep_ms_by_threads\": {{\n{}\n}},\n\"speedup_single_thread\": {:.2},\n\"bit_identical\": true\n}}\n",
        series.len(),
        candidates.len(),
        entries.join(",\n"),
        baseline_ms / single,
    );
    perf::write_record("results/BENCH_aggregation.json", &json);
}

/// CI smoke: a two-week series over the paper's daily candidates, with
/// bit-identity against the legacy path and the observability conservation
/// laws asserted.
fn smoke() {
    let series = gateway_series(2);
    let candidates = Granularity::daily_candidates();
    let start = Instant::now();

    let obs = PipelineObs::new();
    let sweep = pyramid_sweep(&series, 2, candidates, 2, Some(&obs));
    let reference = baseline_sweep(&series, 2, candidates);
    assert_bit_identical(&sweep, &reference);

    let snapshot = obs.snapshot();
    let failed = snapshot.check_laws();
    assert!(failed.is_empty(), "obs laws broken: {failed:?}");
    assert_eq!(
        snapshot.rebin.entered,
        candidates.len() as u64,
        "every candidate is one rebin"
    );
    assert!(
        snapshot.rebins_pyramid > 0,
        "integer series must engage the pyramid"
    );
    for (name, stage) in [
        ("pyramid_build", &snapshot.pyramid_build),
        ("window_score", &snapshot.window_score),
    ] {
        assert!(stage.entered > 0, "stage {name} never ran");
    }
    println!(
        "granularity_sweep smoke: {} candidates, {} pyramid rebins, {} level folds, bit-identical in {:.2?}",
        candidates.len(),
        snapshot.rebins_pyramid,
        snapshot.level_folds,
        start.elapsed(),
    );
}

fn main() {
    perf::dispatch(smoke, write_baseline);
}
