//! Throughput benchmark of the sharded fleet ingest pipeline: a simulated
//! 200-gateway week of raw counter reports, pushed through a chaos channel
//! (loss, duplication, reordering) and ingested at 1 / 2 / 4 shards.
//!
//! A run refreshes the committed baseline at `results/BENCH_ingest.json`
//! (median wall time and reports/second per shard count, plus the
//! accounting invariant check). Shard scaling is real only when worker
//! threads get their own cores; the baseline records
//! `available_parallelism` so numbers from a one-core container are read
//! for what they are.
//!
//! `--smoke` runs a fast single-shard pass over a small fleet and asserts
//! the conservation law, without touching the committed baseline (used by
//! `scripts/ci.sh`).

use std::hint::black_box;
use std::time::Instant;
use wtts_bench::perf;
use wtts_core::ingest::{IngestConfig, IngestPipeline, IngestReport, IngestSummary};

const FLEET_GATEWAYS: usize = 200;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Seed salt of the chaos channel ([`perf::fleet_reports`]).
const SEED_SALT: u64 = 0xBE7C4;

fn config(shards: usize) -> IngestConfig {
    IngestConfig {
        shards,
        ..IngestConfig::default()
    }
}

fn run(reports: &[IngestReport], shards: usize) -> IngestSummary {
    let pipeline = IngestPipeline::new(config(shards), Vec::new());
    let summary = pipeline.run(reports.iter().copied());
    assert!(
        summary.metrics.fully_accounted(),
        "accounting violated at {shards} shards: ingested {} + dropped {} != offered {}",
        summary.metrics.ingested,
        summary.metrics.dropped(),
        summary.metrics.offered
    );
    summary
}

/// Re-times every shard count and writes the JSON baseline the repo
/// commits under `results/`.
fn write_baseline() {
    let reports = perf::fleet_reports(FLEET_GATEWAYS, SEED_SALT);
    let offered = reports.len();
    let reference = run(&reports, 1);
    let mut entries = Vec::new();
    let mut single = f64::NAN;
    for shards in SHARD_COUNTS {
        let t = perf::median_ms(5, || run(black_box(&reports), shards));
        if shards == 1 {
            single = t;
        }
        let rps = offered as f64 / (t / 1e3);
        entries.push(format!(
            "    {{\n      \"shards\": {shards},\n      \"median_ms\": {t:.3},\n      \"reports_per_sec\": {rps:.0},\n      \"speedup_vs_1_shard\": {:.2}\n    }}",
            single / t,
        ));
    }
    let available = perf::available_parallelism();
    let m = &reference.metrics;
    let json = format!(
        "{{\n\"bench\": \"ingest\",\n\"gateways\": {FLEET_GATEWAYS},\n\"weeks\": 1,\n\"offered_reports\": {offered},\n\"ingested\": {},\n\"dropped_late\": {},\n\"dropped_duplicate\": {},\n\"dropped_future_jump\": {},\n\"reset_spanning_gaps\": {},\n\"windows_sealed\": {},\n\"fully_accounted\": {},\n\"available_parallelism\": {available},\n\"shard_runs\": [\n{}\n]\n}}\n",
        m.ingested,
        m.dropped_late,
        m.dropped_duplicate,
        m.dropped_future_jump,
        m.reset_spanning_gaps,
        m.windows_sealed,
        m.fully_accounted(),
        entries.join(",\n"),
    );
    perf::write_record("results/BENCH_ingest.json", &json);
}

/// CI smoke: a small fleet at one shard, conservation law asserted, no
/// baseline rewrite.
fn smoke() {
    let reports = perf::fleet_reports(8, SEED_SALT);
    let start = Instant::now();
    let summary = run(&reports, 1);
    let elapsed = start.elapsed();
    println!(
        "ingest smoke: {} reports, {} ingested, {} dropped, {} windows sealed in {elapsed:.2?}",
        summary.metrics.offered,
        summary.metrics.ingested,
        summary.metrics.dropped(),
        summary.metrics.windows_sealed,
    );
    assert!(summary.metrics.offered > 0);
    assert!(summary.metrics.windows_sealed > 0);
}

fn main() {
    perf::dispatch(smoke, write_baseline);
}
