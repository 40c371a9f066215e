//! Durability-tax benchmark of the WAL-backed ingest pipeline: a simulated
//! 40-gateway week pushed through the chaos channel and ingested via
//! [`DurablePipeline`] at fsync on/off across three segment-rotation sizes.
//!
//! A run refreshes the committed baseline at `results/BENCH_durable.json`:
//! median wall time and
//! reports/second per cell, plus the per-batch append latency distribution
//! (p50/p99/p99.9/max upper bounds from the lock-free `wal_append` stage
//! histogram). The shard worker logs each popped batch (1024 reports by
//! default) under one span before consuming it, so one sample covers a
//! whole batch of buffered appends; the group-commit flush (and, with
//! fsync, the fsync) lands once per ~1366 records, so inside about three
//! batches in four, and the fsync tax shows in the upper quantiles.
//!
//! `--smoke` runs a fast single-shard pass over a small fleet, asserts the
//! durable conservation law, a clean (no-gap) verdict and results identical
//! to the plain pipeline's, and leaves the committed baseline alone. It
//! also times plain [`IngestPipeline::run`] and the durable run on the same
//! stream in the same process (fastest of five alternating runs each) and
//! writes their ratio, `plain_over_durable`, to the scratch record
//! `target/perf/durable_smoke.json`, which `scripts/perf_gate.py --only
//! durable_smoke` gates against the floor in `results/PERF_BUDGET.json`.
//! An in-run ratio needs no committed baseline and holds across machines.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wtts_bench::perf;
use wtts_core::ingest::{IngestConfig, IngestPipeline, IngestReport, IngestSummary};
use wtts_core::{wal_disk_usage, Durability, DurableConfig, DurablePipeline, DurableRun};

const FLEET_GATEWAYS: usize = 40;
const SEGMENT_BYTES: [u64; 3] = [256 * 1024, 1024 * 1024, 8 * 1024 * 1024];

/// Seed salt of the chaos-channel stream ([`perf::fleet_reports`]) the WAL
/// logs.
const SEED_SALT: u64 = 0xD04A8;

/// A fresh WAL directory per run, unique across iterations and processes.
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("wtts-bench-durable-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench WAL dir");
    dir
}

/// The single-shard configuration both the durable and the plain runs use.
fn config() -> IngestConfig {
    IngestConfig {
        shards: 1,
        ..IngestConfig::default()
    }
}

/// One complete durable run in a fresh directory; returns the summary and
/// the WAL footprint left on disk, then removes the directory.
fn run(reports: &[IngestReport], fsync: bool, segment_bytes: u64) -> (IngestSummary, u64) {
    let dir = fresh_dir();
    let mut durable = DurableConfig::new(&dir);
    durable.fsync = fsync;
    durable.segment_bytes = segment_bytes;
    let mut pipeline =
        DurablePipeline::create(config(), Vec::new(), durable).expect("create durable pipeline");
    let outcome = pipeline
        .run(reports.iter().copied(), None)
        .expect("durable ingest run");
    let summary = match outcome {
        DurableRun::Completed {
            summary,
            durability,
            ..
        } => {
            assert!(
                matches!(durability, Durability::Durable),
                "fault-free bench run must not report a durability gap"
            );
            *summary
        }
        DurableRun::Killed => unreachable!("no kill point armed"),
    };
    let m = &summary.metrics;
    assert!(
        m.durably_accounted(),
        "durable accounting violated: wal {} + gap {} + lost {} != offered {}",
        m.wal_records,
        m.wal_gap_records,
        m.wal_lost_records,
        m.offered
    );
    let disk = wal_disk_usage(&dir).expect("measure WAL disk usage");
    std::fs::remove_dir_all(&dir).expect("remove bench WAL dir");
    (summary, disk)
}

/// The same stream through the plain in-memory pipeline.
fn run_plain(reports: &[IngestReport]) -> IngestSummary {
    IngestPipeline::new(config(), Vec::new()).run(reports.iter().copied())
}

/// Re-times every fsync × segment-size cell and writes the JSON baseline
/// the repo commits under `results/`.
fn write_baseline() {
    let reports = perf::fleet_reports(FLEET_GATEWAYS, SEED_SALT);
    let offered = reports.len();
    let mut entries = Vec::new();
    for fsync in [false, true] {
        for segment_bytes in SEGMENT_BYTES {
            // One instrumented run for the latency distribution and WAL
            // footprint, then timed repeats for the wall-clock median.
            let (summary, disk) = run(&reports, fsync, segment_bytes);
            let m = &summary.metrics;
            let wal = &m.per_shard[0].wal_append.latency_ns;
            let t = perf::median_ms(3, || run(black_box(&reports), fsync, segment_bytes));
            let rps = offered as f64 / (t / 1e3);
            // One sample per logged batch; about three batches in four
            // carry a group-commit flush, so p50 already includes it and
            // the upper quantiles expose the fsync tax.
            entries.push(format!(
                "    {{\n      \"fsync\": {fsync},\n      \"segment_bytes\": {segment_bytes},\n      \"median_ms\": {t:.3},\n      \"reports_per_sec\": {rps:.0},\n      \"batch_append_p50_ns_le\": {},\n      \"batch_append_p99_ns_le\": {},\n      \"batch_append_p999_ns_le\": {},\n      \"batch_append_max_ns_le\": {},\n      \"batches\": {},\n      \"segments_created\": {},\n      \"segments_compacted\": {},\n      \"snapshots_written\": {},\n      \"wal_disk_bytes\": {disk}\n    }}",
                wal.quantile_upper(0.5),
                wal.quantile_upper(0.99),
                wal.quantile_upper(0.999),
                wal.quantile_upper(1.0),
                wal.total(),
                m.wal_segments_created,
                m.wal_segments_compacted,
                m.snapshots_written,
            ));
        }
    }
    let available = perf::available_parallelism();
    let json = format!(
        "{{\n\"bench\": \"durable\",\n\"gateways\": {FLEET_GATEWAYS},\n\"weeks\": 1,\n\"offered_reports\": {offered},\n\"available_parallelism\": {available},\n\"runs\": [\n{}\n]\n}}\n",
        entries.join(",\n"),
    );
    perf::write_record("results/BENCH_durable.json", &json);
}

/// CI smoke: a small fleet, buffered WAL at the default rotation size,
/// durable conservation and plain-pipeline equality asserted, and the
/// in-run durability-tax ratio written to the scratch record the perf gate
/// reads. No baseline rewrite.
fn smoke() {
    const SMOKE_GATEWAYS: usize = 8;
    const SAMPLES: usize = 5;
    let reports = perf::fleet_reports(SMOKE_GATEWAYS, SEED_SALT);
    let start = Instant::now();
    let (summary, disk) = run(&reports, false, 1024 * 1024);
    let elapsed = start.elapsed();
    let m = &summary.metrics;
    println!(
        "durable smoke: {} reports logged across {} segments ({} compacted), \
         {} snapshots, {disk} WAL bytes left in {elapsed:.2?}",
        m.wal_records, m.wal_segments_created, m.wal_segments_compacted, m.snapshots_written,
    );
    assert!(m.offered > 0);
    assert_eq!(m.wal_records, m.offered);
    assert!(m.wal_segments_created > 0);
    let plain = run_plain(&reports);
    assert!(
        plain.gateways == summary.gateways && plain.support == summary.support,
        "durable and plain ingest must agree"
    );

    // The fastest of each is the least-disturbed estimate of the code's own
    // cost; alternating the two lets a load swing on a shared machine hit
    // both sides of the ratio alike.
    let (mut plain_ms, mut durable_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        plain_ms = plain_ms.min(perf::time_ms(|| run_plain(black_box(&reports))));
        durable_ms = durable_ms.min(perf::time_ms(|| {
            run(black_box(&reports), false, 1024 * 1024)
        }));
    }
    let ratio = plain_ms / durable_ms;
    println!(
        "durability tax: plain {plain_ms:.2} ms vs durable {durable_ms:.2} ms \
         (min of {SAMPLES}), plain_over_durable {ratio:.3}"
    );
    let json = format!(
        "{{\n\"bench\": \"durable_smoke\",\n\"gateways\": {SMOKE_GATEWAYS},\n\"weeks\": 1,\n\"offered_reports\": {},\n\"samples\": {SAMPLES},\n\"plain_min_ms\": {plain_ms:.3},\n\"durable_min_ms\": {durable_ms:.3},\n\"plain_over_durable\": {ratio:.3}\n}}\n",
        m.offered,
    );
    perf::write_record("target/perf/durable_smoke.json", &json);
}

fn main() {
    perf::dispatch(smoke, write_baseline);
}
