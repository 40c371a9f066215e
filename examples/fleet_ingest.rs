//! Fleet-scale streaming ingest — gwsim → sharded pipeline → online motifs.
//!
//! Learns motif templates from a training fleet in batch, then replays a
//! *separate* fleet's raw counter reports — cumulative byte counters per
//! device, pushed through a lossy, duplicating, reordering channel — into
//! the sharded [`IngestPipeline`]. Every malformed report becomes a counted
//! outcome instead of a panic, completed calendar windows are matched
//! against the learned templates online, and per-device dominance is
//! tracked incrementally.
//!
//! ```text
//! cargo run --release --example fleet_ingest
//! cargo run --release --example fleet_ingest -- --metrics-json metrics.json
//! cargo run --release --example fleet_ingest -- --wal-dir /tmp/wtts-wal --kill-after 30000
//! cargo run --release --example fleet_ingest -- --wal-dir /tmp/wtts-wal --recover --takeover
//! cargo run --release --example fleet_ingest -- --wal-dir /tmp/wtts-wal --fault-seed 42
//! ```
//!
//! Every run checks the final [`MetricsSnapshot`] against its declared
//! conservation laws and aborts naming any it breaks. With
//! `--metrics-json [PATH]` the snapshot — counters, per-shard queue gauges
//! and batch-stage latency histograms, plus the conservation verdicts — is
//! emitted as JSON to `PATH` (or stdout when no path is given).
//!
//! With `--wal-dir DIR` the ingest runs through the durable
//! [`DurablePipeline`]: every consumed report is logged to rotated,
//! per-shard write-ahead segments in `DIR` and decoder state is
//! snapshotted periodically (snapshot-covered segments are compacted).
//! `--kill-after N` aborts the process (no unwinding, no flushing — a real
//! crash) after `N` reports have been offered; a later invocation with
//! `--recover` loads the durable prefix, replays the WAL tail, re-feeds
//! the stream and finishes with bit-identical results: a durable run prints
//! its state digest and its replay-invariant books
//! ([`MetricsSnapshot::replay_invariant_core`]) for comparison with an
//! uninterrupted run. A crash leaves a
//! stale single-writer lock behind; `--takeover` fences it (a live owner
//! is always refused). `--fsync` makes WAL flushes and snapshots durable
//! against OS crashes too; `--snapshot-every N` and `--segment-bytes N`
//! override the snapshot cadence and segment rotation size.
//!
//! `--fault-seed S` injects a deterministic I/O fault schedule (EIO,
//! short writes, ENOSPC, lying fsync, torn renames) of `--fault-ops N`
//! faults (default 8) into the durable layer: the run retries transient
//! faults and, past the retry budget, degrades to a typed, counted
//! durability gap instead of crashing.

use std::sync::Arc;
use wtts::core::ingest::{IngestConfig, IngestPipeline, IngestReport};
use wtts::core::motif::{discover_motifs, MotifConfig};
use wtts::core::{
    Durability, DurableConfig, DurablePipeline, DurableRun, FaultKind, FaultSpec, FaultyFs,
    KillMode, KillPoint,
};
use wtts::gwsim::{
    fault_schedule, gateway_reports_seeded, ChannelConfig, FaultOp, Fleet, FleetConfig,
};
use wtts::timeseries::{aggregate, daily_windows, Granularity};
use wtts_bench::perf;

#[derive(Default)]
struct Args {
    /// `--metrics-json [PATH]`: `None` = flag absent, `Some(None)` = emit
    /// to stdout, `Some(Some(path))` = write to `path`.
    metrics_json: Option<Option<String>>,
    wal_dir: Option<String>,
    recover: bool,
    takeover: bool,
    kill_after: Option<u64>,
    fsync: bool,
    snapshot_every: Option<u64>,
    segment_bytes: Option<u64>,
    fault_seed: Option<u64>,
    fault_ops: Option<u64>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| -> Option<String> {
        let at = argv.iter().position(|a| a == flag)?;
        argv.get(at + 1).filter(|a| !a.starts_with("--")).cloned()
    };
    let numeric = |flag: &str| -> Option<u64> {
        value_of(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} expects a number, got {v:?}"))
        })
    };
    Args {
        metrics_json: argv
            .iter()
            .position(|a| a == "--metrics-json")
            .map(|_| value_of("--metrics-json")),
        wal_dir: value_of("--wal-dir"),
        recover: argv.iter().any(|a| a == "--recover"),
        takeover: argv.iter().any(|a| a == "--takeover"),
        kill_after: numeric("--kill-after"),
        fsync: argv.iter().any(|a| a == "--fsync"),
        snapshot_every: numeric("--snapshot-every"),
        segment_bytes: numeric("--segment-bytes"),
        fault_seed: numeric("--fault-seed"),
        fault_ops: numeric("--fault-ops"),
    }
}

/// The simulator's fault kinds mapped onto the durable layer's injector.
fn fault_kind(op: FaultOp) -> FaultKind {
    match op {
        FaultOp::WriteEio => FaultKind::WriteEio,
        FaultOp::WriteShort => FaultKind::WriteShort,
        FaultOp::WriteEnospc => FaultKind::WriteEnospc,
        FaultOp::SyncLies => FaultKind::SyncLies,
        FaultOp::RenameTorn => FaultKind::RenameTorn,
    }
}

fn main() {
    let args = parse_args();
    let metrics_json = args.metrics_json.clone();
    // ---- Batch phase: learn daily motif templates from a training fleet. --
    let training = Fleet::new(FleetConfig {
        n_gateways: 24,
        weeks: 2,
        ..FleetConfig::default()
    });
    let mut windows = Vec::new();
    for gw in training.iter() {
        let agg = aggregate(&gw.aggregate_total(), Granularity::hours(3), 0);
        for w in daily_windows(&agg, 2, 0) {
            windows.push(w.series.into_values());
        }
    }
    let templates: Vec<_> = discover_motifs(&windows, &MotifConfig::default())
        .iter()
        .filter(|m| m.support() >= 4)
        .enumerate()
        .map(|(k, m)| m.to_template(format!("motif-{}", k + 1), &windows))
        .collect();
    println!(
        "learned {} motif templates from {} training windows",
        templates.len(),
        windows.len()
    );

    // ---- Ingest phase: a fresh fleet uploads raw counter reports. --------
    let fleet_size = 40;
    let fleet = Fleet::new(FleetConfig {
        n_gateways: fleet_size,
        weeks: 1,
        seed: 7,
        ..FleetConfig::default()
    });
    let channel = ChannelConfig {
        loss: 0.02,
        duplication: 0.01,
        reorder: 0.01,
    };
    let reports: Vec<IngestReport> = fleet
        .iter()
        .flat_map(|gw| gateway_reports_seeded(&gw, channel, 100 + gw.id as u64))
        .map(|t| perf::envelope(&t))
        .collect();
    println!(
        "replaying {} reports from {fleet_size} gateways through a lossy channel\n",
        reports.len()
    );

    let config = IngestConfig {
        shards: 4,
        ..IngestConfig::default()
    };
    let summary = match &args.wal_dir {
        None => IngestPipeline::new(config, templates).run(reports),
        Some(dir) => {
            let mut durable = DurableConfig::new(dir);
            durable.fsync = args.fsync;
            durable.takeover = args.takeover;
            if let Some(every) = args.snapshot_every {
                durable.snapshot_every_reports = every;
            }
            if let Some(bytes) = args.segment_bytes {
                durable.segment_bytes = bytes;
            }
            if let Some(seed) = args.fault_seed {
                let n = args.fault_ops.unwrap_or(8) as usize;
                let specs: Vec<FaultSpec> = fault_schedule(seed, 2_000, n)
                    .iter()
                    .map(|e| FaultSpec {
                        op: e.op,
                        kind: fault_kind(e.kind),
                    })
                    .collect();
                println!(
                    "injecting {} seeded I/O faults (seed {seed}) into the durable layer",
                    specs.len()
                );
                durable.fs = Arc::new(FaultyFs::new(&specs));
            }
            let mut pipeline = if args.recover {
                let p = DurablePipeline::recover(config, templates, durable)
                    .expect("recover durable pipeline");
                let m = p.metrics().snapshot();
                println!(
                    "recovered durable state from {dir}: {} reports replayed from the WAL \
                     ({} torn record{} truncated), resuming at seq {}",
                    m.wal_records,
                    m.wal_torn_records,
                    if m.wal_torn_records == 1 { "" } else { "s" },
                    p.resume_seq()
                );
                p
            } else {
                DurablePipeline::create(config, templates, durable)
                    .expect("create durable pipeline")
            };
            let kill = args.kill_after.map(|after_offered| KillPoint {
                after_offered,
                mode: KillMode::SigKill,
            });
            match pipeline.run(reports, kill).expect("durable ingest run") {
                DurableRun::Completed {
                    summary,
                    state_digest,
                    durability,
                } => {
                    println!("state digest: {state_digest:016x}");
                    println!(
                        "replay-invariant books: {}",
                        summary.metrics.replay_invariant_core().to_json()
                    );
                    match durability {
                        Durability::Durable => println!("durability: durable (no gap)"),
                        Durability::Degraded { gap } => println!(
                            "durability: DEGRADED — {gap} reports in a typed durability gap"
                        ),
                    }
                    *summary
                }
                // `KillMode::SigKill` aborts the process inside `run`.
                DurableRun::Killed => unreachable!("SigKill does not return"),
            }
        }
    };

    // ---- Results: metrics first, then per-gateway highlights. ------------
    let m = &summary.metrics;
    let failed = m.check_laws();
    assert!(failed.is_empty(), "conservation laws broken: {failed:?}");
    println!("ingested {} / {} offered", m.ingested, m.offered);
    println!(
        "dropped: {} late, {} duplicate, {} future-jump ({} reset-spanning gaps voided)",
        m.dropped_late, m.dropped_duplicate, m.dropped_future_jump, m.reset_spanning_gaps
    );
    println!(
        "windows: {} sealed, {} matched, {} novel, {} partial",
        m.windows_sealed, m.windows_matched, m.windows_novel, m.partial_windows
    );
    println!("fleet-wide template support: {:?}\n", summary.support);

    for g in summary.gateways.iter().take(8) {
        let dominant = g
            .dominants
            .first()
            .map(|d| format!("device {} (cor {:.2})", d.device, d.similarity))
            .unwrap_or_else(|| "none".into());
        // `windows_matched` counts the trailing partial window too, so it
        // can exceed `windows_sealed` by one.
        println!(
            "gateway {:>2}: {} devices, {} windows sealed, {} matched, dominant: {}",
            g.gateway, g.devices, g.windows_sealed, g.windows_matched, dominant
        );
    }

    if let Some(target) = metrics_json {
        let json = m.to_json();
        match target {
            Some(path) => {
                std::fs::write(&path, &json).expect("write metrics JSON");
                println!("\nmetrics JSON written to {path}");
            }
            None => println!("\n{json}"),
        }
    }
}
