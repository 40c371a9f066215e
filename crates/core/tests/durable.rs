//! Crash-recovery tests: gwsim fleet → chaos channel → durable pipeline →
//! kill → recover → bit-identical results.
//!
//! The headline scenario kills the ingest mid-week at several injected
//! crash points, recovers from the WAL + snapshot each time, finishes the
//! stream and demands the exact results of an uninterrupted run: the same
//! per-gateway summaries, the same motif support, the same shard-state
//! digest, and metrics books equal under the replay invariant. A proptest
//! then repeats the exercise at arbitrary kill points over arbitrary
//! report streams.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wtts_core::ingest::{IngestConfig, IngestReport};
use wtts_core::motif::{discover_motifs, MotifConfig};
use wtts_core::streaming::MotifTemplate;
use wtts_core::{
    segment_files, snapshot_coverage, Durability, DurableConfig, DurableError, DurablePipeline,
    DurableRun, FaultKind, FaultSpec, FaultyFs, IngestSummary, IoPolicy, KillPoint, LockError,
    LOCK_FILE,
};
use wtts_gwsim::{
    fault_schedule, gateway_reports, kill_points, ChannelConfig, FaultOp, Fleet, FleetConfig,
    TaggedReport,
};
use wtts_timeseries::{aggregate, daily_windows, Granularity, Minute};

fn envelope(t: &TaggedReport) -> IngestReport {
    IngestReport {
        gateway: t.gateway as u64,
        device: t.device as u32,
        at: t.report.at,
        cum_in: t.report.cum_in,
        cum_out: t.report.cum_out,
    }
}

fn chaos() -> ChannelConfig {
    ChannelConfig {
        loss: 0.02,
        duplication: 0.01,
        reorder: 0.01,
    }
}

fn fleet_reports(n_gateways: usize) -> Vec<IngestReport> {
    let fleet = Fleet::new(FleetConfig {
        n_gateways,
        weeks: 1,
        ..FleetConfig::default()
    });
    let mut out = Vec::new();
    for id in 0..n_gateways {
        let gw = fleet.gateway(id);
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE + id as u64);
        out.extend(gateway_reports(&gw, chaos(), &mut rng).iter().map(envelope));
    }
    out
}

/// A handful of daily motif templates from a small training fleet, so the
/// online matcher (and hence the state digest) has real work to do.
fn templates() -> Vec<MotifTemplate> {
    let training = Fleet::new(FleetConfig {
        n_gateways: 6,
        weeks: 1,
        seed: 3,
        ..FleetConfig::default()
    });
    let mut windows = Vec::new();
    for gw in training.iter() {
        let agg = aggregate(&gw.aggregate_total(), Granularity::hours(3), 0);
        for w in daily_windows(&agg, 2, 0) {
            windows.push(w.series.into_values());
        }
    }
    discover_motifs(&windows, &MotifConfig::default())
        .iter()
        .filter(|m| m.support() >= 2)
        .enumerate()
        .map(|(k, m)| m.to_template(format!("motif-{}", k + 1), &windows))
        .collect()
}

fn config(shards: usize) -> IngestConfig {
    IngestConfig {
        shards,
        ..IngestConfig::default()
    }
}

/// A unique scratch directory per call; collisions across concurrent test
/// processes are avoided by pid, within a process by a counter.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wtts-durable-it-{tag}-{}-{n}", std::process::id()))
}

fn durable_cfg(dir: &std::path::Path, snapshot_every: u64) -> DurableConfig {
    DurableConfig {
        snapshot_every_reports: snapshot_every,
        ..DurableConfig::new(dir.to_path_buf())
    }
}

/// Maps the simulator's filesystem-agnostic fault kinds onto the durable
/// layer's injector (the two crates stay decoupled on purpose).
fn fault_kind(op: FaultOp) -> FaultKind {
    match op {
        FaultOp::WriteEio => FaultKind::WriteEio,
        FaultOp::WriteShort => FaultKind::WriteShort,
        FaultOp::WriteEnospc => FaultKind::WriteEnospc,
        FaultOp::SyncLies => FaultKind::SyncLies,
        FaultOp::RenameTorn => FaultKind::RenameTorn,
    }
}

/// One uninterrupted durable run: `(summary, state digest)`.
fn live_run(
    reports: &[IngestReport],
    config: &IngestConfig,
    templates: &[MotifTemplate],
    snapshot_every: u64,
) -> (IngestSummary, u64) {
    let dir = scratch("live");
    let mut p = DurablePipeline::create(
        config.clone(),
        templates.to_vec(),
        durable_cfg(&dir, snapshot_every),
    )
    .expect("create");
    let run = p.run(reports.iter().copied(), None).expect("run");
    std::fs::remove_dir_all(&dir).ok();
    match run {
        DurableRun::Completed {
            summary,
            state_digest,
            durability,
        } => {
            assert_eq!(durability, Durability::Durable, "clean run must not gap");
            (*summary, state_digest)
        }
        DurableRun::Killed => unreachable!("no kill switch armed"),
    }
}

/// The headline acceptance scenario: crash the fleet-week ingest at three
/// seeded kill points, recover after each, finish the stream, and demand
/// results bit-identical to never having crashed at all.
#[test]
fn killed_mid_week_recovery_is_bit_identical() {
    let reports = fleet_reports(8);
    assert!(reports.len() > 100_000, "expected a substantial stream");
    let templates = templates();
    assert!(templates.len() >= 2, "training produced no templates");
    let config = config(3);
    let snapshot_every = 10_000;
    let (live_summary, live_digest) = live_run(&reports, &config, &templates, snapshot_every);
    assert!(live_summary.metrics.windows_matched > 0, "templates unused");

    // Each kill threshold counts reports offered *within its leg*, and a
    // leg offers at most its threshold — so with three thresholds of at
    // most a quarter-stream each, the final leg always has work left.
    let schedule = kill_points(0xD15C, reports.len() as u64 / 4, 3);
    assert_eq!(schedule.len(), 3, "stream large enough for 3 points");

    let dir = scratch("headline");
    for (leg, &kill_after) in schedule.iter().enumerate() {
        let mut p = if leg == 0 {
            DurablePipeline::create(
                config.clone(),
                templates.clone(),
                durable_cfg(&dir, snapshot_every),
            )
            .expect("create")
        } else {
            DurablePipeline::recover(
                config.clone(),
                templates.clone(),
                durable_cfg(&dir, snapshot_every),
            )
            .expect("recover")
        };
        if leg > 0 {
            let m = p.metrics().snapshot();
            assert_eq!(m.recoveries, 1, "leg {leg}: one recovery on its books");
            // The prefix may legitimately be empty after an early kill:
            // unflushed WAL bytes die with the process, by design.
            assert!(
                m.durably_accounted(),
                "leg {leg}: replayed books must balance"
            );
        }
        let run = p
            .run(reports.iter().copied(), Some(KillPoint::after(kill_after)))
            .expect("killed leg");
        assert!(
            matches!(run, DurableRun::Killed),
            "leg {leg} must die at {kill_after}"
        );
    }

    // The final recovery finishes the stream.
    let mut p = DurablePipeline::recover(
        config.clone(),
        templates.clone(),
        durable_cfg(&dir, snapshot_every),
    )
    .expect("final recover");
    assert!(
        p.metrics().snapshot().wal_records > 0,
        "three legs later the durable prefix must be non-empty"
    );
    let run = p.run(reports.iter().copied(), None).expect("final run");
    std::fs::remove_dir_all(&dir).ok();
    let (summary, digest) = match run {
        DurableRun::Completed {
            summary,
            state_digest,
            durability,
        } => {
            assert_eq!(durability, Durability::Durable);
            (summary, state_digest)
        }
        DurableRun::Killed => unreachable!("no kill switch armed"),
    };

    assert_eq!(digest, live_digest, "shard state digests diverged");
    assert_eq!(summary.gateways, live_summary.gateways);
    assert_eq!(summary.support, live_summary.support);
    assert_eq!(
        summary.metrics.replay_invariant_core(),
        live_summary.metrics.replay_invariant_core(),
        "metrics books diverged beyond durability bookkeeping"
    );
    let m = &summary.metrics;
    assert_eq!(m.check_laws(), Vec::<String>::new());
    assert_eq!(m.wal_records, m.offered, "the WAL covers the stream");
    assert!(m.wal_replayed > 0, "recovery never skipped durable reports");
    assert!(m.snapshots_written > 0, "snapshot cadence never fired");
}

/// After a crash, feeding only the stream suffix from `resume_seq()` is
/// equivalent to re-feeding everything.
#[test]
fn suffix_resume_from_resume_seq_is_exact() {
    let reports = fleet_reports(3);
    let templates = templates();
    let config = config(2);
    let (live_summary, live_digest) = live_run(&reports, &config, &templates, 5_000);

    let dir = scratch("suffix");
    let mut p =
        DurablePipeline::create(config.clone(), templates.clone(), durable_cfg(&dir, 5_000))
            .expect("create");
    let kill_after = reports.len() as u64 / 3;
    let run = p
        .run(reports.iter().copied(), Some(KillPoint::after(kill_after)))
        .expect("killed run");
    assert!(matches!(run, DurableRun::Killed));

    let mut p =
        DurablePipeline::recover(config.clone(), templates.clone(), durable_cfg(&dir, 5_000))
            .expect("recover");
    let resume = p.resume_seq();
    assert!(resume > 1, "a durable prefix must advance resume_seq");
    assert!(resume <= reports.len() as u64 + 1);
    let suffix = reports[(resume - 1) as usize..].iter().copied();
    let run = p.run_from(suffix, resume, None).expect("suffix run");
    std::fs::remove_dir_all(&dir).ok();
    match run {
        DurableRun::Completed {
            summary,
            state_digest,
            ..
        } => {
            assert_eq!(state_digest, live_digest);
            assert_eq!(summary.gateways, live_summary.gateways);
            assert_eq!(
                summary.metrics.replay_invariant_core(),
                live_summary.metrics.replay_invariant_core()
            );
        }
        DurableRun::Killed => unreachable!("no kill switch armed"),
    }
}

/// A crash that tears the WAL tail (a half-written record) is healed by
/// recovery: the torn record is counted, truncated, and the finished run
/// still matches the uninterrupted one exactly.
#[test]
fn torn_wal_tail_heals_and_finishes_identically() {
    let reports = fleet_reports(2);
    let config = config(2);
    let (live_summary, live_digest) = live_run(&reports, &config, &[], 2_000);

    let dir = scratch("torn");
    let mut p = DurablePipeline::create(config.clone(), Vec::new(), durable_cfg(&dir, 2_000))
        .expect("create");
    let run = p
        .run(
            reports.iter().copied(),
            Some(KillPoint::after(reports.len() as u64 / 2)),
        )
        .expect("killed run");
    assert!(matches!(run, DurableRun::Killed));

    // Tear shard 0's WAL: a record header promising more bytes than exist,
    // appended to the newest segment.
    let segs = segment_files(&dir, 0).expect("list shard 0 segments");
    let (_, wal0) = segs.last().expect("shard 0 has a segment");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(wal0)
        .expect("open wal");
    f.write_all(&48u32.to_le_bytes()).expect("torn header");
    f.write_all(&[0xAB; 7]).expect("torn partial payload");
    drop(f);

    let mut p = DurablePipeline::recover(config.clone(), Vec::new(), durable_cfg(&dir, 2_000))
        .expect("recover over torn tail");
    let m = p.metrics().snapshot();
    assert_eq!(m.wal_torn_records, 1, "the torn record must be counted");
    assert!(m.durably_accounted());
    let run = p.run(reports.iter().copied(), None).expect("final run");
    std::fs::remove_dir_all(&dir).ok();
    match run {
        DurableRun::Completed {
            summary,
            state_digest,
            ..
        } => {
            assert_eq!(state_digest, live_digest);
            assert_eq!(summary.gateways, live_summary.gateways);
        }
        DurableRun::Killed => unreachable!("no kill switch armed"),
    }
}

// ---------------------------------------------------------------------------
// Property: recovery is exact at *any* kill point on *any* stream.
// ---------------------------------------------------------------------------

/// An arbitrary raw report: a small gateway/device space and a bounded
/// clock so streams collide — duplicates, regressions, future jumps and
/// resets all arise naturally.
fn arb_report() -> impl Strategy<Value = IngestReport> {
    (0u64..5, 0u32..3, 0u32..4000, 0u64..1 << 34, 0u64..1 << 34).prop_map(
        |(gateway, device, at, cum_in, cum_out)| IngestReport {
            gateway,
            device,
            at: Minute(at),
            cum_in,
            cum_out,
        },
    )
}

fn prop_config() -> IngestConfig {
    IngestConfig {
        shards: 2,
        queue_batches: 2,
        batch_reports: 8,
        ..IngestConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any report stream and any kill point, crash + recover + finish
    /// equals the uninterrupted run: same digest, same summaries, same
    /// replay-invariant metrics.
    #[test]
    fn recovery_is_exact_at_any_kill_point(
        reports in prop::collection::vec(arb_report(), 1..250),
        kill_frac in 0.0f64..1.2,
    ) {
        let config = prop_config();
        let snapshot_every = 40;
        let (live_summary, live_digest) =
            live_run(&reports, &config, &[], snapshot_every);

        let kill_after = 1 + (kill_frac * reports.len() as f64) as u64;
        let dir = scratch("prop");
        let mut p = DurablePipeline::create(
            config.clone(), Vec::new(), durable_cfg(&dir, snapshot_every),
        ).expect("create");
        let first = p
            .run(reports.iter().copied(), Some(KillPoint::after(kill_after)))
            .expect("first leg");
        let (summary, digest) = match first {
            // The kill point can land beyond the stream; then the first
            // run simply completes and there is nothing to recover.
            DurableRun::Completed { summary, state_digest, .. } => (summary, state_digest),
            DurableRun::Killed => {
                let mut p = DurablePipeline::recover(
                    config.clone(), Vec::new(), durable_cfg(&dir, snapshot_every),
                ).expect("recover");
                prop_assert_eq!(p.metrics().snapshot().recoveries, 1);
                match p.run(reports.iter().copied(), None).expect("final run") {
                    DurableRun::Completed { summary, state_digest, .. } => (summary, state_digest),
                    DurableRun::Killed => unreachable!("no kill switch armed"),
                }
            }
        };
        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(digest, live_digest);
        prop_assert_eq!(&summary.gateways, &live_summary.gateways);
        prop_assert_eq!(&summary.support, &live_summary.support);
        prop_assert_eq!(
            summary.metrics.replay_invariant_core(),
            live_summary.metrics.replay_invariant_core()
        );
        prop_assert_eq!(summary.metrics.check_laws(), Vec::<String>::new());
    }
}

/// A stale lock (the aftermath of a real SIGKILL: the owner is dead but
/// its lock file survives) refuses plain recovery with a typed error and
/// recovers bit-identically under `takeover`.
#[test]
fn stale_lock_requires_takeover_and_recovers_exactly() {
    let reports = fleet_reports(2);
    let config = config(2);
    let (live_summary, live_digest) = live_run(&reports, &config, &[], 2_000);

    let dir = scratch("takeover");
    let mut p = DurablePipeline::create(config.clone(), Vec::new(), durable_cfg(&dir, 2_000))
        .expect("create");
    let fingerprint = p.fingerprint();
    let run = p
        .run(
            reports.iter().copied(),
            Some(KillPoint::after(reports.len() as u64 / 2)),
        )
        .expect("killed run");
    assert!(matches!(run, DurableRun::Killed));
    drop(p);

    // The cooperative kill released the lock (same PID); forge the stale
    // lock a genuine SIGKILL would have left: a dead owner, our config.
    std::fs::write(
        dir.join(LOCK_FILE),
        format!("pid={}\nfingerprint={fingerprint:016x}\n", u32::MAX - 1),
    )
    .expect("forge stale lock");

    match DurablePipeline::recover(config.clone(), Vec::new(), durable_cfg(&dir, 2_000)) {
        Err(DurableError::Lock(LockError::Stale { pid, .. })) => assert_eq!(pid, u32::MAX - 1),
        Ok(_) => panic!("recovery under a stale lock must demand takeover"),
        Err(e) => panic!("expected Stale, got {e:?}"),
    }

    let takeover_cfg = DurableConfig {
        takeover: true,
        ..durable_cfg(&dir, 2_000)
    };
    let mut p =
        DurablePipeline::recover(config.clone(), Vec::new(), takeover_cfg).expect("takeover");
    assert_eq!(p.metrics().snapshot().lock_takeovers, 1);
    let run = p.run(reports.iter().copied(), None).expect("final run");
    std::fs::remove_dir_all(&dir).ok();
    match run {
        DurableRun::Completed {
            summary,
            state_digest,
            durability,
        } => {
            assert_eq!(durability, Durability::Durable);
            assert_eq!(state_digest, live_digest, "takeover recovery diverged");
            assert_eq!(summary.gateways, live_summary.gateways);
        }
        DurableRun::Killed => unreachable!("no kill switch armed"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole proof obligation: for any stream, any kill point and
    /// any seeded fault schedule over rotating + compacting segments, the
    /// finished run either reproduces the uninterrupted digest bit-for-bit
    /// or reports a typed, counted durability gap — and the conservation
    /// laws hold either way. Compaction never leaves a surviving sealed
    /// segment fully covered by the live snapshot.
    #[test]
    fn faulted_recovery_matches_or_reports_typed_gap(
        reports in prop::collection::vec(arb_report(), 1..200),
        kill_frac in 0.0f64..1.2,
        fault_seed in 0u64..(1 << 48),
        n_faults in 0usize..10,
    ) {
        let config = prop_config();
        let snapshot_every = 30;
        let (live_summary, live_digest) =
            live_run(&reports, &config, &[], snapshot_every);

        let specs: Vec<FaultSpec> = fault_schedule(fault_seed, 300, n_faults)
            .iter()
            .map(|e| FaultSpec { op: e.op, kind: fault_kind(e.kind) })
            .collect();
        let dir = scratch("fault");
        // Tiny segments force rotation + compaction under the storm; the
        // shared FaultyFs op counter spans both legs.
        let dcfg = DurableConfig {
            snapshot_every_reports: snapshot_every,
            segment_bytes: 600,
            io: IoPolicy::no_backoff(2),
            fs: Arc::new(FaultyFs::new(&specs)),
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(config.clone(), Vec::new(), dcfg.clone())
            .expect("create");
        let kill_after = 1 + (kill_frac * reports.len() as f64) as u64;
        let first = p
            .run(reports.iter().copied(), Some(KillPoint::after(kill_after)))
            .expect("first leg");
        let (summary, digest, durability) = match first {
            DurableRun::Completed { summary, state_digest, durability } => {
                (summary, state_digest, durability)
            }
            DurableRun::Killed => {
                drop(p);
                let mut p = DurablePipeline::recover(config.clone(), Vec::new(), dcfg.clone())
                    .expect("recover");
                // Mid-stream state can hold unclassified in-flight
                // reports (fully_accounted is a quiescence law), but the
                // durability books must balance immediately.
                let m = p.metrics().snapshot();
                prop_assert!(m.durably_accounted(), "recovered gap must be typed");
                match p.run(reports.iter().copied(), None).expect("final run") {
                    DurableRun::Completed { summary, state_digest, durability } => {
                        (summary, state_digest, durability)
                    }
                    DurableRun::Killed => unreachable!("no kill switch armed"),
                }
            }
        };

        // Zero false loss: bit-identical, or a typed gap with balanced books.
        let m = &summary.metrics;
        prop_assert_eq!(m.check_laws(), Vec::<String>::new());
        match durability {
            Durability::Durable => {
                prop_assert_eq!(m.durability_gap(), 0);
                prop_assert_eq!(digest, live_digest, "no gap, so no divergence");
                prop_assert_eq!(&summary.gateways, &live_summary.gateways);
                prop_assert_eq!(&summary.support, &live_summary.support);
            }
            Durability::Degraded { gap } => {
                prop_assert!(gap > 0, "degraded must name a non-zero gap");
                prop_assert_eq!(m.durability_gap(), gap);
            }
        }

        // Compaction invariant: every surviving sealed segment (all but
        // the newest per shard) holds a record past the live snapshot's
        // coverage. Record layout: u32 len + u32 crc + payload, seq first.
        for shard in 0..config.shards {
            let coverage = match snapshot_coverage(&dir, shard) {
                Ok(Some(c)) => c,
                _ => continue, // snapshot dead or absent: nothing covered
            };
            let segs = segment_files(&dir, shard).expect("list segments");
            if segs.len() < 2 {
                continue;
            }
            for (_, path) in &segs[..segs.len() - 1] {
                let bytes = std::fs::read(path).expect("read segment");
                let whole = (bytes.len().saturating_sub(36)) / 48;
                prop_assert!(whole > 0, "sealed segments are never empty shells");
                let off = 36 + (whole - 1) * 48 + 8;
                let last_seq = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                prop_assert!(
                    last_seq > coverage,
                    "covered segment {} survived compaction (last {} <= {})",
                    path.display(), last_seq, coverage
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
