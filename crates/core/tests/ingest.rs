//! End-to-end ingest tests: gwsim fleet → chaos channel → sharded pipeline.
//!
//! These exercise the whole chain the module exists for — simulated
//! household traffic uploaded as cumulative counter reports through a lossy,
//! duplicating, reordering channel, ingested without a single panic, with
//! every dropped report accounted for and results independent of the shard
//! count.

mod common;

use common::{chaos, fleet_reports, gateway_streams, merge_by_minute};
use wtts_core::estimate_tau;
use wtts_core::ingest::{IngestConfig, IngestPipeline, MetricsSnapshot};
use wtts_gwsim::ChannelConfig;
use wtts_timeseries::{CounterTrace, Minute, MINUTES_PER_WEEK};

fn config(shards: usize) -> IngestConfig {
    IngestConfig {
        shards,
        ..IngestConfig::default()
    }
}

/// The headline acceptance run: a 200-gateway fleet week through the chaos
/// channel — zero panics, every malformed report a counted outcome, the
/// conservation law closed.
#[test]
fn two_hundred_gateway_week_fully_accounted() {
    let reports = fleet_reports(200, chaos());
    let offered = reports.len() as u64;
    assert!(offered > 1_000_000, "expected a substantial stream");
    // Some simulated gateways are offline for the whole week and upload
    // nothing; only reporting gateways can grow a lane.
    let reporting: std::collections::HashSet<u64> = reports.iter().map(|r| r.gateway).collect();
    assert!(
        reporting.len() > 150,
        "only {} gateways report",
        reporting.len()
    );

    let pipeline = IngestPipeline::new(config(3), Vec::new());
    let summary = pipeline.run(reports);
    let m = &summary.metrics;

    assert_eq!(m.offered, offered);
    assert_eq!(m.check_laws(), Vec::<String>::new());
    // The chaos channel must actually have exercised every degradation path.
    assert!(m.dropped_duplicate > 0, "no duplicates seen");
    assert!(m.dropped_late > 0, "no late reports seen");
    // gwsim resets counters only at re-association, which always follows a
    // multi-minute absence — so resets surface as reset-spanning gaps here
    // (adjacent-minute resets are covered by the unit tests).
    assert!(m.reset_spanning_gaps > 0, "no reset-spanning gaps seen");

    assert_eq!(summary.gateways.len(), reporting.len());
    let routed: u64 = summary.gateways.iter().map(|g| g.reports).sum();
    assert_eq!(routed, offered, "every report reached exactly one lane");
    // Fleet-wide, plenty of full days seal (some simulated gateways have
    // multi-day outages, so per-gateway counts vary).
    assert!(m.windows_sealed >= 200 * 2, "sealed {}", m.windows_sealed);
    let lane_sealed: u64 = summary.gateways.iter().map(|g| g.windows_sealed).sum();
    assert_eq!(lane_sealed, m.windows_sealed);
    assert!(summary.gateways.iter().all(|g| g.devices > 0));

    // Per-shard batch-stage conservation at quiescence: every batch that
    // entered a shard worker exited it, nothing is in flight, every batch
    // left a latency sample, and the shards together processed the stream.
    assert_eq!(m.per_shard.len(), 3);
    let mut batches_total = 0;
    for (shard, s) in m.per_shard.iter().enumerate() {
        let stage = &s.batch_stage;
        assert!(stage.quiescent(), "shard {shard} not quiescent: {stage:?}");
        assert!(stage.entered > 0, "shard {shard} saw no batches");
        assert_eq!(
            stage.latency_ns.total(),
            stage.exited,
            "shard {shard}: one latency sample per exited batch"
        );
        assert_eq!(s.queue_depth, 0, "shard {shard} queue drained");
        batches_total += stage.entered;
    }
    let processed: u64 = m.per_shard.iter().map(|s| s.processed).sum();
    assert_eq!(processed, offered, "shards processed the whole stream");
    // Batching is bounded by the configured batch size.
    let batch_reports = IngestConfig::default().batch_reports as u64;
    assert!(
        batches_total >= offered / batch_reports,
        "{batches_total} batches cannot carry {offered} reports"
    );

    // The emitted JSON carries the same books the assertions above checked.
    let json = m.to_json();
    assert!(json.contains("\"fully_accounted\":true"));
    assert!(json.contains("\"batches_in_flight\":0"));
}

/// Shard-count invariance on a chaotic stream: the partitioning is pure
/// routing, never semantics.
#[test]
fn chaotic_stream_is_shard_invariant() {
    let reports = fleet_reports(12, chaos());
    let run = |shards| IngestPipeline::new(config(shards), Vec::new()).run(reports.clone());
    let one = run(1);
    assert!(one.metrics.fully_accounted());
    assert!(one.metrics.dropped() > 0, "chaos must cause drops");
    for shards in [2, 4] {
        let many = run(shards);
        assert_eq!(one.gateways, many.gateways, "shards={shards}");
        assert_eq!(one.metrics.ingested, many.metrics.ingested);
        assert_eq!(one.metrics.dropped_late, many.metrics.dropped_late);
        assert_eq!(
            one.metrics.dropped_duplicate,
            many.metrics.dropped_duplicate
        );
        assert_eq!(one.metrics.windows_sealed, many.metrics.windows_sealed);
    }
}

/// The books two runs over the same reports must share whatever their
/// shard count: every counter of the replay-invariant projection, without
/// the per-shard gauges.
fn books(m: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        per_shard: Vec::new(),
        ..m.replay_invariant_core()
    }
}

/// A collector delivers the fleet interleaved by minute, so a shard
/// switches gateway lanes on almost every report and grows device slots in
/// many lanes at once; the fleet generator hands over whole gateways one
/// after another. Each lane sees its own reports in the same order either
/// way, so the summaries and books must be identical at any shard count.
#[test]
fn arrival_interleaving_is_invariant() {
    let streams = gateway_streams(12, chaos());
    let gateway_major = streams.concat();
    let interleaved = merge_by_minute(&streams);
    assert_eq!(interleaved.len(), gateway_major.len());
    let switches = |s: &[wtts_core::ingest::IngestReport]| {
        s.windows(2)
            .filter(|p| p[0].gateway != p[1].gateway)
            .count()
    };
    assert!(switches(&gateway_major) < 12);
    assert!(
        switches(&interleaved) > interleaved.len() / 20,
        "the merge must interleave the gateways"
    );

    let reference = IngestPipeline::new(config(1), Vec::new()).run(gateway_major.clone());
    assert!(reference.metrics.dropped() > 0, "chaos must cause drops");
    for shards in [1, 2, 4] {
        for (order, stream) in [
            ("gateway-major", &gateway_major),
            ("interleaved", &interleaved),
        ] {
            let run = IngestPipeline::new(config(shards), Vec::new()).run(stream.iter().copied());
            assert_eq!(
                run.gateways, reference.gateways,
                "{order} at {shards} shards"
            );
            assert_eq!(run.support, reference.support, "{order} at {shards} shards");
            assert_eq!(books(&run.metrics), books(&reference.metrics));
            assert_eq!(run.metrics.check_laws(), Vec::<String>::new());
        }
    }
}

/// On a perfect channel nothing is dropped — not even across the simulated
/// overnight disconnections and multi-day gateway outages, which the
/// future-jump corroboration logic must recognize as genuine.
#[test]
fn lossless_week_drops_nothing() {
    let reports = fleet_reports(6, ChannelConfig::lossless());
    let pipeline = IngestPipeline::new(config(2), Vec::new());
    let summary = pipeline.run(reports);
    let m = &summary.metrics;
    assert_eq!(m.dropped(), 0, "lossless channel must drop nothing");
    assert!(m.fully_accounted());
    assert!(m.windows_sealed > 0);
}

/// Regression guard at the application level for the counter-reset decoding
/// fix: a counter reset hidden inside a multi-minute outage must not leak a
/// phantom mega-delta into the background-threshold estimate (Section 6.1's
/// upper whisker), which feeds every `τ_back` in the paper's pipeline.
#[test]
fn reset_spanning_gap_does_not_poison_background_threshold() {
    let mut trace = CounterTrace::new();
    // A steady 400 B/min device for two days...
    let mut cum = 0u64;
    for m in 0..2880u32 {
        cum += 400;
        trace.push(Minute(m), cum);
    }
    // ...then a 6-hour outage over which the gateway rebooted (counter
    // restarts near zero) and steady reporting resumes.
    let mut cum = 150u64;
    for m in 3240..4320u32 {
        trace.push(Minute(m), cum);
        cum += 400;
    }
    let series = trace.to_per_minute(Minute(0), MINUTES_PER_WEEK as usize);
    let tau = estimate_tau(&series).expect("plenty of observations");
    // Before the fix the whole post-reset cumulative was charged to one
    // minute, dragging the whisker far above any real per-minute value.
    assert!(tau <= 800.0, "whisker inflated to {tau}");
}
