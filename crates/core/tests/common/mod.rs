//! Fixtures shared by the ingest and durable integration tests: the
//! simulator-to-ingest envelope, the chaos channel, a simulated fleet week
//! per gateway, and the minute-interleaved order a collector delivers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wtts_core::ingest::IngestReport;
use wtts_gwsim::{gateway_reports_seeded, ChannelConfig, Fleet, FleetConfig, TaggedReport};

/// One simulator report as the ingest tier receives it.
pub fn envelope(t: &TaggedReport) -> IngestReport {
    IngestReport {
        gateway: t.gateway as u64,
        device: t.device as u32,
        at: t.report.at,
        cum_in: t.report.cum_in,
        cum_out: t.report.cum_out,
    }
}

/// A channel with everything wrong at once: loss (→ gaps and reset-spanning
/// resets), duplication (→ duplicate drops) and reordering (→ late drops).
pub fn chaos() -> ChannelConfig {
    ChannelConfig {
        loss: 0.02,
        duplication: 0.01,
        reorder: 0.01,
    }
}

/// One simulated fleet week through `channel`: each gateway's reports in
/// the order its channel delivered them, one stream per gateway.
pub fn gateway_streams(n_gateways: usize, channel: ChannelConfig) -> Vec<Vec<IngestReport>> {
    let fleet = Fleet::new(FleetConfig {
        n_gateways,
        weeks: 1,
        ..FleetConfig::default()
    });
    fleet
        .iter()
        .map(|gw| {
            gateway_reports_seeded(&gw, channel, 0xC0FFEE + gw.id as u64)
                .iter()
                .map(envelope)
                .collect()
        })
        .collect()
}

/// The fleet week gateway-major: whole gateways, one after another.
pub fn fleet_reports(n_gateways: usize, channel: ChannelConfig) -> Vec<IngestReport> {
    gateway_streams(n_gateways, channel).concat()
}

/// The streams interleaved by reporting minute, as a collector delivers
/// them: a stable merge on each stream's next minute, ties going to the
/// earlier stream. Each stream keeps its own order, reordering included.
pub fn merge_by_minute(streams: &[Vec<IngestReport>]) -> Vec<IngestReport> {
    let mut next = vec![0usize; streams.len()];
    let mut heads: BinaryHeap<Reverse<(u32, usize)>> = streams
        .iter()
        .enumerate()
        .filter_map(|(k, s)| s.first().map(|r| Reverse((r.at.0, k))))
        .collect();
    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    while let Some(Reverse((_, k))) = heads.pop() {
        out.push(streams[k][next[k]]);
        next[k] += 1;
        if let Some(r) = streams[k].get(next[k]) {
            heads.push(Reverse((r.at.0, k)));
        }
    }
    out
}
