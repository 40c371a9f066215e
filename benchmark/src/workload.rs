//! The four workloads and their set-up: a simulated fleet, its counter
//! reports through the channel, and the motif templates the ingest tier
//! matches against.
//!
//! The household population of each workload is fixed; `--seed` drives the
//! channel: which reports are lost, duplicated or delayed. Fleets drawn
//! from different population seeds differ by ±8% in report volume, which
//! would bury a regression in the spread between seeds.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use wtts_core::ingest::IngestReport;
use wtts_core::motif::{discover_motifs, MotifConfig};
use wtts_core::streaming::MotifTemplate;
use wtts_gwsim::{gateway_reports, ChannelConfig, Fleet, FleetConfig, Report, TaggedReport};
use wtts_timeseries::{aggregate, daily_windows, Granularity};

/// The paper deployment's population seed, shared by every workload.
const POPULATION_SEED: u64 = 0x5EED_2014_0317;

/// One workload: a fleet shape and the channel its reports cross.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub gateways: usize,
    pub weeks: u32,
    pub channel: ChannelConfig,
}

/// The lossy, duplicating, reordering channel of the `stream` workload.
const LOSSY: ChannelConfig = ChannelConfig {
    loss: 0.02,
    duplication: 0.01,
    reorder: 0.01,
};

/// Workload names in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["stream", "paper", "wide", "long"];

/// The named workload at benchmark size, or at smoke size (a few gateways,
/// for tests and `--smoke`).
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let paper = ChannelConfig::default();
    let (gateways, weeks, channel) = match (name, smoke) {
        ("stream", false) => (48, 1, LOSSY),
        ("paper", false) => (12, 4, paper),
        ("wide", false) => (64, 1, paper),
        ("long", false) => (3, 12, paper),
        ("stream", true) => (6, 1, LOSSY),
        ("paper", true) => (3, 2, paper),
        ("wide", true) => (8, 1, paper),
        ("long", true) => (2, 3, paper),
        _ => return None,
    };
    Some(Workload {
        name: NAMES.into_iter().find(|n| *n == name)?,
        gateways,
        weeks,
        channel,
    })
}

/// One device's reports as the collector received them, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLog {
    pub device: u32,
    pub reports: Vec<Report>,
}

/// Everything a run feeds the system.
#[derive(Debug)]
pub struct Inputs {
    pub weeks: u32,
    /// All gateways' reports interleaved by reporting minute, as the ingest
    /// tier receives them.
    pub stream: Vec<IngestReport>,
    /// The same reports split per gateway and device (an empty list for a
    /// gateway that sent nothing), as the batch tier reads them.
    pub logs: Vec<Vec<DeviceLog>>,
    pub templates: Vec<MotifTemplate>,
    /// The crash drill kills its durable run after this many offered
    /// reports.
    pub kill_after: u64,
}

/// Where the crash drill kills its run, as a share of the stream. A share
/// drawn from the seed would make the resumed work, and so `catchup_s`,
/// differ by ±20% between seeds; the seed still moves the crash relative
/// to the snapshot cadence, because it changes the stream's length.
const KILL_AT: f64 = 0.55;

/// SplitMix64 finaliser: decorrelates derived seeds.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Renders the fleet, sends every gateway's reports through the channel,
/// and learns motif templates from a separate training fleet, as
/// `examples/fleet_ingest.rs` does.
pub fn setup(w: &Workload, seed: u64) -> Inputs {
    let fleet = Fleet::new(FleetConfig {
        n_gateways: w.gateways,
        weeks: w.weeks,
        seed: POPULATION_SEED,
        ..FleetConfig::default()
    });
    let logs: Vec<Vec<DeviceLog>> = fleet
        .iter()
        .map(|gw| {
            let mut rng = SmallRng::seed_from_u64(mix(seed, gw.id as u64));
            demux(&gateway_reports(&gw, w.channel, &mut rng))
        })
        .collect();
    let stream = interleave(&logs);
    Inputs {
        weeks: w.weeks,
        kill_after: ((stream.len() as f64 * KILL_AT) as u64).max(1),
        stream,
        logs,
        templates: learn_templates(),
    }
}

/// Splits one gateway's stream into per-device logs, in device order.
fn demux(reports: &[TaggedReport]) -> Vec<DeviceLog> {
    let mut by_device: BTreeMap<usize, Vec<Report>> = BTreeMap::new();
    for t in reports {
        by_device.entry(t.device).or_default().push(t.report);
    }
    by_device
        .into_iter()
        .map(|(device, reports)| DeviceLog {
            device: device as u32,
            reports,
        })
        .collect()
}

/// Merges every device log by reporting minute, ties broken by gateway then
/// device. Within a gateway this is the order `gateway_reports` delivers
/// in, so each device's own order (and the channel's reordering) is kept.
fn interleave(logs: &[Vec<DeviceLog>]) -> Vec<IngestReport> {
    let devices: Vec<(u64, &DeviceLog)> = logs
        .iter()
        .enumerate()
        .flat_map(|(g, gw)| gw.iter().map(move |d| (g as u64, d)))
        .collect();
    let mut next = vec![0usize; devices.len()];
    let mut heads: BinaryHeap<Reverse<(u32, usize)>> = devices
        .iter()
        .enumerate()
        .filter_map(|(k, (_, d))| d.reports.first().map(|r| Reverse((r.at.0, k))))
        .collect();
    let mut out = Vec::with_capacity(devices.iter().map(|(_, d)| d.reports.len()).sum());
    while let Some(Reverse((_, k))) = heads.pop() {
        let (gateway, d) = devices[k];
        let r = d.reports[next[k]];
        out.push(IngestReport {
            gateway,
            device: d.device,
            at: r.at,
            cum_in: r.cum_in,
            cum_out: r.cum_out,
        });
        next[k] += 1;
        if let Some(r) = d.reports.get(next[k]) {
            heads.push(Reverse((r.at.0, k)));
        }
    }
    out
}

/// Daily 3-hour motif templates with support ≥ 4 from a fixed training
/// fleet of 12 gateways × 2 weeks.
fn learn_templates() -> Vec<MotifTemplate> {
    let training = Fleet::new(FleetConfig {
        n_gateways: 12,
        weeks: 2,
        seed: mix(POPULATION_SEED, 1),
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
        .filter(|m| m.support() >= 4)
        .enumerate()
        .map(|(k, m)| m.to_template(format!("motif-{}", k + 1), &windows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists_at_both_sizes() {
        for name in NAMES {
            assert_eq!(workload(name, false).map(|w| w.name), Some(name));
            assert_eq!(workload(name, true).map(|w| w.name), Some(name));
        }
        assert!(workload("nope", false).is_none());
    }

    #[test]
    fn setup_is_deterministic_and_consistent() {
        let w = workload("stream", true).expect("stream workload");
        let a = setup(&w, 3);
        let b = setup(&w, 3);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.logs, b.logs);
        assert_eq!(a.kill_after, b.kill_after);
        assert_ne!(setup(&w, 4).stream, a.stream, "the seed drives the channel");

        // The stream and the logs hold the same reports.
        let logged: usize = a.logs.iter().flatten().map(|d| d.reports.len()).sum();
        assert_eq!(logged, a.stream.len());
        assert!(a.kill_after > 0 && a.kill_after < a.stream.len() as u64);
        // Each gateway's reports arrive in the order the channel delivered
        // them, and the fleet's streams interleave by reporting minute.
        let fleet = Fleet::new(FleetConfig {
            n_gateways: w.gateways,
            weeks: w.weeks,
            seed: POPULATION_SEED,
            ..FleetConfig::default()
        });
        let g = a
            .logs
            .iter()
            .position(|l| !l.is_empty())
            .expect("a gateway reported");
        let gw = fleet.gateway(g);
        let mut rng = SmallRng::seed_from_u64(mix(3, g as u64));
        let sent: Vec<(u32, Report)> = gateway_reports(&gw, w.channel, &mut rng)
            .iter()
            .map(|t| (t.device as u32, t.report))
            .collect();
        let received: Vec<(u32, Report)> = a
            .stream
            .iter()
            .filter(|r| r.gateway == g as u64)
            .map(|r| {
                let report = Report {
                    at: r.at,
                    cum_in: r.cum_in,
                    cum_out: r.cum_out,
                };
                (r.device, report)
            })
            .collect();
        assert_eq!(sent, received);
        let inversions = a.stream.windows(2).filter(|p| p[1].at < p[0].at).count();
        assert!(inversions < a.stream.len() / 20);
        assert!(!a.templates.is_empty());
    }
}
