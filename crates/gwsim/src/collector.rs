//! The measurement pipeline: gateway → central collection server.
//!
//! The paper's deployment has every gateway report per-minute cumulative
//! counters to a central server (>20M reports over two months). Real
//! report streams suffer loss, duplication and delayed delivery; this
//! module simulates that wire and re-assembles the surviving reports with
//! [`CounterTrace`], so the repository exercises the *entire* path from
//! synthetic household behavior to decoded analysis-ready series.

use crate::gateway::{SimDevice, SimGateway};
use crate::rng::chance;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wtts_timeseries::{CounterTrace, Minute, TimeSeries};

/// Loss/duplication/reordering characteristics of the reporting channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Probability that a report never reaches the server.
    pub loss: f64,
    /// Probability that a delivered report is delivered twice (retries).
    pub duplication: f64,
    /// Probability that a delivered report is held back in flight and
    /// arrives a few reports late (out of order).
    pub reorder: f64,
}

impl Default for ChannelConfig {
    fn default() -> ChannelConfig {
        ChannelConfig {
            loss: 0.01,
            duplication: 0.002,
            reorder: 0.001,
        }
    }
}

impl ChannelConfig {
    /// A perfect channel: in-order, exactly-once delivery.
    pub fn lossless() -> ChannelConfig {
        ChannelConfig {
            loss: 0.0,
            duplication: 0.0,
            reorder: 0.0,
        }
    }
}

/// One report as it arrives at the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    /// Reporting minute.
    pub at: Minute,
    /// Cumulative incoming bytes since (re-)association.
    pub cum_in: u64,
    /// Cumulative outgoing bytes since (re-)association.
    pub cum_out: u64,
}

/// Simulates the report stream one device would send: cumulative counters
/// each connected minute, reset at re-association, passed through a lossy
/// channel.
pub fn device_reports(
    device: &SimDevice,
    channel: ChannelConfig,
    rng: &mut impl Rng,
) -> Vec<Report> {
    let mut out = Vec::new();
    let mut cum_in = 0u64;
    let mut cum_out = 0u64;
    let mut was_present = false;
    for (m, (&bi, &bo)) in device
        .incoming
        .values()
        .iter()
        .zip(device.outgoing.values())
        .enumerate()
    {
        let present = bi.is_finite() || bo.is_finite();
        if present {
            if !was_present {
                cum_in = 0;
                cum_out = 0;
            }
            cum_in += bi.max(0.0) as u64;
            cum_out += bo.max(0.0) as u64;
            if !chance(rng, channel.loss) {
                let report = Report {
                    at: Minute(m as u32),
                    cum_in,
                    cum_out,
                };
                out.push(report);
                if chance(rng, channel.duplication) {
                    out.push(report);
                }
            }
        }
        was_present = present;
    }
    inject_reorder(&mut out, channel, rng);
    out
}

/// Holds back a fraction of reports so they arrive a few positions late,
/// simulating delayed in-flight delivery.
fn inject_reorder(reports: &mut Vec<Report>, channel: ChannelConfig, rng: &mut impl Rng) {
    if channel.reorder <= 0.0 {
        return;
    }
    let mut i = 0;
    while i + 1 < reports.len() {
        if chance(rng, channel.reorder) {
            let held = reports.remove(i);
            let delay = rng.gen_range(1..=4usize);
            let dest = (i + delay).min(reports.len());
            reports.insert(dest, held);
            i = dest; // don't re-delay the same report
        }
        i += 1;
    }
}

/// A device report tagged with its origin, as the central collector sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaggedReport {
    /// Gateway the report came from.
    pub gateway: usize,
    /// Device index within the gateway.
    pub device: usize,
    /// The report payload.
    pub report: Report,
}

/// Simulates the full report stream one gateway uploads: every device's
/// reports through the lossy channel, interleaved by reporting minute the
/// way a collector would receive them (per-device order is preserved except
/// where the channel reorders).
pub fn gateway_reports(
    gateway: &SimGateway,
    channel: ChannelConfig,
    rng: &mut impl Rng,
) -> Vec<TaggedReport> {
    let mut streams: Vec<(usize, std::vec::IntoIter<Report>)> = gateway
        .devices
        .iter()
        .enumerate()
        .map(|(device, d)| (device, device_reports(d, channel, rng).into_iter()))
        .collect();
    let mut heads: Vec<(usize, Report)> = Vec::with_capacity(streams.len());
    for (device, stream) in &mut streams {
        if let Some(r) = stream.next() {
            heads.push((*device, r));
        }
    }
    let mut out = Vec::new();
    // K-way merge on the (possibly locally reordered) per-device streams;
    // ties break by device index, matching a round-robin uploader.
    while !heads.is_empty() {
        let (pos, _) = heads
            .iter()
            .enumerate()
            .min_by_key(|(_, (device, r))| (r.at.0, *device))
            .expect("heads is non-empty");
        let (device, report) = heads[pos];
        out.push(TaggedReport {
            gateway: gateway.id,
            device,
            report,
        });
        match streams[device].1.next() {
            Some(next) => heads[pos] = (device, next),
            None => {
                heads.swap_remove(pos);
            }
        }
    }
    out
}

/// [`gateway_reports`] through a channel seeded with `seed`, for callers
/// that keep no generator of their own.
pub fn gateway_reports_seeded(
    gateway: &SimGateway,
    channel: ChannelConfig,
    seed: u64,
) -> Vec<TaggedReport> {
    gateway_reports(gateway, channel, &mut SmallRng::seed_from_u64(seed))
}

/// Ground-truth delivery statistics of a simulated report stream, computed
/// the way a central collector would see it: per-device duplicate and
/// out-of-order arrival counts.
///
/// These are the channel-side mirror of the ingest pipeline's
/// `dropped_duplicate` / `dropped_late` observability counters — comparing
/// the two validates that the pipeline's typed drop accounting reflects
/// what the channel actually did, rather than misclassifying.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Reports in the stream.
    pub reports: usize,
    /// Reports whose (device, minute) was already delivered (channel
    /// duplication).
    pub duplicates: usize,
    /// Non-duplicate reports arriving behind a later-minute report of the
    /// same device (channel reordering).
    pub inversions: usize,
}

/// Computes [`DeliveryStats`] over a tagged report stream.
pub fn delivery_stats(reports: &[TaggedReport]) -> DeliveryStats {
    use std::collections::{HashMap, HashSet};
    let mut seen: HashMap<(usize, usize), (HashSet<u32>, u32)> = HashMap::new();
    let mut stats = DeliveryStats {
        reports: reports.len(),
        ..DeliveryStats::default()
    };
    for t in reports {
        let at = t.report.at.0;
        let (minutes, max) = seen
            .entry((t.gateway, t.device))
            .or_insert_with(|| (HashSet::new(), 0));
        if !minutes.insert(at) {
            stats.duplicates += 1;
        } else if at < *max {
            stats.inversions += 1;
        }
        *max = (*max).max(at);
    }
    stats
}

/// Server-side reassembly: deduplicates and decodes a report stream into
/// the per-minute incoming/outgoing series the analyses consume.
///
/// Duplicates keep the first delivery and counter decreases are treated as
/// re-association resets — both behaviors come from [`CounterTrace`] and
/// match the streaming ingest decoder's classification of the same stream.
/// Out-of-order arrivals (a reordering channel) are dropped rather than
/// fatal: a delayed cumulative report carries no information its successor
/// didn't already deliver. Returns the decoded series and the number of
/// late reports dropped.
pub fn reassemble(reports: &[Report], len_minutes: usize) -> (TimeSeries, TimeSeries, usize) {
    let mut inc = CounterTrace::new();
    let mut out = CounterTrace::new();
    let mut late = 0usize;
    for r in reports {
        if inc.try_push(r.at, r.cum_in).is_err() {
            late += 1;
            continue;
        }
        let _ = out.try_push(r.at, r.cum_out);
    }
    (
        inc.to_per_minute(Minute(0), len_minutes),
        out.to_per_minute(Minute(0), len_minutes),
        late,
    )
}

/// End-to-end fidelity of the pipeline for one device: the fraction of the
/// device's true traffic volume recovered after the lossy channel and
/// decoding.
pub fn recovered_volume_share(device: &SimDevice, decoded_in: &TimeSeries) -> f64 {
    let truth = device.incoming.total();
    if truth <= 0.0 {
        return 1.0;
    }
    decoded_in.total() / truth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;
    use crate::fleet::Fleet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn device() -> SimDevice {
        Fleet::new(FleetConfig {
            n_gateways: 1,
            weeks: 1,
            ..FleetConfig::default()
        })
        .gateway(0)
        .devices
        .remove(0)
    }

    #[test]
    fn lossless_channel_roundtrips_contiguous_minutes() {
        let d = device();
        let mut rng = SmallRng::seed_from_u64(1);
        let reports = device_reports(&d, ChannelConfig::lossless(), &mut rng);
        let (inc, _, late) = reassemble(&reports, d.incoming.len());
        assert_eq!(late, 0, "a lossless channel never delivers late");
        let mut checked = 0usize;
        for m in 1..d.incoming.len() {
            let (prev, cur) = (d.incoming.values()[m - 1], d.incoming.values()[m]);
            if prev.is_finite() && cur.is_finite() {
                let dec = inc.values()[m];
                assert!(dec.is_finite(), "minute {m} lost on a lossless channel");
                assert!(
                    (dec - cur.floor()).abs() <= 1.0,
                    "minute {m}: {dec} vs {cur}"
                );
                checked += 1;
            }
        }
        assert!(checked > 500, "too few contiguous minutes: {checked}");
    }

    #[test]
    fn lossy_channel_loses_little_volume() {
        let d = device();
        let mut rng = SmallRng::seed_from_u64(2);
        let reports = device_reports(&d, ChannelConfig::default(), &mut rng);
        let (inc, _, _) = reassemble(&reports, d.incoming.len());
        let share = recovered_volume_share(&d, &inc);
        // Cumulative counters are loss-tolerant: a missing report's delta is
        // recovered by the next one, so ~1% loss costs ≪ 1% volume (only the
        // tail of each association run can vanish).
        assert!(share > 0.95, "recovered share {share}");
        assert!(share <= 1.001);
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let d = device();
        let mut rng = SmallRng::seed_from_u64(3);
        let heavy_dup = ChannelConfig {
            duplication: 0.5,
            ..ChannelConfig::lossless()
        };
        let reports = device_reports(&d, heavy_dup, &mut rng);
        let (inc, _, _) = reassemble(&reports, d.incoming.len());
        let share = recovered_volume_share(&d, &inc);
        assert!(
            (share - 1.0).abs() < 0.01,
            "duplication inflated volume: {share}"
        );
    }

    #[test]
    fn report_counters_reset_on_reassociation() {
        let d = device();
        let mut rng = SmallRng::seed_from_u64(4);
        let reports = device_reports(&d, ChannelConfig::lossless(), &mut rng);
        // Counters never decrease within a presence run, but must reset
        // (drop) right after a gap if the device was ever absent.
        let mut decreases = 0;
        for pair in reports.windows(2) {
            if pair[1].cum_in < pair[0].cum_in {
                decreases += 1;
                // The decrease must coincide with a reporting gap.
                assert!(pair[1].at.0 > pair[0].at.0 + 1, "reset without a gap");
            }
        }
        // Portables disconnect overnight, so at least one reset is expected
        // for a portable; fixed devices may have none. Just assert sanity.
        let _ = decreases;
    }

    #[test]
    fn reordering_channel_delivers_out_of_order() {
        let d = device();
        let mut rng = SmallRng::seed_from_u64(5);
        let shuffly = ChannelConfig {
            reorder: 0.05,
            ..ChannelConfig::lossless()
        };
        let reports = device_reports(&d, shuffly, &mut rng);
        let inversions = reports
            .windows(2)
            .filter(|pair| pair[1].at < pair[0].at)
            .count();
        assert!(inversions > 0, "5% reorder must produce inversions");
        // Reassembly degrades gracefully: late reports are dropped and
        // counted, and the decoded volume stays close to the truth (a late
        // cumulative report carries nothing its successor didn't).
        let (inc, _, late) = reassemble(&reports, d.incoming.len());
        assert!(late > 0);
        assert!(
            late <= inversions * 4,
            "late={late} inversions={inversions}"
        );
        let share = recovered_volume_share(&d, &inc);
        assert!(share > 0.9, "recovered share {share}");
    }

    #[test]
    fn gateway_reports_interleave_devices() {
        let gw = Fleet::new(FleetConfig {
            n_gateways: 1,
            weeks: 1,
            ..FleetConfig::default()
        })
        .gateway(0);
        let mut rng = SmallRng::seed_from_u64(6);
        let tagged = gateway_reports(&gw, ChannelConfig::lossless(), &mut rng);
        assert!(!tagged.is_empty());
        assert!(tagged.iter().all(|t| t.gateway == gw.id));
        let devices: std::collections::HashSet<usize> = tagged.iter().map(|t| t.device).collect();
        assert!(devices.len() > 1, "expected several devices reporting");
        // Lossless merge is globally time-ordered, and each device's
        // sub-stream is exactly its own report stream.
        assert!(tagged.windows(2).all(|w| w[0].report.at <= w[1].report.at));
        for device in 0..gw.devices.len() {
            let sub: Vec<Report> = tagged
                .iter()
                .filter(|t| t.device == device)
                .map(|t| t.report)
                .collect();
            assert!(sub.windows(2).all(|w| w[0].at < w[1].at));
        }
    }

    #[test]
    fn delivery_stats_reflect_channel_behavior() {
        let gw = Fleet::new(FleetConfig {
            n_gateways: 1,
            weeks: 1,
            ..FleetConfig::default()
        })
        .gateway(0);

        // A lossless channel delivers in order, once.
        let mut rng = SmallRng::seed_from_u64(7);
        let clean = gateway_reports(&gw, ChannelConfig::lossless(), &mut rng);
        let s = delivery_stats(&clean);
        assert_eq!(s.reports, clean.len());
        assert_eq!(s.duplicates, 0);
        assert_eq!(s.inversions, 0);

        // A chaotic channel must surface both duplicates and inversions —
        // the ground truth the ingest pipeline's drop counters classify.
        let mut rng = SmallRng::seed_from_u64(7);
        let chaos = gateway_reports(
            &gw,
            ChannelConfig {
                loss: 0.02,
                duplication: 0.02,
                reorder: 0.02,
            },
            &mut rng,
        );
        let s = delivery_stats(&chaos);
        assert!(s.duplicates > 0, "2% duplication left no duplicates");
        assert!(s.inversions > 0, "2% reorder left no inversions");
    }
}
