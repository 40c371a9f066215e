//! The batch tier: per-device counter logs decoded and taken through the
//! paper's analyses with the paper's configurations.
//!
//! Per gateway: decode (collector), background removal, series arithmetic,
//! and φ = 0.6 dominance. Over the fleet: the weekly Fig-6 sweep grid and
//! the daily sweep, daily (3 h) and weekly (8 h from 2 am) motifs over the
//! active (background-removed) totals, and a lag search over the raw
//! totals at 30 m / 1 h / 2 h scales with L = 24 and φ = 0.25.
//! Eligibility uses the experiments' filters: weekly analyses need an
//! observation in every week, daily ones on every day.

use crate::trace::Tracer;
use crate::workload::DeviceLog;
use wtts_bench::data::{observed_every_day, observed_every_week};
use wtts_core::background::{estimate_tau, remove_background};
use wtts_core::dominance::{dominant_devices, DOMINANCE_PHI};
use wtts_core::lagsearch::{lag_search, LagPruneStats, LagSearchConfig};
use wtts_core::motif::{discover_motifs_indexed, Motif, MotifConfig, MotifIndex, WindowRef};
use wtts_core::obs::PipelineObs;
use wtts_core::sweep::{daily_sweep, weekly_sweep, SweepConfig};
use wtts_gwsim::reassemble;
use wtts_timeseries::{
    aggregate, daily_windows, weekly_windows, Granularity, Minute, TimeSeries, MINUTES_PER_WEEK,
};

/// Thread count for every analysis that takes one.
pub const THREADS: usize = 2;

/// Work counts of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub reports: u64,
    pub late_dropped: u64,
    pub silent_gateways: u64,
    pub devices: u64,
    pub sweep_cells: u64,
    pub stationary_cells: u64,
    pub eligible_windows: u64,
    pub motifs: u64,
    pub dominance_devices: u64,
    pub dominants: u64,
}

/// The results of one pass: what the digest covers, plus counts and checks.
#[derive(Debug, Clone)]
pub struct Outputs {
    /// Daily then weekly motifs, each member as its window identity.
    pub motifs: Vec<Vec<WindowRef>>,
    /// Dominant device ids per dominance-eligible gateway, best first.
    pub dominants: Vec<(usize, Vec<u32>)>,
    /// Per sweep-eligible gateway, the best weekly and best daily
    /// candidate index (`None` when no cell scored).
    pub best_cells: Vec<(usize, Option<usize>, Option<usize>)>,
    /// Top five (leader, follower, lag in bins) per lag-search scale.
    pub leads: Vec<(usize, usize, i64)>,
    pub lag: LagPruneStats,
    pub counts: Counts,
    /// Every decoded series spans the run's minutes with no negative value.
    pub series_ok: bool,
}

fn spans_run(series: &TimeSeries, len: usize) -> bool {
    series.start() == Minute::ZERO
        && series.step_minutes() == 1
        && series.len() == len
        && series.values().iter().all(|&v| v.is_nan() || v >= 0.0)
}

/// The Fig-6 weekly grid: every weekly candidate from midnight, and the
/// hour-or-coarser ones from 2 am and 3 am.
fn fig6_grid() -> Vec<(Granularity, u32)> {
    let mut grid = Vec::new();
    for offset in [0u32, 120, 180] {
        for &g in Granularity::weekly_candidates() {
            if g.as_minutes() >= 60 || offset == 0 {
                grid.push((g, offset));
            }
        }
    }
    grid
}

/// Calendar windows of each series, binned at `g` from `offset`.
fn motif_windows(
    ids: &[usize],
    series: &[TimeSeries],
    weeks: u32,
    g: Granularity,
    offset: u32,
    daily: bool,
) -> (Vec<WindowRef>, Vec<Vec<f64>>) {
    let mut refs = Vec::new();
    let mut windows = Vec::new();
    for (&gateway, s) in ids.iter().zip(series) {
        let agg = aggregate(s, g, offset);
        let cut = if daily {
            daily_windows(&agg, weeks, offset)
        } else {
            weekly_windows(&agg, weeks, offset)
        };
        for w in cut {
            refs.push(WindowRef {
                gateway,
                week: w.week,
                weekday: w.weekday,
            });
            windows.push(w.series.into_values());
        }
    }
    (refs, windows)
}

fn best(scores: impl Iterator<Item = Option<f64>>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (k, s) in scores.enumerate() {
        if let Some(s) = s {
            if best.is_none_or(|(_, b)| s > b) {
                best = Some((k, s));
            }
        }
    }
    best.map(|(k, _)| k)
}

/// Runs the batch tier over `logs` (one list per gateway). `obs`, when
/// given, is passed to motif discovery for its prune counters.
pub fn analyse(
    logs: &[Vec<DeviceLog>],
    weeks: u32,
    t: &mut Tracer,
    obs: Option<&PipelineObs>,
) -> Outputs {
    let len = weeks as usize * MINUTES_PER_WEEK as usize;
    let mut counts = Counts::default();
    let mut series_ok = true;
    let mut active: Vec<(usize, TimeSeries)> = Vec::new();
    let mut raw: Vec<(usize, TimeSeries)> = Vec::new();
    let mut dominants = Vec::new();

    for (gateway, devices) in logs.iter().enumerate() {
        // Per device: decode, remove background, and sum both directions;
        // the decoded pair is dropped once both results exist.
        let mut cleaned = Vec::with_capacity(devices.len());
        let mut device_totals = Vec::with_capacity(devices.len());
        for d in devices {
            let (inc, out, late) = t.span("collector", |_| reassemble(&d.reports, len));
            counts.reports += d.reports.len() as u64;
            counts.late_dropped += late as u64;
            series_ok &= spans_run(&inc, len) && spans_run(&out, len);
            cleaned.push(t.span("background", |_| {
                let tau_in = estimate_tau(&inc).unwrap_or(f64::INFINITY);
                let tau_out = estimate_tau(&out).unwrap_or(f64::INFINITY);
                remove_background(&inc, tau_in).add(&remove_background(&out, tau_out))
            }));
            device_totals.push(t.span("windows", |_| inc.add(&out)));
        }
        let sums = t.span("windows", |_| {
            TimeSeries::sum_all(device_totals.iter()).zip(TimeSeries::sum_all(cleaned.iter()))
        });
        // A gateway that sent no report has no device series to sum.
        let Some((raw_total, active_total)) = sums else {
            counts.silent_gateways += 1;
            continue;
        };
        counts.devices += devices.len() as u64;
        if observed_every_week(&raw_total, weeks) {
            let found = t.span("dominance", |_| {
                dominant_devices(&raw_total, &device_totals, DOMINANCE_PHI)
            });
            counts.dominance_devices += device_totals.len() as u64;
            counts.dominants += found.len() as u64;
            dominants.push((
                gateway,
                found.iter().map(|d| devices[d.device].device).collect(),
            ));
            raw.push((gateway, raw_total));
        }
        active.push((gateway, active_total));
    }

    let (weekly_ids, weekly): (Vec<usize>, Vec<TimeSeries>) = active
        .into_iter()
        .filter(|(_, s)| observed_every_week(s, weeks))
        .unzip();
    let (daily_ids, daily): (Vec<usize>, Vec<TimeSeries>) = weekly_ids
        .iter()
        .zip(&weekly)
        .filter(|(_, s)| observed_every_day(s, weeks))
        .map(|(&id, s)| (id, s.clone()))
        .unzip();

    let sweep = SweepConfig {
        threads: Some(THREADS),
    };
    let weekly_cells = t.span("sweep", |_| {
        weekly_sweep(&weekly, weeks, &fig6_grid(), &sweep, None)
    });
    let daily_cells = t.span("sweep", |_| {
        daily_sweep(
            &daily,
            weeks,
            Granularity::daily_candidates(),
            0,
            &sweep,
            None,
        )
    });
    for row in &weekly_cells.cells {
        counts.sweep_cells += row.len() as u64;
        counts.stationary_cells += row
            .iter()
            .filter(|c| c.stationarity.is_some_and(|s| s.is_stationary()))
            .count() as u64;
    }
    for row in &daily_cells.cells {
        counts.sweep_cells += row.len() as u64;
        counts.stationary_cells += row
            .iter()
            .filter(|c| c.stationary_weekday_count() > 0)
            .count() as u64;
    }
    let mut best_cells: Vec<(usize, Option<usize>, Option<usize>)> = weekly_ids
        .iter()
        .zip(&weekly_cells.cells)
        .map(|(&id, row)| {
            let w = best(row.iter().map(|c| c.score.map(|s| s.mean_correlation)));
            (id, w, None)
        })
        .collect();
    for (&id, row) in daily_ids.iter().zip(&daily_cells.cells) {
        let d = best(row.iter().map(|c| c.score.map(|s| s.mean_correlation)));
        if let Some(slot) = best_cells.iter_mut().find(|(g, _, _)| *g == id) {
            slot.2 = d;
        }
    }

    let config = MotifConfig::default();
    let mut motifs = Vec::new();
    for (ids, series, g, offset, is_daily) in [
        (&daily_ids, &daily, Granularity::hours(3), 0, true),
        (&weekly_ids, &weekly, Granularity::hours(8), 120, false),
    ] {
        let (refs, windows) = t.span("windows", |_| {
            motif_windows(ids, series, weeks, g, offset, is_daily)
        });
        let index = t.span("motif.index", |_| {
            MotifIndex::observed(&windows, config.min_observations, obs)
        });
        let found: Vec<Motif> = t.span("motif.discover", |_| {
            discover_motifs_indexed(&index, &config, obs)
        });
        counts.eligible_windows += index.n_eligible() as u64;
        counts.motifs += found.len() as u64;
        motifs.extend(
            found
                .iter()
                .map(|m| m.members.iter().map(|&i| refs[i]).collect::<Vec<_>>()),
        );
    }

    let (lag_ids, lag_series): (Vec<usize>, Vec<TimeSeries>) = raw.into_iter().unzip();
    let lag_config = LagSearchConfig {
        scales: vec![
            Granularity::minutes(30),
            Granularity::hours(1),
            Granularity::hours(2),
        ],
        max_lag_bins: 24,
        phi: 0.25,
        threads: Some(THREADS),
        ..LagSearchConfig::default()
    };
    let lags = t.span("lagsearch", |_| lag_search(&lag_series, &lag_config, None));
    let leads = (0..lags.scales.len())
        .flat_map(|s| lags.top_leads(s, 5))
        .map(|l| (lag_ids[l.leader], lag_ids[l.follower], l.lag_bins))
        .collect();

    Outputs {
        motifs,
        dominants,
        best_cells,
        leads,
        lag: lags.stats,
        counts,
        series_ok,
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Outputs {
    /// FNV-1a over motif memberships, dominant sets, best sweep cells and
    /// top leads.
    pub fn digest(&self, h: &mut Fnv) {
        h.word(self.motifs.len() as u64);
        for m in &self.motifs {
            h.word(m.len() as u64);
            for r in m {
                h.word(r.gateway as u64);
                h.word(r.week as u64);
                h.word(r.weekday.map_or(7, |d| d.index() as u64));
            }
        }
        h.word(self.dominants.len() as u64);
        for (gateway, devices) in &self.dominants {
            h.word(*gateway as u64);
            h.word(devices.len() as u64);
            devices.iter().for_each(|&d| h.word(d as u64));
        }
        for &(gateway, w, d) in &self.best_cells {
            h.word(gateway as u64);
            h.word(w.map_or(u64::MAX, |k| k as u64));
            h.word(d.map_or(u64::MAX, |k| k as u64));
        }
        for &(leader, follower, lag) in &self.leads {
            h.word(leader as u64);
            h.word(follower as u64);
            h.word(lag as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{setup, workload};

    #[test]
    fn gateways_without_reports_are_skipped_and_counted() {
        let w = workload("wide", true).expect("wide workload");
        let mut logs = setup(&w, 1).logs;
        let reporting = logs.iter().filter(|g| !g.is_empty()).count();
        assert!(reporting >= 2, "the smoke fleet has reporting gateways");
        // Silence two gateways entirely, as a flaky-week gateway is in a
        // one-week run.
        logs[0].clear();
        logs[3].clear();
        let silent = logs.iter().filter(|g| g.is_empty()).count() as u64;
        let out = analyse(&logs, w.weeks, &mut Tracer::new(false), None);
        assert_eq!(out.counts.silent_gateways, silent);
        assert!(out.series_ok);
        assert!(out.lag.conserved());
        assert!(out.dominants.iter().all(|(g, _)| !logs[*g].is_empty()));

        // A fleet that sent nothing at all still completes.
        let none = vec![Vec::new(); 3];
        let out = analyse(&none, 1, &mut Tracer::new(false), None);
        assert_eq!(out.counts.silent_gateways, 3);
        assert!(out.motifs.is_empty() && out.leads.is_empty());
    }

    #[test]
    fn digest_covers_the_outputs() {
        let w = workload("paper", true).expect("paper workload");
        let inputs = setup(&w, 2);
        let digest = |o: &Outputs| {
            let mut h = Fnv::default();
            o.digest(&mut h);
            h.0
        };
        let a = analyse(&inputs.logs, w.weeks, &mut Tracer::new(false), None);
        let b = analyse(&inputs.logs, w.weeks, &mut Tracer::new(true), None);
        assert_eq!(digest(&a), digest(&b), "tracing does not change results");
        let mut c = a.clone();
        c.best_cells.push((99, Some(1), None));
        assert_ne!(digest(&a), digest(&c));
    }
}
