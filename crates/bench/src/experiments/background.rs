//! Figure 4 and §6.1: per-device background thresholds, and the §6.1/§7
//! stationarity gain from removing background traffic.

use crate::data::{active_total, first_weeks, observed_every_week, raw_total};
use crate::report::{pct, Table};
use std::collections::HashMap;
use std::path::Path;
use wtts_core::background::{estimate_tau, TauGroup};
use wtts_core::sweep::weekly_cell;
use wtts_devid::DeviceType;
use wtts_gwsim::Fleet;
use wtts_stats::histogram;
use wtts_timeseries::Granularity;

/// Figure 4: the distribution of the background threshold τ across devices,
/// per direction, plus the τ-group versus device-type association.
pub fn fig4(fleet: &Fleet, out: Option<&Path>) {
    let mut taus_in = Vec::new();
    let mut taus_out = Vec::new();
    // (inferred type, group) counts.
    let mut group_by_type: HashMap<(DeviceType, TauGroup), usize> = HashMap::new();
    let mut devices = 0usize;
    for gw in fleet.iter() {
        for d in &gw.devices {
            let inc = first_weeks(&d.incoming, 4);
            let outg = first_weeks(&d.outgoing, 4);
            // Only devices with a meaningful observation history (the paper
            // studied 934 devices over four weeks).
            if inc.observed_count() < 500 {
                continue;
            }
            let (Some(ti), Some(to)) = (estimate_tau(&inc), estimate_tau(&outg)) else {
                continue;
            };
            devices += 1;
            taus_in.push(ti);
            taus_out.push(to);
            let group = TauGroup::of(ti.max(to));
            *group_by_type.entry((d.inferred_type(), group)).or_insert(0) += 1;
        }
    }

    for (name, taus) in [("incoming", &taus_in), ("outgoing", &taus_out)] {
        let h = histogram(taus, 0.0, 50_000.0, 10);
        let mut t = Table::new(
            &format!("Fig 4 - distribution of tau ({name})"),
            &["tau bin (B/min)", "devices"],
        );
        for (edge, count) in h.bins() {
            t.row(&[
                format!("{:.0}-{:.0}", edge, edge + h.width),
                count.to_string(),
            ]);
        }
        t.row(&[">= 50000".into(), h.overflow.to_string()]);
        t.emit(out);
        let below_5k = taus.iter().filter(|&&x| x <= 5_000.0).count();
        let above_40k = taus.iter().filter(|&&x| x > 40_000.0).count();
        println!(
            "{name}: {} devices, {} below 5 kB/min ({}), {} above 40 kB/min\n",
            taus.len(),
            below_5k,
            pct(below_5k as f64 / taus.len().max(1) as f64),
            above_40k
        );
    }

    let mut t = Table::new(
        "Sec 6.1 - tau group by inferred device type",
        &["type", "small", "medium", "large"],
    );
    for ty in DeviceType::ALL {
        let get = |g: TauGroup| {
            group_by_type
                .get(&(ty, g))
                .copied()
                .unwrap_or(0)
                .to_string()
        };
        t.row(&[
            ty.label().to_string(),
            get(TauGroup::Small),
            get(TauGroup::Medium),
            get(TauGroup::Large),
        ]);
    }
    t.emit(out);
    println!("{devices} devices with enough observations\n");
}

/// §6.1 / §7 lead-in: the share of strongly stationary gateways (weekly
/// windows, 3-hour binning) before and after background removal — the paper
/// reports 7% → 11%.
pub fn sec6_background_gain(fleet: &Fleet, out: Option<&Path>) {
    let weeks = 4;
    let g = Granularity::hours(3);
    let mut eligible = 0usize;
    // (cor passes, KS passes, both) per variant.
    let mut raw_counts = (0usize, 0usize, 0usize);
    let mut active_counts = (0usize, 0usize, 0usize);
    for gw in fleet.iter() {
        let raw = raw_total(&gw, weeks);
        if !observed_every_week(&raw, weeks) {
            continue;
        }
        eligible += 1;
        for (series, counts) in [
            (raw, &mut raw_counts),
            (first_weeks(&active_total(&gw), weeks), &mut active_counts),
        ] {
            if let Some(c) = weekly_cell(&series, weeks, g, 0, true, None).stationarity {
                if c.correlations_pass {
                    counts.0 += 1;
                }
                if !c.ks_rejected {
                    counts.1 += 1;
                }
                if c.is_stationary() {
                    counts.2 += 1;
                }
            }
        }
    }
    let mut t = Table::new(
        "Sec 6.1 - stationary gateways before/after background removal",
        &["variant", "cor passes", "KS passes", "stationary", "share"],
    );
    for (name, counts) in [
        ("raw traffic", raw_counts),
        ("active traffic", active_counts),
    ] {
        t.row(&[
            name.into(),
            counts.0.to_string(),
            counts.1.to_string(),
            counts.2.to_string(),
            pct(counts.2 as f64 / eligible.max(1) as f64),
        ]);
    }
    t.emit(out);
    println!("{eligible} gateways eligible (>=1 observation each of {weeks} weeks); binning {g}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::FleetConfig;

    #[test]
    fn fig4_runs_on_small_fleet() {
        let fleet = Fleet::new(FleetConfig::small());
        fig4(&fleet, None);
    }
}
