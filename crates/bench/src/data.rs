//! Shared data preparation for the experiments: eligibility filters and
//! active-traffic (background-removed) series.

use wtts_core::background::{estimate_tau, remove_background};
use wtts_core::engine::run_grid;
use wtts_gwsim::{Fleet, SimGateway};
use wtts_timeseries::{TimeSeries, MINUTES_PER_DAY, MINUTES_PER_WEEK};

/// Maps every gateway of the fleet through `f` in parallel, preserving
/// gateway-id order in the output: one single-column [`run_grid`] over the
/// gateway ids. Rendering a gateway costs ~100 ms, so fleet-wide
/// experiments gain nearly a core-count speedup.
pub fn fleet_map<R, F>(fleet: &Fleet, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(SimGateway) -> R + Sync,
{
    run_grid(fleet.len(), 1, None, |id, _, _| f(fleet.gateway(id)))
        .into_iter()
        .flatten()
        .collect()
}

/// Truncates a per-minute series to the first `weeks` weeks.
pub fn first_weeks(series: &TimeSeries, weeks: u32) -> TimeSeries {
    series.slice(
        wtts_timeseries::Minute::ZERO,
        (weeks * MINUTES_PER_WEEK) as usize,
    )
}

/// Whether the series has at least one observation in every one of the
/// first `weeks` weeks — the paper's filter for weekly analyses
/// ("all the user gateways that have at least one traffic observation every
/// week").
pub fn observed_every_week(series: &TimeSeries, weeks: u32) -> bool {
    let per_week = MINUTES_PER_WEEK as usize;
    (0..weeks as usize).all(|w| {
        let lo = w * per_week;
        series.values()[lo.min(series.len())..((w + 1) * per_week).min(series.len())]
            .iter()
            .any(|v| v.is_finite())
    })
}

/// Whether the series has at least one observation on every one of the
/// first `weeks * 7` days — the filter for daily analyses.
pub fn observed_every_day(series: &TimeSeries, weeks: u32) -> bool {
    let per_day = MINUTES_PER_DAY as usize;
    (0..(weeks * 7) as usize).all(|d| {
        let lo = d * per_day;
        series.values()[lo.min(series.len())..((d + 1) * per_day).min(series.len())]
            .iter()
            .any(|v| v.is_finite())
    })
}

/// The gateway's *active* overall traffic: per-device background removal
/// (Section 6.1) followed by summation.
///
/// Each device's in/out series gets its own boxplot-whisker threshold
/// (capped at 5 kB/min); values below are zeroed, then all devices sum into
/// the gateway series.
pub fn active_total(gateway: &SimGateway) -> TimeSeries {
    let cleaned: Vec<TimeSeries> = gateway
        .devices
        .iter()
        .map(|d| {
            let tau_in = estimate_tau(&d.incoming).unwrap_or(f64::INFINITY);
            let tau_out = estimate_tau(&d.outgoing).unwrap_or(f64::INFINITY);
            let inc = remove_background(&d.incoming, tau_in);
            let out = remove_background(&d.outgoing, tau_out);
            inc.add(&out)
        })
        .collect();
    TimeSeries::sum_all(cleaned.iter()).expect("gateway has devices")
}

/// Raw (background included) overall traffic of the gateway, truncated to
/// `weeks` weeks.
pub fn raw_total(gateway: &SimGateway, weeks: u32) -> TimeSeries {
    first_weeks(&gateway.aggregate_total(), weeks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::{Fleet, FleetConfig};
    use wtts_timeseries::Minute;

    #[test]
    fn weekly_observation_filter() {
        let week = MINUTES_PER_WEEK as usize;
        let mut v = vec![f64::NAN; 2 * week];
        v[10] = 1.0;
        v[week + 10] = 1.0;
        let s = TimeSeries::per_minute(v.clone());
        assert!(observed_every_week(&s, 2));
        // Remove the week-1 observation: filter fails.
        v[week + 10] = f64::NAN;
        let s = TimeSeries::per_minute(v);
        assert!(!observed_every_week(&s, 2));
    }

    #[test]
    fn daily_observation_filter() {
        let day = MINUTES_PER_DAY as usize;
        let mut v = vec![1.0; 14 * day];
        let s = TimeSeries::per_minute(v.clone());
        assert!(observed_every_day(&s, 2));
        for x in &mut v[3 * day..4 * day] {
            *x = f64::NAN;
        }
        let s = TimeSeries::per_minute(v);
        assert!(!observed_every_day(&s, 2));
    }

    #[test]
    fn first_weeks_truncates() {
        let s = TimeSeries::per_minute(vec![1.0; 2 * MINUTES_PER_WEEK as usize]);
        let t = first_weeks(&s, 1);
        assert_eq!(t.len(), MINUTES_PER_WEEK as usize);
        assert_eq!(t.start(), Minute::ZERO);
    }

    #[test]
    fn fleet_map_preserves_order_and_coverage() {
        let fleet = Fleet::new(FleetConfig::small());
        let ids = fleet_map(&fleet, |gw| gw.id);
        assert_eq!(ids, (0..fleet.len()).collect::<Vec<_>>());
        // Results match sequential computation.
        let seq: Vec<usize> = fleet.iter().map(|gw| gw.devices.len()).collect();
        let par = fleet_map(&fleet, |gw| gw.devices.len());
        assert_eq!(seq, par);
    }

    #[test]
    fn active_total_reduces_mass_keeps_peaks() {
        let fleet = Fleet::new(FleetConfig::small());
        let gw = fleet.gateway(0);
        let raw = gw.aggregate_total();
        let active = active_total(&gw);
        assert_eq!(raw.len(), active.len());
        assert!(active.total() < raw.total(), "background mass removed");
        // The largest active peak survives (it is way above any whisker).
        let raw_max = raw.max().unwrap();
        let active_max = active.max().unwrap();
        assert!(active_max > raw_max * 0.5, "peaks survive removal");
    }
}
