//! Multi-scale lead/lag discovery across gateway pairs (Section 4.2 /
//! Figure 2, generalized): instead of reading one CCF plot for one pair at
//! one granularity, sweep every pair of the densest gateways over a whole
//! scale × lag grid and report the strongest lead/lag relations per scale,
//! a Fig-2-style correlogram for the top pair, and the prune accounting of
//! the engine that made the grid affordable.

use crate::data::first_weeks;
use crate::experiments::standard::most_observed_gateways;
use crate::report::{fmt, pct, Table};
use std::path::Path;
use wtts_core::lagsearch::{lag_search, LagCell, LagSearchConfig};
use wtts_core::PipelineObs;
use wtts_gwsim::Fleet;
use wtts_timeseries::{Granularity, TimeSeries};

/// How many gateways enter the pairwise grid and how many leads to print.
const GATEWAYS: usize = 10;
const TOP_K: usize = 5;

/// The reporting threshold: relations below it are uninteresting for the
/// lead/lag reading, which is what lets the engine prune their cells.
const PHI: f64 = 0.25;

pub fn lag_search_experiment(fleet: &Fleet, out: Option<&Path>) {
    let ids = most_observed_gateways(fleet, GATEWAYS);
    let series: Vec<TimeSeries> = ids
        .iter()
        .map(|&id| first_weeks(&fleet.gateway(id).aggregate_total(), 2))
        .collect();
    let config = LagSearchConfig {
        scales: vec![
            Granularity::minutes(30),
            Granularity::hours(1),
            Granularity::hours(2),
        ],
        max_lag_bins: 24,
        phi: PHI,
        ..LagSearchConfig::default()
    };
    let obs = PipelineObs::new();
    let result = lag_search(&series, &config, Some(&obs));
    println!(
        "{} gateways -> {} pairs x {} scales, phi = {PHI}: {} cells, {} evaluated exactly",
        ids.len(),
        result.pairs.len(),
        result.scales.len(),
        result.stats.cells_total,
        result.stats.evaluated,
    );

    // Top lead/lag relations per scale.
    let mut t = Table::new(
        "Lag search - strongest lead/lag relations per scale",
        &[
            "scale", "leader", "follower", "lead_min", "ccf", "n_pairs", "signif",
        ],
    );
    let mut top_pair: Option<(usize, usize, f64)> = None;
    for (s, &scale) in result.scales.iter().enumerate() {
        for lead in result.top_leads(s, TOP_K) {
            t.row(&[
                format!("{}m", scale.as_minutes()),
                format!("#{}", ids[lead.leader]),
                format!("#{}", ids[lead.follower]),
                lead.lead_minutes.to_string(),
                fmt(lead.value, 3),
                lead.n_pairs.to_string(),
                lead.significant.to_string(),
            ]);
            let p = result
                .pairs
                .iter()
                .position(|&pr| pr == lead.pair)
                .expect("reported pair is in the grid");
            if top_pair.is_none_or(|(_, _, v)| lead.value > v) {
                top_pair = Some((p, s, lead.value));
            }
        }
    }
    if t.is_empty() {
        println!("no pair clears phi = {PHI} at any scale");
    }
    t.emit(out);

    // Fig-2-style correlogram of the overall strongest pair.
    if let Some((p, s, _)) = top_pair {
        let (i, j) = result.pairs[p];
        let scale = result.scales[s];
        let l = result.lag_bins_by_scale[s] as i64;
        let cells = result.grid[p][s]
            .cells
            .as_ref()
            .expect("the top pair has a live correlogram");
        let mut t = Table::new(
            &format!(
                "Lag search - CCF of #{} vs #{} at {}m (pruned cells are provably < phi)",
                ids[i],
                ids[j],
                scale.as_minutes()
            ),
            &["lag_bins", "lag_min", "ccf", "n_pairs"],
        );
        for (idx, cell) in cells.iter().enumerate() {
            let lag = idx as i64 - l;
            if lag % 4 != 0 {
                continue;
            }
            let (value, n_pairs) = match *cell {
                LagCell::Exact { value, n_pairs } => (fmt(value, 3), n_pairs.to_string()),
                LagCell::Pruned => (format!("< {PHI}"), "-".into()),
            };
            t.row(&[
                lag.to_string(),
                (lag * scale.as_minutes() as i64).to_string(),
                value,
                n_pairs,
            ]);
        }
        t.emit(out);
    }

    // Prune accounting: how the grid was paid for, and the conservation
    // law that says no cell was silently dropped.
    let stats = result.stats;
    let snap = obs.snapshot();
    let mut t = Table::new(
        "Lag search - cell accounting",
        &["bucket", "cells", "share"],
    );
    let share = |n: u64| {
        if stats.cells_total == 0 {
            pct(0.0)
        } else {
            pct(n as f64 / stats.cells_total as f64)
        }
    };
    t.row(&[
        "degenerate side".into(),
        stats.pruned_degenerate.to_string(),
        share(stats.pruned_degenerate),
    ]);
    t.row(&[
        "sketch bound (lag 0)".into(),
        stats.pruned_sketch.to_string(),
        share(stats.pruned_sketch),
    ]);
    t.row(&[
        "energy bound".into(),
        stats.pruned_energy.to_string(),
        share(stats.pruned_energy),
    ]);
    t.row(&[
        "evaluated exactly".into(),
        stats.evaluated.to_string(),
        share(stats.evaluated),
    ]);
    t.row(&["total".into(), stats.cells_total.to_string(), pct(1.0)]);
    t.emit(out);
    let failed = snap.check_laws();
    assert!(
        stats.conserved() && failed.is_empty(),
        "prune conservation laws broken: {stats:?}, {failed:?}"
    );
    println!(
        "conservation holds: {} pruned + {} evaluated == {} cells (obs counters agree)",
        stats.pruned(),
        stats.evaluated,
        stats.cells_total,
    );
}
