//! Fleet-wide inventory report: what a simulated ISP deployment looks like,
//! and how well the MAC/name device classifier recovers ground truth.
//!
//! ```text
//! cargo run --release --example fleet_report [n_gateways]
//! cargo run --release --example fleet_report -- 12 --metrics-json metrics.json
//! ```
//!
//! With `--metrics-json [PATH]` the report additionally runs an
//! *instrumented* analysis pass — profile and sketch build, the
//! sketch-pruned row fill behind motif discovery, and a stationarity sweep
//! over the fleet's daily windows, observed by a [`PipelineObs`]
//! registry — checks the resulting [`ObsSnapshot`] against its declared
//! conservation laws, aborting with the name of any it breaks, and emits
//! it (stage spans, counters, near-threshold instrument, conservation
//! verdict) as JSON to `PATH` (or stdout when no path is given).

use std::collections::HashMap;
use wtts::core::lagsearch::{lag_search, LagSearchConfig};
use wtts::core::motif::{discover_motifs_indexed, MotifConfig, MotifIndex};
use wtts::core::obs::PipelineObs;
use wtts::core::strong_stationarity;
use wtts::devid::DeviceType;
use wtts::gwsim::{Fleet, FleetConfig, Reliability};
use wtts::stats::fit_zipf;
use wtts::timeseries::{aggregate, daily_windows, Granularity};

/// Parses `--metrics-json [PATH]`: `None` = flag absent, `Some(None)` =
/// emit to stdout, `Some(Some(path))` = write to `path`.
fn parse_metrics_json_arg() -> Option<Option<String>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let at = args.iter().position(|a| a == "--metrics-json")?;
    Some(args.get(at + 1).filter(|a| !a.starts_with("--")).cloned())
}

/// The instrumented analysis pass behind `--metrics-json`: motif discovery
/// and per-gateway stationarity sweeps over daily windows, every stage and
/// counter recorded in `obs`.
fn observed_analysis(fleet: &Fleet, obs: &PipelineObs) {
    // Cap the gateway count so the quadratic motif sweep stays snappy in a
    // smoke run; the instrument needs coverage, not scale.
    let gateways = fleet.len().min(12);
    let mut windows = Vec::new();
    let mut per_gateway: Vec<Vec<Vec<f64>>> = Vec::new();
    for id in 0..gateways {
        let gw = fleet.gateway(id);
        let agg = aggregate(&gw.aggregate_total(), Granularity::hours(3), 0);
        let mine: Vec<Vec<f64>> = daily_windows(&agg, 2, 0)
            .into_iter()
            .map(|w| w.series.into_values())
            .collect();
        windows.extend(mine.iter().cloned());
        per_gateway.push(mine);
    }
    let config = MotifConfig::default();
    let index = MotifIndex::observed(&windows, config.min_observations, Some(obs));
    let motifs = discover_motifs_indexed(&index, &config, Some(obs));
    println!(
        "\ninstrumented pass: {} motifs over {} daily windows from {gateways} gateways",
        motifs.len(),
        windows.len()
    );
    let mut stationary = 0usize;
    for mine in &per_gateway {
        let refs: Vec<&[f64]> = mine.iter().map(|w| w.as_slice()).collect();
        if let Some(check) = strong_stationarity(&refs, Some(obs)) {
            if check.is_stationary() {
                stationary += 1;
            }
        }
    }
    println!("instrumented pass: {stationary}/{gateways} gateways strongly stationary (daily)");

    // Multi-scale lead/lag discovery over the same gateway subset: the
    // scale × lag grid runs through the pruned lag-search engine, so the
    // snapshot also carries the lag-tier counters its laws check.
    let series: Vec<_> = (0..gateways)
        .map(|id| fleet.gateway(id).aggregate_total())
        .collect();
    let config = LagSearchConfig {
        scales: vec![Granularity::hours(1), Granularity::hours(2)],
        max_lag_bins: 12,
        phi: 0.25,
        ..LagSearchConfig::default()
    };
    let lags = lag_search(&series, &config, Some(obs));
    let leads: usize = (0..lags.scales.len())
        .map(|s| lags.top_leads(s, 3).len())
        .sum();
    assert!(lags.stats.conserved(), "lag-search cell conservation");
    println!(
        "instrumented pass: lag search over {} pairs x {} scales: {} cells, {} pruned, \
         {leads} lead/lag relations >= {}",
        lags.pairs.len(),
        lags.scales.len(),
        lags.stats.cells_total,
        lags.stats.pruned(),
        config.phi,
    );
}

fn main() {
    let metrics_json = parse_metrics_json_arg();
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let fleet = Fleet::new(FleetConfig {
        n_gateways: n,
        weeks: 2,
        ..FleetConfig::default()
    });

    let mut devices = 0usize;
    let mut archetypes: HashMap<String, usize> = HashMap::new();
    let mut reliability: HashMap<&'static str, usize> = HashMap::new();
    let mut confusion: HashMap<(DeviceType, DeviceType), usize> = HashMap::new();
    let mut correct = 0usize;
    let mut traffic_gb = 0.0;

    for gw in fleet.iter() {
        devices += gw.devices.len();
        *archetypes.entry(gw.archetype.to_string()).or_insert(0) += 1;
        let rel = match gw.reliability {
            Reliability::Reliable => "reliable",
            Reliability::FlakyDays => "day gaps",
            Reliability::FlakyWeeks => "week gaps",
        };
        *reliability.entry(rel).or_insert(0) += 1;
        traffic_gb += gw.aggregate_total().total() / 1e9;
        for d in &gw.devices {
            let truth = d.spec.true_type;
            let inferred = d.inferred_type();
            *confusion.entry((truth, inferred)).or_insert(0) += 1;
            if truth == inferred {
                correct += 1;
            }
        }
    }

    println!(
        "fleet: {} gateways, {devices} devices, {traffic_gb:.0} GB over 2 weeks\n",
        fleet.len()
    );

    println!("household archetypes:");
    let mut rows: Vec<_> = archetypes.into_iter().collect();
    rows.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (name, count) in rows {
        println!("  {name:<16} {count}");
    }

    println!("\nreporting reliability:");
    for (name, count) in reliability {
        println!("  {name:<10} {count}");
    }

    println!("\ndevice classifier (rows = truth, columns = inferred):");
    print!("{:>14}", "");
    for ty in DeviceType::ALL {
        print!("{:>13}", ty.label());
    }
    println!();
    for truth in DeviceType::ALL {
        if truth == DeviceType::Unlabeled {
            continue; // No ground-truth unlabeled devices are simulated.
        }
        print!("{:>14}", truth.label());
        for inferred in DeviceType::ALL {
            print!(
                "{:>13}",
                confusion.get(&(truth, inferred)).copied().unwrap_or(0)
            );
        }
        println!();
    }
    println!(
        "\nclassifier accuracy: {:.1}% of {devices} devices",
        correct as f64 / devices as f64 * 100.0
    );

    // Zipf check on the fleet's pooled traffic values (Section 4.1).
    let sample: Vec<f64> = fleet.gateway(0).aggregate_total().observed_values();
    if let Some(fit) = fit_zipf(&sample, 20) {
        println!(
            "\ngateway 0 traffic values: Zipf exponent {:.2}, r^2 {:.2} ({})",
            fit.exponent,
            fit.r_squared,
            if fit.is_zipfian() {
                "zipfian"
            } else {
                "not zipfian"
            }
        );
    }

    if let Some(target) = metrics_json {
        let obs = PipelineObs::new();
        observed_analysis(&fleet, &obs);
        let snap = obs.snapshot();
        let failed = snap.check_laws();
        assert!(failed.is_empty(), "conservation laws broken: {failed:?}");
        let json = snap.to_json();
        match target {
            Some(path) => {
                std::fs::write(&path, &json).expect("write metrics JSON");
                println!("metrics JSON written to {path}");
            }
            None => println!("{json}"),
        }
    }
}
