//! Figure 5 and §6.2: dominant devices per gateway, their types, the
//! Euclidean/volume baselines and the residents correlation.

use crate::data::{first_weeks, observed_every_week};
use crate::report::{fmt, pct, Table};
use std::collections::HashMap;
use std::path::Path;
use wtts_core::dominance::{
    dominant_devices, euclidean_ranking, ranking_agreement, volume_ranking, DominantDevice,
};
use wtts_devid::DeviceType;
use wtts_gwsim::{Fleet, SimGateway};
use wtts_stats::pearson;
use wtts_timeseries::TimeSeries;

/// Per-gateway dominance analysis input: the total and each device's total.
pub fn gateway_series(gw: &SimGateway, weeks: u32) -> (TimeSeries, Vec<TimeSeries>) {
    let devices: Vec<TimeSeries> = gw
        .devices
        .iter()
        .map(|d| first_weeks(&d.total(), weeks))
        .collect();
    let total = TimeSeries::sum_all(devices.iter()).expect("gateway has devices");
    (total, devices)
}

/// Full §6.2 analysis over the fleet.
pub fn fig5(fleet: &Fleet, out: Option<&Path>) {
    let weeks = 4;
    let mut eligible = 0usize;
    // #dominant -> #gateways, for phi = 0.6 and 0.8.
    let mut count_dist: HashMap<usize, usize> = HashMap::new();
    let mut have_dominant_strict = 0usize;
    let mut type_by_rank: HashMap<(usize, DeviceType), usize> = HashMap::new();
    let mut type_totals: HashMap<DeviceType, usize> = HashMap::new();
    let mut total_dominants = 0usize;
    let mut euclidean_agree = 0usize;
    let mut volume_agree = 0usize;
    let mut strict_fixed = 0usize;
    let mut strict_total = 0usize;
    // Survey: (residents, #dominant) over the first 49 eligible gateways.
    let mut survey: Vec<(usize, usize)> = Vec::new();
    let mut residents_cross: HashMap<(usize, usize), usize> = HashMap::new();

    for gw in fleet.iter() {
        let (total, devices) = gateway_series(&gw, weeks);
        if !observed_every_week(&total, weeks) {
            continue;
        }
        eligible += 1;
        let dom = dominant_devices(&total, &devices, 0.6);
        *count_dist.entry(dom.len().min(3)).or_insert(0) += 1;
        total_dominants += dom.len();
        for d in &dom {
            let ty = gw.devices[d.device].inferred_type();
            *type_by_rank.entry((d.rank.min(2), ty)).or_insert(0) += 1;
            *type_totals.entry(ty).or_insert(0) += 1;
        }
        // For the Euclidean baseline a disconnected device contributes zero
        // traffic; leaving its samples missing would shrink its distance by
        // skipping terms and absurdly favor rarely-seen devices.
        let zero_filled: Vec<TimeSeries> = devices
            .iter()
            .map(|d| {
                let mut z = d.clone();
                for v in z.values_mut() {
                    if !v.is_finite() {
                        *v = 0.0;
                    }
                }
                z
            })
            .collect();
        let euc = euclidean_ranking(&total, &zero_filled);
        let vol = volume_ranking(&devices);
        euclidean_agree += ranking_agreement(&dom, &euc);
        volume_agree += ranking_agreement(&dom, &vol);

        // The φ = 0.8 dominants are the φ = 0.6 list's prefix above 0.8
        // (sorted by descending similarity), ranks unchanged.
        let strict: Vec<&DominantDevice> = dom.iter().filter(|d| d.similarity > 0.8).collect();
        if !strict.is_empty() {
            have_dominant_strict += 1;
        }
        strict_total += strict.len();
        strict_fixed += strict
            .iter()
            .filter(|d| gw.devices[d.device].inferred_type() == DeviceType::Fixed)
            .count();

        if survey.len() < 49 {
            survey.push((gw.residents, dom.len()));
        }
        *residents_cross
            .entry((gw.residents, dom.len().min(3)))
            .or_insert(0) += 1;
    }

    let mut t = Table::new(
        "Fig 5 / Sec 6.2 - dominant devices per gateway (phi=0.6)",
        &["#dominant", "gateways"],
    );
    for k in 0..=3 {
        let label = if k == 3 {
            "3+".to_string()
        } else {
            k.to_string()
        };
        t.row(&[label, count_dist.get(&k).copied().unwrap_or(0).to_string()]);
    }
    t.emit(out);
    println!("{eligible} eligible gateways, {total_dominants} dominant devices in total\n");

    let mut t = Table::new(
        "Fig 5 - dominant device types by rank",
        &["type", "first", "second", "third"],
    );
    for ty in DeviceType::ALL {
        let get = |rank: usize| {
            type_by_rank
                .get(&(rank, ty))
                .copied()
                .unwrap_or(0)
                .to_string()
        };
        t.row(&[ty.label().to_string(), get(0), get(1), get(2)]);
    }
    t.emit(out);

    let mut t = Table::new("Sec 6.2 - dominance type totals", &["type", "count"]);
    for ty in DeviceType::ALL {
        t.row(&[
            ty.label().to_string(),
            type_totals.get(&ty).copied().unwrap_or(0).to_string(),
        ]);
    }
    t.emit(out);

    let mut t = Table::new(
        "Sec 6.2 - agreement with baseline rankings",
        &["baseline", "same-rank dominants", "share"],
    );
    t.row(&[
        "euclidean".into(),
        euclidean_agree.to_string(),
        pct(euclidean_agree as f64 / total_dominants.max(1) as f64),
    ]);
    t.row(&[
        "traffic volume".into(),
        volume_agree.to_string(),
        pct(volume_agree as f64 / total_dominants.max(1) as f64),
    ]);
    t.emit(out);

    let mut t = Table::new("Sec 6.2 - strict dominance (phi=0.8)", &["stat", "value"]);
    t.row(&[
        "gateways with >=1 dominant".into(),
        pct(have_dominant_strict as f64 / eligible.max(1) as f64),
    ]);
    t.row(&[
        "fixed share among dominants".into(),
        pct(strict_fixed as f64 / strict_total.max(1) as f64),
    ]);
    t.emit(out);

    let mut t = Table::new(
        "Sec 6.2 - residents x dominant-device count (all eligible)",
        &["residents", "0 dom", "1 dom", "2 dom", "3+ dom"],
    );
    for r in 1..=4usize {
        let get = |d: usize| {
            residents_cross
                .get(&(r, d))
                .copied()
                .unwrap_or(0)
                .to_string()
        };
        t.row(&[r.to_string(), get(0), get(1), get(2), get(3)]);
    }
    t.emit(out);

    // Residents vs dominant count (survey subset; paper: cor = 0.53 over
    // 1-2 user homes, no overall correlation).
    let all_res: Vec<f64> = survey.iter().map(|&(r, _)| r as f64).collect();
    let all_dom: Vec<f64> = survey.iter().map(|&(_, d)| d as f64).collect();
    let overall = pearson(&all_res, &all_dom);
    let small: Vec<&(usize, usize)> = survey.iter().filter(|&&(r, _)| r <= 2).collect();
    let s_res: Vec<f64> = small.iter().map(|&&(r, _)| r as f64).collect();
    let s_dom: Vec<f64> = small.iter().map(|&&(_, d)| d as f64).collect();
    let small_cor = pearson(&s_res, &s_dom);
    let mut t = Table::new(
        "Sec 6.2 - #dominant devices vs #residents (survey subset)",
        &["population", "n", "pearson", "significant"],
    );
    t.row(&[
        "all homes".into(),
        survey.len().to_string(),
        fmt(overall.value, 2),
        overall.significant(0.05).to_string(),
    ]);
    t.row(&[
        "1-2 resident homes".into(),
        small.len().to_string(),
        fmt(small_cor.value, 2),
        small_cor.significant(0.05).to_string(),
    ]);
    t.emit(out);
}

/// Ablation: how the dominant-device census changes when Definition 1 is
/// replaced by each coefficient alone.
pub fn ablation_similarity(fleet: &Fleet, out: Option<&Path>) {
    use wtts_stats::{kendall, spearman};
    let weeks = 4;
    let mut rows: Vec<(String, usize, usize)> = Vec::new(); // (measure, gateways w/ dominant, total dominants)
    type Measure = fn(&[f64], &[f64]) -> wtts_stats::CorrelationTest;
    let measures: [(&str, Measure); 3] = [
        ("pearson", pearson as Measure),
        ("spearman", spearman as Measure),
        ("kendall", kendall as Measure),
    ];
    let mut max_with = 0usize;
    let mut max_total = 0usize;
    let mut single: Vec<(usize, usize)> = vec![(0, 0); measures.len()];
    let mut eligible = 0usize;
    for gw in fleet.iter() {
        let (total, devices) = gateway_series(&gw, weeks);
        if !observed_every_week(&total, weeks) {
            continue;
        }
        eligible += 1;
        let dom = dominant_devices(&total, &devices, 0.6);
        if !dom.is_empty() {
            max_with += 1;
        }
        max_total += dom.len();
        for (k, (_, f)) in measures.iter().enumerate() {
            let doms: Vec<DominantDevice> = devices
                .iter()
                .enumerate()
                .filter_map(|(i, d)| {
                    let test = f(total.values(), d.values());
                    (test.significant(0.05) && test.value > 0.6).then_some((i, test.value))
                })
                .enumerate()
                .map(|(rank, (device, similarity))| DominantDevice {
                    device,
                    similarity,
                    rank,
                })
                .collect();
            if !doms.is_empty() {
                single[k].0 += 1;
            }
            single[k].1 += doms.len();
        }
    }
    rows.push(("max of three (Def. 1)".into(), max_with, max_total));
    for (k, (name, _)) in measures.iter().enumerate() {
        rows.push(((*name).to_string(), single[k].0, single[k].1));
    }
    let mut t = Table::new(
        "Ablation - similarity measure vs dominant-device census",
        &["measure", "gateways with dominant", "total dominants"],
    );
    for (name, with, total) in rows {
        t.row(&[name, with.to_string(), total.to_string()]);
    }
    t.emit(out);
    println!("{eligible} eligible gateways\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::FleetConfig;

    #[test]
    fn gateway_series_aligned() {
        let fleet = Fleet::new(FleetConfig::small());
        let gw = fleet.gateway(0);
        let (total, devices) = gateway_series(&gw, 2);
        assert_eq!(devices.len(), gw.devices.len());
        for d in &devices {
            assert_eq!(d.len(), total.len());
        }
        // The sum of device totals equals the gateway total.
        let manual = TimeSeries::sum_all(devices.iter()).unwrap();
        assert_eq!(manual.values()[..100], total.values()[..100]);
    }

    #[test]
    fn fig5_runs_on_small_fleet() {
        let fleet = Fleet::new(FleetConfig::small());
        fig5(&fleet, None);
    }
}
