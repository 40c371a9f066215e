//! Figures 9–16: weekly and daily motif discovery and the per-motif device
//! analysis.

use crate::data::{active_total, first_weeks, fleet_map, observed_every_day, observed_every_week};
use crate::report::{fmt, pct, Table};
use std::collections::HashMap;
use std::path::Path;
use wtts_core::dominance::dominant_devices;
use wtts_core::motif::{
    discover_motifs, discover_motifs_indexed, Motif, MotifConfig, MotifIndex, WindowRef,
};
use wtts_devid::DeviceType;
use wtts_gwsim::Fleet;
use wtts_timeseries::{
    aggregate, daily_windows, weekly_windows, Granularity, Minute, TimeSeries, MINUTES_PER_DAY,
    MINUTES_PER_WEEK,
};

/// A motif-discovery input set plus its results.
pub struct MotifSet {
    /// Identity of every window.
    pub refs: Vec<WindowRef>,
    /// The window sample vectors.
    pub windows: Vec<Vec<f64>>,
    /// Profiles and pruning sketches of the windows, built once and shared
    /// by every discovery over this set (the threshold ablations re-run
    /// discovery several times; the sketches never change).
    pub index: MotifIndex,
    /// Discovered motifs, largest support first.
    pub motifs: Vec<Motif>,
    /// Number of gateways that contributed windows.
    pub n_gateways: usize,
    /// Weeks of data used.
    pub weeks: u32,
    /// Binning offset in minutes.
    pub offset: u32,
    /// Binning granularity.
    pub granularity: Granularity,
}

/// Weekly motifs: 8-hour bins with the 2am day start (the Figure 6 winner),
/// six weeks of data, gateways with at least one observation every week.
pub fn weekly_motifs(fleet: &Fleet) -> MotifSet {
    let weeks = fleet.config().weeks.min(6);
    let granularity = Granularity::hours(8);
    let offset = 120;
    let per_gateway = fleet_map(fleet, |gw| {
        let active = first_weeks(&active_total(&gw), weeks);
        if !observed_every_week(&active, weeks) {
            return Vec::new();
        }
        let agg = aggregate(&active, granularity, offset);
        weekly_windows(&agg, weeks, offset)
            .into_iter()
            .map(|w| {
                (
                    WindowRef {
                        gateway: gw.id,
                        week: w.week,
                        weekday: None,
                    },
                    w.series.into_values(),
                )
            })
            .collect::<Vec<_>>()
    });
    let mut refs = Vec::new();
    let mut windows = Vec::new();
    let mut n_gateways = 0usize;
    for gw_windows in per_gateway {
        if !gw_windows.is_empty() {
            n_gateways += 1;
        }
        for (r, w) in gw_windows {
            refs.push(r);
            windows.push(w);
        }
    }
    let config = MotifConfig::default();
    let index = MotifIndex::observed(&windows, config.min_observations, None);
    let motifs = discover_motifs_indexed(&index, &config, None);
    MotifSet {
        refs,
        windows,
        index,
        motifs,
        n_gateways,
        weeks,
        offset,
        granularity,
    }
}

/// Daily motifs: 3-hour bins from midnight (the Figure 8 winner), four
/// weeks, gateways with at least one observation every day.
pub fn daily_motifs(fleet: &Fleet) -> MotifSet {
    let weeks = fleet.config().weeks.min(4);
    let granularity = Granularity::hours(3);
    let offset = 0;
    let per_gateway = fleet_map(fleet, |gw| {
        let active = first_weeks(&active_total(&gw), weeks);
        if !observed_every_day(&active, weeks) {
            return Vec::new();
        }
        let agg = aggregate(&active, granularity, offset);
        daily_windows(&agg, weeks, offset)
            .into_iter()
            .map(|w| {
                (
                    WindowRef {
                        gateway: gw.id,
                        week: w.week,
                        weekday: w.weekday,
                    },
                    w.series.into_values(),
                )
            })
            .collect::<Vec<_>>()
    });
    let mut refs = Vec::new();
    let mut windows = Vec::new();
    let mut n_gateways = 0usize;
    for gw_windows in per_gateway {
        if !gw_windows.is_empty() {
            n_gateways += 1;
        }
        for (r, w) in gw_windows {
            refs.push(r);
            windows.push(w);
        }
    }
    let config = MotifConfig::default();
    let index = MotifIndex::observed(&windows, config.min_observations, None);
    let motifs = discover_motifs_indexed(&index, &config, None);
    MotifSet {
        refs,
        windows,
        index,
        motifs,
        n_gateways,
        weeks,
        offset,
        granularity,
    }
}

/// Figure 9 + Figure 10: support distributions and per-gateway motif
/// participation, for one motif set.
pub fn fig9_10(set: &MotifSet, kind: &str, out: Option<&Path>) {
    let supports: Vec<usize> = set.motifs.iter().map(|m| m.support()).collect();
    let high_support = supports.iter().filter(|&&s| s >= 10).count();
    println!(
        "{kind}: {} motifs from {} windows of {} gateways; {} with support >= 10",
        set.motifs.len(),
        set.windows.len(),
        set.n_gateways,
        high_support
    );

    let mut t = Table::new(
        &format!("Fig 9 - {kind} motif support distribution"),
        &["support", "motifs"],
    );
    let mut hist: HashMap<usize, usize> = HashMap::new();
    for &s in &supports {
        let bucket = match s {
            0..=4 => 0,
            5..=9 => 5,
            10..=19 => 10,
            20..=49 => 20,
            50..=99 => 50,
            _ => 100,
        };
        *hist.entry(bucket).or_insert(0) += 1;
    }
    for (lo, label) in [
        (0usize, "2-4"),
        (5, "5-9"),
        (10, "10-19"),
        (20, "20-49"),
        (50, "50-99"),
        (100, "100+"),
    ] {
        t.row(&[
            label.to_string(),
            hist.get(&lo).copied().unwrap_or(0).to_string(),
        ]);
    }
    t.emit(out);

    // Distinct motifs per gateway.
    let mut per_gateway: HashMap<usize, std::collections::HashSet<usize>> = HashMap::new();
    for (k, m) in set.motifs.iter().enumerate() {
        for &i in &m.members {
            per_gateway
                .entry(set.refs[i].gateway)
                .or_default()
                .insert(k);
        }
    }
    let counts: Vec<f64> = per_gateway.values().map(|s| s.len() as f64).collect();
    let mut t = Table::new(
        &format!("Fig 10 - distinct {kind} motifs per gateway"),
        &["stat", "value"],
    );
    t.row(&["participating gateways".into(), counts.len().to_string()]);
    t.row(&[
        "mean motifs/gateway".into(),
        fmt(wtts_stats::mean(&counts), 2),
    ]);
    t.row(&[
        "max motifs/gateway".into(),
        fmt(counts.iter().copied().fold(0.0, f64::max), 0),
    ]);
    t.emit(out);
}

/// Characterizes a weekly motif pattern (21 bins = 7 days × 3 eight-hour
/// bins starting 2am): weekend share and evening share of its traffic.
fn weekly_pattern_profile(pattern: &[f64]) -> (f64, f64) {
    let total: f64 = pattern.iter().filter(|v| v.is_finite()).sum();
    if total <= 0.0 {
        return (0.0, 0.0);
    }
    let mut weekend = 0.0;
    let mut evening = 0.0;
    for (i, &v) in pattern.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let day = i / 3; // Monday = 0.
        let bin = i % 3; // 0 = 2-10am, 1 = 10am-6pm, 2 = 6pm-2am.
        if day >= 5 {
            weekend += v;
        }
        if bin == 2 {
            evening += v;
        }
    }
    (weekend / total, evening / total)
}

/// Labels a weekly motif by its dominant time mass.
fn weekly_label(weekend_share: f64, evening_share: f64) -> &'static str {
    if weekend_share > 0.45 {
        "heavy weekend users"
    } else if weekend_share < 0.18 {
        "workdays users"
    } else if evening_share > 0.5 {
        "everyday evening users"
    } else {
        "everyday users"
    }
}

/// Picks up to `n` representative motifs: the highest-support motif of each
/// distinct behavioral label first (the paper's Figures 11 and 14 showcase
/// one motif per behavior), then the next-largest motifs to fill up.
fn representative_motifs(
    set: &MotifSet,
    label_of: impl Fn(&Motif) -> &'static str,
    n: usize,
) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    let mut picked = Vec::new();
    for (k, m) in set.motifs.iter().enumerate() {
        if m.support() < 5 {
            break;
        }
        if seen.insert(label_of(m)) {
            picked.push(k);
            if picked.len() == n {
                return picked;
            }
        }
    }
    for k in 0..set.motifs.len() {
        if picked.len() == n {
            break;
        }
        if !picked.contains(&k) {
            picked.push(k);
        }
    }
    picked
}

/// Representative weekly motifs (distinct behavioral labels).
pub fn weekly_representatives(set: &MotifSet) -> Vec<usize> {
    representative_motifs(
        set,
        |m| {
            let pattern = m.average_pattern(&set.windows);
            let (weekend, evening) = weekly_pattern_profile(&pattern);
            weekly_label(weekend, evening)
        },
        3,
    )
}

/// Representative daily motifs (distinct behavioral labels).
pub fn daily_representatives(set: &MotifSet) -> Vec<usize> {
    representative_motifs(set, |m| daily_label(&m.average_pattern(&set.windows)), 4)
}

/// Figure 11: the weekly motifs of interest.
pub fn fig11(set: &MotifSet, out: Option<&Path>) {
    let mut t = Table::new(
        "Fig 11 - weekly motifs of interest",
        &[
            "motif",
            "support",
            "same-gw share",
            "weekend share",
            "evening share",
            "label",
        ],
    );
    for (idx, &k) in weekly_representatives(set).iter().enumerate() {
        let m = &set.motifs[k];
        let pattern = m.average_pattern(&set.windows);
        let (weekend, evening) = weekly_pattern_profile(&pattern);
        t.row(&[
            format!("motif{}", idx + 1),
            m.support().to_string(),
            pct(m.same_gateway_fraction(&set.refs)),
            pct(weekend),
            pct(evening),
            weekly_label(weekend, evening).to_string(),
        ]);
    }
    t.emit(out);

    // Print the top motif's pattern, day by day.
    if let Some(m) = set.motifs.first() {
        let pattern = m.average_pattern(&set.windows);
        let mut t = Table::new(
            "Fig 11 - top weekly motif average pattern (bytes per 8h bin)",
            &["day", "02-10", "10-18", "18-02"],
        );
        for (d, name) in ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
            .iter()
            .enumerate()
        {
            t.row(&[
                (*name).to_string(),
                fmt(pattern.get(d * 3).copied().unwrap_or(f64::NAN), 0),
                fmt(pattern.get(d * 3 + 1).copied().unwrap_or(f64::NAN), 0),
                fmt(pattern.get(d * 3 + 2).copied().unwrap_or(f64::NAN), 0),
            ]);
        }
        t.emit(out);
    }
}

/// Characterizes a daily motif pattern (8 three-hour bins from midnight).
fn daily_label(pattern: &[f64]) -> &'static str {
    let total: f64 = pattern.iter().filter(|v| v.is_finite()).sum();
    if total <= 0.0 {
        return "silent";
    }
    let share = |range: std::ops::Range<usize>| -> f64 {
        range
            .filter_map(|i| pattern.get(i))
            .filter(|v| v.is_finite())
            .sum::<f64>()
            / total
    };
    let morning = share(2..4); // 6-12
    let afternoon = share(4..6); // 12-18
    let evening = share(6..8); // 18-24
    if evening > 0.55 {
        if morning > 0.15 {
            "morning and evening users"
        } else {
            "late evening users"
        }
    } else if afternoon > 0.45 {
        "afternoon users"
    } else if morning + afternoon + evening > 0.8 && evening < 0.45 && afternoon < 0.45 {
        "all day users"
    } else if morning > 0.3 && evening > 0.3 {
        "morning and evening users"
    } else {
        "mixed users"
    }
}

/// Figure 14: representative daily motifs.
pub fn fig14(set: &MotifSet, out: Option<&Path>) {
    let mut t = Table::new(
        "Fig 14 - daily motifs of interest",
        &[
            "motif",
            "support",
            "same-gw share",
            "weekend share",
            "label",
        ],
    );
    for (idx, &k) in daily_representatives(set).iter().enumerate() {
        let m = &set.motifs[k];
        let pattern = m.average_pattern(&set.windows);
        t.row(&[
            format!("motif{}", (b'A' + idx as u8) as char),
            m.support().to_string(),
            pct(m.same_gateway_fraction(&set.refs)),
            pct(m.weekend_fraction(&set.refs)),
            daily_label(&pattern).to_string(),
        ]);
    }
    t.emit(out);

    if let Some(m) = set.motifs.first() {
        let pattern = m.average_pattern(&set.windows);
        let mut t = Table::new(
            "Fig 14 - top daily motif average pattern (bytes per 3h bin)",
            &["bin", "bytes"],
        );
        for (i, v) in pattern.iter().enumerate() {
            t.row(&[format!("{:02}-{:02}h", i * 3, i * 3 + 3), fmt(*v, 0)]);
        }
        t.emit(out);
    }
}

/// Figures 12–13 (weekly) and 15–16 (daily): dominant devices per motif —
/// how many per member window, how they intersect the gateway's overall
/// dominants, and their type distribution.
pub fn motif_dominance(
    fleet: &Fleet,
    set: &MotifSet,
    selection: &[usize],
    kind: &str,
    out: Option<&Path>,
) {
    // Member windows grouped by gateway so each gateway renders once.
    let top_motifs: Vec<(usize, &Motif)> = selection
        .iter()
        .enumerate()
        .map(|(pos, &k)| (pos, &set.motifs[k]))
        .collect();
    let mut by_gateway: HashMap<usize, Vec<(usize, usize)>> = HashMap::new(); // gw -> (motif, window idx)
    for (k, m) in &top_motifs {
        for &i in &m.members {
            by_gateway
                .entry(set.refs[i].gateway)
                .or_default()
                .push((*k, i));
        }
    }

    // Per motif: distribution of #dominant per member, overlap with overall,
    // type counts, workday/weekend counts.
    let mut dom_count: Vec<HashMap<usize, usize>> = vec![HashMap::new(); top_motifs.len()];
    let mut overlap: Vec<HashMap<usize, usize>> = vec![HashMap::new(); top_motifs.len()];
    let mut types: Vec<HashMap<DeviceType, usize>> = vec![HashMap::new(); top_motifs.len()];

    for (&gw_id, members) in &by_gateway {
        let gw = fleet.gateway(gw_id);
        let device_series: Vec<TimeSeries> = gw.devices.iter().map(|d| d.total()).collect();
        let total = TimeSeries::sum_all(device_series.iter()).expect("devices");
        // Overall dominants over the first 4 weeks.
        let weeks4 = first_weeks(&total, set.weeks);
        let dev4: Vec<TimeSeries> = device_series
            .iter()
            .map(|d| first_weeks(d, set.weeks))
            .collect();
        let overall: Vec<usize> = dominant_devices(&weeks4, &dev4, 0.6)
            .into_iter()
            .map(|d| d.device)
            .collect();

        for &(k, i) in members {
            let r = set.refs[i];
            // The member's time slot in raw minutes.
            let (start, len) = match r.weekday {
                None => (
                    Minute(r.week * MINUTES_PER_WEEK + set.offset),
                    MINUTES_PER_WEEK as usize,
                ),
                Some(d) => (
                    Minute(
                        r.week * MINUTES_PER_WEEK + d.index() as u32 * MINUTES_PER_DAY + set.offset,
                    ),
                    MINUTES_PER_DAY as usize,
                ),
            };
            let slot_total = total.slice(start, len);
            let slot_devices: Vec<TimeSeries> =
                device_series.iter().map(|d| d.slice(start, len)).collect();
            let dom = dominant_devices(&slot_total, &slot_devices, 0.6);
            *dom_count[k].entry(dom.len().min(4)).or_insert(0) += 1;
            let n_overlap = dom.iter().filter(|d| overall.contains(&d.device)).count();
            *overlap[k].entry(n_overlap.min(3)).or_insert(0) += 1;
            for d in &dom {
                *types[k]
                    .entry(gw.devices[d.device].inferred_type())
                    .or_insert(0) += 1;
            }
        }
    }

    let motif_name = |k: usize| -> String {
        if kind == "weekly" {
            format!("motif{}", k + 1)
        } else {
            format!("motif{}", (b'A' + k as u8) as char)
        }
    };

    let mut t = Table::new(
        &format!("Fig 12a/15a - dominant devices per {kind} motif member"),
        &["motif", "0 dev", "1 dev", "2 dev", "3 dev", "4+ dev"],
    );
    for (k, _) in &top_motifs {
        let get = |n: usize| dom_count[*k].get(&n).copied().unwrap_or(0).to_string();
        t.row(&[motif_name(*k), get(0), get(1), get(2), get(3), get(4)]);
    }
    t.emit(out);

    let mut t = Table::new(
        &format!("Fig 12b/15b - overlap with overall dominants ({kind})"),
        &["motif", "0 common", "1 common", "2 common", "3+ common"],
    );
    for (k, _) in &top_motifs {
        let get = |n: usize| overlap[*k].get(&n).copied().unwrap_or(0).to_string();
        t.row(&[motif_name(*k), get(0), get(1), get(2), get(3)]);
    }
    t.emit(out);

    let mut t = Table::new(
        &format!("Fig 13/16a - dominant device types per {kind} motif"),
        &[
            "motif",
            "portable",
            "fixed",
            "tv",
            "game_console",
            "network_eq",
            "unlabeled",
        ],
    );
    for (k, _) in &top_motifs {
        let get = |ty: DeviceType| types[*k].get(&ty).copied().unwrap_or(0).to_string();
        t.row(&[
            motif_name(*k),
            get(DeviceType::Portable),
            get(DeviceType::Fixed),
            get(DeviceType::SmartTv),
            get(DeviceType::GameConsole),
            get(DeviceType::NetworkEquipment),
            get(DeviceType::Unlabeled),
        ]);
    }
    t.emit(out);

    if kind == "daily" {
        let mut t = Table::new(
            "Fig 16b - workday/weekend split per daily motif",
            &["motif", "workday", "weekend"],
        );
        for (k, m) in &top_motifs {
            let weekend = m.weekend_fraction(&set.refs);
            t.row(&[motif_name(*k), pct(1.0 - weekend), pct(weekend)]);
        }
        t.emit(out);
    }
}

/// Ablation: motif census vs the group-similarity factor (the paper's ¾).
/// Reuses the set's shared index — three discoveries, one sketch build.
pub fn ablation_group_factor(set: &MotifSet, out: Option<&Path>) {
    let mut t = Table::new(
        "Ablation - motif census vs group-similarity factor",
        &["factor", "motifs", "max support", "windows in motifs"],
    );
    for factor in [0.5, 0.75, 1.0] {
        let motifs = discover_motifs_indexed(
            &set.index,
            &MotifConfig {
                group_factor: factor,
                ..MotifConfig::default()
            },
            None,
        );
        let max_support = motifs.first().map(|m| m.support()).unwrap_or(0);
        let covered: usize = motifs.iter().map(|m| m.support()).sum();
        t.row(&[
            fmt(factor, 2),
            motifs.len().to_string(),
            max_support.to_string(),
            covered.to_string(),
        ]);
    }
    t.emit(out);
}

/// §7.2's aside made concrete: "patterns within a particular gateway only
/// ... can also be identified following the proposed methodology". Runs the
/// daily motif search separately inside each gateway and reports how many
/// homes have personal recurring patterns.
pub fn motifs_within_gateways(fleet: &Fleet, out: Option<&Path>) {
    let weeks = fleet.config().weeks.min(4);
    let granularity = Granularity::hours(3);
    let mut gateways_with_motifs = 0usize;
    let mut eligible = 0usize;
    let mut best: Option<(usize, usize, f64)> = None; // (gateway, support, weekend share)
    let mut support_hist: HashMap<usize, usize> = HashMap::new();
    for gw in fleet.iter() {
        let active = first_weeks(&active_total(&gw), weeks);
        if !observed_every_day(&active, weeks) {
            continue;
        }
        eligible += 1;
        let agg = aggregate(&active, granularity, 0);
        let mut refs = Vec::new();
        let mut windows = Vec::new();
        for w in daily_windows(&agg, weeks, 0) {
            refs.push(WindowRef {
                gateway: gw.id,
                week: w.week,
                weekday: w.weekday,
            });
            windows.push(w.series.into_values());
        }
        let motifs = discover_motifs(&windows, &MotifConfig::default());
        if let Some(top) = motifs.first() {
            gateways_with_motifs += 1;
            *support_hist.entry(top.support().min(20)).or_insert(0) += 1;
            if best.is_none_or(|(_, s, _)| top.support() > s) {
                best = Some((gw.id, top.support(), top.weekend_fraction(&refs)));
            }
        }
    }
    let mut t = Table::new(
        "Sec 7.2 - within-gateway daily motifs",
        &["metric", "value"],
    );
    t.row(&["eligible gateways".into(), eligible.to_string()]);
    t.row(&[
        "gateways with personal motifs".into(),
        format!(
            "{gateways_with_motifs} ({})",
            pct(gateways_with_motifs as f64 / eligible.max(1) as f64)
        ),
    ]);
    if let Some((gw, support, weekend)) = best {
        t.row(&[
            "largest personal motif".into(),
            format!("gateway {gw}: {support} days ({} weekend)", pct(weekend)),
        ]);
    }
    t.emit(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_gwsim::FleetConfig;

    #[test]
    fn weekly_motifs_small_fleet() {
        let fleet = Fleet::new(FleetConfig::small());
        let set = weekly_motifs(&fleet);
        assert_eq!(set.windows.len(), set.refs.len());
        // Every motif member indexes a valid window.
        for m in &set.motifs {
            for &i in &m.members {
                assert!(i < set.windows.len());
            }
        }
    }

    #[test]
    fn weekly_profile_shares() {
        // All traffic on Saturday evening.
        let mut pattern = vec![0.0; 21];
        pattern[5 * 3 + 2] = 100.0;
        let (weekend, evening) = weekly_pattern_profile(&pattern);
        assert_eq!(weekend, 1.0);
        assert_eq!(evening, 1.0);
        assert_eq!(weekly_label(weekend, evening), "heavy weekend users");
    }

    #[test]
    fn daily_labels() {
        let mut evening = vec![1.0; 8];
        evening[6] = 500.0;
        evening[7] = 500.0;
        assert_eq!(daily_label(&evening), "late evening users");
        let mut afternoon = vec![1.0; 8];
        afternoon[4] = 400.0;
        afternoon[5] = 400.0;
        assert_eq!(daily_label(&afternoon), "afternoon users");
        assert_eq!(daily_label(&[0.0; 8]), "silent");
    }
}
