//! `wtts-benchmark compare A.jsonl B.jsonl`: do two sets of runs agree?
//!
//! Each file holds the output lines of several runs; the detail lines (the
//! ones naming a `workload`) are read and the rest ignored. For every
//! workload and end-to-end metric the medians of A (the baseline) and B
//! are compared against the metric's bound in `BENCHMARK.json`. Where the
//! spread between the quartiles of either side is wider than the bound,
//! the metric is "unresolved" unless every run of B reads better than
//! every run of A. Runs of one workload and seed must share one digest.

use crate::json::Json;
use crate::spec::{spec, Metric};
use crate::stats::{median, spread};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn record(line: &str) -> Option<Record> {
    let doc = Json::parse(line).ok()?;
    let metrics = doc
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(Record {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: doc.get("seed")?.as_f64()? as u64,
        traced: doc.get("trace")?.as_f64()? != 0.0,
        digest: doc.get("digest")?.as_str()?.to_string(),
        metrics,
    })
}

fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records: Vec<Record> = text.lines().filter_map(record).collect();
    if records.is_empty() {
        return Err(format!("{}: no benchmark detail lines", path.display()));
    }
    Ok(records)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Better,
    Regressed,
    Unresolved,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    // Positive when B is worse than A.
    let worse = |x: f64, y: f64| if m.lower_is_better { y - x } else { x - y };
    let resolved = [a, b]
        .iter()
        .all(|side| spread(side).is_some_and(|s| s <= bound));
    if !resolved {
        let all_better = a.iter().all(|&x| b.iter().all(|&y| worse(x, y) < 0.0));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    if worse(ma, mb) > bound * ma.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn fmt_share(v: Option<f64>) -> String {
    v.map_or("-".into(), |s| format!("{:.1}%", 100.0 * s))
}

/// Prints the comparison; the exit code is 1 when a metric regressed or
/// digests differ, 2 when an input cannot be read, 0 otherwise.
pub fn main(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let present: BTreeSet<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    println!(
        "{:<8} {:<22} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound"
    );
    let mut failed = false;
    for workload in spec()
        .workloads
        .iter()
        .filter(|w| present.contains(w.as_str()))
    {
        for m in &spec().end_to_end {
            let (va, vb) = (values(&a, workload, &m.name), values(&b, workload, &m.name));
            let v = verdict(m, &va, &vb);
            failed |= v == Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<8} {:<22} {:>14.6} {:>14.6} {:>8} {:>8} {:>8} {:>6}  {}",
                workload,
                m.name,
                ma,
                mb,
                fmt_share(Some((mb - ma) / ma)),
                fmt_share(spread(&va)),
                fmt_share(spread(&vb)),
                fmt_share(m.bound),
                v.label()
            );
        }
    }
    let mut digests: BTreeMap<(&str, u64), BTreeSet<&str>> = BTreeMap::new();
    for r in a.iter().chain(&b) {
        digests
            .entry((r.workload.as_str(), r.seed))
            .or_default()
            .insert(r.digest.as_str());
    }
    for ((workload, seed), set) in &digests {
        if set.len() > 1 {
            failed = true;
            println!("digest MISMATCH: {workload} seed {seed}: {set:?}");
        }
    }
    println!(
        "digests: {} workload/seed pairs, {}",
        digests.len(),
        if digests.values().all(|s| s.len() == 1) {
            "all identical"
        } else {
            "NOT identical"
        }
    );
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool) -> Metric {
        Metric {
            name: "x".into(),
            unit: "s".into(),
            lower_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let m = metric(true);
        assert_eq!(verdict(&m, &base, &[1.05, 1.04, 1.06, 1.05]), Verdict::Ok);
        assert_eq!(
            verdict(&m, &base, &[1.20, 1.21, 1.19, 1.20]),
            Verdict::Regressed
        );
        // Higher is better: the same drop is a regression.
        assert_eq!(
            verdict(&metric(false), &base, &[0.80, 0.81, 0.79, 0.80]),
            Verdict::Regressed
        );
        // Too noisy to tell, unless every run of B wins.
        let noisy = [0.5, 1.5, 0.7, 1.4, 1.0];
        assert_eq!(verdict(&m, &noisy, &base), Verdict::Unresolved);
        assert_eq!(verdict(&m, &noisy, &[0.1, 0.2, 0.4, 0.3]), Verdict::Better);
        assert_eq!(verdict(&m, &base, &[1.0]), Verdict::Unresolved);
        assert_eq!(verdict(&m, &base, &[]), Verdict::Missing);
    }

    #[test]
    fn reads_detail_lines_and_skips_the_rest() {
        let line = r#"{"workload":"paper","seed":3,"trace":0,"digest":"00ff","metrics":{"e2e_s":{"value":1.5,"unit":"s"}}}"#;
        let r = record(line).expect("a detail line");
        assert_eq!((r.workload.as_str(), r.seed, r.traced), ("paper", 3, false));
        assert_eq!(r.metrics["e2e_s"], 1.5);
        assert!(record(r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#).is_none());
        assert!(record("not json").is_none());
    }
}
