//! One benchmark run: set-up, timed passes until the run length is spent,
//! the correctness checks of every pass, and the two output lines.
//!
//! A pass sends the workload's reports through both tiers — durable ingest
//! of the stream, then the batch analyses of the same reports — and then
//! runs the crash drill. `e2e_s` times the two tiers; `catchup_s` times
//! recovery plus resume. A traced run alternates untraced and traced
//! passes: traced passes record spans (and also time plain ingest, for the
//! WAL's share), and the difference between the two kinds of pass is the
//! tracing overhead.

use crate::json::quote;
use crate::offline::{self, Fnv, Outputs};
use crate::online::{self, DrillOutcome, DurableOutcome};
use crate::spec::{render, spec};
use crate::stats::{histogram_quantile, median};
use crate::trace::{self, Span, Tracer};
use crate::workload::{setup, Inputs, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wtts_core::ingest::IngestSummary;
use wtts_core::obs::PipelineObs;
use wtts_core::Durability;

/// Set-ups per run; `setup_s` is their median. Five rather than three:
/// medians of three varied by up to 80% between runs of one seed.
const SETUPS: usize = 5;
/// Fewest passes of each kind a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Holds the run's WAL directories (removed at the end) and, for a
    /// traced run, its span file.
    pub work_dir: PathBuf,
}

#[derive(Debug)]
pub struct RunOutput {
    /// Workload, seed, digest, checks and metrics; `compare` reads these.
    pub detail: String,
    /// The last line: `correct`, `attempted`, `failed` and `metrics`.
    pub result: String,
    pub failed: u64,
}

/// Passed and attempted counts per named check.
#[derive(Debug, Default)]
struct Checks(BTreeMap<&'static str, (u64, u64)>);

impl Checks {
    fn record(&mut self, name: &'static str, ok: bool) {
        let entry = self.0.entry(name).or_default();
        entry.0 += ok as u64;
        entry.1 += 1;
    }

    fn attempted(&self) -> u64 {
        self.0.values().map(|&(_, a)| a).sum()
    }

    fn failed(&self) -> u64 {
        self.0.values().map(|&(p, a)| a - p).sum()
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (p, a))| format!("{}:[{p},{a}]", quote(name)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A run's scratch directory; removed when dropped.
struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    fn new(parent: &Path, workload: &str) -> WorkDir {
        let root = parent.join(format!("run-{workload}-{}", std::process::id()));
        WorkDir { root }
    }

    fn wal(&self) -> PathBuf {
        self.root.join("wal")
    }

    fn drill(&self) -> PathBuf {
        self.root.join("drill")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Everything one pass produced.
struct Pass {
    traced: bool,
    e2e_s: f64,
    durable: DurableOutcome,
    outputs: Outputs,
    drill: DrillOutcome,
    plain: Option<(f64, IngestSummary)>,
    motif_obs: Option<PipelineObs>,
    spans: Vec<Span>,
}

impl Pass {
    fn catchup_s(&self) -> f64 {
        self.drill.recover_s + self.drill.resume_s
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        self.outputs.digest(&mut h);
        h.word(self.durable.state_digest);
        h.0
    }
}

fn one_pass(inputs: &Inputs, work: &WorkDir, traced: bool) -> Pass {
    online::reset(&work.wal());
    online::reset(&work.drill());
    let mut t = Tracer::new(traced);
    let motif_obs = traced.then(PipelineObs::new);
    let started = Instant::now();
    let (durable, outputs) = t.span("e2e", |t| {
        let durable = t.span("durable", |_| online::durable(inputs, &work.wal()));
        let outputs = offline::analyse(&inputs.logs, inputs.weeks, t, motif_obs.as_ref());
        (durable, outputs)
    });
    let e2e_s = started.elapsed().as_secs_f64();
    let drill = t.span("drill", |t| online::crash_drill(inputs, &work.drill(), t));
    let plain = traced.then(|| t.span("ingest", |_| online::plain(inputs)));
    Pass {
        traced,
        e2e_s,
        durable,
        outputs,
        drill,
        plain,
        motif_obs,
        spans: t.into_spans(),
    }
}

fn same_results(a: &IngestSummary, b: &IngestSummary) -> bool {
    a.gateways == b.gateways && a.support == b.support
}

fn check_pass(p: &Pass, checks: &mut Checks) {
    let d = &p.durable;
    checks.record("durable.durable", d.durability == Durability::Durable);
    checks.record(
        "durable.fully_accounted",
        d.summary.metrics.fully_accounted(),
    );
    checks.record(
        "durable.durably_accounted",
        d.summary.metrics.durably_accounted(),
    );
    checks.record("drill.killed", p.drill.killed);
    let resumed = p.drill.resumed.as_ref();
    checks.record(
        "drill.state_digest",
        resumed.is_some_and(|(_, digest, _)| *digest == d.state_digest),
    );
    checks.record(
        "drill.same_results",
        resumed.is_some_and(|(s, _, _)| same_results(s, &d.summary)),
    );
    checks.record(
        "drill.fully_accounted",
        resumed.is_some_and(|(s, _, durability)| {
            s.metrics.fully_accounted() && *durability == Durability::Durable
        }),
    );
    checks.record("collector.series_span", p.outputs.series_ok);
    checks.record("lagsearch.conserved", p.outputs.lag.conserved());
    if let Some((_, plain)) = &p.plain {
        checks.record(
            "ingest.plain_matches_durable",
            same_results(plain, &d.summary),
        );
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn end_to_end(setups: &[f64], passes: &[Pass], last: &Pass) -> Vec<(&'static str, f64)> {
    let m = &last.durable.summary.metrics;
    let offered = m.offered as f64;
    let of = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    vec![
        ("setup_s", median(setups)),
        ("e2e_s", of(|p| p.e2e_s)),
        ("ingest_reports_per_s", offered / of(|p| p.durable.secs)),
        ("catchup_s", of(Pass::catchup_s)),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN)),
        ("drop_share", m.dropped() as f64 / offered),
    ]
}

/// Per-layer self times map to span names.
const LAYER_SPANS: [(&str, &str); 13] = [
    ("collector.busy_s", "collector"),
    ("background.busy_s", "background"),
    ("windows.busy_s", "windows"),
    ("sweep.busy_s", "sweep"),
    ("motif.index_s", "motif.index"),
    ("motif.discover_s", "motif.discover"),
    ("dominance.busy_s", "dominance"),
    ("lagsearch.busy_s", "lagsearch"),
    ("ingest.busy_s", "ingest"),
    ("durable.busy_s", "durable"),
    ("durable.recover_s", "durable.recover"),
    ("durable.resume_s", "durable.resume"),
    ("trace.unattributed_s", "e2e"),
];

fn per_layer(traced: &[&Pass], untraced: &[&Pass], last: &Pass) -> Vec<(&'static str, f64)> {
    let busy: Vec<BTreeMap<&str, f64>> = traced
        .iter()
        .map(|p| trace::busy_by_name(&p.spans))
        .collect();
    let mut out: Vec<(&'static str, f64)> = LAYER_SPANS
        .iter()
        .map(|&(metric, span)| {
            let v: Vec<f64> = busy
                .iter()
                .map(|b| b.get(span).copied().unwrap_or(0.0))
                .collect();
            (metric, median(&v))
        })
        .collect();
    let e2e = |ps: &[&Pass]| median(&ps.iter().map(|p| p.e2e_s).collect::<Vec<_>>());
    out.push(("trace.overhead_s", e2e(traced) - e2e(untraced)));
    let tax: Vec<f64> = traced
        .iter()
        .filter_map(|p| p.plain.as_ref().map(|(s, _)| p.durable.secs - s))
        .collect();
    out.push(("durable.tax_s", median(&tax)));

    let c = &last.outputs.counts;
    let m = &last.durable.summary.metrics;
    let motif_prune_rate = last.motif_obs.as_ref().map_or(0.0, |o| {
        let pruned = o.pairs_pruned_degenerate.get()
            + o.pairs_pruned_sax.get()
            + o.pairs_pruned_moment.get();
        pruned as f64 / o.prune_pairs_total.get().max(1) as f64
    });
    // The WAL append histograms of every shard, summed bucket by bucket.
    let append: Vec<u64> = m.per_shard.iter().fold(Vec::new(), |mut acc: Vec<u64>, s| {
        let counts = &s.wal_append.latency_ns.counts;
        acc.resize(acc.len().max(counts.len()), 0);
        acc.iter_mut().zip(counts).for_each(|(a, c)| *a += c);
        acc
    });
    let replayed = last
        .drill
        .resumed
        .as_ref()
        .map_or(0, |(s, _, _)| s.metrics.wal_replayed);
    let counts: [(&'static str, f64); 26] = [
        ("collector.reports", c.reports as f64),
        ("collector.late_dropped", c.late_dropped as f64),
        ("collector.silent_gateways", c.silent_gateways as f64),
        ("background.devices", c.devices as f64),
        ("sweep.cells", c.sweep_cells as f64),
        ("sweep.stationary_cells", c.stationary_cells as f64),
        ("motif.eligible_windows", c.eligible_windows as f64),
        ("motif.found", c.motifs as f64),
        ("motif.prune_rate", motif_prune_rate),
        ("dominance.devices", c.dominance_devices as f64),
        ("dominance.found", c.dominants as f64),
        ("lagsearch.cells", last.outputs.lag.cells_total as f64),
        ("lagsearch.prune_rate", last.outputs.lag.prune_rate()),
        ("ingest.dropped_late", m.dropped_late as f64),
        ("ingest.dropped_duplicate", m.dropped_duplicate as f64),
        ("ingest.dropped_future_jump", m.dropped_future_jump as f64),
        ("ingest.windows_sealed", m.windows_sealed as f64),
        ("ingest.windows_matched", m.windows_matched as f64),
        (
            "ingest.queue_peak",
            m.per_shard.iter().map(|s| s.queue_peak).max().unwrap_or(0) as f64,
        ),
        (
            "durable.wal_append_p50_ns",
            histogram_quantile(&append, 0.5),
        ),
        (
            "durable.wal_append_p99_ns",
            histogram_quantile(&append, 0.99),
        ),
        (
            "durable.wal_append_p999_ns",
            histogram_quantile(&append, 0.999),
        ),
        ("durable.snapshots_written", m.snapshots_written as f64),
        ("durable.segments_created", m.wal_segments_created as f64),
        ("durable.wal_disk_bytes", last.durable.wal_disk_bytes as f64),
        ("durable.replayed_reports", replayed as f64),
    ];
    out.extend(counts);
    out
}

/// Per-pass timings, in pass order, so a reader can judge the spread
/// behind each median.
fn samples(passes: &[Pass]) -> String {
    let list = |f: fn(&Pass) -> f64| {
        let v: Vec<String> = passes.iter().map(|p| f(p).to_string()).collect();
        format!("[{}]", v.join(","))
    };
    format!(
        "{{\"traced\":[{}],\"e2e_s\":{},\"durable_s\":{},\"catchup_s\":{}}}",
        passes
            .iter()
            .map(|p| (p.traced as u8).to_string())
            .collect::<Vec<_>>()
            .join(","),
        list(|p| p.e2e_s),
        list(|p| p.durable.secs),
        list(Pass::catchup_s)
    )
}

/// Runs one workload: set-up, passes for at least `seconds`, checks, and
/// the output lines.
pub fn run(o: &Options) -> RunOutput {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        drop(inputs.take()); // free the previous copy before timing the next
        let started = Instant::now();
        inputs = Some(setup(&o.workload, o.seed));
        setups.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");

    let work = WorkDir::new(&o.work_dir, o.workload.name);
    let min_passes = if o.smoke { 1 } else { MIN_PASSES };
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
    let mut checks = Checks::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_digest = None;
    loop {
        let traced = o.traced && passes.len() % 2 == 1;
        let pass = one_pass(&inputs, &work, traced);
        check_pass(&pass, &mut checks);
        let digest = pass.digest();
        match first_digest {
            None => first_digest = Some(digest),
            Some(first) => checks.record("digest.repeatable", digest == first),
        }
        passes.push(pass);
        let of_kind = |t: bool| passes.iter().filter(|p| p.traced == t).count();
        let enough = of_kind(false) >= min_passes && (!o.traced || of_kind(true) >= min_passes);
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    drop(work);

    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    let (metrics, declared, extra) = if o.traced {
        let last = traced.last().expect("a traced pass ran");
        let path = o
            .work_dir
            .join(format!("spans-{}-seed{}.jsonl", o.workload.name, o.seed));
        let spans: Vec<Vec<Span>> = traced.iter().map(|p| p.spans.clone()).collect();
        trace::write_jsonl(&spans, &path).expect("write the span file");
        let metrics = per_layer(&traced, &untraced, last);
        let e2e = median(&traced.iter().map(|p| p.e2e_s).collect::<Vec<_>>());
        let unattributed = metrics
            .iter()
            .find(|(n, _)| *n == "trace.unattributed_s")
            .map_or(f64::NAN, |&(_, v)| v);
        let extra = format!(
            ",\"spans\":{},\"attributed_share\":{}",
            quote(&path.display().to_string()),
            1.0 - unattributed / e2e
        );
        (metrics, &spec().per_layer, extra)
    } else {
        let last = passes.last().expect("a pass ran");
        (
            end_to_end(&setups, &passes, last),
            &spec().end_to_end,
            String::new(),
        )
    };
    let rendered = render(&metrics, declared).unwrap_or_else(|e| panic!("{e}"));
    let failed = checks.failed();
    let last = passes.last().expect("a pass ran");
    let detail = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"passes\":{},\"reports\":{},\"digest\":\"{:016x}\",\"checks\":{}{extra},\"samples\":{},\"metrics\":{rendered}}}",
        quote(o.workload.name),
        o.seed,
        o.traced as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        offline::THREADS,
        passes.len(),
        last.durable.summary.metrics.offered,
        first_digest.unwrap_or(0),
        checks.to_json(),
        samples(&passes),
    );
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{rendered}}}",
        failed == 0,
        checks.attempted()
    );
    RunOutput {
        detail,
        result,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::{workload, NAMES};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    /// Every workload at smoke size, untraced and traced: all checks pass
    /// and the emitted metric names are exactly the declared ones.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        let work_dir = std::env::temp_dir().join(format!("wtts-benchmark-{}", std::process::id()));
        for name in NAMES {
            for traced in [false, true] {
                let out = run(&Options {
                    workload: workload(name, true).expect("known workload"),
                    seed: 5,
                    seconds: 0.0,
                    traced,
                    smoke: true,
                    work_dir: work_dir.clone(),
                });
                assert_eq!(out.failed, 0, "{name}: {}", out.detail);
                let result = Json::parse(&out.result).expect("the result line is JSON");
                let keys: Vec<&str> = result
                    .as_object()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
                let declared = if traced {
                    &spec().per_layer
                } else {
                    &spec().end_to_end
                };
                let emitted = result
                    .get("metrics")
                    .and_then(Json::as_object)
                    .expect("a metrics object");
                let mut got: Vec<&str> = emitted.iter().map(|(n, _)| n.as_str()).collect();
                let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{name} traced={traced}");
                assert!(got.iter().all(|n| valid_name(n)));
                for (n, m) in emitted {
                    let value = m.get("value").and_then(Json::as_f64).expect("a number");
                    // End-to-end metrics are never zero.
                    assert!(traced || value > 0.0, "{name}: {n} = {value}");
                }
            }
        }
        std::fs::remove_dir_all(&work_dir).expect("remove the test's work directory");
    }
}
