//! Lock-free pipeline observability: per-stage counters, log-bucketed
//! histograms and span timers.
//!
//! The paper's conclusions rest on exact threshold comparisons (`cor ≥ φ`,
//! group similarity ¾φ, α = 0.05), yet a fleet-scale pipeline needs to
//! *see* how many comparisons land within rounding distance of a threshold,
//! where time goes inside a sweep, and which degenerate-statistics paths
//! fire — without perturbing the measurement. This module provides the
//! primitives, mirroring the design of [`crate::ingest::IngestMetrics`]:
//!
//! * [`Counter`] — a relaxed atomic `u64` event counter.
//! * [`LogHistogram`] — power-of-two-bucketed atomic histogram for
//!   latencies (nanoseconds) and values; `record` is one relaxed
//!   `fetch_add`, no locks anywhere on the hot path.
//! * [`Stage`] — entered/exited/in-flight counters plus a latency
//!   histogram; [`Stage::enter`] returns a [`Span`] guard that times the
//!   stage and closes the books on drop. The per-stage conservation law
//!   `entered == exited + in_flight` holds at every instant (checked by
//!   [`StageSnapshot::conserved`]) and tightens to `entered == exited` at
//!   quiescence ([`StageSnapshot::quiescent`]).
//! * [`PipelineObs`] — the registry wired through the batch analysis
//!   pipeline: correlation-engine profile build and row fill, motif
//!   discovery (candidate pairs evaluated / pruned / grown / merged, the
//!   near-threshold instrument), and stationarity sweeps.
//!
//! **Zero cost when disabled.** Instrumented entry points take
//! `Option<&PipelineObs>`; with `None` no atomic is touched and no clock is
//! read, and results are bit-identical either way (the registry only
//! *observes* — it never feeds back into a decision).
//!
//! [`PipelineObs::snapshot`] is a handful of relaxed loads producing a
//! serializable [`ObsSnapshot`]; [`ObsSnapshot::to_json`] emits the report
//! the `--metrics-json` example flags print.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `2^63`.
const BUCKETS: usize = 65;

/// A lock-free event counter (relaxed atomic increments).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count (relaxed load).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram over `u64` samples: bucket 0 counts exact
/// zeros, bucket `k ≥ 1` counts samples in `[2^(k-1), 2^k)`. Recording is a
/// single relaxed `fetch_add`; the bucket index is the sample's bit length,
/// so no search and no floating point on the hot path.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the bucket counts (relaxed loads).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Formats an `f64` as a JSON number, or `null` when it is not finite.
///
/// Hand-rolled JSON emitters must never print `NaN`/`inf` — `{"mean":NaN}`
/// is not JSON and breaks every strict parser downstream (the CI smoke
/// parses these reports with `parse_constant` set to raise). Every float
/// that reaches a JSON report goes through this guard.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Inclusive upper bound of histogram bucket `k` (0, 1, 3, 7, …).
fn bucket_upper(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Point-in-time copy of a [`LogHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per bucket; index = sample bit length (see [`LogHistogram`]).
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Upper bound of the bucket containing quantile `q` (a conservative
    /// estimate: the true quantile is at most this). Returns 0 for an empty
    /// histogram.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(k);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Mean of the bucket upper bounds weighted by count — a coarse,
    /// conservative central estimate. `NaN` for an empty histogram (the
    /// JSON report renders it as `null` via [`json_f64`]).
    pub fn mean_upper(&self) -> f64 {
        let total = self.total();
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(k, &c)| bucket_upper(k) as f64 * c as f64)
            .sum();
        weighted / total as f64
    }

    /// JSON fragment: totals, conservative p50/p99/mean and the non-empty
    /// buckets as `[upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| format!("[{},{}]", bucket_upper(k), c))
            .collect();
        format!(
            "{{\"count\":{},\"p50_le\":{},\"p99_le\":{},\"mean_le\":{},\"buckets\":[{}]}}",
            self.total(),
            self.quantile_upper(0.5),
            self.quantile_upper(0.99),
            json_f64(self.mean_upper()),
            buckets.join(",")
        )
    }
}

/// One pipeline stage: how many work items entered, how many exited, how
/// many are in flight right now, and a log-bucketed latency histogram in
/// nanoseconds. All updates are relaxed atomics; [`Stage::enter`] is the
/// only place a clock is read.
#[derive(Debug, Default)]
pub struct Stage {
    entered: Counter,
    exited: Counter,
    in_flight: Counter,
    latency_ns: LogHistogram,
}

impl Stage {
    /// Opens a span: increments `entered`/`in_flight` and starts the timer.
    /// Dropping the returned [`Span`] records the latency and moves the
    /// item from `in_flight` to `exited`.
    #[inline]
    pub fn enter(&self) -> Span<'_> {
        self.entered.incr();
        self.in_flight.incr();
        Span {
            stage: self,
            started: Instant::now(),
        }
    }

    /// Point-in-time copy of the stage counters.
    pub fn snapshot(&self) -> StageSnapshot {
        // Load in an order that keeps the conservation check sound under
        // concurrent spans: `exited` first, `entered` last, so a span
        // closing mid-snapshot can only make `exited + in_flight` over-count
        // relative to `entered` — never under-count below it at quiescence.
        let exited = self.exited.get();
        let in_flight = self.in_flight.0.load(Ordering::Relaxed);
        let entered = self.entered.get();
        StageSnapshot {
            entered,
            exited,
            in_flight,
            latency_ns: self.latency_ns.snapshot(),
        }
    }
}

/// RAII span timer returned by [`Stage::enter`].
#[derive(Debug)]
pub struct Span<'a> {
    stage: &'a Stage,
    started: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.stage.latency_ns.record(ns);
        self.stage.in_flight.0.fetch_sub(1, Ordering::Relaxed);
        self.stage.exited.incr();
    }
}

/// Point-in-time copy of one [`Stage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Work items that entered the stage.
    pub entered: u64,
    /// Work items that exited the stage.
    pub exited: u64,
    /// Work items currently inside the stage.
    pub in_flight: u64,
    /// Stage latency histogram (nanoseconds).
    pub latency_ns: HistogramSnapshot,
}

impl StageSnapshot {
    /// The per-stage conservation law: every entered item is either done or
    /// in flight. (A snapshot taken while spans are closing may transiently
    /// over-count the right-hand side; at quiescence equality is exact.)
    pub fn conserved(&self) -> bool {
        self.entered <= self.exited + self.in_flight
            && self.exited + self.in_flight <= self.entered + self.in_flight
    }

    /// Quiescent conservation: nothing in flight and books balanced.
    pub fn quiescent(&self) -> bool {
        self.in_flight == 0 && self.entered == self.exited
    }

    /// The stage as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"entered\":{},\"exited\":{},\"in_flight\":{},\"latency_ns\":{}}}",
            self.entered,
            self.exited,
            self.in_flight,
            self.latency_ns.to_json()
        )
    }
}

/// Scales a similarity in `[-1, 1]` to an integer number of thousandths for
/// the value histogram (negative similarities clamp to bucket zero — the
/// thresholds the pipeline cares about are all positive).
pub fn sim_millis(sim: f64) -> u64 {
    (sim.clamp(0.0, 1.0) * 1000.0).round() as u64
}

/// Band around a decision threshold that counts as "near": the
/// near-threshold instrument reports comparisons within `1e-3` of φ or ¾φ,
/// the population whose verdicts rounding error could plausibly flip.
pub const NEAR_THRESHOLD_BAND: f64 = 1e-3;

/// The observability registry wired through the batch analysis pipeline.
///
/// One instance is shared by every thread of a run (all fields are atomic;
/// the struct is `Sync`). Every instrumented entry point takes
/// `Option<&PipelineObs>` — pass `None` and the pipeline runs exactly as
/// before, bit for bit.
#[derive(Debug, Default)]
pub struct PipelineObs {
    /// Per-series profile construction ([`crate::engine::profile_series`]).
    pub profile_build: Stage,
    /// Condensed-matrix row fill ([`crate::engine::cor_matrix`]); one span
    /// per row, across all worker threads.
    pub row_fill: Stage,
    /// One whole motif-discovery run.
    pub motif_discovery: Stage,
    /// One strong-stationarity sweep over a window set.
    pub stationarity_sweep: Stage,
    /// One granularity-pyramid construction (prefix sums plus levels) for a
    /// series entering the Definition-3 sweep.
    pub pyramid_build: Stage,
    /// One `(granularity, offset)` re-binning inside the sweep, whichever
    /// path served it.
    pub rebin: Stage,
    /// One window-set scoring pass (profiles plus the fused pair loop) for
    /// one sweep cell.
    pub window_score: Stage,
    /// Per-series pruning-sketch construction
    /// ([`crate::engine::sketch_series`]).
    pub sketch_build: Stage,
    /// One `(series, scale)` lag-search preparation: the correlation kernel
    /// side, pruning sketch and energy/missingness prefixes built on top of
    /// the re-binned series ([`crate::lagsearch`]).
    pub lag_prepare: Stage,
    /// One `(pair, scale)` lag-search scan: the prune cascade plus the
    /// exact cells across the whole lag range.
    pub lag_pair_scan: Stage,
    /// Pairs whose similarity was compared against φ in the motif
    /// candidate scan: the survivors of the prune tiers
    /// (`prune_pairs_evaluated` of the discovery's matrix build).
    pub pairs_evaluated: Counter,
    /// Pairs accepted as motif candidates (`cor ≥ φ`).
    pub candidate_pairs: Counter,
    /// Pairs pruned below φ in the candidate scan.
    pub pairs_pruned: Counter,
    /// Windows added to an existing motif during greedy growth.
    pub members_grown: Counter,
    /// Motif pairs unified in the merge phase.
    pub motifs_merged: Counter,
    /// Comparisons landing within [`NEAR_THRESHOLD_BAND`] of φ.
    pub near_phi: Counter,
    /// Comparisons landing within [`NEAR_THRESHOLD_BAND`] of ¾φ.
    pub near_group: Counter,
    /// Near-threshold comparisons re-verified in f64 (the
    /// `CondensedMatrix` f32 quantization guard).
    pub f64_reverified: Counter,
    /// Two-sample KS tests run by stationarity sweeps.
    pub ks_tests: Counter,
    /// Re-binnings served from prefix sums (pyramid base or a level).
    pub rebins_pyramid: Counter,
    /// Re-binnings that fell back to direct summation (non-integer series).
    pub rebins_direct: Counter,
    /// Pyramid re-binnings that folded from a coarse level rather than the
    /// per-sample base (a subset of `rebins_pyramid`).
    pub level_folds: Counter,
    /// Pairs a pruned matrix build considered (its conservation total:
    /// the three prune tiers plus exact evaluations sum to this).
    pub prune_pairs_total: Counter,
    /// Pairs dismissed by the degenerate tier (constant side or too few
    /// shared observations).
    pub pairs_pruned_degenerate: Counter,
    /// Pairs dismissed by the symbolized (SAX MINDIST) bound tier.
    pub pairs_pruned_sax: Counter,
    /// Pairs dismissed by the segment-mean (moment signature) bound tier.
    pub pairs_pruned_moment: Counter,
    /// Pairs that fell through pruning and were evaluated exactly.
    pub prune_pairs_evaluated: Counter,
    /// Exactly-evaluated pairs that were ineligible for pruning because
    /// their finite masks differ (a subset of `prune_pairs_evaluated`).
    pub prune_mask_fallthrough: Counter,
    /// Lag-search `(pair, scale, lag)` cells considered — the conservation
    /// total: the three prune tiers plus exact evaluations sum to this.
    pub lag_cells_total: Counter,
    /// Lag cells dismissed wholesale because a side is degenerate at that
    /// scale (no observations or zero variance).
    pub lag_cells_pruned_degenerate: Counter,
    /// Lag-0 cells dismissed by the [`wtts_stats::prune_pair`] coefficient
    /// upper bounds on a shared finite mask.
    pub lag_cells_pruned_sketch: Counter,
    /// Lag cells dismissed by the segmented Cauchy–Schwarz energy bound.
    pub lag_cells_pruned_energy: Counter,
    /// Lag cells that fell through pruning and were evaluated exactly.
    pub lag_cells_evaluated: Counter,
    /// Pairwise similarities observed by stationarity sweeps, in
    /// thousandths (see [`sim_millis`]).
    pub stationarity_sim_millis: LogHistogram,
}

impl PipelineObs {
    /// An empty registry.
    pub fn new() -> PipelineObs {
        PipelineObs::default()
    }

    /// Point-in-time copy of every stage and counter (relaxed loads; cheap
    /// enough to poll while the pipeline runs).
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            stages: vec![
                ("profile_build", self.profile_build.snapshot()),
                ("row_fill", self.row_fill.snapshot()),
                ("motif_discovery", self.motif_discovery.snapshot()),
                ("stationarity_sweep", self.stationarity_sweep.snapshot()),
                ("pyramid_build", self.pyramid_build.snapshot()),
                ("rebin", self.rebin.snapshot()),
                ("window_score", self.window_score.snapshot()),
                ("sketch_build", self.sketch_build.snapshot()),
                ("lag_prepare", self.lag_prepare.snapshot()),
                ("lag_pair_scan", self.lag_pair_scan.snapshot()),
            ],
            counters: vec![
                ("pairs_evaluated", self.pairs_evaluated.get()),
                ("candidate_pairs", self.candidate_pairs.get()),
                ("pairs_pruned", self.pairs_pruned.get()),
                ("members_grown", self.members_grown.get()),
                ("motifs_merged", self.motifs_merged.get()),
                ("near_phi", self.near_phi.get()),
                ("near_group", self.near_group.get()),
                ("f64_reverified", self.f64_reverified.get()),
                ("ks_tests", self.ks_tests.get()),
                ("rebins_pyramid", self.rebins_pyramid.get()),
                ("rebins_direct", self.rebins_direct.get()),
                ("level_folds", self.level_folds.get()),
                ("prune_pairs_total", self.prune_pairs_total.get()),
                (
                    "pairs_pruned_degenerate",
                    self.pairs_pruned_degenerate.get(),
                ),
                ("pairs_pruned_sax", self.pairs_pruned_sax.get()),
                ("pairs_pruned_moment", self.pairs_pruned_moment.get()),
                ("prune_pairs_evaluated", self.prune_pairs_evaluated.get()),
                ("prune_mask_fallthrough", self.prune_mask_fallthrough.get()),
                ("lag_cells_total", self.lag_cells_total.get()),
                (
                    "lag_cells_pruned_degenerate",
                    self.lag_cells_pruned_degenerate.get(),
                ),
                (
                    "lag_cells_pruned_sketch",
                    self.lag_cells_pruned_sketch.get(),
                ),
                (
                    "lag_cells_pruned_energy",
                    self.lag_cells_pruned_energy.get(),
                ),
                ("lag_cells_evaluated", self.lag_cells_evaluated.get()),
            ],
            stationarity_sim_millis: self.stationarity_sim_millis.snapshot(),
        }
    }
}

/// Serializable point-in-time report of a [`PipelineObs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Stage snapshots, in pipeline order, keyed by stage name.
    pub stages: Vec<(&'static str, StageSnapshot)>,
    /// Event counters, keyed by counter name.
    pub counters: Vec<(&'static str, u64)>,
    /// Value histogram of stationarity pair similarities (thousandths).
    pub stationarity_sim_millis: HistogramSnapshot,
}

impl ObsSnapshot {
    /// Whether every stage satisfies `entered == exited + in_flight`.
    pub fn conserved(&self) -> bool {
        self.stages.iter().all(|(_, s)| s.conserved())
    }

    /// Whether every stage is quiescent (`in_flight == 0`, books balanced).
    pub fn quiescent(&self) -> bool {
        self.stages.iter().all(|(_, s)| s.quiescent())
    }

    /// The value of a named counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The full report as a JSON object.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|(name, s)| format!("\"{name}\":{}", s.to_json()))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        format!(
            "{{\"stages\":{{{}}},\"counters\":{{{}}},\"stationarity_sim_millis\":{},\"conserved\":{},\"quiescent\":{}}}",
            stages.join(","),
            counters.join(","),
            self.stationarity_sim_millis.to_json(),
            self.conserved(),
            self.quiescent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = LogHistogram::new();
        for v in [0u64, 0] {
            h.record(v);
        }
        h.record(1); // bucket 1: [1, 2)
        h.record(2); // bucket 2: [2, 4)
        h.record(3);
        h.record(1024); // bucket 11
        let s = h.snapshot();
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[2], 2);
        assert_eq!(s.counts[11], 1);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn quantile_upper_is_conservative() {
        let h = LogHistogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // True median 49/50 lives in bucket 6 ([32, 64)); upper bound 63.
        assert_eq!(s.quantile_upper(0.5), 63);
        assert_eq!(s.quantile_upper(1.0), 127);
        assert_eq!(
            HistogramSnapshot {
                counts: vec![0; BUCKETS]
            }
            .quantile_upper(0.5),
            0
        );
    }

    #[test]
    fn stage_conservation_through_span_lifecycle() {
        let stage = Stage::default();
        let before = stage.snapshot();
        assert!(before.quiescent());
        {
            let _span = stage.enter();
            let open = stage.snapshot();
            assert_eq!(open.entered, 1);
            assert_eq!(open.in_flight, 1);
            assert_eq!(open.exited, 0);
            assert!(open.conserved());
            assert!(!open.quiescent());
        }
        let after = stage.snapshot();
        assert!(after.quiescent());
        assert_eq!(after.entered, 1);
        assert_eq!(after.exited, 1);
        assert_eq!(after.latency_ns.total(), 1);
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let obs = PipelineObs::new();
        {
            let _s = obs.row_fill.enter();
        }
        obs.near_phi.incr();
        let snap = obs.snapshot();
        assert!(snap.conserved());
        assert!(snap.quiescent());
        assert_eq!(snap.counter("near_phi"), 1);
        assert_eq!(snap.counter("no_such_counter"), 0);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"row_fill\":{\"entered\":1,\"exited\":1,\"in_flight\":0"));
        assert!(json.contains("\"near_phi\":1"));
        assert!(json.contains("\"conserved\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
        // An empty histogram has no mean; the report must say null, never
        // a bare NaN token (which is not JSON).
        let empty = HistogramSnapshot {
            counts: vec![0; BUCKETS],
        };
        assert!(empty.mean_upper().is_nan());
        assert!(empty.to_json().contains("\"mean_le\":null"));
        let h = LogHistogram::new();
        h.record(3);
        assert_eq!(h.snapshot().mean_upper(), 3.0);
        assert!(h.snapshot().to_json().contains("\"mean_le\":3"));
    }

    #[test]
    fn sim_millis_scales_and_clamps() {
        assert_eq!(sim_millis(0.8), 800);
        assert_eq!(sim_millis(0.6004), 600);
        assert_eq!(sim_millis(-0.5), 0);
        assert_eq!(sim_millis(1.5), 1000);
    }

    #[test]
    fn counters_accumulate() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn spans_across_threads_stay_conserved() {
        let stage = Stage::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let _span = stage.enter();
                    }
                });
            }
        });
        let s = stage.snapshot();
        assert!(s.quiescent());
        assert_eq!(s.entered, 800);
        assert_eq!(s.latency_ns.total(), 800);
    }
}
