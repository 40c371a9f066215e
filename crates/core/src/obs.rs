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
//! * [`Stage`] — entered/exited counters plus a latency histogram;
//!   [`Stage::enter`] returns a [`Span`] guard that times the stage and
//!   closes the books on drop. A snapshot derives `in_flight` as
//!   `entered − exited` from an ordered pair of loads, so
//!   `entered == exited + in_flight` holds in every snapshot, live ones
//!   included ([`StageSnapshot::conserved`]), and tightens to
//!   `entered == exited` at quiescence ([`StageSnapshot::quiescent`]).
//! * [`PipelineObs`] — the registry wired through the batch analysis
//!   pipeline, declared once as a table of stages and counters:
//!   correlation-engine profile build and row fill, motif discovery
//!   (candidate pairs evaluated / pruned / grown / merged, the
//!   near-threshold instrument), stationarity and granularity sweeps, and
//!   the prune tiers of the pruned matrix and the lag search.
//! * [`Law`] — a named conservation predicate. [`ObsSnapshot::LAWS`] and
//!   [`StageSnapshot::LAWS`] declare the laws of a settled run, and
//!   [`ObsSnapshot::check_laws`] names every one a snapshot breaks.
//!
//! **Zero cost when disabled.** Instrumented entry points take
//! `Option<&PipelineObs>`; with `None` no atomic is touched and no clock is
//! read, and results are bit-identical either way (the registry only
//! *observes* — it never feeds back into a decision).
//!
//! [`PipelineObs::snapshot`] is a handful of atomic loads producing an
//! [`ObsSnapshot`] with one typed field per stage and counter;
//! [`ObsSnapshot::to_json`] emits the report the `fleet_report
//! --metrics-json` example flag prints.

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

/// One pipeline stage: how many work items entered, how many exited, and a
/// log-bucketed latency histogram in nanoseconds. [`Stage::enter`] is the
/// only place a clock is read.
#[derive(Debug, Default)]
pub struct Stage {
    entered: Counter,
    /// Bumped with `Release` once a span's latency is recorded, so a
    /// snapshot that loads it with `Acquire` sees every counted exit's entry
    /// and latency sample.
    exited: Counter,
    latency_ns: LogHistogram,
}

impl Stage {
    /// Opens a span: increments `entered` and starts the timer. Dropping
    /// the returned [`Span`] records the latency and counts the exit.
    #[inline]
    pub fn enter(&self) -> Span<'_> {
        self.entered.incr();
        Span {
            stage: self,
            started: Instant::now(),
        }
    }

    /// Point-in-time copy of the stage counters. `exited` is loaded with
    /// `Acquire` before `entered`, so every span it counts has its entry
    /// counted too: `exited ≤ entered` in every snapshot, live or quiescent,
    /// and `in_flight` is the difference.
    pub fn snapshot(&self) -> StageSnapshot {
        let exited = self.exited.0.load(Ordering::Acquire);
        let entered = self.entered.get();
        StageSnapshot {
            entered,
            exited,
            in_flight: entered.saturating_sub(exited),
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
        self.stage.exited.0.fetch_add(1, Ordering::Release);
    }
}

/// Point-in-time copy of one [`Stage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Work items that entered the stage.
    pub entered: u64,
    /// Work items that exited the stage.
    pub exited: u64,
    /// Work items inside the stage at the snapshot (`entered − exited`).
    pub in_flight: u64,
    /// Stage latency histogram (nanoseconds).
    pub latency_ns: HistogramSnapshot,
}

impl StageSnapshot {
    /// The laws of a settled stage: nothing exits before it enters, nothing
    /// is left in flight, and every exit left one latency sample.
    pub const LAWS: &'static [Law<StageSnapshot>] = &[
        Law {
            name: "exited_le_entered",
            holds: |s| s.exited <= s.entered,
        },
        Law {
            name: "settled",
            holds: |s| s.in_flight == 0,
        },
        Law {
            name: "timed",
            holds: |s| s.latency_ns.total() == s.exited,
        },
    ];

    /// The per-stage conservation law: every entered item is either done or
    /// in flight. Holds in every snapshot [`Stage::snapshot`] takes.
    pub fn conserved(&self) -> bool {
        self.entered == self.exited + self.in_flight
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

/// A conservation law declared as data: a name and the predicate a
/// snapshot of type `S` satisfies when its books balance.
pub struct Law<S> {
    /// What `check_laws` reports when the predicate fails.
    pub name: &'static str,
    /// Whether the law holds on a snapshot.
    pub holds: fn(&S) -> bool,
}

/// Pushes onto `failed` the name, prefixed with `scope`, of every law in
/// `laws` that `snapshot` breaks.
pub(crate) fn check<S>(laws: &[Law<S>], snapshot: &S, scope: &str, failed: &mut Vec<String>) {
    for law in laws {
        if !(law.holds)(snapshot) {
            failed.push(format!("{scope}{}", law.name));
        }
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

/// Declares the analysis registry from one ordered table: each stage and
/// counter becomes a field of [`PipelineObs`] and of [`ObsSnapshot`], one
/// load in [`PipelineObs::snapshot`] and one key of [`ObsSnapshot::to_json`],
/// all in table order.
macro_rules! obs_registry {
    (
        stages { $( $(#[$stage_doc:meta])* $stage:ident, )* }
        counters { $( $(#[$counter_doc:meta])* $counter:ident, )* }
    ) => {
        /// The observability registry wired through the batch analysis
        /// pipeline.
        ///
        /// One instance is shared by every thread of a run (all fields are
        /// atomic; the struct is `Sync`). Every instrumented entry point takes
        /// `Option<&PipelineObs>` — pass `None` and the pipeline runs exactly
        /// as before, bit for bit.
        #[derive(Debug, Default)]
        pub struct PipelineObs {
            $( $(#[$stage_doc])* pub $stage: Stage, )*
            $( $(#[$counter_doc])* pub $counter: Counter, )*
            /// Pairwise similarities observed by stationarity sweeps, in
            /// thousandths (see [`sim_millis`]).
            pub stationarity_sim_millis: LogHistogram,
        }

        /// Serializable point-in-time report of a [`PipelineObs`]: one typed
        /// field per stage and counter.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct ObsSnapshot {
            $( $(#[$stage_doc])* pub $stage: StageSnapshot, )*
            $( $(#[$counter_doc])* pub $counter: u64, )*
            /// Value histogram of stationarity pair similarities (thousandths).
            pub stationarity_sim_millis: HistogramSnapshot,
        }

        impl PipelineObs {
            /// Point-in-time copy of every stage and counter (cheap enough to
            /// poll while the pipeline runs).
            pub fn snapshot(&self) -> ObsSnapshot {
                ObsSnapshot {
                    $( $stage: self.$stage.snapshot(), )*
                    $( $counter: self.$counter.get(), )*
                    stationarity_sim_millis: self.stationarity_sim_millis.snapshot(),
                }
            }
        }

        impl ObsSnapshot {
            fn stages(&self) -> Vec<(&'static str, &StageSnapshot)> {
                vec![$( (stringify!($stage), &self.$stage), )*]
            }

            fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($counter), self.$counter), )*]
            }
        }
    };
}

obs_registry! {
    stages {
        /// Per-series profile construction ([`crate::engine::profile_series`]).
        profile_build,
        /// Condensed-matrix row fill ([`crate::engine::cor_matrix`]); one span
        /// per row, across all worker threads.
        row_fill,
        /// One whole motif-discovery run.
        motif_discovery,
        /// One strong-stationarity sweep over a window set.
        stationarity_sweep,
        /// One granularity-pyramid construction (prefix sums plus levels) for
        /// a series entering the Definition-3 sweep.
        pyramid_build,
        /// One `(granularity, offset)` re-binning inside the sweep, whichever
        /// path served it.
        rebin,
        /// One window-set scoring pass (profiles plus the fused pair loop)
        /// for one sweep cell.
        window_score,
        /// Per-series pruning-sketch construction
        /// ([`crate::engine::sketch_series`]).
        sketch_build,
        /// One `(series, scale)` lag-search preparation: the correlation
        /// kernel side, pruning sketch and energy/missingness prefixes built
        /// on top of the re-binned series ([`crate::lagsearch`]).
        lag_prepare,
        /// One `(pair, scale)` lag-search scan: the prune cascade plus the
        /// exact cells across the whole lag range.
        lag_pair_scan,
    }
    counters {
        /// Pairs whose similarity was compared against φ in the motif
        /// candidate scan: the survivors of the prune tiers
        /// (`prune_pairs_evaluated` of the discovery's matrix build).
        pairs_evaluated,
        /// Pairs accepted as motif candidates (`cor ≥ φ`).
        candidate_pairs,
        /// Pairs pruned below φ in the candidate scan.
        pairs_pruned,
        /// Windows added to an existing motif during greedy growth.
        members_grown,
        /// Motif pairs unified in the merge phase.
        motifs_merged,
        /// Comparisons landing within [`NEAR_THRESHOLD_BAND`] of φ.
        near_phi,
        /// Comparisons landing within [`NEAR_THRESHOLD_BAND`] of ¾φ.
        near_group,
        /// Near-threshold comparisons re-verified in f64 (the
        /// `CondensedMatrix` f32 quantization guard).
        f64_reverified,
        /// Two-sample KS tests run by stationarity sweeps.
        ks_tests,
        /// Re-binnings served from prefix sums (pyramid base or a level).
        rebins_pyramid,
        /// Re-binnings that fell back to direct summation (non-integer
        /// series).
        rebins_direct,
        /// Pyramid re-binnings that folded from a coarse level rather than
        /// the per-sample base (a subset of `rebins_pyramid`).
        level_folds,
        /// Pairs a pruned matrix build considered (its conservation total:
        /// the three prune tiers plus exact evaluations sum to this).
        prune_pairs_total,
        /// Pairs dismissed by the degenerate tier (constant side or too few
        /// shared observations).
        pairs_pruned_degenerate,
        /// Pairs dismissed by the symbolized (SAX MINDIST) bound tier.
        pairs_pruned_sax,
        /// Pairs dismissed by the segment-mean (moment signature) bound tier.
        pairs_pruned_moment,
        /// Pairs that fell through pruning and were evaluated exactly.
        prune_pairs_evaluated,
        /// Exactly-evaluated pairs that were ineligible for pruning because
        /// their finite masks differ (a subset of `prune_pairs_evaluated`).
        prune_mask_fallthrough,
        /// Lag-search `(pair, scale, lag)` cells considered — the
        /// conservation total: the three prune tiers plus exact evaluations
        /// sum to this.
        lag_cells_total,
        /// Lag cells dismissed wholesale because a side is degenerate at that
        /// scale (no observations or zero variance).
        lag_cells_pruned_degenerate,
        /// Lag-0 cells dismissed by the [`wtts_stats::prune_pair`]
        /// coefficient upper bounds on a shared finite mask.
        lag_cells_pruned_sketch,
        /// Lag cells dismissed by the segmented Cauchy–Schwarz energy bound.
        lag_cells_pruned_energy,
        /// Lag cells that fell through pruning and were evaluated exactly.
        lag_cells_evaluated,
    }
}

impl PipelineObs {
    /// An empty registry.
    pub fn new() -> PipelineObs {
        PipelineObs::default()
    }
}

impl ObsSnapshot {
    /// The counter laws of a settled analysis run: the prune and lag tiers
    /// each cover their total, every candidate-scan comparison is accepted
    /// or pruned, and every re-binning took exactly one path.
    pub const LAWS: &'static [Law<ObsSnapshot>] = &[
        Law {
            name: "prune_tiers",
            holds: |o| {
                o.pairs_pruned_degenerate
                    + o.pairs_pruned_sax
                    + o.pairs_pruned_moment
                    + o.prune_pairs_evaluated
                    == o.prune_pairs_total
            },
        },
        Law {
            name: "lag_tiers",
            holds: |o| {
                o.lag_cells_pruned_degenerate
                    + o.lag_cells_pruned_sketch
                    + o.lag_cells_pruned_energy
                    + o.lag_cells_evaluated
                    == o.lag_cells_total
            },
        },
        Law {
            name: "motif_candidates",
            holds: |o| o.candidate_pairs + o.pairs_pruned == o.pairs_evaluated,
        },
        Law {
            name: "rebin_paths",
            holds: |o| o.rebins_pyramid + o.rebins_direct == o.rebin.entered,
        },
        Law {
            name: "level_folds",
            holds: |o| o.level_folds <= o.rebins_pyramid,
        },
    ];

    /// Names of the laws this snapshot breaks — each stage's
    /// [`StageSnapshot::LAWS`] as `"<stage>.<law>"`, then
    /// [`ObsSnapshot::LAWS`] — empty when the books balance. Judges a
    /// settled snapshot, taken after the observed work returned.
    pub fn check_laws(&self) -> Vec<String> {
        let mut failed = Vec::new();
        for (name, stage) in self.stages() {
            check(StageSnapshot::LAWS, stage, &format!("{name}."), &mut failed);
        }
        check(Self::LAWS, self, "", &mut failed);
        failed
    }

    /// Whether every stage satisfies `entered == exited + in_flight`.
    pub fn conserved(&self) -> bool {
        self.stages().iter().all(|(_, s)| s.conserved())
    }

    /// Whether every stage is quiescent (`in_flight == 0`, books balanced).
    pub fn quiescent(&self) -> bool {
        self.stages().iter().all(|(_, s)| s.quiescent())
    }

    /// The full report as a JSON object.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages()
            .iter()
            .map(|(name, s)| format!("\"{name}\":{}", s.to_json()))
            .collect();
        let counters: Vec<String> = self
            .counters()
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
        assert_eq!(snap.near_phi, 1);
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

    /// Regression: a snapshot taken while other threads open and close
    /// spans keeps `entered == exited + in_flight`. Spans used to close by
    /// decrementing an `in_flight` atomic before bumping `exited`, and a
    /// snapshot loading the three separately between those two steps
    /// under-counted the right-hand side.
    #[test]
    fn live_snapshots_stay_conserved() {
        let stage = Stage::default();
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..200_000 {
                            let _span = stage.enter();
                        }
                    })
                })
                .collect();
            start.wait();
            while !workers.iter().all(|w| w.is_finished()) {
                let s = stage.snapshot();
                assert!(s.conserved(), "live snapshot broke its law: {s:?}");
            }
        });
        assert!(stage.snapshot().quiescent());
    }

    fn settled(n: u64) -> StageSnapshot {
        StageSnapshot {
            entered: n,
            exited: n,
            in_flight: 0,
            latency_ns: HistogramSnapshot {
                counts: vec![1, n - 1],
            },
        }
    }

    /// A settled snapshot in which every law holds and every counter a law
    /// reads is distinct and non-zero, so a dropped term breaks a law.
    fn lawful() -> ObsSnapshot {
        ObsSnapshot {
            rebin: settled(50),
            window_score: settled(9),
            pairs_evaluated: 30,
            candidate_pairs: 12,
            pairs_pruned: 18,
            rebins_pyramid: 41,
            rebins_direct: 9,
            level_folds: 7,
            prune_pairs_total: 100,
            pairs_pruned_degenerate: 11,
            pairs_pruned_sax: 22,
            pairs_pruned_moment: 33,
            prune_pairs_evaluated: 34,
            lag_cells_total: 200,
            lag_cells_pruned_degenerate: 41,
            lag_cells_pruned_sketch: 52,
            lag_cells_pruned_energy: 63,
            lag_cells_evaluated: 44,
            ..ObsSnapshot::default()
        }
    }

    /// Each declared law, broken by perturbing one input of a lawful
    /// snapshot, is reported alone and by name.
    #[test]
    fn each_law_reports_exactly_its_own_name() {
        assert_eq!(lawful().check_laws(), Vec::<String>::new());

        type Perturb<S> = fn(&mut S);
        let stage_cases: [(&str, Perturb<StageSnapshot>); 3] = [
            ("exited_le_entered", |s| s.entered -= 1),
            ("settled", |s| s.in_flight += 1),
            ("timed", |s| s.latency_ns.counts[0] += 1),
        ];
        let declared: Vec<&str> = StageSnapshot::LAWS.iter().map(|l| l.name).collect();
        assert_eq!(stage_cases.map(|(name, _)| name).to_vec(), declared);
        for (name, perturb) in stage_cases {
            let mut obs = lawful();
            perturb(&mut obs.window_score);
            assert_eq!(obs.check_laws(), [format!("window_score.{name}")]);
        }

        let obs_cases: [(&str, Perturb<ObsSnapshot>); 5] = [
            ("prune_tiers", |o| o.pairs_pruned_sax += 1),
            ("lag_tiers", |o| o.lag_cells_pruned_energy += 1),
            ("motif_candidates", |o| o.candidate_pairs += 1),
            ("rebin_paths", |o| o.rebins_direct += 1),
            ("level_folds", |o| o.level_folds = o.rebins_pyramid + 1),
        ];
        let declared: Vec<&str> = ObsSnapshot::LAWS.iter().map(|l| l.name).collect();
        assert_eq!(obs_cases.map(|(name, _)| name).to_vec(), declared);
        for (name, perturb) in obs_cases {
            let mut obs = lawful();
            perturb(&mut obs);
            assert_eq!(obs.check_laws(), [name]);
        }
    }

    /// Pins the JSON report byte for byte on a registry in which every
    /// stage and counter holds a distinct value, so a reordered, renamed or
    /// dropped key cannot pass.
    #[test]
    fn obs_snapshot_json_is_pinned() {
        let obs = PipelineObs::new();
        let stages = [
            &obs.profile_build,
            &obs.row_fill,
            &obs.motif_discovery,
            &obs.stationarity_sweep,
            &obs.pyramid_build,
            &obs.rebin,
            &obs.window_score,
            &obs.sketch_build,
            &obs.lag_prepare,
            &obs.lag_pair_scan,
        ];
        for (k, stage) in (1u64..).zip(stages) {
            stage.entered.add(k);
            stage.exited.add(k);
            stage.latency_ns.record(k * 100);
        }
        let counters = [
            &obs.pairs_evaluated,
            &obs.candidate_pairs,
            &obs.pairs_pruned,
            &obs.members_grown,
            &obs.motifs_merged,
            &obs.near_phi,
            &obs.near_group,
            &obs.f64_reverified,
            &obs.ks_tests,
            &obs.rebins_pyramid,
            &obs.rebins_direct,
            &obs.level_folds,
            &obs.prune_pairs_total,
            &obs.pairs_pruned_degenerate,
            &obs.pairs_pruned_sax,
            &obs.pairs_pruned_moment,
            &obs.prune_pairs_evaluated,
            &obs.prune_mask_fallthrough,
            &obs.lag_cells_total,
            &obs.lag_cells_pruned_degenerate,
            &obs.lag_cells_pruned_sketch,
            &obs.lag_cells_pruned_energy,
            &obs.lag_cells_evaluated,
        ];
        for (k, counter) in (11u64..).zip(counters) {
            counter.add(k);
        }
        obs.stationarity_sim_millis.record(600);
        obs.stationarity_sim_millis.record(850);
        assert_eq!(
            obs.snapshot().to_json(),
            r#"{"stages":{"profile_build":{"entered":1,"exited":1,"in_flight":0,"latency_ns":{"count":1,"p50_le":127,"p99_le":127,"mean_le":127,"buckets":[[127,1]]}},"row_fill":{"entered":2,"exited":2,"in_flight":0,"latency_ns":{"count":1,"p50_le":255,"p99_le":255,"mean_le":255,"buckets":[[255,1]]}},"motif_discovery":{"entered":3,"exited":3,"in_flight":0,"latency_ns":{"count":1,"p50_le":511,"p99_le":511,"mean_le":511,"buckets":[[511,1]]}},"stationarity_sweep":{"entered":4,"exited":4,"in_flight":0,"latency_ns":{"count":1,"p50_le":511,"p99_le":511,"mean_le":511,"buckets":[[511,1]]}},"pyramid_build":{"entered":5,"exited":5,"in_flight":0,"latency_ns":{"count":1,"p50_le":511,"p99_le":511,"mean_le":511,"buckets":[[511,1]]}},"rebin":{"entered":6,"exited":6,"in_flight":0,"latency_ns":{"count":1,"p50_le":1023,"p99_le":1023,"mean_le":1023,"buckets":[[1023,1]]}},"window_score":{"entered":7,"exited":7,"in_flight":0,"latency_ns":{"count":1,"p50_le":1023,"p99_le":1023,"mean_le":1023,"buckets":[[1023,1]]}},"sketch_build":{"entered":8,"exited":8,"in_flight":0,"latency_ns":{"count":1,"p50_le":1023,"p99_le":1023,"mean_le":1023,"buckets":[[1023,1]]}},"lag_prepare":{"entered":9,"exited":9,"in_flight":0,"latency_ns":{"count":1,"p50_le":1023,"p99_le":1023,"mean_le":1023,"buckets":[[1023,1]]}},"lag_pair_scan":{"entered":10,"exited":10,"in_flight":0,"latency_ns":{"count":1,"p50_le":1023,"p99_le":1023,"mean_le":1023,"buckets":[[1023,1]]}}},"counters":{"pairs_evaluated":11,"candidate_pairs":12,"pairs_pruned":13,"members_grown":14,"motifs_merged":15,"near_phi":16,"near_group":17,"f64_reverified":18,"ks_tests":19,"rebins_pyramid":20,"rebins_direct":21,"level_folds":22,"prune_pairs_total":23,"pairs_pruned_degenerate":24,"pairs_pruned_sax":25,"pairs_pruned_moment":26,"prune_pairs_evaluated":27,"prune_mask_fallthrough":28,"lag_cells_total":29,"lag_cells_pruned_degenerate":30,"lag_cells_pruned_sketch":31,"lag_cells_pruned_energy":32,"lag_cells_evaluated":33},"stationarity_sim_millis":{"count":2,"p50_le":1023,"p99_le":1023,"mean_le":1023,"buckets":[[1023,2]]},"conserved":true,"quiescent":true}"#
        );
    }
}
