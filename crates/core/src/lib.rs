//! The analysis framework of *"Characterizing Home Device Usage From
//! Wireless Traffic Time Series"* (EDBT 2016).
//!
//! The paper proposes five definitions that this crate implements directly:
//!
//! 1. [`similarity`] — the **correlation similarity measure** `cor(X, Y)`:
//!    the maximum statistically significant Pearson/Spearman/Kendall
//!    coefficient, `0` when none is significant (Definition 1).
//! 2. [`stationarity`] — **strong stationarity**: pairwise `cor > 0.6` *and*
//!    indistinguishable value distributions (Kolmogorov–Smirnov) across all
//!    non-overlapping windows (Definition 2).
//! 3. [`aggregation`] — the **best aggregation granularity**: the binning
//!    maximizing expected window-to-window correlation (Definition 3).
//! 4. [`dominance`] — **φ-dominant devices**: devices whose traffic tracks
//!    the gateway total with `cor ≥ φ` (Definition 4), plus the Euclidean
//!    and traffic-volume baselines the paper compares against.
//! 5. [`motif`] — **motifs**: sets of calendar windows, within or across
//!    gateways, with individual similarity ≥ φ and group similarity ≥ ¾φ
//!    (Definition 5), including motif merging.
//!
//! Supporting machinery: [`background`] (per-device background-traffic
//! thresholds from boxplot whiskers, Section 6.1), [`clustering`]
//! (hierarchical clustering under the `1 − cor` distance, Figure 3),
//! [`sax`] (a SAX baseline quantifying why symbol-based motif tools fail on
//! Zipfian traffic, Section 2), [`engine`] (the batch
//! pairwise-correlation engine: per-series profiles plus a parallel
//! upper-triangle kernel, bit-identical to per-pair [`similarity`] calls,
//! with a sketch-pruned sparse variant that discards provably
//! below-threshold pairs without exact work — at threshold ≤ 0 it prunes
//! nothing and *is* the dense build),
//! [`sweep`] (the granularity-pyramid sweep engine that evaluates
//! Definition 3's whole candidate grid from exact prefix sums, bit-identical
//! to the per-call path), [`lagsearch`] (the multi-scale lead/lag discovery
//! engine: every gateway pair's cross-correlogram at every candidate scale,
//! folded from cached pyramid levels and pruned by sketch and segmented
//! energy bounds, bit-identical to dense per-cell CCF) and [`obs`]
//! (lock-free pipeline observability:
//! per-stage counters, log-bucketed histograms, span timers and a
//! conservation-checked snapshot, zero-cost when disabled).
//!
//! Beyond the paper's evaluation, the crate also ships the applications its
//! introduction motivates and the future work its conclusion names:
//! [`maintenance`] (per-home firmware-update windows), [`anomaly`]
//! (behavioral contrast for remote troubleshooting), [`profile`] (the
//! all-in-one gateway report), [`streaming`] (online correlation, window
//! accumulation and motif matching for a Storm/Kinesis-style deployment)
//! and [`ingest`] (the sharded fleet ingest pipeline that turns raw
//! cumulative counter reports into sealed windows, motif support counts and
//! dominance rankings, with typed degradation and atomic metrics instead of
//! panics — plus [`ingest::durable`], its write-ahead log / snapshot /
//! deterministic-recovery layer for surviving process crashes with
//! bit-identical results).
//!
//! Each question has one entry point, taking
//! `obs: Option<&PipelineObs>` where the run can be observed:
//! [`cor_matrix`] / [`cor_matrix_pruned`] for a pair set (Definition 1),
//! [`strong_stationarity`] for a window set (Definition 2),
//! [`weekly_sweep`] / [`daily_sweep`] for a granularity grid
//! (Definition 3), [`dominant_devices`] (Definition 4),
//! [`discover_motifs_indexed`] for a window family (Definition 5;
//! [`discover_motifs`] is the one-shot form) and [`lag_search`]. Dense
//! search is never a separate path: it is the pruned path at a threshold
//! ≤ 0, where nothing is pruned and the output is bit-identical. Every
//! parallel grid runs on one work-stealing helper in [`engine`].

pub mod aggregation;
pub mod anomaly;
pub mod background;
pub mod clustering;
pub mod dominance;
pub mod engine;
pub mod ingest;
pub mod lagsearch;
pub mod maintenance;
pub mod motif;
pub mod obs;
pub mod profile;
pub mod sax;
pub mod similarity;
pub mod stationarity;
pub mod streaming;
pub mod sweep;

pub use aggregation::{best_score, GranularityScore};
pub use anomaly::{AnomalyConfig, AnomalyDetector, Verdict};
pub use background::{estimate_tau, remove_background, BackgroundProfile, TauGroup, TAU_CAP};
pub use clustering::{cluster_correlated, correlation_components, Dendrogram};
pub use dominance::{
    dominant_devices, euclidean_ranking, rank_dominants, ranking_agreement, volume_ranking,
    DominantDevice, DOMINANCE_PHI,
};
pub use engine::{
    cor_matrix, cor_matrix_pruned, cor_profiled, correlation_similarity_profiled, profile_series,
    sketch_series, CondensedMatrix, CorMatrixConfig, PruneConfig, PruneStats, SparseCorMatrix,
};
pub use ingest::durable::{
    segment_files, snapshot_coverage, wal_disk_usage, Durability, DurableConfig, DurableError,
    DurablePipeline, DurableRun, FaultKind, FaultSpec, FaultyFs, IoPolicy, KillMode, KillPoint,
    LockError, StdFs, WalFs, LOCK_FILE,
};
pub use ingest::{
    DropReason, GatewaySummary, IngestConfig, IngestMetrics, IngestOutcome, IngestPipeline,
    IngestReport, IngestSummary, MetricsSnapshot, ShardCounts, ShardSnapshot,
};
pub use lagsearch::{
    lag_search, LagCell, LagPruneStats, LagSearchConfig, LagSearchResult, LeadLag, PairScaleCcf,
};
pub use maintenance::{MaintenanceWindow, WeeklyProfile};
pub use motif::{
    discover_motifs, discover_motifs_indexed, Motif, MotifConfig, MotifIndex, WindowRef,
    F32_REVERIFY_BAND,
};
pub use obs::{
    HistogramSnapshot, Law, LogHistogram, ObsSnapshot, PipelineObs, Stage, StageSnapshot,
    NEAR_THRESHOLD_BAND,
};
pub use profile::GatewayProfile;
pub use similarity::{cor, cor_at_least, cor_distance, correlation_similarity, CorSimilarity};
pub use stationarity::{strong_stationarity, StationarityCheck, STATIONARITY_COR};
pub use streaming::{
    best_match, CompletedWindow, LateSample, MatchOutcome, MotifTemplate, OnlinePearson,
    WindowAccumulator,
};
pub use sweep::{
    daily_cell, daily_sweep, weekly_cell, weekly_sweep, DailyCell, DailySweep, SweepConfig,
    WeeklyCell, WeeklySweep,
};
