//! Fleet-scale streaming ingest: raw counter reports → calendar windows →
//! online motif/dominance analysis, sharded and observable.
//!
//! The paper's stated future work is running its correlation and motif
//! framework "in a streaming big data analytics platform"; the ROADMAP
//! north-star is a production system serving millions of gateways. This
//! module is that deployment's ingest tier, built from the streaming
//! primitives ([`WindowAccumulator`], [`OnlinePearson`], the motif-template
//! matcher) and the counter-decoding rules of
//! [`wtts_timeseries::counter_delta`]:
//!
//! ```text
//!                      hash(gateway) % shards
//! (gateway, device, CounterReport) ──┬──▶ [bounded queue] ─▶ shard worker 0
//!        producer (any source)       ├──▶ [bounded queue] ─▶ shard worker 1
//!                                    └──▶ [bounded queue] ─▶ shard worker …
//!
//! each shard worker, per gateway "lane":
//!   cumulative counters ─▶ per-minute deltas ─▶ per-minute gateway totals
//!     ─▶ WindowAccumulator ─▶ completed windows ─▶ motif matching
//!     └▶ per-device OnlinePearson vs. the total ─▶ φ-dominance ranking
//! ```
//!
//! **Degradation over panics.** Real collection infrastructure produces
//! late, duplicated, clock-skewed and reset-spanning reports constantly. A
//! `panic!` on one bad report is a fleet-wide denial of service in a
//! long-running pipeline, so every malformed input becomes a typed, counted
//! outcome instead: [`DropReason::Late`], [`DropReason::Duplicate`],
//! [`DropReason::FutureJump`] for dropped reports, and
//! [`IngestOutcome::ResetSpanningGap`] for reports that are accepted but
//! whose byte delta is unattributable (see [`CounterDelta`]). The
//! invariant `ingested + dropped == offered` is maintained by construction
//! and checked, with the other laws of [`MetricsSnapshot::LAWS`], by
//! [`MetricsSnapshot::check_laws`].
//!
//! **Scale-out.** Gateways are hash-partitioned across worker shards run
//! under [`std::thread::scope`]; each shard owns its gateways exclusively,
//! so no lock is taken on the analysis state and results are *identical for
//! every shard count*. Queues are bounded — a slow shard back-pressures the
//! producer instead of buffering unbounded memory.
//!
//! **Observability.** All counters are declared once, in one ordered
//! table that generates the atomic [`IngestMetrics`] registry shared
//! between producer, shards and any monitoring thread, its
//! [`MetricsSnapshot`] and the per-shard ledger.
//! [`IngestMetrics::snapshot`] is a handful of relaxed loads and can be
//! called at any rate while ingest runs. Shard workers classify outcomes
//! into a plain per-shard [`ShardCounts`] ledger on the hot path and fold
//! the deltas into the atomic registry once per batch, so the live view
//! lags a batch at most and the ledger itself is what snapshots persist.
//!
//! **Durability.** The [`durable`] submodule adds a rotated, checksummed,
//! per-shard write-ahead log of consumed reports (length-bounded segments,
//! compacted once a snapshot covers them), periodic snapshots of the full
//! shard state, a single-writer lock, and a deterministic `recover()` path
//! that stitches segments and replays the tail. I/O faults are retried
//! under a bounded budget and then *degrade* the shard — the run keeps
//! computing and every unlogged report becomes a typed, counted durability
//! gap ([`MetricsSnapshot::durably_accounted`]) — see its docs for the
//! recovery invariants.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

pub mod durable;

use crate::dominance::{rank_dominants, DominantDevice, DOMINANCE_PHI};
use crate::obs::{check, Counter, Law, Stage, StageSnapshot};
use crate::streaming::{best_match, MatchOutcome, MotifTemplate, OnlinePearson, WindowAccumulator};
use wtts_timeseries::{counter_delta, CounterDelta, CounterReport, Minute, WindowKind};

/// One raw report entering the pipeline: both directions of one device's
/// cumulative byte counters, tagged with its gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// Gateway identifier (the shard key).
    pub gateway: u64,
    /// Device identifier within the gateway.
    pub device: u32,
    /// Reporting minute.
    pub at: Minute,
    /// Cumulative incoming bytes since the counter was created or reset.
    pub cum_in: u64,
    /// Cumulative outgoing bytes since the counter was created or reset.
    pub cum_out: u64,
}

/// Why a report was dropped instead of ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The report precedes its device's last accepted report, or its minute
    /// was already finalized and fed to the window accumulator.
    Late,
    /// Same timestamp as the device's last accepted report (a retry); the
    /// first delivery wins — its delta may already be finalized.
    Duplicate,
    /// The report jumps implausibly far into the future (corrupt timestamp
    /// or clock skew). A *sustained* advance — a gateway resuming after an
    /// outage — is accepted once a second report corroborates it.
    FutureJump,
}

/// Typed outcome of offering one report to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Decoded into a per-minute byte delta.
    Ingested,
    /// Accepted as a device's (new) baseline; no delta can be emitted yet.
    Baseline,
    /// Accepted, but the counter reset during a multi-minute gap: the delta
    /// is unattributable and the minute stays missing (the same rule as
    /// [`CounterDelta::ResetSpanningGap`] in batch decoding).
    ResetSpanningGap,
    /// Dropped for the given reason.
    Dropped(DropReason),
}

/// Configuration of the ingest pipeline.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of worker shards gateways are hash-partitioned across.
    pub shards: usize,
    /// Bounded queue capacity per shard, in batches; a full queue blocks
    /// the producer (backpressure) rather than buffering without bound.
    pub queue_batches: usize,
    /// Reports per batch handed from the producer to a shard.
    pub batch_reports: usize,
    /// Calendar window kind completed windows are cut into.
    pub window: WindowKind,
    /// Aggregation bin width in minutes (must divide the window length).
    pub bin_minutes: u32,
    /// How many minutes a gateway's per-minute total is held open for
    /// cross-device stragglers before it is finalized; contributions
    /// arriving later than this are dropped as [`DropReason::Late`].
    pub lateness_horizon: u32,
    /// A report more than this many minutes ahead of its device's last
    /// accepted report is dropped as [`DropReason::FutureJump`] unless a
    /// subsequent report corroborates the advance.
    pub max_future_jump: u32,
    /// Dominance threshold φ for the online per-device tracker.
    pub dominance_phi: f64,
    /// Similarity threshold for matching completed windows to templates.
    pub motif_threshold: f64,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            shards: std::thread::available_parallelism()
                .map(|p| p.get().min(8))
                .unwrap_or(1),
            queue_batches: 8,
            batch_reports: 1024,
            window: WindowKind::Daily,
            bin_minutes: 180,
            lateness_horizon: 5,
            max_future_jump: 6 * 60,
            dominance_phi: DOMINANCE_PHI,
            motif_threshold: 0.8,
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Per-shard gauges and counters.
#[derive(Debug, Default)]
struct ShardMetrics {
    queue_depth: AtomicUsize,
    queue_peak: AtomicUsize,
    processed: AtomicU64,
    /// Batch-processing stage: entered/exited batches plus a log-bucketed
    /// latency histogram (one span per popped batch).
    batch_stage: Stage,
    /// WAL append stage (durable runs): one span per popped batch, logged
    /// whole before any of it is consumed.
    wal_append: Stage,
    /// Snapshot-write stage (durable runs): one span per snapshot file.
    snapshot_write: Stage,
}

impl ShardMetrics {
    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            processed: self.processed.load(Ordering::Relaxed),
            batch_stage: self.batch_stage.snapshot(),
            wal_append: self.wal_append.snapshot(),
            snapshot_write: self.snapshot_write.snapshot(),
        }
    }
}

/// Declares the ingest counters from one ordered table (the JSON order).
/// Every entry is a [`Counter`] of [`IngestMetrics`] and a field of
/// [`MetricsSnapshot`]; its class says where else it lives:
///
/// * `ledger` — classified per report by a shard worker into its plain
///   [`ShardCounts`], which durable snapshots persist in table order and
///   `IngestMetrics::apply` folds into the registry once per batch;
/// * `stream` — counted on the registry by the producer or the WAL; like
///   the ledger, a pure function of the report stream;
/// * `durability` — bookkeeping that legitimately differs across a crash,
///   zeroed by [`MetricsSnapshot::replay_invariant_core`].
macro_rules! ingest_counters {
    ($( $(#[$doc:meta])* $class:ident $name:ident, )*) => {
        /// Atomic metrics registry shared by the producer, every shard worker
        /// and any observer thread. All updates are relaxed single-counter
        /// increments; [`IngestMetrics::snapshot`] never blocks ingest.
        #[derive(Debug)]
        pub struct IngestMetrics {
            $( $name: Counter, )*
            /// WAL-tail replay stage (one span per shard recovered).
            replay: Stage,
            shards: Vec<ShardMetrics>,
        }

        /// Point-in-time copy of the ingest counters.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
            /// Replay stage counters (one span per shard recovered).
            pub replay: StageSnapshot,
            /// Per-shard queue/throughput gauges.
            pub per_shard: Vec<ShardSnapshot>,
        }

        impl IngestMetrics {
            fn new(shards: usize) -> IngestMetrics {
                IngestMetrics {
                    $( $name: Counter::new(), )*
                    replay: Stage::default(),
                    shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
                }
            }

            /// A point-in-time copy of every counter (relaxed loads; cheap
            /// enough to poll at high rate while ingest runs).
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $name: self.$name.get(), )*
                    replay: self.replay.snapshot(),
                    per_shard: self.shards.iter().map(ShardMetrics::snapshot).collect(),
                }
            }
        }

        impl MetricsSnapshot {
            /// The deterministic projection of the snapshot: every field
            /// that is a pure function of the report stream, with the
            /// timing-dependent parts (latency histograms, queue gauges) and
            /// the `durability` counters, which legitimately differ across a
            /// crash, zeroed out. A recovered run and an uninterrupted run
            /// over the same stream must agree *exactly* on this projection
            /// — the headline invariant of [`durable`].
            pub fn replay_invariant_core(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $name: replay_invariant!($class, self.$name), )*
                    replay: StageSnapshot::default(),
                    per_shard: self
                        .per_shard
                        .iter()
                        .map(|s| ShardSnapshot {
                            processed: s.processed,
                            ..ShardSnapshot::default()
                        })
                        .collect(),
                }
            }

            fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($name), self.$name), )*]
            }
        }

        ledger!([] $( $(#[$doc])* $class $name, )*);
    };
}

/// A counter's value in [`MetricsSnapshot::replay_invariant_core`].
macro_rules! replay_invariant {
    (durability, $value:expr) => {
        0
    };
    (ledger, $value:expr) => {
        $value
    };
    (stream, $value:expr) => {
        $value
    };
}

/// Collects the `ledger` entries of the counter table, in order, and
/// declares [`ShardCounts`] from them.
macro_rules! ledger {
    ([$($kept:tt)*] $(#[$doc:meta])* ledger $name:ident, $($rest:tt)*) => {
        ledger!([$($kept)* $(#[$doc])* $name,] $($rest)*);
    };
    ([$($kept:tt)*] $(#[$doc:meta])* stream $name:ident, $($rest:tt)*) => {
        ledger!([$($kept)*] $($rest)*);
    };
    ([$($kept:tt)*] $(#[$doc:meta])* durability $name:ident, $($rest:tt)*) => {
        ledger!([$($kept)*] $($rest)*);
    };
    ([$( $(#[$doc:meta])* $name:ident, )*]) => {
        /// The plain (non-atomic) per-shard outcome ledger: the `ledger`
        /// counters of the table.
        ///
        /// Shard workers classify every report into this struct on the hot
        /// path — plain `u64` adds, no atomics — and fold the delta into the
        /// shared [`IngestMetrics`] once per batch. Because the ledger is an
        /// ordinary value owned by the shard, it serializes into durable
        /// snapshots and restores exactly, which is what lets a recovered
        /// run's metrics books match an uninterrupted run's bit for bit.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ShardCounts {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl ShardCounts {
            /// Field-wise difference `self - earlier` (the per-batch delta
            /// folded into the atomic registry). `earlier` must be a previous
            /// value of the same ledger, so every field of `self` is `>=` its
            /// counterpart.
            fn minus(&self, earlier: &ShardCounts) -> ShardCounts {
                ShardCounts { $( $name: self.$name - earlier.$name, )* }
            }

            /// The counters in table order (the durable snapshot codec).
            pub(crate) fn values(&self) -> impl Iterator<Item = u64> {
                [$( self.$name ),*].into_iter()
            }

            /// Rebuilds a ledger from its counters in table order.
            pub(crate) fn try_from_values<E>(
                mut next: impl FnMut() -> Result<u64, E>,
            ) -> Result<ShardCounts, E> {
                Ok(ShardCounts { $( $name: next()?, )* })
            }
        }

        impl IngestMetrics {
            /// Folds a per-shard ledger delta into the atomic registry.
            fn apply(&self, d: &ShardCounts) {
                $( self.$name.add(d.$name); )*
            }
        }
    };
}

ingest_counters! {
    /// Reports offered to the pipeline.
    stream offered,
    /// Reports accepted (including baselines and reset-spanning gaps).
    ledger ingested,
    /// Accepted reports that only (re-)established a device baseline.
    ledger baselines,
    /// Accepted reports whose delta was voided by a reset-spanning gap.
    ledger reset_spanning_gaps,
    /// Adjacent-minute counter resets decoded (reboot / wrap / rejoin).
    ledger counter_resets,
    /// Reports dropped as late.
    ledger dropped_late,
    /// Reports dropped as duplicates.
    ledger dropped_duplicate,
    /// Reports dropped as uncorroborated future jumps.
    ledger dropped_future_jump,
    /// Reports rejected because the shard queue was already closed (a
    /// producer racing shutdown — the typed outcome that replaced a silent
    /// enqueue-past-close bug; no worker will ever pop them).
    stream dropped_queue_closed,
    /// Complete calendar windows sealed across all gateways.
    ledger windows_sealed,
    /// Sealed windows that matched a motif template.
    ledger windows_matched,
    /// Sealed windows matching no template (novel behavior).
    ledger windows_novel,
    /// Sealed windows with too few observations to judge.
    ledger windows_insufficient,
    /// Trailing partial windows flushed at end of stream.
    ledger partial_windows,
    /// Reports appended to the write-ahead log (durable runs only).
    stream wal_records,
    /// Torn trailing WAL records discarded during recovery.
    durability wal_torn_records,
    /// Reports skipped on a resumed feed because the WAL already held them
    /// (they were replayed from disk instead of re-offered).
    durability wal_replayed,
    /// WAL I/O operations retried after a transient failure.
    durability wal_io_retries,
    /// WAL I/O operations abandoned after the retry budget (each entered
    /// or confirmed the degraded mode of its shard).
    durability wal_io_gave_up,
    /// Reports consumed while a shard ran degraded — computed but never
    /// logged, a typed live durability gap.
    durability wal_gap_records,
    /// Reports a recovery proved missing from the log (a hole between
    /// segment headers, or records only a now-dead snapshot covered).
    durability wal_lost_records,
    /// WAL segments opened (rotation included).
    durability wal_segments_created,
    /// Snapshot-covered segments deleted by compaction (plus recovery's
    /// removal of fully-covered segments).
    durability wal_segments_compacted,
    /// Durable snapshots written.
    durability snapshots_written,
    /// Snapshots discarded at recovery (checksum failure).
    durability snapshots_discarded,
    /// Orphaned snapshot temp files swept at recovery.
    durability snapshot_tmp_swept,
    /// Stale/corrupt single-writer locks fenced via takeover.
    durability lock_takeovers,
    /// Recoveries performed (snapshot load + WAL tail replay).
    durability recoveries,
}

impl ShardCounts {
    fn count(&mut self, outcome: IngestOutcome) {
        match outcome {
            IngestOutcome::Ingested => self.ingested += 1,
            IngestOutcome::Baseline => {
                self.baselines += 1;
                self.ingested += 1;
            }
            IngestOutcome::ResetSpanningGap => {
                self.reset_spanning_gaps += 1;
                self.ingested += 1;
            }
            IngestOutcome::Dropped(DropReason::Late) => self.dropped_late += 1,
            IngestOutcome::Dropped(DropReason::Duplicate) => self.dropped_duplicate += 1,
            IngestOutcome::Dropped(DropReason::FutureJump) => self.dropped_future_jump += 1,
        }
    }
}

/// Point-in-time copy of one shard's gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Batches currently queued for the shard.
    pub queue_depth: usize,
    /// Highest queue depth observed (how close backpressure came).
    pub queue_peak: usize,
    /// Reports the shard has processed.
    pub processed: u64,
    /// Batch-processing stage counters and latency histogram; at quiescence
    /// `batch_stage.entered == batch_stage.exited` and nothing is in flight
    /// ([`StageSnapshot::quiescent`]).
    pub batch_stage: StageSnapshot,
    /// WAL append stage, one span (and latency sample) per logged batch
    /// (all zeros for non-durable runs).
    pub wal_append: StageSnapshot,
    /// Snapshot-write stage (all zeros for non-durable runs).
    pub snapshot_write: StageSnapshot,
}

impl ShardSnapshot {
    fn stages(&self) -> [(&'static str, &StageSnapshot); 3] {
        [
            ("batch_stage", &self.batch_stage),
            ("wal_append", &self.wal_append),
            ("snapshot_write", &self.snapshot_write),
        ]
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"queue_depth\":{},\"queue_peak\":{},\"processed\":{},\
             \"batches_entered\":{},\"batches_exited\":{},\"batches_in_flight\":{},\
             \"batch_latency_ns\":{},\"wal_append\":{},\"snapshot_write\":{}}}",
            self.queue_depth,
            self.queue_peak,
            self.processed,
            self.batch_stage.entered,
            self.batch_stage.exited,
            self.batch_stage.in_flight,
            self.batch_stage.latency_ns.to_json(),
            self.wal_append.to_json(),
            self.snapshot_write.to_json()
        )
    }
}

impl MetricsSnapshot {
    /// The conservation laws of a settled run: every offered report is
    /// ingested, dropped for a counted reason or a proven WAL hole; on a
    /// durable run every offered report is also logged or in a typed gap,
    /// and every consumed batch was logged first.
    pub const LAWS: &'static [Law<MetricsSnapshot>] = &[
        Law {
            name: "fully_accounted",
            holds: MetricsSnapshot::fully_accounted,
        },
        Law {
            name: "durably_accounted",
            holds: |m| !m.durable() || m.durably_accounted(),
        },
        Law {
            name: "write_ahead",
            holds: |m| {
                !m.durable()
                    || m.per_shard
                        .iter()
                        .all(|s| s.wal_append.entered == s.batch_stage.entered)
            },
        },
    ];

    /// Names of the laws this snapshot breaks — the replay stage's and
    /// each shard stage's [`StageSnapshot::LAWS`] (as `"replay.<law>"` and
    /// `"per_shard[i].<stage>.<law>"`), then [`MetricsSnapshot::LAWS`] —
    /// empty when the books balance. Judges a settled snapshot: while
    /// ingest runs, reports in a queue are offered but not yet classified.
    pub fn check_laws(&self) -> Vec<String> {
        let mut failed = Vec::new();
        check(StageSnapshot::LAWS, &self.replay, "replay.", &mut failed);
        for (i, shard) in self.per_shard.iter().enumerate() {
            for (name, stage) in shard.stages() {
                let scope = format!("per_shard[{i}].{name}.");
                check(StageSnapshot::LAWS, stage, &scope, &mut failed);
            }
        }
        check(Self::LAWS, self, "", &mut failed);
        failed
    }

    /// Whether the run kept a write-ahead log: a plain run never recovers,
    /// logs a record or opens a `wal_append` span.
    fn durable(&self) -> bool {
        self.recoveries + self.wal_records + self.wal_gap_records > 0
            || self.per_shard.iter().any(|s| s.wal_append.entered > 0)
    }

    /// Total dropped reports across all reasons.
    pub fn dropped(&self) -> u64 {
        self.dropped_late
            + self.dropped_duplicate
            + self.dropped_future_jump
            + self.dropped_queue_closed
    }

    /// The conservation law of the pipeline: every offered report is either
    /// ingested, dropped for a counted reason, or — on a recovered run —
    /// a proven WAL hole ([`MetricsSnapshot::wal_lost_records`]: offered in
    /// the original run, gone from the surviving log). (Only meaningful once
    /// the pipeline is quiescent — mid-flight reports are offered but not
    /// yet classified.)
    pub fn fully_accounted(&self) -> bool {
        self.ingested + self.dropped() + self.wal_lost_records == self.offered
    }

    /// The durability conservation law: at quiescence of a durable run,
    /// every offered report was logged to the WAL before it was consumed,
    /// or is part of a typed, counted durability gap — degraded-mode
    /// records the log could not take, or holes a recovery proved.
    /// Zero-false-loss: nothing disappears without a counter naming it.
    pub fn durably_accounted(&self) -> bool {
        self.wal_records + self.wal_gap_records + self.wal_lost_records == self.offered
    }

    /// Total typed durability gap: reports the pipeline consumed (or once
    /// held) that the durable log provably does not. Zero on a healthy run.
    pub fn durability_gap(&self) -> u64 {
        self.wal_gap_records + self.wal_lost_records
    }

    /// The snapshot as a JSON object — what `fleet_ingest --metrics-json`
    /// emits.
    pub fn to_json(&self) -> String {
        let counters: String = self
            .counters()
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v},"))
            .collect();
        let shards: Vec<String> = self.per_shard.iter().map(ShardSnapshot::to_json).collect();
        format!(
            "{{{counters}\"replay\":{},\"fully_accounted\":{},\"durably_accounted\":{},\
             \"durability_gap\":{},\"per_shard\":[{}]}}",
            self.replay.to_json(),
            self.fully_accounted(),
            self.durably_accounted(),
            self.durability_gap(),
            shards.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// Bounded MPSC queue (std-only: Mutex + Condvar)
// ---------------------------------------------------------------------------

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Outcome of offering an item to a [`BoundedQueue`].
#[derive(Debug, PartialEq, Eq)]
enum Push<T> {
    /// Enqueued; the queue held this many items after the push.
    Pushed(usize),
    /// The queue was closed: nothing was enqueued and the item is handed
    /// back so the caller can account for it.
    Closed(T),
}

/// A bounded blocking queue of batches: `push` blocks while full (producer
/// backpressure), `pop` blocks while empty and returns `None` once the
/// queue is closed and drained.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks until there is room, then enqueues; returns the depth after
    /// the push so the caller can maintain gauges without re-locking, or
    /// [`Push::Closed`] with the item handed back if the queue closed.
    ///
    /// An earlier version waited with `while full && !closed` and then
    /// pushed *unconditionally* — so a `close()` racing a blocked producer
    /// woke it up and let it enqueue past capacity into a queue whose
    /// worker may already have drained and exited, silently losing the
    /// batch from the accounting. Closed is now a terminal verdict checked
    /// after every wakeup, before touching the buffer.
    fn push(&self, item: T) -> Push<T> {
        let mut state = self.state.lock().expect("ingest queue poisoned");
        loop {
            if state.closed {
                return Push::Closed(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                let depth = state.items.len();
                drop(state);
                self.not_empty.notify_one();
                return Push::Pushed(depth);
            }
            state = self.not_full.wait(state).expect("ingest queue poisoned");
        }
    }

    /// Blocks until an item is available; `None` once closed and drained.
    fn pop(&self) -> Option<(T, usize)> {
        let mut state = self.state.lock().expect("ingest queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                let depth = state.items.len();
                drop(state);
                self.not_full.notify_one();
                return Some((item, depth));
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("ingest queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("ingest queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Per-device decoding state
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct DeviceState {
    /// Last accepted report (timestamp + both cumulative counters).
    last: Option<(Minute, u64, u64)>,
    /// Tentative baseline from an uncorroborated future jump.
    suspect: Option<(Minute, u64, u64)>,
    /// Online Pearson of (device minute delta, gateway minute total) —
    /// the streaming version of Definition 4's per-device similarity.
    dominance: OnlinePearson,
}

/// What one accepted report contributes to its minute.
enum Decoded {
    /// Total byte delta (in + out) attributed to the report's minute.
    Delta {
        bytes: f64,
        reset: bool,
    },
    Baseline,
    ResetSpanningGap,
    /// The report jumped far into the future and is held as a suspect; its
    /// classification (baseline of a real outage recovery, or a dropped
    /// corrupt timestamp) is deferred until a later report resolves it.
    Held,
}

/// The decode verdict for one report, plus the deferred verdict for a
/// previously held suspect that this report just resolved.
struct DecodeStep {
    /// Classification of the *suspect* resolved by this arrival, if any:
    /// `Baseline` when corroborated, `Dropped(FutureJump)` when contradicted.
    resolved_suspect: Option<IngestOutcome>,
    decoded: Result<Decoded, DropReason>,
}

impl DecodeStep {
    fn now(decoded: Result<Decoded, DropReason>) -> DecodeStep {
        DecodeStep {
            resolved_suspect: None,
            decoded,
        }
    }
}

impl DeviceState {
    /// Applies timestamp sanity checks and counter decoding; updates the
    /// baseline on acceptance.
    fn decode(&mut self, r: &IngestReport, max_future_jump: u32) -> DecodeStep {
        let Some((last_at, last_in, last_out)) = self.last else {
            self.last = Some((r.at, r.cum_in, r.cum_out));
            return DecodeStep::now(Ok(Decoded::Baseline));
        };
        if r.at == last_at {
            return DecodeStep::now(Err(DropReason::Duplicate));
        }
        if r.at < last_at {
            return DecodeStep::now(Err(DropReason::Late));
        }
        if r.at.0 > last_at.0 + max_future_jump {
            // A lone wild timestamp is a corrupt report, but a sustained
            // advance — the gateway resuming after a long outage — is real.
            // Hold the first such report unclassified; a second report
            // agreeing on the new epoch corroborates it (it becomes the
            // post-outage baseline), a contradiction condemns it.
            match self.suspect {
                Some((s_at, s_in, s_out)) if r.at >= s_at && r.at.0 <= s_at.0 + max_future_jump => {
                    self.suspect = None;
                    self.last = Some((s_at, s_in, s_out));
                    // Decode the current report against the corroborated
                    // baseline (now a normal-range arrival).
                    let mut step = self.decode(r, max_future_jump);
                    step.resolved_suspect = Some(IngestOutcome::Baseline);
                    return step;
                }
                old => {
                    self.suspect = Some((r.at, r.cum_in, r.cum_out));
                    return DecodeStep {
                        resolved_suspect: old
                            .map(|_| IngestOutcome::Dropped(DropReason::FutureJump)),
                        decoded: Ok(Decoded::Held),
                    };
                }
            }
        }
        // A normal-range arrival refutes any pending suspect: time never
        // reached the suspect's epoch, so its timestamp was corrupt.
        let refuted = self
            .suspect
            .take()
            .map(|_| IngestOutcome::Dropped(DropReason::FutureJump));
        let mut step = self.decode_in_range(r, last_at, last_in, last_out);
        step.resolved_suspect = refuted;
        step
    }

    fn decode_in_range(
        &mut self,
        r: &IngestReport,
        last_at: Minute,
        last_in: u64,
        last_out: u64,
    ) -> DecodeStep {
        let prev = |cum| CounterReport {
            at: last_at,
            cumulative_bytes: cum,
        };
        let cur = |cum| CounterReport {
            at: r.at,
            cumulative_bytes: cum,
        };
        let din = counter_delta(prev(last_in), cur(r.cum_in));
        let dout = counter_delta(prev(last_out), cur(r.cum_out));
        self.last = Some((r.at, r.cum_in, r.cum_out));
        let (bytes_in, reset_in) = match din {
            CounterDelta::Advance(d) => (d, false),
            CounterDelta::Reset(d) => (d, true),
            CounterDelta::ResetSpanningGap => {
                return DecodeStep::now(Ok(Decoded::ResetSpanningGap))
            }
        };
        let (bytes_out, reset_out) = match dout {
            CounterDelta::Advance(d) => (d, false),
            CounterDelta::Reset(d) => (d, true),
            CounterDelta::ResetSpanningGap => {
                return DecodeStep::now(Ok(Decoded::ResetSpanningGap))
            }
        };
        DecodeStep::now(Ok(Decoded::Delta {
            bytes: (bytes_in + bytes_out) as f64,
            reset: reset_in || reset_out,
        }))
    }
}

// ---------------------------------------------------------------------------
// Per-gateway lane
// ---------------------------------------------------------------------------

/// One minute of one gateway still open for straggler contributions.
struct PendingMinute {
    minute: u32,
    /// `(device, byte delta)` contributions; devices absent this minute
    /// simply do not appear (missing, pairwise-complete semantics).
    contributions: Vec<(u32, f64)>,
}

/// All streaming state of one gateway, owned exclusively by one shard.
pub(crate) struct GatewayLane {
    gateway: u64,
    /// Ordered by device id: O(log n) lookups on hostile ids without a
    /// hasher, and snapshots and rankings iterate in a fixed order.
    devices: BTreeMap<u32, DeviceState>,
    /// Sparse, minute-sorted ring of not-yet-finalized minutes.
    pending: VecDeque<PendingMinute>,
    /// First minute that may still accept contributions.
    watermark: u32,
    /// Highest minute accepted so far (the lane's stream clock).
    max_seen: u32,
    accumulator: WindowAccumulator,
    support: Vec<u64>,
    matched: u64,
    novel: u64,
    insufficient: u64,
    sealed: u64,
    reports: u64,
}

impl GatewayLane {
    fn new(gateway: u64, config: &IngestConfig, n_templates: usize) -> GatewayLane {
        GatewayLane {
            gateway,
            devices: BTreeMap::new(),
            pending: VecDeque::new(),
            watermark: 0,
            max_seen: 0,
            accumulator: WindowAccumulator::new(config.window, config.bin_minutes),
            support: vec![0; n_templates],
            matched: 0,
            novel: 0,
            insufficient: 0,
            sealed: 0,
            reports: 0,
        }
    }

    /// Processes one report, recording both its own outcome and the
    /// deferred outcome of any suspect it resolves. A report held as a
    /// future-jump suspect is counted only once its fate is known (here or
    /// in [`GatewayLane::finish`]), so quiescent accounting stays exact.
    fn ingest(
        &mut self,
        r: &IngestReport,
        config: &IngestConfig,
        templates: &[MotifTemplate],
        counts: &mut ShardCounts,
    ) {
        self.reports += 1;
        let device = self.devices.entry(r.device).or_default();
        let step = device.decode(r, config.max_future_jump);
        if let Some(outcome) = step.resolved_suspect {
            counts.count(outcome);
        }
        let decoded = match step.decoded {
            Ok(d) => d,
            Err(reason) => {
                counts.count(IngestOutcome::Dropped(reason));
                return;
            }
        };
        match decoded {
            Decoded::Held => {} // counted when resolved
            Decoded::Baseline => {
                self.advance_clock(r.at.0, config, templates, counts);
                counts.count(IngestOutcome::Baseline);
            }
            Decoded::ResetSpanningGap => {
                self.advance_clock(r.at.0, config, templates, counts);
                counts.count(IngestOutcome::ResetSpanningGap);
            }
            Decoded::Delta { bytes, reset } => {
                if reset {
                    counts.counter_resets += 1;
                }
                if r.at.0 < self.watermark {
                    // The minute was already finalized: a cross-device
                    // straggler beyond the lateness horizon.
                    counts.count(IngestOutcome::Dropped(DropReason::Late));
                    return;
                }
                self.add_contribution(r.at.0, r.device, bytes);
                self.advance_clock(r.at.0, config, templates, counts);
                counts.count(IngestOutcome::Ingested);
            }
        }
    }

    /// Inserts a contribution into the sparse minute ring, keeping it
    /// minute-sorted. The common case (the newest minute) is O(1).
    fn add_contribution(&mut self, minute: u32, device: u32, bytes: f64) {
        let pos = self
            .pending
            .iter()
            .rposition(|p| p.minute <= minute)
            .map(|i| (i, self.pending[i].minute == minute));
        match pos {
            Some((i, true)) => self.pending[i].contributions.push((device, bytes)),
            Some((i, false)) => self.pending.insert(
                i + 1,
                PendingMinute {
                    minute,
                    contributions: vec![(device, bytes)],
                },
            ),
            None => self.pending.push_front(PendingMinute {
                minute,
                contributions: vec![(device, bytes)],
            }),
        }
    }

    /// Advances the lane clock and finalizes every pending minute that has
    /// fallen out of the lateness horizon.
    fn advance_clock(
        &mut self,
        minute: u32,
        config: &IngestConfig,
        templates: &[MotifTemplate],
        counts: &mut ShardCounts,
    ) {
        self.max_seen = self.max_seen.max(minute);
        while self
            .pending
            .front()
            .is_some_and(|p| p.minute + config.lateness_horizon <= self.max_seen)
        {
            let pm = self.pending.pop_front().expect("front just checked");
            self.finalize_minute(pm, config, templates, counts);
        }
    }

    /// Seals one minute: its gateway total enters the window accumulator,
    /// each completed window is matched, and every contributing device's
    /// dominance tracker pairs its delta with the total.
    fn finalize_minute(
        &mut self,
        pm: PendingMinute,
        config: &IngestConfig,
        templates: &[MotifTemplate],
        counts: &mut ShardCounts,
    ) {
        self.watermark = pm.minute + 1;
        let total: f64 = pm.contributions.iter().map(|&(_, b)| b).sum();
        let completed = match self.accumulator.try_push(Minute(pm.minute), total) {
            Ok(windows) => windows,
            Err(_) => {
                // Unreachable by construction: minutes are finalized in
                // strictly increasing order. Degrade (skip) rather than
                // panic if the invariant is ever broken.
                debug_assert!(false, "finalized minutes must be ordered");
                Vec::new()
            }
        };
        for window in &completed {
            self.observe_window(&window.values, false, config, templates, counts);
        }
        for (device, bytes) in pm.contributions {
            if let Some(state) = self.devices.get_mut(&device) {
                state.dominance.push(bytes, total);
            }
        }
    }

    fn observe_window(
        &mut self,
        values: &[f64],
        partial: bool,
        config: &IngestConfig,
        templates: &[MotifTemplate],
        counts: &mut ShardCounts,
    ) {
        if partial {
            counts.partial_windows += 1;
        } else {
            self.sealed += 1;
            counts.windows_sealed += 1;
        }
        match best_match(templates, config.motif_threshold, values) {
            MatchOutcome::Matched { index, .. } => {
                self.support[index] += 1;
                self.matched += 1;
                counts.windows_matched += 1;
            }
            MatchOutcome::Novel => {
                self.novel += 1;
                counts.windows_novel += 1;
            }
            MatchOutcome::Insufficient => {
                self.insufficient += 1;
                counts.windows_insufficient += 1;
            }
        }
    }

    /// End of stream: drain the ring, flush the trailing partial window and
    /// rank the dominance trackers.
    fn finish(
        mut self,
        config: &IngestConfig,
        templates: &[MotifTemplate],
        counts: &mut ShardCounts,
    ) -> GatewaySummary {
        while let Some(pm) = self.pending.pop_front() {
            self.finalize_minute(pm, config, templates, counts);
        }
        // Suspects never corroborated by end of stream were corrupt.
        for state in self.devices.values_mut() {
            if state.suspect.take().is_some() {
                counts.count(IngestOutcome::Dropped(DropReason::FutureJump));
            }
        }
        let partial = self.accumulator.flush();
        if partial.values.iter().any(|v| v.is_finite()) {
            self.observe_window(&partial.values.clone(), true, config, templates, counts);
        }
        let hits: Vec<(usize, f64)> = self
            .devices
            .iter()
            .filter_map(|(&device, state)| {
                let c = state.dominance.correlation()?;
                (c > config.dominance_phi).then_some((device as usize, c))
            })
            .collect();
        GatewaySummary {
            gateway: self.gateway,
            reports: self.reports,
            devices: self.devices.len(),
            windows_sealed: self.sealed,
            windows_matched: self.matched,
            windows_novel: self.novel,
            windows_insufficient: self.insufficient,
            support: self.support,
            dominants: rank_dominants(hits),
        }
    }
}

// ---------------------------------------------------------------------------
// Shard state
// ---------------------------------------------------------------------------

/// All mutable state of one shard worker: the gateway lanes, the outcome
/// ledger, and the durable frontier. This is exactly what a durable
/// snapshot captures and what WAL replay rebuilds — the worker loop owns
/// one and nothing else mutates between reports.
pub(crate) struct ShardState {
    /// Ordered by gateway id, like [`GatewayLane::devices`].
    pub(crate) lanes: BTreeMap<u64, GatewayLane>,
    pub(crate) counts: ShardCounts,
    /// Global sequence number of the last report this shard consumed.
    pub(crate) last_seq: u64,
    /// Reports this shard has consumed (== its WAL record count when
    /// running durably: every consumed report is logged first).
    pub(crate) processed: u64,
}

impl ShardState {
    pub(crate) fn new() -> ShardState {
        ShardState {
            lanes: BTreeMap::new(),
            counts: ShardCounts::default(),
            last_seq: 0,
            processed: 0,
        }
    }

    /// Consumes one report: the single state transition of a shard. Live
    /// ingest and WAL replay both go through here, which is what makes
    /// recovery bit-identical — there is no second decode path to diverge.
    pub(crate) fn consume(
        &mut self,
        seq: u64,
        report: &IngestReport,
        config: &IngestConfig,
        templates: &[MotifTemplate],
    ) {
        debug_assert!(seq > self.last_seq, "per-shard seqs strictly increase");
        self.last_seq = seq;
        self.processed += 1;
        let lane = self
            .lanes
            .entry(report.gateway)
            .or_insert_with(|| GatewayLane::new(report.gateway, config, templates.len()));
        lane.ingest(report, config, templates, &mut self.counts);
    }

    /// End of stream: finishes every lane, folding the final outcomes into
    /// the ledger.
    fn finish(
        self,
        config: &IngestConfig,
        templates: &[MotifTemplate],
    ) -> (Vec<GatewaySummary>, ShardCounts) {
        let mut counts = self.counts;
        let summaries = self
            .lanes
            .into_values()
            .map(|lane| lane.finish(config, templates, &mut counts))
            .collect();
        (summaries, counts)
    }
}

/// How a shard worker ended.
enum WorkerEnd {
    /// Queue drained, lanes finished; per-shard state digest when durable.
    Finished(Vec<GatewaySummary>, Option<u64>),
    /// The kill switch fired: the worker aborted without finishing, exactly
    /// like a crashed process (unflushed WAL bytes are discarded).
    Killed,
}

/// How a pipeline run ended (crate-internal; the public surfaces are
/// [`IngestPipeline::run`] and [`durable::DurableRun`]).
pub(crate) enum RunEnd {
    /// Boxed: an [`IngestSummary`] dwarfs the `Killed` variant.
    Completed(Box<IngestSummary>, Option<u64>),
    Killed,
}

/// Crash injection for the durable pipeline (see [`durable::KillPoint`]).
pub(crate) struct KillSwitch {
    /// Fire after this many reports have been offered by this run.
    pub(crate) after_offered: u64,
    /// `true`: `std::process::abort()` (a real SIGKILL-equivalent, for the
    /// CI smoke). `false`: cooperative in-process abort via a shared flag.
    pub(crate) hard: bool,
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

/// Per-gateway results of one ingest run.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewaySummary {
    /// Gateway identifier.
    pub gateway: u64,
    /// Reports routed to this gateway (including dropped ones).
    pub reports: u64,
    /// Distinct devices seen.
    pub devices: usize,
    /// Complete windows sealed.
    pub windows_sealed: u64,
    /// Sealed windows that matched a template.
    pub windows_matched: u64,
    /// Sealed windows matching nothing.
    pub windows_novel: u64,
    /// Sealed windows with too few observations.
    pub windows_insufficient: u64,
    /// Per-template support counts (this gateway's windows only).
    pub support: Vec<u64>,
    /// φ-dominant devices under the online Pearson tracker, ranked.
    ///
    /// Online dominance uses plain Pearson (no significance gate, no
    /// Spearman/Kendall fallback), a documented degradation from the batch
    /// Definition 1 measure — O(1) per minute instead of O(n log n) per
    /// evaluation.
    pub dominants: Vec<DominantDevice>,
}

/// Fleet-level results of one ingest run.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestSummary {
    /// Per-gateway summaries, sorted by gateway id.
    pub gateways: Vec<GatewaySummary>,
    /// Fleet-wide per-template support (sum over gateways).
    pub support: Vec<u64>,
    /// Final metrics snapshot (quiescent, so
    /// [`MetricsSnapshot::fully_accounted`] must hold).
    pub metrics: MetricsSnapshot,
}

/// The sharded fleet ingest pipeline. See the [module docs](self) for the
/// architecture.
///
/// Results are deterministic in the shard count: each gateway is owned by
/// exactly one shard and processed in arrival order, so running the same
/// stream at 1 or 16 shards yields identical summaries.
#[derive(Debug)]
pub struct IngestPipeline {
    config: IngestConfig,
    templates: Arc<[MotifTemplate]>,
    metrics: Arc<IngestMetrics>,
}

impl IngestPipeline {
    /// Creates a pipeline matching completed windows against `templates`
    /// (discovered offline with [`crate::motif::discover_motifs`] and
    /// exported via [`crate::motif::Motif::to_template`]).
    ///
    /// # Panics
    /// Panics if `config.bin_minutes` does not divide the window length
    /// (a configuration error, not a data error).
    pub fn new(config: IngestConfig, templates: Vec<MotifTemplate>) -> IngestPipeline {
        // Validate eagerly so a bad configuration fails at construction,
        // not inside a worker thread.
        let _ = WindowAccumulator::new(config.window, config.bin_minutes);
        let shards = config.shards.max(1);
        IngestPipeline {
            metrics: Arc::new(IngestMetrics::new(shards)),
            templates: templates.into(),
            config,
        }
    }

    /// The live metrics registry; clone the `Arc` into a monitoring thread
    /// and call [`IngestMetrics::snapshot`] at any rate.
    pub fn metrics(&self) -> Arc<IngestMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Which shard a gateway is routed to (Fibonacci multiplicative hash).
    pub fn shard_of(&self, gateway: u64) -> usize {
        let shards = self.config.shards.max(1);
        (gateway.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % shards
    }

    /// Runs the pipeline to completion over `reports`, consuming the stream
    /// on the calling thread (the producer) while shard workers ingest in
    /// parallel. Returns the merged fleet summary.
    pub fn run<I>(&self, reports: I) -> IngestSummary
    where
        I: IntoIterator<Item = IngestReport>,
    {
        let shards = self.config.shards.max(1);
        let states = (0..shards).map(|_| ShardState::new()).collect();
        let durability = (0..shards).map(|_| None).collect();
        match self.run_inner(reports, 1, vec![0; shards], states, durability, None) {
            Ok(RunEnd::Completed(summary, _)) => *summary,
            Ok(RunEnd::Killed) => unreachable!("no kill switch was armed"),
            Err(e) => unreachable!("non-durable ingest performs no I/O: {e}"),
        }
    }

    /// The engine behind both [`IngestPipeline::run`] and the durable
    /// pipeline: assigns global sequence numbers starting at `first_seq`,
    /// skips reports already durable in their shard (`seq <= cutoffs[shard]`,
    /// counted [`MetricsSnapshot::wal_replayed`]), feeds the rest through
    /// the bounded queues, and lets each worker drive its [`ShardState`] —
    /// appending to the WAL and writing snapshots when a durability hook is
    /// installed, aborting without finishing when the kill switch fires.
    pub(crate) fn run_inner<I>(
        &self,
        reports: I,
        first_seq: u64,
        cutoffs: Vec<u64>,
        states: Vec<ShardState>,
        durability: Vec<Option<durable::ShardDurability>>,
        kill: Option<KillSwitch>,
    ) -> std::io::Result<RunEnd>
    where
        I: IntoIterator<Item = IngestReport>,
    {
        let shards = self.config.shards.max(1);
        assert_eq!(cutoffs.len(), shards);
        assert_eq!(states.len(), shards);
        assert_eq!(durability.len(), shards);
        let queues: Vec<BoundedQueue<Vec<(u64, IngestReport)>>> = (0..shards)
            .map(|_| BoundedQueue::new(self.config.queue_batches))
            .collect();
        let killed = AtomicBool::new(false);

        let ends: Vec<std::io::Result<WorkerEnd>> = std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .into_iter()
                .zip(durability)
                .enumerate()
                .map(|(shard, (state, dur))| {
                    let queue = &queues[shard];
                    let killed = &killed;
                    scope.spawn(move || self.worker(shard, queue, state, dur, killed))
                })
                .collect();

            let mut batches: Vec<Vec<(u64, IngestReport)>> = (0..shards)
                .map(|_| Vec::with_capacity(self.config.batch_reports))
                .collect();
            let mut offered_now = 0u64;
            for (report, this_seq) in reports.into_iter().zip(first_seq..) {
                let shard = self.shard_of(report.gateway);
                if this_seq <= cutoffs[shard] {
                    // Already durable in this shard's WAL: it was replayed
                    // from disk during recovery, not re-offered.
                    self.metrics.wal_replayed.incr();
                    continue;
                }
                self.metrics.offered.incr();
                batches[shard].push((this_seq, report));
                if batches[shard].len() >= self.config.batch_reports {
                    let batch = std::mem::replace(
                        &mut batches[shard],
                        Vec::with_capacity(self.config.batch_reports),
                    );
                    self.offer_batch(shard, &queues[shard], batch);
                }
                offered_now += 1;
                if let Some(k) = &kill {
                    if offered_now >= k.after_offered {
                        if k.hard {
                            // A genuine unclean death for the crash smoke:
                            // no unwinding, no buffer flushing, no exit
                            // handlers — the closest in-process stand-in
                            // for `kill -9`.
                            std::process::abort();
                        }
                        killed.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            if !killed.load(Ordering::Relaxed) {
                for (shard, batch) in batches.into_iter().enumerate() {
                    if !batch.is_empty() {
                        self.offer_batch(shard, &queues[shard], batch);
                    }
                }
            }
            for queue in &queues {
                queue.close();
            }

            handles
                .into_iter()
                .map(|h| h.join().expect("ingest shard worker panicked"))
                .collect()
        });

        let mut gateways = Vec::new();
        let mut digests = Vec::new();
        let mut any_killed = false;
        for end in ends {
            match end? {
                WorkerEnd::Finished(summaries, digest) => {
                    gateways.extend(summaries);
                    digests.push(digest);
                }
                WorkerEnd::Killed => any_killed = true,
            }
        }
        if any_killed {
            return Ok(RunEnd::Killed);
        }
        gateways.sort_by_key(|g| g.gateway);
        let mut support = vec![0u64; self.templates.len()];
        for g in &gateways {
            for (s, &c) in support.iter_mut().zip(&g.support) {
                *s += c;
            }
        }
        // Combine per-shard state digests (shard order) when all are durable.
        let digest = digests
            .iter()
            .copied()
            .try_fold(durable::FNV_OFFSET, |acc, d| {
                d.map(|d| durable::fnv1a64_u64(acc, d))
            });
        Ok(RunEnd::Completed(
            Box::new(IngestSummary {
                gateways,
                support,
                metrics: self.metrics.snapshot(),
            }),
            digest,
        ))
    }

    fn offer_batch(
        &self,
        shard: usize,
        queue: &BoundedQueue<Vec<(u64, IngestReport)>>,
        batch: Vec<(u64, IngestReport)>,
    ) {
        match queue.push(batch) {
            Push::Pushed(depth) => {
                let gauges = &self.metrics.shards[shard];
                gauges.queue_depth.store(depth, Ordering::Relaxed);
                gauges.queue_peak.fetch_max(depth, Ordering::Relaxed);
            }
            Push::Closed(batch) => {
                // The shard already shut down: nothing will pop this batch.
                // The reports were offered, so account for every one of
                // them — the conservation law must close even on shutdown
                // races.
                self.metrics.dropped_queue_closed.add(batch.len() as u64);
            }
        }
    }

    fn worker(
        &self,
        shard: usize,
        queue: &BoundedQueue<Vec<(u64, IngestReport)>>,
        mut state: ShardState,
        mut durability: Option<durable::ShardDurability>,
        killed: &AtomicBool,
    ) -> std::io::Result<WorkerEnd> {
        let gauges = &self.metrics.shards[shard];
        // Seed the throughput gauge with the recovered count so a resumed
        // run's books start where the crashed run's left off.
        gauges.processed.store(state.processed, Ordering::Relaxed);
        while let Some((batch, depth)) = queue.pop() {
            if killed.load(Ordering::Relaxed) {
                // Crash simulation: die between batches, losing the popped
                // batch and any unflushed WAL bytes, exactly as SIGKILL
                // would.
                if let Some(d) = durability.as_mut() {
                    d.crash();
                }
                return Ok(WorkerEnd::Killed);
            }
            let _span = gauges.batch_stage.enter();
            gauges.queue_depth.store(depth, Ordering::Relaxed);
            gauges
                .processed
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            if let Some(d) = durability.as_mut() {
                // Write-ahead: the whole batch is logged before any of it
                // is consumed, so recovery can always replay exactly what
                // was consumed. One span per batch keeps the clock reads
                // off the per-report path. Infallible: an exhausted retry
                // budget degrades the shard (a counted gap) instead of
                // killing the worker.
                let _wal_span = gauges.wal_append.enter();
                d.append(&batch);
            }
            let before = state.counts;
            for (seq, report) in &batch {
                state.consume(*seq, report, &self.config, &self.templates);
            }
            self.metrics.apply(&state.counts.minus(&before));
            if let Some(d) = durability.as_mut() {
                if d.snapshot_due(state.processed) {
                    let _snap_span = gauges.snapshot_write.enter();
                    d.write_snapshot(&state);
                }
            }
        }
        // The queue is closed and drained; settle the depth gauge at 0.
        // (The producer's relaxed store after its *last* push can otherwise
        // race this worker's store for that pop and leave a stale non-zero
        // reading at quiescence. This store happens-after every producer
        // store via the queue mutex, so the final gauge is deterministic.)
        gauges.queue_depth.store(0, Ordering::Relaxed);
        if killed.load(Ordering::Relaxed) {
            if let Some(d) = durability.as_mut() {
                d.crash();
            }
            return Ok(WorkerEnd::Killed);
        }
        let digest = match durability.as_mut() {
            Some(d) => {
                // Everything consumed is on disk before the run completes
                // (or counted in the durability gap), and the pre-finish
                // state digest is what recovery must reproduce.
                d.finish();
                Some(durable::state_digest(&state))
            }
            None => None,
        };
        let before = state.counts;
        let (summaries, final_counts) = state.finish(&self.config, &self.templates);
        self.metrics.apply(&final_counts.minus(&before));
        Ok(WorkerEnd::Finished(summaries, digest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(gateway: u64, device: u32, at: u32, cum: u64) -> IngestReport {
        IngestReport {
            gateway,
            device,
            at: Minute(at),
            cum_in: cum,
            cum_out: 0,
        }
    }

    fn test_config(shards: usize) -> IngestConfig {
        IngestConfig {
            shards,
            batch_reports: 7, // tiny batches to exercise queue churn
            queue_batches: 2,
            lateness_horizon: 3,
            ..IngestConfig::default()
        }
    }

    /// A clean in-order stream: every report ingested, accounting closed.
    #[test]
    fn clean_stream_fully_ingested() {
        let pipeline = IngestPipeline::new(test_config(2), Vec::new());
        let reports = (0..4u64).flat_map(|gw| {
            (0..200u32).map(move |m| report(gw, 0, m, (m as u64 + 1) * 100 * (gw + 1)))
        });
        let summary = pipeline.run(reports);
        let m = &summary.metrics;
        assert_eq!(m.offered, 800);
        assert_eq!(m.ingested, 800);
        assert_eq!(m.dropped(), 0);
        assert_eq!(m.baselines, 4, "one baseline per device");
        assert!(m.fully_accounted());
        assert_eq!(summary.gateways.len(), 4);
        assert!(summary
            .gateways
            .windows(2)
            .all(|w| w[0].gateway < w[1].gateway));
    }

    /// Late, duplicate and future-jump reports are counted, not fatal.
    #[test]
    fn malformed_reports_become_counted_outcomes() {
        let pipeline = IngestPipeline::new(test_config(1), Vec::new());
        let reports = vec![
            report(7, 0, 10, 100),
            report(7, 0, 11, 200),
            report(7, 0, 11, 200), // duplicate
            report(7, 0, 5, 50),   // late (before the device baseline)
            report(7, 0, 12, 300),
            report(7, 0, 90_000, 10), // future jump, uncorroborated
            report(7, 0, 13, 400),
        ];
        let summary = pipeline.run(reports);
        let m = &summary.metrics;
        assert_eq!(m.offered, 7);
        assert_eq!(m.dropped_duplicate, 1);
        assert_eq!(m.dropped_late, 1);
        assert_eq!(m.dropped_future_jump, 1);
        assert_eq!(m.ingested, 4);
        assert!(m.fully_accounted());
    }

    /// A sustained clock advance (outage recovery) is accepted after one
    /// corroborating report; a lone wild timestamp is not.
    #[test]
    fn future_jump_corroboration() {
        let config = test_config(1);
        let pipeline = IngestPipeline::new(config.clone(), Vec::new());
        let jump = 10 + config.max_future_jump + 1000;
        let reports = vec![
            report(1, 0, 10, 100),
            report(1, 0, jump, 5_000),     // held as suspect
            report(1, 0, jump + 1, 5_100), // corroborates: suspect = baseline
            report(1, 0, jump + 2, 5_200),
        ];
        let summary = pipeline.run(reports);
        let m = &summary.metrics;
        // A real outage recovery loses nothing: the held report becomes the
        // post-outage baseline once corroborated.
        assert_eq!(m.dropped_future_jump, 0);
        assert_eq!(m.ingested, 4);
        assert_eq!(m.baselines, 2);
        assert!(m.fully_accounted());

        // A lone wild timestamp with no corroboration ever is condemned at
        // end of stream.
        let pipeline = IngestPipeline::new(config, Vec::new());
        let reports = vec![report(1, 0, 10, 100), report(1, 0, jump, 5_000)];
        let summary = pipeline.run(reports);
        let m = &summary.metrics;
        assert_eq!(m.dropped_future_jump, 1);
        assert_eq!(m.ingested, 1);
        assert!(m.fully_accounted());
    }

    /// A counter reset during a reporting gap voids the delta (counted),
    /// while an adjacent-minute reset decodes as bytes-since-reset.
    #[test]
    fn reset_outcomes_match_batch_rules() {
        let pipeline = IngestPipeline::new(test_config(1), Vec::new());
        let reports = vec![
            report(3, 0, 0, 1_000),
            report(3, 0, 1, 400), // adjacent reset: 400 bytes
            report(3, 0, 2, 500),
            report(3, 0, 60, 100), // reset across a 58-minute gap: voided
            report(3, 0, 61, 250),
        ];
        let summary = pipeline.run(reports);
        let m = &summary.metrics;
        assert_eq!(m.reset_spanning_gaps, 1);
        assert!(m.counter_resets >= 1);
        assert_eq!(m.ingested, 5, "reset-gap reports are accepted");
        assert!(m.fully_accounted());
        assert_eq!(summary.gateways[0].devices, 1);
    }

    /// The same stream produces identical summaries at any shard count.
    #[test]
    fn summaries_identical_across_shard_counts() {
        let mk_reports = || {
            (0..12u64).flat_map(|gw| {
                (0..500u32).flat_map(move |m| {
                    (0..3u32).filter_map(move |dev| {
                        // Deterministic per-device loss pattern.
                        if (m + dev * 7 + gw as u32).is_multiple_of(11) {
                            return None;
                        }
                        Some(report(
                            gw,
                            dev,
                            m,
                            (m as u64 + 1) * (100 + dev as u64 * 13 + gw % 5),
                        ))
                    })
                })
            })
        };
        let run =
            |shards: usize| IngestPipeline::new(test_config(shards), Vec::new()).run(mk_reports());
        let one = run(1);
        for shards in [2, 3, 5] {
            let many = run(shards);
            assert_eq!(one.gateways, many.gateways, "shards={shards}");
            assert_eq!(one.support, many.support);
            assert_eq!(one.metrics.ingested, many.metrics.ingested);
            assert_eq!(one.metrics.dropped(), many.metrics.dropped());
        }
    }

    /// Windows seal online and match templates exactly like the batch
    /// matcher would.
    #[test]
    fn windows_seal_and_match_templates() {
        // One device, constant 600 bytes/min for 3 days → flat daily
        // windows; one evening-shaped template that must NOT match, then
        // check novel counting.
        let template = MotifTemplate {
            name: "evening".into(),
            pattern: vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 900.0, 950.0],
        };
        let config = IngestConfig {
            bin_minutes: 180,
            ..test_config(1)
        };
        let pipeline = IngestPipeline::new(config, vec![template]);
        let day = wtts_timeseries::MINUTES_PER_DAY;
        let reports = (0..3 * day).map(|m| report(0, 0, m, (m as u64 + 1) * 600));
        let summary = pipeline.run(reports);
        let m = &summary.metrics;
        assert_eq!(m.windows_sealed, 2, "two complete days sealed by day 3");
        // Days 1 and 2 seal online; day 3 (never followed by a day-4 push)
        // surfaces as the flushed partial window — all three are matched,
        // and none resembles the evening template.
        assert_eq!(m.windows_novel, 3, "flat days match no evening template");
        assert_eq!(m.windows_matched, 0);
        assert_eq!(summary.gateways[0].support, vec![0]);
        // The trailing partial day was flushed non-destructively.
        assert_eq!(m.partial_windows, 1);
    }

    /// The online dominance tracker finds the shaping device.
    #[test]
    fn online_dominance_finds_shaper() {
        let config = IngestConfig {
            lateness_horizon: 1,
            ..test_config(1)
        };
        let pipeline = IngestPipeline::new(config, Vec::new());
        // Device 0 shapes the total (bursty), device 1 is a constant hum.
        let mut reports = Vec::new();
        let mut cum0 = 0u64;
        let mut cum1 = 0u64;
        for m in 0..600u32 {
            cum0 += if (m / 60) % 3 == 2 {
                50_000
            } else {
                10 + (m % 7) as u64
            };
            cum1 += 800;
            reports.push(report(5, 0, m, cum0));
            reports.push(report(5, 1, m, cum1));
        }
        let summary = pipeline.run(reports);
        let dom = &summary.gateways[0].dominants;
        assert!(!dom.is_empty(), "the shaper must be detected");
        assert_eq!(dom[0].device, 0);
        assert_eq!(dom[0].rank, 0);
        assert!(dom[0].similarity > 0.9);
    }

    /// Backpressure: a tiny queue still processes everything (the producer
    /// blocks instead of dropping or buffering unbounded).
    #[test]
    fn bounded_queue_backpressure_loses_nothing() {
        let config = IngestConfig {
            queue_batches: 1,
            batch_reports: 2,
            ..test_config(2)
        };
        let pipeline = IngestPipeline::new(config, Vec::new());
        let reports =
            (0..8u64).flat_map(|gw| (0..300u32).map(move |m| report(gw, 0, m, m as u64 * 50)));
        let summary = pipeline.run(reports);
        assert_eq!(summary.metrics.offered, 8 * 300);
        assert!(summary.metrics.fully_accounted());
        let processed: u64 = summary.metrics.per_shard.iter().map(|s| s.processed).sum();
        assert_eq!(processed, 8 * 300);
        assert!(summary.metrics.per_shard.iter().all(|s| s.queue_depth == 0));
    }

    /// Metrics can be observed live from another thread while running.
    #[test]
    fn metrics_observable_mid_run() {
        let pipeline = IngestPipeline::new(test_config(1), Vec::new());
        let metrics = pipeline.metrics();
        let before = metrics.snapshot();
        assert_eq!(before.offered, 0);
        let reports = (0..1000u32).map(|m| report(0, 0, m, m as u64 * 10));
        let summary = pipeline.run(reports);
        let after = metrics.snapshot();
        assert_eq!(after, summary.metrics);
        assert_eq!(after.offered, 1000);
    }

    /// Regression: push on a closed queue must refuse the item, not
    /// enqueue it. The old wait loop (`while full && !closed`) exited on
    /// close and pushed unconditionally — past capacity, into a queue
    /// whose worker may already have drained and gone.
    #[test]
    fn push_after_close_is_rejected() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert_eq!(q.push(1), Push::Pushed(1));
        q.close();
        assert_eq!(q.push(2), Push::Closed(2));
        // The item enqueued before the close still drains.
        assert!(matches!(q.pop(), Some((1, 0))));
        assert!(q.pop().is_none());
    }

    /// The racy variant of the bug: a producer *blocked on a full queue*
    /// when `close()` arrives must wake to a `Closed` verdict, not push.
    #[test]
    fn close_racing_blocked_push_rejects_item() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        assert_eq!(q.push(1), Push::Pushed(1));
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| q.push(2));
            // Give the producer time to block on the full queue before
            // closing; the assertion holds regardless of who wins.
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.close();
            assert_eq!(blocked.join().unwrap(), Push::Closed(2));
        });
        assert!(matches!(q.pop(), Some((1, 0))));
        assert!(q.pop().is_none());
        // Depth never exceeded capacity: the rejected item was handed back.
    }

    /// Reports offered into an already-closed shard queue are dropped for
    /// a counted reason; the conservation law closes even on a shutdown
    /// race.
    #[test]
    fn offered_reports_racing_shutdown_are_counted_dropped() {
        let pipeline = IngestPipeline::new(test_config(1), Vec::new());
        let queue: BoundedQueue<Vec<(u64, IngestReport)>> = BoundedQueue::new(1);
        queue.close();
        pipeline.metrics.offered.add(2);
        pipeline.offer_batch(
            0,
            &queue,
            vec![(1, report(0, 0, 0, 10)), (2, report(0, 0, 1, 20))],
        );
        let m = pipeline.metrics.snapshot();
        assert_eq!(m.dropped_queue_closed, 2);
        assert_eq!(m.dropped(), 2);
        assert!(m.fully_accounted());
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let pipeline = IngestPipeline::new(test_config(3), Vec::new());
        for gw in 0..100u64 {
            let s = pipeline.shard_of(gw);
            assert!(s < 3);
            assert_eq!(s, pipeline.shard_of(gw));
        }
    }

    #[test]
    fn empty_stream_yields_empty_summary() {
        let pipeline = IngestPipeline::new(test_config(4), Vec::new());
        let summary = pipeline.run(Vec::new());
        assert!(summary.gateways.is_empty());
        assert_eq!(summary.metrics.offered, 0);
        assert!(summary.metrics.fully_accounted());
    }

    /// A hand-filled stage whose four books all differ.
    fn golden_stage(base: u64) -> StageSnapshot {
        StageSnapshot {
            entered: base,
            exited: base + 1,
            in_flight: base + 2,
            latency_ns: crate::obs::HistogramSnapshot {
                counts: vec![base, 0, base + 3],
            },
        }
    }

    /// Pins the JSON report (and the replay-invariant projection) byte for
    /// byte on a two-shard snapshot in which every counter holds a distinct
    /// value, so a reordered, renamed or dropped key cannot pass.
    #[test]
    fn metrics_snapshot_json_is_pinned() {
        let shard = |base: u64| ShardSnapshot {
            queue_depth: base as usize,
            queue_peak: base as usize + 1,
            processed: base + 2,
            batch_stage: golden_stage(base + 3),
            wal_append: golden_stage(base + 10),
            snapshot_write: golden_stage(base + 20),
        };
        let snap = MetricsSnapshot {
            offered: 1,
            ingested: 2,
            baselines: 3,
            reset_spanning_gaps: 4,
            counter_resets: 5,
            dropped_late: 6,
            dropped_duplicate: 7,
            dropped_future_jump: 8,
            dropped_queue_closed: 9,
            windows_sealed: 10,
            windows_matched: 11,
            windows_novel: 12,
            windows_insufficient: 13,
            partial_windows: 14,
            wal_records: 15,
            wal_torn_records: 16,
            wal_replayed: 17,
            wal_io_retries: 18,
            wal_io_gave_up: 19,
            wal_gap_records: 20,
            wal_lost_records: 21,
            wal_segments_created: 22,
            wal_segments_compacted: 23,
            snapshots_written: 24,
            snapshots_discarded: 25,
            snapshot_tmp_swept: 26,
            lock_takeovers: 27,
            recoveries: 28,
            replay: golden_stage(29),
            per_shard: vec![shard(100), shard(200)],
        };
        assert_eq!(
            snap.to_json(),
            r#"{"offered":1,"ingested":2,"baselines":3,"reset_spanning_gaps":4,"counter_resets":5,"dropped_late":6,"dropped_duplicate":7,"dropped_future_jump":8,"dropped_queue_closed":9,"windows_sealed":10,"windows_matched":11,"windows_novel":12,"windows_insufficient":13,"partial_windows":14,"wal_records":15,"wal_torn_records":16,"wal_replayed":17,"wal_io_retries":18,"wal_io_gave_up":19,"wal_gap_records":20,"wal_lost_records":21,"wal_segments_created":22,"wal_segments_compacted":23,"snapshots_written":24,"snapshots_discarded":25,"snapshot_tmp_swept":26,"lock_takeovers":27,"recoveries":28,"replay":{"entered":29,"exited":30,"in_flight":31,"latency_ns":{"count":61,"p50_le":3,"p99_le":3,"mean_le":1.5737704918032787,"buckets":[[0,29],[3,32]]}},"fully_accounted":false,"durably_accounted":false,"durability_gap":41,"per_shard":[{"queue_depth":100,"queue_peak":101,"processed":102,"batches_entered":103,"batches_exited":104,"batches_in_flight":105,"batch_latency_ns":{"count":209,"p50_le":3,"p99_le":3,"mean_le":1.5215311004784688,"buckets":[[0,103],[3,106]]},"wal_append":{"entered":110,"exited":111,"in_flight":112,"latency_ns":{"count":223,"p50_le":3,"p99_le":3,"mean_le":1.5201793721973094,"buckets":[[0,110],[3,113]]}},"snapshot_write":{"entered":120,"exited":121,"in_flight":122,"latency_ns":{"count":243,"p50_le":3,"p99_le":3,"mean_le":1.5185185185185186,"buckets":[[0,120],[3,123]]}}},{"queue_depth":200,"queue_peak":201,"processed":202,"batches_entered":203,"batches_exited":204,"batches_in_flight":205,"batch_latency_ns":{"count":409,"p50_le":3,"p99_le":3,"mean_le":1.511002444987775,"buckets":[[0,203],[3,206]]},"wal_append":{"entered":210,"exited":211,"in_flight":212,"latency_ns":{"count":423,"p50_le":3,"p99_le":3,"mean_le":1.5106382978723405,"buckets":[[0,210],[3,213]]}},"snapshot_write":{"entered":220,"exited":221,"in_flight":222,"latency_ns":{"count":443,"p50_le":3,"p99_le":3,"mean_le":1.510158013544018,"buckets":[[0,220],[3,223]]}}}]}"#
        );
        assert_eq!(
            snap.replay_invariant_core().to_json(),
            r#"{"offered":1,"ingested":2,"baselines":3,"reset_spanning_gaps":4,"counter_resets":5,"dropped_late":6,"dropped_duplicate":7,"dropped_future_jump":8,"dropped_queue_closed":9,"windows_sealed":10,"windows_matched":11,"windows_novel":12,"windows_insufficient":13,"partial_windows":14,"wal_records":15,"wal_torn_records":0,"wal_replayed":0,"wal_io_retries":0,"wal_io_gave_up":0,"wal_gap_records":0,"wal_lost_records":0,"wal_segments_created":0,"wal_segments_compacted":0,"snapshots_written":0,"snapshots_discarded":0,"snapshot_tmp_swept":0,"lock_takeovers":0,"recoveries":0,"replay":{"entered":0,"exited":0,"in_flight":0,"latency_ns":{"count":0,"p50_le":0,"p99_le":0,"mean_le":null,"buckets":[]}},"fully_accounted":false,"durably_accounted":false,"durability_gap":0,"per_shard":[{"queue_depth":0,"queue_peak":0,"processed":102,"batches_entered":0,"batches_exited":0,"batches_in_flight":0,"batch_latency_ns":{"count":0,"p50_le":0,"p99_le":0,"mean_le":null,"buckets":[]},"wal_append":{"entered":0,"exited":0,"in_flight":0,"latency_ns":{"count":0,"p50_le":0,"p99_le":0,"mean_le":null,"buckets":[]}},"snapshot_write":{"entered":0,"exited":0,"in_flight":0,"latency_ns":{"count":0,"p50_le":0,"p99_le":0,"mean_le":null,"buckets":[]}}},{"queue_depth":0,"queue_peak":0,"processed":202,"batches_entered":0,"batches_exited":0,"batches_in_flight":0,"batch_latency_ns":{"count":0,"p50_le":0,"p99_le":0,"mean_le":null,"buckets":[]},"wal_append":{"entered":0,"exited":0,"in_flight":0,"latency_ns":{"count":0,"p50_le":0,"p99_le":0,"mean_le":null,"buckets":[]}},"snapshot_write":{"entered":0,"exited":0,"in_flight":0,"latency_ns":{"count":0,"p50_le":0,"p99_le":0,"mean_le":null,"buckets":[]}}}]}"#
        );
    }

    fn settled(n: u64) -> StageSnapshot {
        StageSnapshot {
            entered: n,
            exited: n,
            in_flight: 0,
            latency_ns: crate::obs::HistogramSnapshot {
                counts: vec![1, n - 1],
            },
        }
    }

    /// A settled, recovered durable run over two shards in which every law
    /// holds and every counter a law reads is distinct and non-zero, so a
    /// dropped term breaks a law.
    fn lawful() -> MetricsSnapshot {
        let shard = |batches: u64| ShardSnapshot {
            batch_stage: settled(batches),
            wal_append: settled(batches),
            snapshot_write: settled(3),
            ..ShardSnapshot::default()
        };
        MetricsSnapshot {
            offered: 1000,
            ingested: 900,
            dropped_late: 11,
            dropped_duplicate: 22,
            dropped_future_jump: 33,
            dropped_queue_closed: 4,
            wal_records: 950,
            wal_gap_records: 20,
            wal_lost_records: 30,
            recoveries: 1,
            replay: settled(2),
            per_shard: vec![shard(5), shard(7)],
            ..MetricsSnapshot::default()
        }
    }

    /// Each declared law, broken by perturbing one input of a lawful
    /// snapshot, is reported alone and by name; stage laws carry their
    /// stage's path.
    #[test]
    fn each_law_reports_exactly_its_own_name() {
        assert_eq!(lawful().check_laws(), Vec::<String>::new());
        type Perturb = fn(&mut MetricsSnapshot);
        let cases: [(&str, Perturb); 3] = [
            ("fully_accounted", |m| m.dropped_queue_closed += 1),
            ("durably_accounted", |m| m.wal_gap_records += 1),
            ("write_ahead", |m| m.per_shard[1].wal_append.entered += 1),
        ];
        let declared: Vec<&str> = MetricsSnapshot::LAWS.iter().map(|l| l.name).collect();
        assert_eq!(cases.map(|(name, _)| name).to_vec(), declared);
        for (name, perturb) in cases {
            let mut m = lawful();
            perturb(&mut m);
            assert_eq!(m.check_laws(), [name]);
        }

        let mut m = lawful();
        m.replay.latency_ns.counts[0] += 1;
        m.per_shard[1].snapshot_write.in_flight += 1;
        assert_eq!(
            m.check_laws(),
            ["replay.timed", "per_shard[1].snapshot_write.settled"]
        );
    }

    /// The durable-only laws stay silent on a plain run, whose WAL books
    /// are all zero.
    #[test]
    fn plain_runs_skip_the_durable_laws() {
        let reports = (0..3u64).flat_map(|gw| (0..50u32).map(move |m| report(gw, 0, m, m as u64)));
        let summary = IngestPipeline::new(test_config(2), Vec::new()).run(reports);
        assert_eq!(summary.metrics.check_laws(), Vec::<String>::new());
        assert!(!summary.metrics.durably_accounted());
    }
}
