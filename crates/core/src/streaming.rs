//! Streaming (online) variants of the framework — the paper's stated future
//! work: "integrating our time series correlation and motif extraction in a
//! streaming big data analytics platform, such as Apache Storm or Amazon
//! Kinesis".
//!
//! Three building blocks:
//!
//! * [`OnlinePearson`] — O(1)-update Pearson correlation over a stream of
//!   sample pairs (Welford-style accumulation).
//! * [`WindowAccumulator`] — folds a per-minute measurement stream into
//!   aggregated, calendar-aligned daily or weekly windows, emitting each
//!   window the moment it completes.
//! * [`best_match`] — matches each completed window against a library of
//!   motif templates with the Definition 1 similarity, flagging novel
//!   behavior; the fleet-ingest shards keep the online support counts.

use crate::similarity::cor;
use wtts_timeseries::{Minute, Weekday, WindowKind, MINUTES_PER_DAY, MINUTES_PER_WEEK};

/// Numerically stable online Pearson correlation over `(x, y)` pairs.
#[derive(Debug, Clone, Default)]
pub struct OnlinePearson {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2_x: f64,
    m2_y: f64,
    cov: f64,
}

impl OnlinePearson {
    /// An empty accumulator.
    pub fn new() -> OnlinePearson {
        OnlinePearson::default()
    }

    /// Feeds one pair; non-finite pairs are skipped (pairwise-complete
    /// semantics, like the batch measure).
    pub fn push(&mut self, x: f64, y: f64) {
        if !x.is_finite() || !y.is_finite() {
            return;
        }
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        let dy = y - self.mean_y;
        self.mean_y += dy / n;
        // Note the asymmetric update uses the *new* mean of x and old-delta
        // of y, the standard co-moment recurrence.
        self.m2_x += dx * (x - self.mean_x);
        self.m2_y += dy * (y - self.mean_y);
        self.cov += dx * (y - self.mean_y);
    }

    /// Number of accumulated pairs.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no pair has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current correlation estimate; `None` below 2 pairs or for constant
    /// streams.
    pub fn correlation(&self) -> Option<f64> {
        if self.n < 2 || self.m2_x <= 0.0 || self.m2_y <= 0.0 {
            return None;
        }
        Some((self.cov / (self.m2_x.sqrt() * self.m2_y.sqrt())).clamp(-1.0, 1.0))
    }

    /// The raw accumulator state `(n, mean_x, mean_y, m2_x, m2_y, cov)`,
    /// for bit-exact serialization by the durable ingest layer.
    pub(crate) fn raw_parts(&self) -> (u64, [f64; 5]) {
        (
            self.n,
            [self.mean_x, self.mean_y, self.m2_x, self.m2_y, self.cov],
        )
    }

    /// Rebuilds an accumulator from [`OnlinePearson::raw_parts`] output.
    pub(crate) fn from_raw_parts(n: u64, parts: [f64; 5]) -> OnlinePearson {
        OnlinePearson {
            n,
            mean_x: parts[0],
            mean_y: parts[1],
            m2_x: parts[2],
            m2_y: parts[3],
            cov: parts[4],
        }
    }

    /// Merges another accumulator (parallel aggregation, Chan's method).
    pub fn merge(&mut self, other: &OnlinePearson) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let dx = other.mean_x - self.mean_x;
        let dy = other.mean_y - self.mean_y;
        self.m2_x += other.m2_x + dx * dx * na * nb / n;
        self.m2_y += other.m2_y + dy * dy * na * nb / n;
        self.cov += other.cov + dx * dy * na * nb / n;
        self.mean_x += dx * nb / n;
        self.mean_y += dy * nb / n;
        self.n += other.n;
    }
}

/// A sample that precedes the accumulator's current window — late data the
/// stream already moved past.
///
/// In a long-running pipeline one delayed report must not abort ingest for
/// a whole shard, so [`WindowAccumulator::try_push`] returns this as a
/// recoverable error for the caller to count and drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LateSample {
    /// Timestamp of the late sample.
    pub at: Minute,
    /// Start of the window currently being accumulated.
    pub window_start: Minute,
}

impl std::fmt::Display for LateSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "late sample at {} (current window starts at {})",
            self.at, self.window_start
        )
    }
}

impl std::error::Error for LateSample {}

/// A completed calendar window emitted by [`WindowAccumulator`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedWindow {
    /// Daily or weekly.
    pub kind: WindowKind,
    /// Week index of the window.
    pub week: u32,
    /// Weekday for daily windows.
    pub weekday: Option<Weekday>,
    /// Aggregated bin values (missing bins are `NaN`).
    pub values: Vec<f64>,
}

/// Folds a stream of per-minute samples into aggregated daily or weekly
/// windows, emitting each window when the stream passes its end.
///
/// Samples must arrive in non-decreasing time order; gaps simply leave
/// missing bins, matching the batch pipeline's semantics.
#[derive(Debug)]
pub struct WindowAccumulator {
    kind: WindowKind,
    bin_minutes: u32,
    window_minutes: u32,
    current_start: u32,
    bins: Vec<f64>,
    seen: Vec<bool>,
}

impl WindowAccumulator {
    /// Creates an accumulator for daily or weekly windows with bins of
    /// `bin_minutes` (which must divide the window length).
    ///
    /// # Panics
    /// Panics if `bin_minutes` does not divide the window length.
    pub fn new(kind: WindowKind, bin_minutes: u32) -> WindowAccumulator {
        let window_minutes = match kind {
            WindowKind::Daily => MINUTES_PER_DAY,
            WindowKind::Weekly => MINUTES_PER_WEEK,
        };
        assert!(
            window_minutes % bin_minutes == 0,
            "bin width must divide the window length"
        );
        let n_bins = (window_minutes / bin_minutes) as usize;
        WindowAccumulator {
            kind,
            bin_minutes,
            window_minutes,
            current_start: 0,
            bins: vec![0.0; n_bins],
            seen: vec![false; n_bins],
        }
    }

    /// Feeds one per-minute sample, returning any windows completed by the
    /// stream's advance (more than one if the stream jumped a gap).
    ///
    /// # Panics
    /// Panics if `at` precedes the current window. Streaming consumers that
    /// must survive late data should use [`WindowAccumulator::try_push`].
    pub fn push(&mut self, at: Minute, bytes: f64) -> Vec<CompletedWindow> {
        match self.try_push(at, bytes) {
            Ok(out) => out,
            Err(e) => panic!("stream must be time-ordered: {e}"),
        }
    }

    /// Feeds one per-minute sample, returning `Err` instead of panicking
    /// when `at` precedes the current window (the accumulator is unchanged
    /// in that case — the late sample is the caller's to count and drop).
    pub fn try_push(&mut self, at: Minute, bytes: f64) -> Result<Vec<CompletedWindow>, LateSample> {
        if at.0 < self.current_start {
            return Err(LateSample {
                at,
                window_start: Minute(self.current_start),
            });
        }
        let mut out = Vec::new();
        while at.0 >= self.current_start + self.window_minutes {
            out.push(self.seal());
        }
        if bytes.is_finite() {
            let idx = ((at.0 - self.current_start) / self.bin_minutes) as usize;
            self.bins[idx] += bytes;
            self.seen[idx] = true;
        }
        Ok(out)
    }

    /// Peeks at the current partial window (e.g. at end of stream) without
    /// consuming it: the accumulator keeps accumulating into the same
    /// window, so an in-order sample pushed after `flush` still lands in it.
    ///
    /// (An earlier version sealed the partial window and advanced a full
    /// window length, which made any subsequent in-order `push` panic as
    /// "late" — flush-then-push is the normal shutdown-then-resume sequence
    /// of a checkpointing pipeline, so flushing must be non-destructive.)
    pub fn flush(&self) -> CompletedWindow {
        self.window_snapshot()
    }

    /// Start of the window currently being accumulated.
    pub fn current_window_start(&self) -> Minute {
        Minute(self.current_start)
    }

    /// The raw accumulation state `(current_start, bins, seen)`, for
    /// bit-exact serialization by the durable ingest layer.
    pub(crate) fn raw_parts(&self) -> (u32, &[f64], &[bool]) {
        (self.current_start, &self.bins, &self.seen)
    }

    /// Rebuilds an accumulator from [`WindowAccumulator::raw_parts`] output.
    /// `bins`/`seen` lengths must match the `(kind, bin_minutes)` geometry.
    pub(crate) fn from_raw_parts(
        kind: WindowKind,
        bin_minutes: u32,
        current_start: u32,
        bins: Vec<f64>,
        seen: Vec<bool>,
    ) -> WindowAccumulator {
        let mut acc = WindowAccumulator::new(kind, bin_minutes);
        assert_eq!(acc.bins.len(), bins.len(), "snapshot bin-count mismatch");
        acc.current_start = current_start;
        acc.bins = bins;
        acc.seen = seen;
        acc
    }

    fn window_snapshot(&self) -> CompletedWindow {
        let start = Minute(self.current_start);
        let values = self
            .bins
            .iter()
            .zip(&self.seen)
            .map(|(&v, &s)| if s { v } else { f64::NAN })
            .collect();
        CompletedWindow {
            kind: self.kind,
            week: start.week(),
            weekday: matches!(self.kind, WindowKind::Daily).then(|| start.weekday()),
            values,
        }
    }

    fn seal(&mut self) -> CompletedWindow {
        let snapshot = self.window_snapshot();
        for b in &mut self.bins {
            *b = 0.0;
        }
        for s in &mut self.seen {
            *s = false;
        }
        self.current_start += self.window_minutes;
        snapshot
    }
}

/// One motif template the matcher knows about.
#[derive(Debug, Clone, PartialEq)]
pub struct MotifTemplate {
    /// Human-readable name ("late evening users").
    pub name: String,
    /// The motif's average pattern.
    pub pattern: Vec<f64>,
}

/// Outcome of matching one window.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchOutcome {
    /// The window matched template `index` with the given similarity.
    Matched {
        /// Index into the template list.
        index: usize,
        /// Correlation similarity achieved.
        similarity: f64,
    },
    /// No template reached the threshold — novel behavior.
    Novel,
    /// The window carried too few observations to judge.
    Insufficient,
}

/// Matches one window against a template library with the Definition 1
/// similarity, returning the best template at or above `threshold`.
///
/// Stateless: the fleet-ingest worker shards call it directly, so many
/// gateways share one template slice while each keeps its own support
/// counts.
pub fn best_match(templates: &[MotifTemplate], threshold: f64, window: &[f64]) -> MatchOutcome {
    if window.iter().filter(|v| v.is_finite()).count() < 3 {
        return MatchOutcome::Insufficient;
    }
    let mut best: Option<(usize, f64)> = None;
    for (i, t) in templates.iter().enumerate() {
        if t.pattern.len() != window.len() {
            continue;
        }
        let c = cor(&t.pattern, window);
        if c >= threshold && best.is_none_or(|(_, bc)| c > bc) {
            best = Some((i, c));
        }
    }
    match best {
        Some((index, similarity)) => MatchOutcome::Matched { index, similarity },
        None => MatchOutcome::Novel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_stats::pearson;

    #[test]
    fn online_pearson_matches_batch() {
        let x: Vec<f64> = (0..200).map(|i| ((i * 13) % 31) as f64).collect();
        let y: Vec<f64> = (0..200)
            .map(|i| ((i * 13) % 31) as f64 * 2.0 + ((i % 5) as f64))
            .collect();
        let mut online = OnlinePearson::new();
        for (&a, &b) in x.iter().zip(&y) {
            online.push(a, b);
        }
        let batch = pearson(&x, &y);
        let stream = online.correlation().unwrap();
        assert!((stream - batch.value).abs() < 1e-10);
        assert_eq!(online.len(), 200);
    }

    #[test]
    fn online_pearson_skips_missing() {
        let mut online = OnlinePearson::new();
        online.push(1.0, 2.0);
        online.push(f64::NAN, 5.0);
        online.push(2.0, 4.0);
        online.push(3.0, 6.0);
        assert_eq!(online.len(), 3);
        assert!((online.correlation().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn online_pearson_merge_equals_sequential() {
        let pairs: Vec<(f64, f64)> = (0..100)
            .map(|i| (((i * 7) % 13) as f64, ((i * 11) % 17) as f64))
            .collect();
        let mut whole = OnlinePearson::new();
        for &(a, b) in &pairs {
            whole.push(a, b);
        }
        let mut left = OnlinePearson::new();
        let mut right = OnlinePearson::new();
        for &(a, b) in &pairs[..37] {
            left.push(a, b);
        }
        for &(a, b) in &pairs[37..] {
            right.push(a, b);
        }
        left.merge(&right);
        assert_eq!(left.len(), whole.len());
        assert!((left.correlation().unwrap() - whole.correlation().unwrap()).abs() < 1e-10);
    }

    #[test]
    fn degenerate_online_pearson() {
        let mut p = OnlinePearson::new();
        assert!(p.correlation().is_none());
        assert!(p.is_empty());
        p.push(1.0, 1.0);
        assert!(p.correlation().is_none());
        p.push(1.0, 2.0); // x constant
        assert!(p.correlation().is_none());
    }

    #[test]
    fn accumulator_emits_complete_days() {
        let mut acc = WindowAccumulator::new(WindowKind::Daily, 180);
        let mut emitted = Vec::new();
        for m in 0..(2 * MINUTES_PER_DAY) {
            emitted.extend(acc.push(Minute(m), 10.0));
        }
        assert_eq!(emitted.len(), 1, "one full day sealed by the second day");
        let w = &emitted[0];
        assert_eq!(w.kind, WindowKind::Daily);
        assert_eq!(w.week, 0);
        assert_eq!(w.weekday, Some(Weekday::Monday));
        assert_eq!(w.values.len(), 8);
        for v in &w.values {
            assert!((v - 1800.0).abs() < 1e-9, "180 minutes x 10 bytes");
        }
        let tail = acc.flush();
        assert_eq!(tail.weekday, Some(Weekday::Tuesday));
    }

    #[test]
    fn accumulator_handles_gaps() {
        let mut acc = WindowAccumulator::new(WindowKind::Daily, 720);
        acc.push(Minute(0), 5.0);
        // Jump three days ahead: two whole days pass with no samples.
        let emitted = acc.push(Minute(3 * MINUTES_PER_DAY), 7.0);
        assert_eq!(emitted.len(), 3);
        assert_eq!(emitted[0].values[0], 5.0);
        assert!(emitted[0].values[1].is_nan());
        assert!(emitted[1].values.iter().all(|v| v.is_nan()));
        assert!(emitted[2].values.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn accumulator_weekly_windows() {
        let mut acc = WindowAccumulator::new(WindowKind::Weekly, 480);
        let emitted = acc.push(Minute(MINUTES_PER_WEEK + 5), 1.0);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].kind, WindowKind::Weekly);
        assert_eq!(emitted[0].values.len(), 21);
        assert_eq!(emitted[0].weekday, None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn accumulator_rejects_time_travel() {
        let mut acc = WindowAccumulator::new(WindowKind::Daily, 60);
        let _ = acc.push(Minute(MINUTES_PER_DAY * 2), 1.0);
        let _ = acc.push(Minute(0), 1.0);
    }

    #[test]
    fn flush_then_push_keeps_accumulating() {
        // Regression: flush used to seal the partial window and advance
        // `current_start` a full window, so the next in-order push panicked
        // with "stream must be time-ordered".
        let mut acc = WindowAccumulator::new(WindowKind::Daily, 720);
        acc.push(Minute(10), 5.0);
        let partial = acc.flush();
        assert_eq!(partial.values[0], 5.0);
        assert!(partial.values[1].is_nan());
        assert_eq!(acc.current_window_start(), Minute(0));

        // The very next minute must still be accepted, into the same window.
        let emitted = acc.push(Minute(11), 7.0);
        assert!(emitted.is_empty());
        let partial = acc.flush();
        assert_eq!(partial.values[0], 12.0, "flush must not drop accumulation");

        // And once the stream passes the window end, it seals normally.
        let emitted = acc.push(Minute(MINUTES_PER_DAY), 1.0);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].values[0], 12.0);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut acc = WindowAccumulator::new(WindowKind::Daily, 720);
        acc.push(Minute(3), 2.0);
        let (a, b) = (acc.flush(), acc.flush());
        assert_eq!(a.week, b.week);
        assert_eq!(a.weekday, b.weekday);
        // Compare bin-by-bin (NaN == NaN would fail a direct comparison).
        assert_eq!(a.values.len(), b.values.len());
        for (x, y) in a.values.iter().zip(&b.values) {
            assert!(x == y || (x.is_nan() && y.is_nan()));
        }
        assert_eq!(a.values[0], 2.0);
    }

    #[test]
    fn try_push_rejects_late_sample_recoverably() {
        let mut acc = WindowAccumulator::new(WindowKind::Daily, 60);
        let _ = acc.push(Minute(MINUTES_PER_DAY * 2), 1.0);
        let err = acc.try_push(Minute(5), 1.0).unwrap_err();
        assert_eq!(
            err,
            LateSample {
                at: Minute(5),
                window_start: Minute(MINUTES_PER_DAY * 2)
            }
        );
        assert!(err.to_string().contains("late sample"));
        // The accumulator survives and keeps accepting in-order samples.
        let out = acc.try_push(Minute(MINUTES_PER_DAY * 2 + 1), 3.0).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn best_match_is_stateless_core_of_observe() {
        let t = vec![MotifTemplate {
            name: "t".into(),
            pattern: vec![1.0, 2.0, 30.0, 40.0],
        }];
        let w = [2.0, 3.0, 31.0, 41.0];
        let first = best_match(&t, 0.8, &w);
        assert_eq!(best_match(&t, 0.8, &w), first, "no state between calls");
        assert!(matches!(first, MatchOutcome::Matched { index: 0, .. }));
    }

    #[test]
    fn matcher_assigns_and_counts() {
        let evening = MotifTemplate {
            name: "evening".into(),
            pattern: vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 900.0, 950.0],
        };
        let morning = MotifTemplate {
            name: "morning".into(),
            pattern: vec![1.0, 1.0, 800.0, 850.0, 1.0, 1.0, 1.0, 1.0],
        };
        let templates = [evening, morning];

        let w_evening = vec![2.0, 3.0, 1.0, 2.0, 4.0, 2.0, 1000.0, 1100.0];
        match best_match(&templates, 0.8, &w_evening) {
            MatchOutcome::Matched { index, similarity } => {
                assert_eq!(index, 0);
                assert!(similarity > 0.8);
            }
            other => panic!("expected evening match, got {other:?}"),
        }

        let w_flat = vec![5.0; 8];
        assert_eq!(best_match(&templates, 0.8, &w_flat), MatchOutcome::Novel);

        let w_sparse = vec![f64::NAN; 8];
        assert_eq!(
            best_match(&templates, 0.8, &w_sparse),
            MatchOutcome::Insufficient
        );
    }

    #[test]
    fn matcher_prefers_best_template() {
        let a = MotifTemplate {
            name: "a".into(),
            pattern: vec![0.0, 0.0, 10.0, 10.0],
        };
        let b = MotifTemplate {
            name: "b".into(),
            pattern: vec![0.0, 5.0, 10.0, 10.0],
        };
        // Exactly b's shape.
        match best_match(&[a, b], 0.5, &[1.0, 6.0, 11.0, 11.0]) {
            MatchOutcome::Matched { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
