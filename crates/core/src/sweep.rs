//! The Definition-3 granularity sweep engine.
//!
//! Section 7.1 scores every candidate `(granularity, offset)` binning of
//! every gateway by mean pairwise calendar-window correlation, and the
//! experiments repeat that grid per figure. Evaluated naively the sweep
//! re-reads all `O(series_len)` samples per candidate, re-extracts the same
//! calendar windows, and re-sorts every window inside each KS test. This
//! module is the fast path:
//!
//! * each series is turned into a [`GranularityPyramid`] once (integer
//!   prefix sums; see `wtts_timeseries::pyramid` for the exactness
//!   argument), so a candidate re-binning is O(bins), with shared-divisor
//!   candidates folding from a coarse [`PyramidLevel`]; non-integer series
//!   fall back to direct [`aggregate`] summation — same bits either way;
//! * calendar windows are materialized into one flat buffer per cell and
//!   scored from borrowed `chunks_exact` slices — no per-window clones;
//! * each window is profiled ([`CorProfile`]) once, and one **fused** pair
//!   loop feeds both the Definition-3 correlation total and the
//!   Definition-2 stationarity verdict, with KS tests running over the
//!   profiles' cached sort order ([`ks_two_sample_sorted`]) instead of
//!   re-sorting per pair; the per-pair coefficients and the KS sup-scan
//!   bottom out in the stats crate's kernel layer (`wtts_stats::kernels`),
//!   bit-identical to the loops they replaced;
//! * the `series × candidate` grid fans out over the engine's work-stealing
//!   `run_grid` (the loop behind [`crate::engine::cor_matrix`] too), one
//!   [`CorScratch`] per worker; results are deterministic in the thread
//!   count because every cell is computed independently and written to its
//!   own slot.
//!
//! Everything stays **bit-identical** to the legacy per-call path
//! (`aggregate` → `weekly_windows`/`daily_windows` → per-pair
//! [`cor_profiled`] / [`strong_stationarity`]): the pyramid reproduces
//! `aggregate` exactly, window extraction replicates `TimeSeries::slice`,
//! the fused loop visits pairs in the same order with the same accumulation,
//! and the presorted KS consumes the same stably-sorted sequences the
//! unsorted entry point builds internally. The differential tests below
//! check all of this against an inline reimplementation of the old path.
//!
//! Observability: pass `Some(&PipelineObs)` to record `pyramid_build`,
//! `rebin` and `window_score` stage spans plus the
//! `rebins_pyramid`/`rebins_direct`/`level_folds` path counters; with `None`
//! no atomic is touched and results are unchanged.
//!
//! [`strong_stationarity`]: crate::stationarity::strong_stationarity

use crate::aggregation::GranularityScore;
use crate::engine::{cor_profiled, run_grid};
use crate::obs::{sim_millis, PipelineObs};
use crate::stationarity::{correlation_passes, StationarityCheck};
use wtts_stats::{ks_two_sample_sorted, CorProfile, CorScratch, ALPHA};
use wtts_timeseries::{
    aggregate, Granularity, GranularityPyramid, PyramidLevel, TimeSeries, MINUTES_PER_DAY,
    MINUTES_PER_WEEK,
};

/// Configuration for [`weekly_sweep`] / [`daily_sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Worker threads; `None` uses the machine's available parallelism.
    pub threads: Option<usize>,
}

/// One series' sweep state: the original series plus, when the values are
/// exactly representable, its prefix-sum pyramid and the coarse levels
/// planned for the candidate grid. Shared with the multi-scale lag search
/// ([`crate::lagsearch`]), which re-bins the same way before folding lags.
pub(crate) struct SweepSource<'a> {
    series: &'a TimeSeries,
    pyramid: Option<GranularityPyramid>,
    levels: Vec<PyramidLevel>,
}

impl<'a> SweepSource<'a> {
    /// Builds the pyramid (and its planned levels) for a sweep over
    /// `candidates`; falls back to pyramid-less direct summation when the
    /// series is not integer-exact.
    pub(crate) fn build(
        series: &'a TimeSeries,
        candidates: &[(Granularity, u32)],
        obs: Option<&PipelineObs>,
    ) -> SweepSource<'a> {
        let _span = obs.map(|o| o.pyramid_build.enter());
        let pyramid = GranularityPyramid::try_new(series);
        let levels = match &pyramid {
            Some(p) => plan_levels(candidates, series.step_minutes())
                .into_iter()
                .map(|(offset, base)| p.level(Granularity::minutes(base), offset))
                .collect(),
            None => Vec::new(),
        };
        SweepSource {
            series,
            pyramid,
            levels,
        }
    }

    /// A source that always uses direct summation — for one-shot cells where
    /// a pyramid has nothing to amortize over.
    fn direct(series: &'a TimeSeries) -> SweepSource<'a> {
        SweepSource {
            series,
            pyramid: None,
            levels: Vec::new(),
        }
    }

    /// Re-bins the series at one candidate, via the cheapest exact path:
    /// a matching coarse level, the pyramid base, or direct [`aggregate`].
    pub(crate) fn rebin(
        &self,
        g: Granularity,
        offset_minutes: u32,
        obs: Option<&PipelineObs>,
    ) -> TimeSeries {
        let _span = obs.map(|o| o.rebin.enter());
        match &self.pyramid {
            Some(p) => {
                if let Some(o) = obs {
                    o.rebins_pyramid.incr();
                }
                let level = self.levels.iter().find(|l| {
                    l.offset_minutes() == offset_minutes
                        && g.as_minutes().is_multiple_of(l.base_minutes())
                });
                match level {
                    Some(l) => {
                        if let Some(o) = obs {
                            o.level_folds.incr();
                        }
                        l.rebin(g)
                    }
                    None => p.rebin(g, offset_minutes),
                }
            }
            None => {
                if let Some(o) = obs {
                    o.rebins_direct.incr();
                }
                aggregate(self.series, g, offset_minutes)
            }
        }
    }
}

/// Greatest common divisor.
fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Plans the pyramid levels worth building for a candidate grid: per
/// offset, the gcd of the coarser-than-step candidate granularities —
/// provided at least two candidates share that offset and the gcd is itself
/// coarser than the step (otherwise a level would just mirror the base).
/// Returns `(offset, base_minutes)` pairs.
fn plan_levels(candidates: &[(Granularity, u32)], step: u32) -> Vec<(u32, u32)> {
    let mut offsets: Vec<u32> = candidates.iter().map(|&(_, o)| o).collect();
    offsets.sort_unstable();
    offsets.dedup();
    let mut out = Vec::new();
    for offset in offsets {
        let gs: Vec<u32> = candidates
            .iter()
            .filter(|&&(g, o)| o == offset && g.as_minutes() > step)
            .map(|&(g, _)| g.as_minutes())
            .collect();
        if gs.len() < 2 {
            continue;
        }
        let base = gs.iter().copied().fold(0, gcd);
        if base > step {
            out.push((offset, base));
        }
    }
    out
}

/// Appends the samples of the calendar window `[from, from + len*step)` of
/// `agg` to `out`, replicating `TimeSeries::slice` exactly: positions before
/// the series start or past its end come back as missing.
fn fill_window(agg: &TimeSeries, from: u32, len: usize, out: &mut Vec<f64>) {
    let step = agg.step_minutes();
    let s0 = agg.start().0;
    let vals = agg.values();
    for i in 0..len {
        let t = from + i as u32 * step;
        out.push(if t < s0 {
            f64::NAN
        } else {
            vals.get(((t - s0) / step) as usize)
                .copied()
                .unwrap_or(f64::NAN)
        });
    }
}

/// Scores one window group: profiles every observed window once, then runs
/// the fused pair loop — each pair's correlation feeds the Definition-3
/// accumulator (`total`/`pairs`, threaded through so multi-group callers
/// keep the legacy term-by-term accumulation order) and, when
/// `want_stationarity` holds, the Definition-2 verdict with KS tests over
/// presorted values. Returns the stationarity check (`None` when fewer than
/// two windows carry observations, or when not requested).
fn score_group(
    windows: &[&[f64]],
    scratch: &mut CorScratch,
    want_stationarity: bool,
    obs: Option<&PipelineObs>,
    total: &mut f64,
    pairs: &mut usize,
) -> Option<StationarityCheck> {
    let observed: Vec<&&[f64]> = windows
        .iter()
        .filter(|w| w.iter().any(|v| v.is_finite()))
        .collect();
    let n = observed.len();
    if n < 2 {
        return None;
    }
    let profiles: Vec<CorProfile> = observed
        .iter()
        .map(|w| {
            let _p = obs.map(|o| o.profile_build.enter());
            CorProfile::new(w)
        })
        .collect();
    if !want_stationarity {
        for i in 0..n {
            for j in (i + 1)..n {
                *total += cor_profiled(&profiles[i], &profiles[j], scratch);
                *pairs += 1;
            }
        }
        return None;
    }
    // The KS test sorts each sample; the profiles already hold the stable
    // sort permutation, so each window is sorted once here instead of once
    // per pair inside `ks_two_sample`.
    let sorted: Vec<Vec<f64>> = profiles.iter().map(|p| p.sorted_values()).collect();
    let mut min_cor = f64::INFINITY;
    let mut correlations_pass = true;
    let mut ks_rejected = false;
    for i in 0..n {
        for j in (i + 1)..n {
            let c = cor_profiled(&profiles[i], &profiles[j], scratch);
            *total += c;
            *pairs += 1;
            min_cor = min_cor.min(c);
            if !correlation_passes(c) {
                correlations_pass = false;
            }
            if let Some(o) = obs {
                o.stationarity_sim_millis.record(sim_millis(c));
            }
            if let Some(ks) = ks_two_sample_sorted(&sorted[i], &sorted[j]) {
                if let Some(o) = obs {
                    o.ks_tests.incr();
                }
                if ks.rejected(ALPHA) {
                    ks_rejected = true;
                }
            }
        }
    }
    Some(StationarityCheck {
        min_cor,
        correlations_pass,
        ks_rejected,
        n_windows: n,
    })
}

/// One `(series, candidate)` cell of a weekly sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WeeklyCell {
    /// Definition-3 score over all week pairs; `None` when fewer than two
    /// weeks carry observations.
    pub score: Option<GranularityScore>,
    /// Definition-2 verdict over the weekly windows (when requested).
    pub stationarity: Option<StationarityCheck>,
}

/// One `(series, candidate)` cell of a daily sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyCell {
    /// Definition-3 score over all same-weekday pairs; `None` when no
    /// weekday has two observed instances.
    pub score: Option<GranularityScore>,
    /// Per-weekday Definition-2 verdicts (Monday = 0; when requested).
    pub stationarity: [Option<StationarityCheck>; 7],
}

impl DailyCell {
    /// Number of strongly stationary weekdays.
    pub fn stationary_weekday_count(&self) -> usize {
        self.stationarity
            .iter()
            .filter(|c| c.is_some_and(|c| c.is_stationary()))
            .count()
    }
}

/// Computes one weekly cell from a prepared source.
fn weekly_cell_from(
    source: &SweepSource<'_>,
    weeks: u32,
    granularity: Granularity,
    offset_minutes: u32,
    want_stationarity: bool,
    scratch: &mut CorScratch,
    obs: Option<&PipelineObs>,
) -> WeeklyCell {
    let agg = source.rebin(granularity, offset_minutes, obs);
    let len = (MINUTES_PER_WEEK / agg.step_minutes()) as usize;
    if len == 0 {
        return WeeklyCell {
            score: None,
            stationarity: None,
        };
    }
    let _span = obs.map(|o| o.window_score.enter());
    let mut buf = Vec::with_capacity(len * weeks as usize);
    for w in 0..weeks {
        fill_window(&agg, w * MINUTES_PER_WEEK + offset_minutes, len, &mut buf);
    }
    let windows: Vec<&[f64]> = buf.chunks_exact(len).collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    let stationarity = score_group(
        &windows,
        scratch,
        want_stationarity,
        obs,
        &mut total,
        &mut pairs,
    );
    WeeklyCell {
        score: (pairs > 0).then(|| GranularityScore {
            granularity,
            offset_minutes,
            mean_correlation: total / pairs as f64,
            n_pairs: pairs,
        }),
        stationarity,
    }
}

/// Computes one daily cell from a prepared source: same-weekday groups,
/// scored weekday-major exactly like the legacy loop.
fn daily_cell_from(
    source: &SweepSource<'_>,
    weeks: u32,
    granularity: Granularity,
    offset_minutes: u32,
    want_stationarity: bool,
    scratch: &mut CorScratch,
    obs: Option<&PipelineObs>,
) -> DailyCell {
    let agg = source.rebin(granularity, offset_minutes, obs);
    let len = (MINUTES_PER_DAY / agg.step_minutes()) as usize;
    let mut stationarity: [Option<StationarityCheck>; 7] = Default::default();
    if len == 0 {
        return DailyCell {
            score: None,
            stationarity,
        };
    }
    let _span = obs.map(|o| o.window_score.enter());
    let mut buf = Vec::with_capacity(len * weeks as usize);
    let mut total = 0.0;
    let mut pairs = 0usize;
    for (d, slot) in stationarity.iter_mut().enumerate() {
        buf.clear();
        for w in 0..weeks {
            let from = w * MINUTES_PER_WEEK + d as u32 * MINUTES_PER_DAY + offset_minutes;
            fill_window(&agg, from, len, &mut buf);
        }
        let windows: Vec<&[f64]> = buf.chunks_exact(len).collect();
        *slot = score_group(
            &windows,
            scratch,
            want_stationarity,
            obs,
            &mut total,
            &mut pairs,
        );
    }
    DailyCell {
        score: (pairs > 0).then(|| GranularityScore {
            granularity,
            offset_minutes,
            mean_correlation: total / pairs as f64,
            n_pairs: pairs,
        }),
        stationarity,
    }
}

/// One weekly cell for a single series and candidate. One-shot calls have
/// nothing for a pyramid to amortize over, so this path sums directly —
/// the result is bit-identical either way.
pub fn weekly_cell(
    series: &TimeSeries,
    weeks: u32,
    granularity: Granularity,
    offset_minutes: u32,
    want_stationarity: bool,
    obs: Option<&PipelineObs>,
) -> WeeklyCell {
    let source = SweepSource::direct(series);
    let mut scratch = CorScratch::new();
    weekly_cell_from(
        &source,
        weeks,
        granularity,
        offset_minutes,
        want_stationarity,
        &mut scratch,
        obs,
    )
}

/// One daily cell for a single series and candidate (see [`weekly_cell`]).
pub fn daily_cell(
    series: &TimeSeries,
    weeks: u32,
    granularity: Granularity,
    offset_minutes: u32,
    want_stationarity: bool,
    obs: Option<&PipelineObs>,
) -> DailyCell {
    let source = SweepSource::direct(series);
    let mut scratch = CorScratch::new();
    daily_cell_from(
        &source,
        weeks,
        granularity,
        offset_minutes,
        want_stationarity,
        &mut scratch,
        obs,
    )
}

/// A weekly sweep result: `cells[series][candidate]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WeeklySweep {
    /// The `(granularity, offset)` grid, in input order.
    pub candidates: Vec<(Granularity, u32)>,
    /// One row per input series, one cell per candidate.
    pub cells: Vec<Vec<WeeklyCell>>,
}

/// A daily sweep result: `cells[series][candidate]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DailySweep {
    /// The day-start offset shared by all candidates.
    pub offset_minutes: u32,
    /// The candidate granularities, in input order.
    pub candidates: Vec<Granularity>,
    /// One row per input series, one cell per candidate.
    pub cells: Vec<Vec<DailyCell>>,
}

/// Sweeps every series over every weekly `(granularity, offset)` candidate:
/// one pyramid per series, one re-binning and one fused scoring pass per
/// cell, cells fanned across worker threads. Each cell carries both the
/// Definition-3 score and the Definition-2 weekly stationarity verdict.
pub fn weekly_sweep(
    series: &[TimeSeries],
    weeks: u32,
    candidates: &[(Granularity, u32)],
    config: &SweepConfig,
    obs: Option<&PipelineObs>,
) -> WeeklySweep {
    let sources: Vec<SweepSource<'_>> = series
        .iter()
        .map(|s| SweepSource::build(s, candidates, obs))
        .collect();
    let cells = run_grid(
        series.len(),
        candidates.len(),
        config.threads,
        |r, c, scratch| {
            let (g, offset) = candidates[c];
            weekly_cell_from(&sources[r], weeks, g, offset, true, scratch, obs)
        },
    );
    WeeklySweep {
        candidates: candidates.to_vec(),
        cells,
    }
}

/// Sweeps every series over every daily candidate granularity at one
/// day-start offset (see [`weekly_sweep`]). Each cell carries the
/// Definition-3 same-weekday score and the per-weekday Definition-2
/// verdicts.
pub fn daily_sweep(
    series: &[TimeSeries],
    weeks: u32,
    candidates: &[Granularity],
    offset_minutes: u32,
    config: &SweepConfig,
    obs: Option<&PipelineObs>,
) -> DailySweep {
    let pairs: Vec<(Granularity, u32)> = candidates.iter().map(|&g| (g, offset_minutes)).collect();
    let sources: Vec<SweepSource<'_>> = series
        .iter()
        .map(|s| SweepSource::build(s, &pairs, obs))
        .collect();
    let cells = run_grid(
        series.len(),
        candidates.len(),
        config.threads,
        |r, c, scratch| {
            daily_cell_from(
                &sources[r],
                weeks,
                candidates[c],
                offset_minutes,
                true,
                scratch,
                obs,
            )
        },
    );
    DailySweep {
        offset_minutes,
        candidates: candidates.to_vec(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationarity::strong_stationarity;
    use wtts_timeseries::{daily_windows, weekly_windows};

    /// Integer-valued per-minute series with NaN gaps (pyramid-eligible).
    fn integer_series(weeks: u32) -> TimeSeries {
        let minutes = (weeks * MINUTES_PER_WEEK) as usize;
        let v: Vec<f64> = (0..minutes)
            .map(|m| {
                if m % 97 == 13 {
                    f64::NAN
                } else {
                    let hour = (m % MINUTES_PER_DAY as usize) / 60;
                    let burst = if (18..23).contains(&hour) && m % 11 < 3 {
                        5_000
                    } else {
                        0
                    };
                    (burst + (m * 31 + 5) % 89) as f64
                }
            })
            .collect();
        TimeSeries::per_minute(v)
    }

    /// Fractional series (forces the direct-summation fallback).
    fn fractional_series(weeks: u32) -> TimeSeries {
        let base = integer_series(weeks);
        let v: Vec<f64> = base.values().iter().map(|&x| x * 0.25).collect();
        TimeSeries::per_minute(v)
    }

    /// The pre-sweep weekly path, reimplemented inline as the reference:
    /// direct aggregation, `weekly_windows`, per-pair profiles, and
    /// `strong_stationarity` from `stationarity.rs` (which this PR did not
    /// touch).
    fn legacy_weekly(
        series: &TimeSeries,
        weeks: u32,
        g: Granularity,
        offset: u32,
    ) -> (Option<(f64, usize)>, Option<StationarityCheck>) {
        let agg = aggregate(series, g, offset);
        let windows: Vec<Vec<f64>> = weekly_windows(&agg, weeks, offset)
            .into_iter()
            .map(|w| w.series.into_values())
            .collect();
        let observed: Vec<&Vec<f64>> = windows
            .iter()
            .filter(|w| w.iter().any(|v| v.is_finite()))
            .collect();
        let score = if observed.len() < 2 {
            None
        } else {
            let profiles: Vec<CorProfile> = observed.iter().map(|w| CorProfile::new(w)).collect();
            let mut scratch = CorScratch::new();
            let mut total = 0.0;
            let mut pairs = 0;
            for i in 0..observed.len() {
                for j in (i + 1)..observed.len() {
                    total += cor_profiled(&profiles[i], &profiles[j], &mut scratch);
                    pairs += 1;
                }
            }
            Some((total / pairs as f64, pairs))
        };
        let refs: Vec<&[f64]> = windows.iter().map(|w| w.as_slice()).collect();
        (score, strong_stationarity(&refs, None))
    }

    /// The pre-sweep daily path, reimplemented inline as the reference.
    fn legacy_daily(
        series: &TimeSeries,
        weeks: u32,
        g: Granularity,
        offset: u32,
    ) -> (Option<(f64, usize)>, [Option<StationarityCheck>; 7]) {
        let agg = aggregate(series, g, offset);
        let windows = daily_windows(&agg, weeks, offset);
        let mut scratch = CorScratch::new();
        let mut total = 0.0;
        let mut pairs = 0;
        let mut checks: [Option<StationarityCheck>; 7] = Default::default();
        for weekday in 0..7u8 {
            let group: Vec<&[f64]> = windows
                .iter()
                .filter(|w| w.weekday.map(|d| d.index()) == Some(weekday))
                .map(|w| w.series.values())
                .filter(|v| v.iter().any(|x| x.is_finite()))
                .collect();
            let profiles: Vec<CorProfile> = group.iter().map(|w| CorProfile::new(w)).collect();
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    total += cor_profiled(&profiles[i], &profiles[j], &mut scratch);
                    pairs += 1;
                }
            }
            let all: Vec<&[f64]> = windows
                .iter()
                .filter(|w| w.weekday.map(|d| d.index()) == Some(weekday))
                .map(|w| w.series.values())
                .collect();
            checks[weekday as usize] = strong_stationarity(&all, None);
        }
        let score = (pairs > 0).then(|| (total / pairs as f64, pairs));
        (score, checks)
    }

    fn assert_weekly_matches(series: &TimeSeries, weeks: u32, candidates: &[(Granularity, u32)]) {
        let sweep = weekly_sweep(
            std::slice::from_ref(series),
            weeks,
            candidates,
            &SweepConfig { threads: Some(1) },
            None,
        );
        for (k, &(g, offset)) in candidates.iter().enumerate() {
            let cell = &sweep.cells[0][k];
            let (score, stationarity) = legacy_weekly(series, weeks, g, offset);
            match (score, &cell.score) {
                (None, None) => {}
                (Some((mean, pairs)), Some(s)) => {
                    assert_eq!(
                        mean.to_bits(),
                        s.mean_correlation.to_bits(),
                        "weekly mean at {g}+{offset}"
                    );
                    assert_eq!(pairs, s.n_pairs);
                    assert_eq!(s.granularity, g);
                    assert_eq!(s.offset_minutes, offset);
                }
                other => panic!("score presence mismatch at {g}+{offset}: {other:?}"),
            }
            assert_stationarity_eq(&stationarity, &cell.stationarity, g, offset);
        }
    }

    fn assert_stationarity_eq(
        reference: &Option<StationarityCheck>,
        got: &Option<StationarityCheck>,
        g: Granularity,
        offset: u32,
    ) {
        match (reference, got) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(
                    a.min_cor.to_bits(),
                    b.min_cor.to_bits(),
                    "min_cor at {g}+{offset}"
                );
                assert_eq!(a.correlations_pass, b.correlations_pass);
                assert_eq!(a.ks_rejected, b.ks_rejected, "ks at {g}+{offset}");
                assert_eq!(a.n_windows, b.n_windows);
            }
            other => panic!("stationarity presence mismatch at {g}+{offset}: {other:?}"),
        }
    }

    #[test]
    fn weekly_cells_bit_identical_to_legacy_path_integer() {
        let s = integer_series(3);
        let candidates = [
            (Granularity::minutes(1), 0),
            (Granularity::hours(2), 0),
            (Granularity::hours(8), 0),
            (Granularity::hours(8), 120),
            (Granularity::hours(12), 120),
        ];
        assert_weekly_matches(&s, 3, &candidates);
    }

    #[test]
    fn weekly_cells_bit_identical_to_legacy_path_fractional() {
        let s = fractional_series(2);
        assert!(
            GranularityPyramid::try_new(&s).is_none(),
            "fixture must exercise the fallback"
        );
        let candidates = [(Granularity::hours(4), 0), (Granularity::hours(8), 120)];
        assert_weekly_matches(&s, 2, &candidates);
    }

    #[test]
    fn daily_cells_bit_identical_to_legacy_path() {
        for series in [integer_series(3), fractional_series(3)] {
            let candidates = [
                Granularity::minutes(10),
                Granularity::minutes(90),
                Granularity::minutes(180),
            ];
            let sweep = daily_sweep(
                std::slice::from_ref(&series),
                3,
                &candidates,
                0,
                &SweepConfig { threads: Some(1) },
                None,
            );
            for (k, &g) in candidates.iter().enumerate() {
                let cell = &sweep.cells[0][k];
                let (score, checks) = legacy_daily(&series, 3, g, 0);
                match (score, &cell.score) {
                    (None, None) => {}
                    (Some((mean, pairs)), Some(s)) => {
                        assert_eq!(
                            mean.to_bits(),
                            s.mean_correlation.to_bits(),
                            "daily mean at {g}"
                        );
                        assert_eq!(pairs, s.n_pairs);
                    }
                    other => panic!("score presence mismatch at {g}: {other:?}"),
                }
                for (d, check) in checks.iter().enumerate() {
                    assert_stationarity_eq(check, &cell.stationarity[d], g, d as u32);
                }
            }
        }
    }

    #[test]
    fn single_cell_wrappers_match_grid_cells() {
        let s = integer_series(2);
        let g = Granularity::hours(3);
        let grid = weekly_sweep(
            std::slice::from_ref(&s),
            2,
            &[(g, 120)],
            &SweepConfig { threads: Some(1) },
            None,
        );
        assert_eq!(weekly_cell(&s, 2, g, 120, true, None), grid.cells[0][0]);
        let dgrid = daily_sweep(
            std::slice::from_ref(&s),
            2,
            &[g],
            0,
            &SweepConfig { threads: Some(1) },
            None,
        );
        assert_eq!(daily_cell(&s, 2, g, 0, true, None), dgrid.cells[0][0]);
    }

    #[test]
    fn sweep_is_deterministic_in_thread_count() {
        let series: Vec<TimeSeries> = vec![
            integer_series(2),
            fractional_series(2),
            integer_series(2).slice(wtts_timeseries::Minute(0), MINUTES_PER_WEEK as usize * 2),
        ];
        let candidates = [
            (Granularity::hours(1), 0),
            (Granularity::hours(4), 0),
            (Granularity::hours(8), 120),
            (Granularity::hours(12), 180),
        ];
        let reference = weekly_sweep(
            &series,
            2,
            &candidates,
            &SweepConfig { threads: Some(1) },
            None,
        );
        for threads in [2usize, 4, 7] {
            let parallel = weekly_sweep(
                &series,
                2,
                &candidates,
                &SweepConfig {
                    threads: Some(threads),
                },
                None,
            );
            assert_eq!(reference, parallel, "threads = {threads}");
        }
        let daily_ref = daily_sweep(
            &series,
            2,
            Granularity::daily_candidates(),
            0,
            &SweepConfig { threads: Some(1) },
            None,
        );
        let daily_par = daily_sweep(
            &series,
            2,
            Granularity::daily_candidates(),
            0,
            &SweepConfig { threads: Some(3) },
            None,
        );
        assert_eq!(daily_ref, daily_par);
    }

    #[test]
    fn observability_counters_balance() {
        let obs = PipelineObs::new();
        let series = vec![integer_series(2), fractional_series(2)];
        let candidates = [
            (Granularity::hours(2), 0),
            (Granularity::hours(4), 0),
            (Granularity::hours(8), 120),
            (Granularity::hours(12), 120),
        ];
        let with_obs = weekly_sweep(
            &series,
            2,
            &candidates,
            &SweepConfig { threads: Some(2) },
            Some(&obs),
        );
        let without = weekly_sweep(
            &series,
            2,
            &candidates,
            &SweepConfig { threads: Some(2) },
            None,
        );
        assert_eq!(with_obs, without, "observability must not change results");

        let snap = obs.snapshot();
        assert_eq!(snap.check_laws(), Vec::<String>::new());
        assert_eq!(snap.rebin.entered, (series.len() * candidates.len()) as u64);
        // One integer series: its 8 cells ride the pyramid; the fractional
        // series' 8 cells fall back.
        assert_eq!(snap.rebins_direct, candidates.len() as u64);
        // The offset-0 candidates (2h, 4h) share gcd 2h > 1m, and the
        // offset-120 candidates (8h, 12h) share gcd 4h: both levels fold.
        assert_eq!(snap.level_folds, candidates.len() as u64);
        assert_eq!(
            snap.pyramid_build.entered,
            series.len() as u64,
            "one pyramid build per series"
        );
    }

    #[test]
    fn level_planning_follows_divisors() {
        // Offset 0: 60 and 90 share gcd 30 > 1; offset 120 has one coarse
        // candidate (no level); the 1-minute candidate never joins a gcd.
        let candidates = [
            (Granularity::minutes(1), 0),
            (Granularity::minutes(60), 0),
            (Granularity::minutes(90), 0),
            (Granularity::minutes(60), 120),
        ];
        assert_eq!(plan_levels(&candidates, 1), vec![(0, 30)]);
        // Coprime candidates collapse to base 1 = step: no level.
        let coprime = [(Granularity::minutes(7), 0), (Granularity::minutes(11), 0)];
        assert!(plan_levels(&coprime, 1).is_empty());
    }
}
