//! Multi-scale lagged correlation search over the granularity pyramid.
//!
//! Figure 2 of the paper reads lead/lag structure off individual CCF plots:
//! one gateway's evening peak precedes another's by some number of minutes.
//! This module turns that manual reading into an engine: given a fleet of
//! equally-sampled gateway series, it evaluates the cross-correlation of
//! **every pair at every candidate scale and every lag** and reports the
//! strongest lead/lag relations per scale — without ever re-aggregating a
//! series per `(scale, lag)` cell.
//!
//! # How a cell is computed
//!
//! * Each series is re-binned once per scale through the shared
//!   [`crate::sweep`] source (granularity-pyramid prefix sums with
//!   coarse-level folding; direct summation for non-integer series) — the
//!   same bits [`wtts_timeseries::aggregate`] would produce.
//! * Each re-binned series is prepared once into a [`CcfSide`]: the
//!   deviation vector, finite mask and moments, reusing the
//!   [`wtts_stats::CorProfile`] moments so no pass is repeated. Every
//!   `(scale, lag)` cell is then one fold over the overlap — O(bins),
//!   **bit-identical to a fresh [`wtts_stats::ccf`] call** on the re-binned
//!   slices by construction (`ccf` itself is implemented on the same
//!   kernel). When both sides are complete, all prune-surviving lags of a
//!   row are evaluated by one grouped multi-lag sweep
//!   ([`ccf_cells_batch`], backed by the stats crate's kernel layer), which
//!   shares each pass over the deviation arrays across up to four lags'
//!   independent accumulator chains; gappy sides keep the per-cell
//!   [`ccf_cell_counted`] pairwise-complete walk.
//! * With a reporting threshold `phi > 0`, cells are pruned before exact
//!   work by a three-tier cascade (see below); at `phi = 0` the grid is
//!   dense and exactly equal to the naive reference.
//! * The `pair × scale` task grid fans out over the work-stealing workers
//!   of [`crate::engine`]'s `run_grid`; every cell writes its own slot and
//!   per-run statistics are summed in row-major order, so results are
//!   **deterministic in the thread count**.
//!
//! # The prune cascade
//!
//! Soundness contract: a pruned cell's exact value is provably `< phi`, so
//! any cell that could reach the report is evaluated exactly (zero false
//! dismissals — the same contract as [`wtts_stats::prune_pair`]).
//!
//! 1. **Degenerate** — a side with no observations or zero variance at
//!    this scale makes every lag undefined; the whole `(pair, scale)` row
//!    is typed [`CorrelogramError`] exactly like [`wtts_stats::ccf`] would.
//! 2. **Sketch (lag 0)** — when the two sides share one finite mask, the
//!    lag-0 cell equals the pairwise Pearson coefficient, so the
//!    [`wtts_stats::CorSketch`] coefficient upper bounds apply verbatim
//!    (only the `Sax`/`Moment` tiers: the sketch's own degenerate tier
//!    reasons about Definition-1 significance, which does not bound a raw
//!    CCF value).
//! 3. **Energy** — per `(series, scale)`, each side precomputes block
//!    energies `E_i = Σ_{t ∈ block i} dev[t]²` on a fixed grid of
//!    `energy_block_bins`-wide blocks, plus their square roots `s_i`. For
//!    a lag `k = qB + r`, Cauchy–Schwarz per block and the subadditivity
//!    of the square root give a **sqrt-free** per-cell bound:
//!    `|Σ_t dx[t+k] dy[t]| ≤ Σ_i (sx[i+q] + sx[i+q+1]) · sy[i]`
//!    (the `+1` straddle term drops out when `r = 0`) — one multiply-add
//!    per block, no transcendental in the hot loop, so the bound costs
//!    about `1/B` of the exact fold it tries to avoid. Bursty traffic
//!    concentrates energy in a few evening blocks, so a lag that misaligns
//!    the bursts pairs each side's big block with the other side's
//!    background and the bound collapses. The observed-pair count is
//!    lower-bounded from missing-count prefixes
//!    (`m ≥ overlap − miss_x − miss_y`). Like the sketch tiers, the
//!    comparison backs off by [`PRUNE_MARGIN`] so float slop cannot cause
//!    a false dismissal.
//!
//! # Reading direction
//!
//! `cells[lag + L]` estimates `corr(x_{t+lag}, y_t)` for a pair `(x, y)`.
//! When `y` repeats `x` delayed by `d` bins (`x` **leads**), the peak sits
//! at `lag = −d`; [`LagSearchResult::top_leads`] folds that convention into
//! explicit leader/follower roles so callers never re-derive the sign.

use crate::engine::{profile_one, run_grid, sketch_one};
use crate::obs::PipelineObs;
use crate::sweep::SweepSource;
use wtts_stats::{
    ccf_cell_counted, ccf_cells_batch, prune_pair, significance_bound, CcfSide, CorProfile,
    CorSketch, CorrelogramError, PruneTier, SketchConfig, PRUNE_MARGIN,
};
use wtts_timeseries::{Granularity, TimeSeries};

/// Configuration for [`lag_search`].
#[derive(Debug, Clone)]
pub struct LagSearchConfig {
    /// Candidate scales (bin widths) to evaluate, each a multiple of the
    /// input step.
    pub scales: Vec<Granularity>,
    /// Day-start offset shared by every scale, in minutes.
    pub offset_minutes: u32,
    /// Maximum lag in *bins* per scale (clamped to `bins − 1`); the grid
    /// covers `−L ..= L`.
    pub max_lag_bins: usize,
    /// Reporting threshold: cells provably below it are pruned without
    /// exact evaluation. `0.0` disables pruning — the grid is dense and
    /// bit-identical to per-cell [`wtts_stats::ccf`].
    pub phi: f64,
    /// Block width (in bins) of the energy-bound grid. Narrower blocks
    /// tighten the bound — they should be no wider than the bursts that
    /// carry the series' energy — but the bound scan costs `bins / width`
    /// multiply-adds per cell, so very narrow blocks eat the saving.
    pub energy_block_bins: usize,
    /// Sketch resolution for the lag-0 coefficient-bound tier.
    pub sketch: SketchConfig,
    /// Worker threads; `None` uses the machine's available parallelism.
    pub threads: Option<usize>,
}

impl Default for LagSearchConfig {
    /// Quarter-hour to two-hour scales, a ±24-bin lag window, no pruning.
    fn default() -> LagSearchConfig {
        LagSearchConfig {
            scales: vec![
                Granularity::minutes(15),
                Granularity::minutes(30),
                Granularity::hours(1),
                Granularity::hours(2),
            ],
            offset_minutes: 0,
            max_lag_bins: 24,
            phi: 0.0,
            energy_block_bins: 8,
            sketch: SketchConfig::default(),
            threads: None,
        }
    }
}

/// One `(pair, scale, lag)` cell of the search grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LagCell {
    /// Exactly evaluated: the pairwise-complete CCF estimate and the
    /// number of observed pairs it rests on (`NaN` with count 0 when no
    /// pair is observed at this lag).
    Exact {
        /// The CCF estimate at this lag.
        value: f64,
        /// Observed pairs behind the estimate.
        n_pairs: usize,
    },
    /// Dismissed by a prune tier: the exact value is provably `< phi`.
    Pruned,
}

/// The lag row of one `(pair, scale)`: `cells[lag + L]` estimates
/// `corr(x_{t+lag}, y_t)`, or the typed error a fresh [`wtts_stats::ccf`]
/// call on the re-binned pair would return.
#[derive(Debug, Clone, PartialEq)]
pub struct PairScaleCcf {
    /// The `2L + 1` lag cells, or the degenerate-side error.
    pub cells: Result<Vec<LagCell>, CorrelogramError>,
}

/// Cell accounting for one run: every considered cell lands in exactly one
/// bucket, so `cells_total = pruned() + evaluated` ([`Self::conserved`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LagPruneStats {
    /// `(pair, scale, lag)` cells considered.
    pub cells_total: u64,
    /// Cells dismissed wholesale by a degenerate side.
    pub pruned_degenerate: u64,
    /// Lag-0 cells dismissed by the sketch coefficient bounds.
    pub pruned_sketch: u64,
    /// Cells dismissed by the segmented energy bound.
    pub pruned_energy: u64,
    /// Cells evaluated exactly.
    pub evaluated: u64,
}

impl LagPruneStats {
    /// Cells dismissed by any tier.
    pub fn pruned(&self) -> u64 {
        self.pruned_degenerate + self.pruned_sketch + self.pruned_energy
    }

    /// The conservation law: every cell is pruned or evaluated.
    pub fn conserved(&self) -> bool {
        self.cells_total == self.pruned() + self.evaluated
    }

    /// Fraction of cells dismissed without exact work (0 for an empty run).
    pub fn prune_rate(&self) -> f64 {
        if self.cells_total == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.cells_total as f64
        }
    }

    fn absorb(&mut self, other: &LagPruneStats) {
        self.cells_total += other.cells_total;
        self.pruned_degenerate += other.pruned_degenerate;
        self.pruned_sketch += other.pruned_sketch;
        self.pruned_energy += other.pruned_energy;
        self.evaluated += other.evaluated;
    }
}

/// One reported lead/lag relation (see [`LagSearchResult::top_leads`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeadLag {
    /// The series pair `(i, j)` as indexed in the input, `i < j`.
    pub pair: (usize, usize),
    /// The series whose activity comes first.
    pub leader: usize,
    /// The series that repeats it `lead_bins` later.
    pub follower: usize,
    /// Raw grid lag of the peak (`corr(x_{t+lag}, y_t)` convention).
    pub lag_bins: i64,
    /// `|lag_bins|` — how far the follower trails, in bins.
    pub lead_bins: usize,
    /// The lead expressed in minutes at this scale.
    pub lead_minutes: u64,
    /// The peak CCF value.
    pub value: f64,
    /// Observed pairs behind the peak.
    pub n_pairs: usize,
    /// Whether the peak clears the white-noise band `1.96 / √n_pairs` of
    /// its own observed-pair count.
    pub significant: bool,
}

/// The full multi-scale lag-search grid plus its cell accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LagSearchResult {
    /// The scales evaluated, in input order.
    pub scales: Vec<Granularity>,
    /// Day-start offset shared by every scale.
    pub offset_minutes: u32,
    /// The reporting threshold the run pruned against (0 = dense).
    pub phi: f64,
    /// Every unordered series pair `(i, j)`, `i < j`, in row order.
    pub pairs: Vec<(usize, usize)>,
    /// Effective lag bound `L` per scale (`max_lag_bins` clamped to
    /// `bins − 1`).
    pub lag_bins_by_scale: Vec<usize>,
    /// `grid[pair][scale]` — the lag rows.
    pub grid: Vec<Vec<PairScaleCcf>>,
    /// Cell accounting, summed deterministically in row-major order.
    pub stats: LagPruneStats,
}

impl LagSearchResult {
    /// The strongest positive lead/lag relation per pair at one scale,
    /// ranked by peak CCF (ties broken by pair index, then lag — the scan
    /// order is deterministic). At most `k` entries.
    ///
    /// With `phi > 0`, peaks below `phi` are withheld: sub-φ cells may have
    /// been pruned, so only peaks the prune contract guarantees are exact
    /// and complete are comparable across pairs.
    pub fn top_leads(&self, scale_idx: usize, k: usize) -> Vec<LeadLag> {
        let scale = self.scales[scale_idx];
        let l_eff = self.lag_bins_by_scale[scale_idx] as i64;
        let mut out = Vec::new();
        for (p, &(i, j)) in self.pairs.iter().enumerate() {
            let Ok(cells) = &self.grid[p][scale_idx].cells else {
                continue;
            };
            let mut best: Option<(f64, i64, usize)> = None;
            for (idx, cell) in cells.iter().enumerate() {
                if let LagCell::Exact { value, n_pairs } = *cell {
                    if value.is_finite()
                        && value > 0.0
                        && best.is_none_or(|(best_value, _, _)| value > best_value)
                    {
                        best = Some((value, idx as i64 - l_eff, n_pairs));
                    }
                }
            }
            let Some((value, lag_bins, n_pairs)) = best else {
                continue;
            };
            if self.phi > 0.0 && value < self.phi {
                continue;
            }
            // Peak at a negative lag means x (series i) leads — see the
            // module docs for the sign convention.
            let (leader, follower) = if lag_bins > 0 { (j, i) } else { (i, j) };
            out.push(LeadLag {
                pair: (i, j),
                leader,
                follower,
                lag_bins,
                lead_bins: lag_bins.unsigned_abs() as usize,
                lead_minutes: lag_bins.unsigned_abs() * scale.as_minutes() as u64,
                value,
                n_pairs,
                significant: value >= significance_bound(n_pairs),
            });
        }
        out.sort_by(|a, b| {
            b.value
                .partial_cmp(&a.value)
                .expect("peaks are finite")
                .then(a.pair.cmp(&b.pair))
                .then(a.lag_bins.cmp(&b.lag_bins))
        });
        out.truncate(k);
        out
    }
}

/// One series' prepared state at one scale: the re-binned kernel side, the
/// profile it was derived from, and (when pruning is on) the sketch and the
/// energy/missingness prefixes the bounds read.
struct Prepared {
    /// Bins at this scale (the re-binned series length).
    n_bins: usize,
    /// The CCF kernel side, or why this scale is degenerate.
    side: Result<CcfSide, CorrelogramError>,
    /// Profile of the re-binned series (mask comparisons, sketch source).
    profile: CorProfile,
    /// Coefficient-bound sketch (pruning runs only).
    sketch: Option<CorSketch>,
    /// Square roots of per-block deviation energies on the fixed
    /// `energy_block_bins` grid, `ceil(n_bins / B)` entries (pruning runs
    /// only).
    seg_sqrt: Vec<f64>,
    /// Prefix counts of missing bins (pruning runs with gaps only; empty
    /// means complete).
    miss: Vec<u32>,
}

impl Prepared {
    /// Missing bins in `[lo, hi)`.
    fn missing_in(&self, lo: usize, hi: usize) -> u32 {
        if self.miss.is_empty() {
            0
        } else {
            self.miss[hi] - self.miss[lo]
        }
    }
}

/// Re-bins and prepares one `(series, scale)` cell.
fn prepare(
    source: &SweepSource<'_>,
    scale: Granularity,
    config: &LagSearchConfig,
    obs: Option<&PipelineObs>,
) -> Prepared {
    let agg = source.rebin(scale, config.offset_minutes, obs);
    let _span = obs.map(|o| o.lag_prepare.enter());
    let vals = agg.values();
    let profile = profile_one(vals, obs);
    let side = CcfSide::from_profile(vals, &profile);
    let prune_on = config.phi > 0.0;
    let sketch = prune_on.then(|| sketch_one(&profile, &config.sketch, obs));
    let (seg_sqrt, miss) = match (&side, prune_on) {
        (Ok(s), true) => {
            let bb = config.energy_block_bins.max(1);
            let mut seg_sqrt = Vec::with_capacity(s.n().div_ceil(bb));
            for block in s.dev().chunks(bb) {
                let e: f64 = block.iter().map(|&d| d * d).sum();
                seg_sqrt.push(e.sqrt());
            }
            let miss = if s.is_complete() {
                Vec::new()
            } else {
                let mut miss = Vec::with_capacity(s.n() + 1);
                miss.push(0u32);
                let mut m = 0u32;
                for t in 0..s.n() {
                    if !s.is_finite_at(t) {
                        m += 1;
                    }
                    miss.push(m);
                }
                miss
            };
            (seg_sqrt, miss)
        }
        _ => (Vec::new(), Vec::new()),
    };
    Prepared {
        n_bins: vals.len(),
        side,
        profile,
        sketch,
        seg_sqrt,
        miss,
    }
}

/// Error precedence matching [`wtts_stats::ccf`]: a side with no
/// observations outranks one that is merely constant.
fn combine_errors(a: CorrelogramError, b: CorrelogramError) -> CorrelogramError {
    if a == CorrelogramError::NoObservations || b == CorrelogramError::NoObservations {
        CorrelogramError::NoObservations
    } else {
        CorrelogramError::ZeroVariance
    }
}

/// Upper bound on the CCF cell at `lag` from the block Cauchy–Schwarz
/// energy bound; `INFINITY` when the bound is vacuous (no observed-pair
/// lower bound), so the caller falls through to exact evaluation.
///
/// Both sides carry precomputed square roots `s_i = sqrt(Σ_{t∈block i}
/// dev[t]²)` on the same fixed grid of `block_bins`-wide blocks anchored at
/// bin 0. Shifting x by `lag = q·B + r` maps y-block `i` into at most two
/// x-blocks (`i+q` and, when `r ≠ 0`, `i+q+1`), so per block
///
/// ```text
/// |Σ_{t∈block i} dx[t+lag]·dy[t]| ≤ sqrt(Ex_i(lag))·sy_i
///                                 ≤ (sx_{i+q} + sx_{i+q+1})·sy_i
/// ```
///
/// by Cauchy–Schwarz and `sqrt(u+v) ≤ sqrt(u)+sqrt(v)`. Out-of-range
/// x-blocks contribute 0; the partial blocks at the overlap's edges only
/// widen the bound (block energies are non-negative). The hot loop is a
/// sqrt-free `n/B` multiply-add scan, far cheaper than the exact `n`-long
/// fold it gates.
fn energy_upper_bound(
    a: &Prepared,
    b: &Prepared,
    side_a: &CcfSide,
    side_b: &CcfSide,
    lag: i64,
    block_bins: usize,
) -> f64 {
    let n = side_a.n();
    let k = lag.unsigned_abs() as usize;
    let overlap = n - k;
    let (xoff, yoff) = if lag >= 0 { (k, 0) } else { (0, k) };
    // Observed pairs m ≥ overlap − miss_x − miss_y (inclusion–exclusion);
    // a vacuous bound also covers the m = 0 ⇒ NaN cell, which must never
    // be pruned.
    let miss =
        a.missing_in(xoff, xoff + overlap) as i64 + b.missing_in(yoff, yoff + overlap) as i64;
    let m_lb = overlap as i64 - miss;
    if m_lb <= 0 {
        return f64::INFINITY;
    }
    let bb = block_bins.max(1) as i64;
    // x-index u = y-index v + lag for both lag signs, so y-block i maps to
    // x-blocks i + q (and i + q + 1 when the shift straddles the grid).
    let q = lag.div_euclid(bb);
    let straddle = lag.rem_euclid(bb) != 0;
    let i_lo = yoff / bb as usize;
    let i_hi = (yoff + overlap - 1) / bb as usize;
    let sx = &a.seg_sqrt;
    let sy = &b.seg_sqrt;
    let sx_at = |i: i64| {
        if i >= 0 && (i as usize) < sx.len() {
            sx[i as usize]
        } else {
            0.0
        }
    };
    let mut ub_num = 0.0;
    for (i, &syi) in sy.iter().enumerate().take(i_hi + 1).skip(i_lo) {
        let mut x = sx_at(i as i64 + q);
        if straddle {
            x += sx_at(i as i64 + q + 1);
        }
        ub_num += x * syi;
    }
    if side_a.is_complete() && side_b.is_complete() {
        ub_num / (side_a.sxx() * side_b.sxx()).sqrt()
    } else {
        let taper = overlap as f64 / n as f64;
        (ub_num / m_lb as f64) * taper / (side_a.sd() * side_b.sd())
    }
}

/// Computes one `(pair, scale)` lag row through the prune cascade.
fn pair_scale_cells(
    a: &Prepared,
    b: &Prepared,
    l_eff: usize,
    config: &LagSearchConfig,
    obs: Option<&PipelineObs>,
) -> (Result<Vec<LagCell>, CorrelogramError>, LagPruneStats) {
    let n_cells = 2 * l_eff as u64 + 1;
    let mut stats = LagPruneStats {
        cells_total: n_cells,
        ..Default::default()
    };
    let row = pair_scale_row(a, b, l_eff, config, &mut stats);
    debug_assert!(stats.conserved(), "every cell lands in one bucket");
    if let Some(o) = obs {
        o.lag_cells_total.add(stats.cells_total);
        o.lag_cells_pruned_degenerate.add(stats.pruned_degenerate);
        o.lag_cells_pruned_sketch.add(stats.pruned_sketch);
        o.lag_cells_pruned_energy.add(stats.pruned_energy);
        o.lag_cells_evaluated.add(stats.evaluated);
    }
    (row, stats)
}

fn pair_scale_row(
    a: &Prepared,
    b: &Prepared,
    l_eff: usize,
    config: &LagSearchConfig,
    stats: &mut LagPruneStats,
) -> Result<Vec<LagCell>, CorrelogramError> {
    let (side_a, side_b) = match (&a.side, &b.side) {
        (Ok(side_a), Ok(side_b)) => (side_a, side_b),
        (Err(ea), Err(eb)) => {
            stats.pruned_degenerate = stats.cells_total;
            return Err(combine_errors(*ea, *eb));
        }
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
            stats.pruned_degenerate = stats.cells_total;
            return Err(*e);
        }
    };
    let prune_on = config.phi > 0.0;
    // Lag 0 on a shared mask is the pairwise Pearson coefficient, so the
    // sketch bounds apply. Only the Sax/Moment tiers prove `value < phi`;
    // the sketch's degenerate tier is about Definition-1 significance and
    // must not dismiss a raw CCF cell.
    let lag0_sketch_pruned = prune_on
        && a.profile.same_mask(&b.profile)
        && match (&a.sketch, &b.sketch) {
            (Some(sketch_a), Some(sketch_b)) => matches!(
                prune_pair(sketch_a, sketch_b, config.phi),
                Some(PruneTier::Sax) | Some(PruneTier::Moment)
            ),
            _ => false,
        };
    // Prune pass first: survivors get placeholder cells, so the
    // complete-complete case (the common one — gaps are per-series rare)
    // can evaluate all surviving lags in one grouped multi-lag kernel
    // sweep instead of re-walking the overlap once per lag.
    let mut cells = Vec::with_capacity(2 * l_eff + 1);
    let mut survivors: Vec<i64> = Vec::with_capacity(2 * l_eff + 1);
    for idx in 0..=2 * l_eff {
        let lag = idx as i64 - l_eff as i64;
        if lag == 0 && lag0_sketch_pruned {
            cells.push(LagCell::Pruned);
            stats.pruned_sketch += 1;
            continue;
        }
        if prune_on
            && energy_upper_bound(a, b, side_a, side_b, lag, config.energy_block_bins)
                < config.phi - PRUNE_MARGIN
        {
            cells.push(LagCell::Pruned);
            stats.pruned_energy += 1;
            continue;
        }
        cells.push(LagCell::Exact {
            value: f64::NAN,
            n_pairs: 0,
        });
        survivors.push(lag);
        stats.evaluated += 1;
    }
    if side_a.is_complete() && side_b.is_complete() {
        // Batched cells are bit-identical to per-lag `ccf_cell_counted`
        // (see `ccf_cells_batch`); the pair count over complete sides is
        // the full overlap.
        let mut values = Vec::with_capacity(survivors.len());
        ccf_cells_batch(side_a, side_b, &survivors, &mut values);
        let n = side_a.n();
        let mut batched = values.iter().zip(&survivors);
        for cell in cells.iter_mut() {
            if let LagCell::Exact { value, n_pairs } = cell {
                let (&v, &lag) = batched.next().expect("one batched value per survivor");
                *value = v;
                *n_pairs = n - lag.unsigned_abs() as usize;
            }
        }
    } else {
        let mut remaining = survivors.iter();
        for cell in cells.iter_mut() {
            if let LagCell::Exact { value, n_pairs } = cell {
                let &lag = remaining.next().expect("one survivor per placeholder");
                let (v, m) = ccf_cell_counted(side_a, side_b, lag);
                *value = v;
                *n_pairs = m;
            }
        }
    }
    Ok(cells)
}

/// Runs the multi-scale lagged correlation search over a fleet of
/// equally-sampled series (see the module docs for the architecture and
/// guarantees).
///
/// # Panics
/// Panics if `config.scales` is empty, a scale is not a multiple of the
/// input step, or the series disagree on start, step or length.
pub fn lag_search(
    series: &[TimeSeries],
    config: &LagSearchConfig,
    obs: Option<&PipelineObs>,
) -> LagSearchResult {
    assert!(!config.scales.is_empty(), "lag search needs a scale");
    if let Some(first) = series.first() {
        for s in &series[1..] {
            assert_eq!(s.start(), first.start(), "series must share a start");
            assert_eq!(
                s.step_minutes(),
                first.step_minutes(),
                "series must share a step"
            );
            assert_eq!(s.len(), first.len(), "series must share a length");
        }
    }
    let n_scales = config.scales.len();
    let candidates: Vec<(Granularity, u32)> = config
        .scales
        .iter()
        .map(|&g| (g, config.offset_minutes))
        .collect();
    let sources: Vec<SweepSource<'_>> = series
        .iter()
        .map(|s| SweepSource::build(s, &candidates, obs))
        .collect();
    let prepared = run_grid(series.len(), n_scales, config.threads, |r, c, _scratch| {
        prepare(&sources[r], config.scales[c], config, obs)
    });
    // All series share one geometry, so the effective lag bound per scale
    // is common: `max_lag_bins` clamped to the bin count minus one.
    let lag_bins_by_scale: Vec<usize> = (0..n_scales)
        .map(|c| {
            let n_bins = prepared.first().map(|row| row[c].n_bins).unwrap_or(0);
            config.max_lag_bins.min(n_bins.saturating_sub(1))
        })
        .collect();
    let pairs: Vec<(usize, usize)> = (0..series.len())
        .flat_map(|i| ((i + 1)..series.len()).map(move |j| (i, j)))
        .collect();
    let raw = run_grid(pairs.len(), n_scales, config.threads, |p, c, _scratch| {
        let _span = obs.map(|o| o.lag_pair_scan.enter());
        let (i, j) = pairs[p];
        pair_scale_cells(
            &prepared[i][c],
            &prepared[j][c],
            lag_bins_by_scale[c],
            config,
            obs,
        )
    });
    let mut stats = LagPruneStats::default();
    let grid: Vec<Vec<PairScaleCcf>> = raw
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|(cells, cell_stats)| {
                    stats.absorb(&cell_stats);
                    PairScaleCcf { cells }
                })
                .collect()
        })
        .collect();
    LagSearchResult {
        scales: config.scales.clone(),
        offset_minutes: config.offset_minutes,
        phi: config.phi,
        pairs,
        lag_bins_by_scale,
        grid,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_stats::ccf;
    use wtts_timeseries::{aggregate, MINUTES_PER_DAY, MINUTES_PER_WEEK};

    /// A deterministic bursty fleet: every gateway shares a daily evening
    /// burst, phase-shifted per gateway, over small pseudo-random
    /// background with scattered gaps. Integer values (pyramid-eligible).
    fn fleet(n: usize, weeks: u32) -> Vec<TimeSeries> {
        (0..n)
            .map(|g| {
                let shift = g * 45;
                let minutes = (weeks * MINUTES_PER_WEEK) as usize;
                let v: Vec<f64> = (0..minutes)
                    .map(|m| {
                        if (m * 31 + g * 7) % 211 == 5 {
                            f64::NAN
                        } else {
                            let phase = (m + 7 * MINUTES_PER_DAY as usize - shift)
                                % MINUTES_PER_DAY as usize;
                            let burst = if (1140..1260).contains(&phase) && m % 3 != 1 {
                                4_000
                            } else {
                                0
                            };
                            (burst + (m * 17 + g * 13) % 23) as f64
                        }
                    })
                    .collect();
                TimeSeries::per_minute(v)
            })
            .collect()
    }

    /// The naive reference: per `(pair, scale)`, re-aggregate both series
    /// from scratch and run the dense [`ccf`].
    fn naive_grid(
        series: &[TimeSeries],
        config: &LagSearchConfig,
    ) -> Vec<Vec<Result<Vec<f64>, CorrelogramError>>> {
        let mut grid = Vec::new();
        for i in 0..series.len() {
            for j in (i + 1)..series.len() {
                let mut row = Vec::new();
                for &g in &config.scales {
                    let xa = aggregate(&series[i], g, config.offset_minutes);
                    let xb = aggregate(&series[j], g, config.offset_minutes);
                    row.push(ccf(xa.values(), xb.values(), config.max_lag_bins));
                }
                grid.push(row);
            }
        }
        grid
    }

    fn dense_config() -> LagSearchConfig {
        LagSearchConfig {
            scales: vec![Granularity::minutes(30), Granularity::hours(1)],
            max_lag_bins: 8,
            phi: 0.0,
            threads: Some(1),
            ..Default::default()
        }
    }

    #[test]
    fn dense_grid_bit_identical_to_naive_reference() {
        let series = fleet(3, 1);
        let config = dense_config();
        let result = lag_search(&series, &config, None);
        let reference = naive_grid(&series, &config);
        assert_eq!(result.pairs.len(), 3);
        for (p, row) in reference.iter().enumerate() {
            for (c, cells_ref) in row.iter().enumerate() {
                let got = &result.grid[p][c].cells;
                let cells_ref = cells_ref.as_ref().expect("live fixture");
                let got = got.as_ref().expect("live fixture");
                assert_eq!(got.len(), cells_ref.len());
                for (idx, (&want, cell)) in cells_ref.iter().zip(got).enumerate() {
                    let LagCell::Exact { value, n_pairs } = *cell else {
                        panic!("dense run must not prune (pair {p} scale {c} idx {idx})");
                    };
                    assert_eq!(
                        want.to_bits(),
                        value.to_bits(),
                        "pair {p} scale {c} idx {idx}"
                    );
                    assert!(n_pairs > 0);
                }
            }
        }
        assert!(result.stats.conserved());
        assert_eq!(result.stats.pruned(), 0);
        assert_eq!(result.stats.evaluated, result.stats.cells_total);
    }

    #[test]
    fn dense_grid_matches_reference_for_fractional_series() {
        // Non-integer values force the direct-aggregation path.
        let series: Vec<TimeSeries> = fleet(2, 1)
            .into_iter()
            .map(|s| {
                let v: Vec<f64> = s.values().iter().map(|&x| x * 0.25).collect();
                TimeSeries::per_minute(v)
            })
            .collect();
        let config = dense_config();
        let result = lag_search(&series, &config, None);
        let reference = naive_grid(&series, &config);
        for (c, cells_ref) in reference[0].iter().enumerate() {
            let cells_ref = cells_ref.as_ref().unwrap();
            let got = result.grid[0][c].cells.as_ref().unwrap();
            for (idx, (&want, cell)) in cells_ref.iter().zip(got).enumerate() {
                let LagCell::Exact { value, .. } = *cell else {
                    panic!("dense run must not prune");
                };
                assert_eq!(want.to_bits(), value.to_bits(), "scale {c} idx {idx}");
            }
        }
    }

    #[test]
    fn degenerate_sides_get_the_reference_error() {
        let live = fleet(1, 1).remove(0);
        let n = live.len();
        let constant = TimeSeries::per_minute(vec![7.0; n]);
        let missing = TimeSeries::per_minute(vec![f64::NAN; n]);
        let series = vec![live, constant, missing];
        let config = dense_config();
        let result = lag_search(&series, &config, None);
        let reference = naive_grid(&series, &config);
        for (p, row) in reference.iter().enumerate() {
            for (c, want) in row.iter().enumerate() {
                match (&result.grid[p][c].cells, want) {
                    (Err(got), Err(want)) => assert_eq!(got, want, "pair {p} scale {c}"),
                    (Ok(_), Ok(_)) => {}
                    other => panic!("presence mismatch at pair {p} scale {c}: {other:?}"),
                }
            }
        }
        // Degenerate rows are fully accounted as pruned cells.
        assert!(result.stats.conserved());
        assert!(result.stats.pruned_degenerate > 0);
    }

    #[test]
    fn pruning_never_dismisses_a_reportable_cell() {
        let series = fleet(4, 2);
        let phi = 0.85;
        let config = LagSearchConfig {
            scales: vec![Granularity::minutes(30), Granularity::hours(2)],
            max_lag_bins: 24,
            phi,
            threads: Some(1),
            ..Default::default()
        };
        let result = lag_search(&series, &config, None);
        let dense = naive_grid(&series, &config);
        let mut pruned_seen = 0u64;
        for (p, row) in dense.iter().enumerate() {
            for (c, cells_ref) in row.iter().enumerate() {
                let cells_ref = cells_ref.as_ref().unwrap();
                let got = result.grid[p][c].cells.as_ref().unwrap();
                for (idx, (&want, cell)) in cells_ref.iter().zip(got).enumerate() {
                    match *cell {
                        LagCell::Exact { value, .. } => {
                            assert_eq!(
                                want.to_bits(),
                                value.to_bits(),
                                "pair {p} scale {c} idx {idx}"
                            );
                        }
                        LagCell::Pruned => {
                            pruned_seen += 1;
                            assert!(
                                want < phi,
                                "pruned cell at pair {p} scale {c} idx {idx} \
                                 has reference value {want} ≥ φ = {phi}"
                            );
                        }
                    }
                }
            }
        }
        assert!(result.stats.conserved());
        assert_eq!(result.stats.pruned(), pruned_seen);
        assert!(
            result.stats.pruned_energy > 0,
            "the bursty fixture must exercise the energy tier: {:?}",
            result.stats
        );
    }

    #[test]
    fn deterministic_in_thread_count() {
        let series = fleet(4, 1);
        let mut config = LagSearchConfig {
            scales: vec![Granularity::minutes(15), Granularity::hours(1)],
            max_lag_bins: 12,
            phi: 0.8,
            threads: Some(1),
            ..Default::default()
        };
        let reference = lag_search(&series, &config, None);
        for threads in [2usize, 4, 7] {
            config.threads = Some(threads);
            let parallel = lag_search(&series, &config, None);
            assert_eq!(reference, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn observability_counters_match_stats_and_results() {
        let series = fleet(3, 1);
        let config = LagSearchConfig {
            scales: vec![Granularity::minutes(30), Granularity::hours(1)],
            max_lag_bins: 10,
            phi: 0.9,
            threads: Some(2),
            ..Default::default()
        };
        let obs = PipelineObs::new();
        let with_obs = lag_search(&series, &config, Some(&obs));
        let without = lag_search(&series, &config, None);
        assert_eq!(with_obs, without, "observability must not change results");
        let snap = obs.snapshot();
        assert_eq!(snap.check_laws(), Vec::<String>::new());
        let stats = with_obs.stats;
        assert_eq!(snap.lag_cells_total, stats.cells_total);
        assert_eq!(snap.lag_cells_pruned_degenerate, stats.pruned_degenerate);
        assert_eq!(snap.lag_cells_pruned_sketch, stats.pruned_sketch);
        assert_eq!(snap.lag_cells_pruned_energy, stats.pruned_energy);
        assert_eq!(snap.lag_cells_evaluated, stats.evaluated);
        let cells = (3 * config.scales.len()) as u64;
        assert_eq!(snap.lag_prepare.entered, cells);
        assert_eq!(snap.lag_pair_scan.entered, cells);
        assert_eq!(snap.rebin.entered, cells);
    }

    #[test]
    fn top_leads_recovers_a_planted_lead() {
        // Gateway 1 repeats gateway 0 delayed by 60 minutes; gateway 2 is
        // unrelated noise.
        let week = MINUTES_PER_WEEK as usize;
        let base: Vec<f64> = (0..week + 60)
            .map(|m| {
                let phase = m % MINUTES_PER_DAY as usize;
                let burst = if (1140..1260).contains(&phase) && m % 4 != 2 {
                    3_000
                } else {
                    0
                };
                (burst + (m * 29 + 3) % 31) as f64
            })
            .collect();
        let leader = TimeSeries::per_minute(base[60..].to_vec());
        let follower = TimeSeries::per_minute(base[..week].to_vec());
        let noise =
            TimeSeries::per_minute((0..week).map(|m| ((m * 997 + 11) % 83) as f64).collect());
        let config = LagSearchConfig {
            scales: vec![Granularity::minutes(30)],
            max_lag_bins: 6,
            phi: 0.9,
            threads: Some(1),
            ..Default::default()
        };
        let result = lag_search(&[leader, follower, noise], &config, None);
        let leads = result.top_leads(0, 3);
        assert!(!leads.is_empty());
        let top = leads[0];
        assert_eq!(top.pair, (0, 1));
        assert_eq!(top.leader, 0, "gateway 0 acts first");
        assert_eq!(top.follower, 1);
        assert_eq!(top.lag_bins, -2, "peak at corr(x_{{t-2}}, y_t)");
        assert_eq!(top.lead_bins, 2);
        assert_eq!(top.lead_minutes, 60);
        assert!(top.value > 0.95, "near-copy peak: {}", top.value);
        assert!(top.significant);
        // The noise pairs never clear φ = 0.9.
        assert_eq!(leads.len(), 1);
    }

    #[test]
    fn lag_bound_clamps_to_series_length() {
        let series = fleet(2, 1);
        let config = LagSearchConfig {
            // One bin per week at this scale: only lag 0 exists.
            scales: vec![Granularity::minutes(MINUTES_PER_WEEK)],
            max_lag_bins: 24,
            phi: 0.0,
            threads: Some(1),
            ..Default::default()
        };
        let result = lag_search(&series, &config, None);
        assert_eq!(result.lag_bins_by_scale, vec![0]);
        match &result.grid[0][0].cells {
            Ok(cells) => assert_eq!(cells.len(), 1),
            // A single bin has zero variance: the typed error is also a
            // legal outcome depending on the fixture.
            Err(e) => assert_eq!(*e, CorrelogramError::ZeroVariance),
        }
    }

    #[test]
    fn degenerate_fleets_are_empty_not_panicking() {
        let config = dense_config();
        let empty = lag_search(&[], &config, None);
        assert!(empty.pairs.is_empty() && empty.grid.is_empty());
        assert_eq!(empty.stats, LagPruneStats::default());
        let single = lag_search(&fleet(1, 1), &config, None);
        assert!(single.pairs.is_empty());
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn mismatched_series_are_rejected() {
        let mut series = fleet(2, 1);
        series[1] = TimeSeries::per_minute(vec![1.0, 2.0, 3.0]);
        let _ = lag_search(&series, &dense_config(), None);
    }
}
