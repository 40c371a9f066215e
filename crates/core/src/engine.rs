//! Batch pairwise-correlation engine.
//!
//! Every framework primitive — motif discovery (Definition 5), clustering
//! under `1 − cor` (Figure 3), strong stationarity (Definition 2) and
//! granularity scoring (Definition 3) — evaluates the similarity measure
//! over all pairs of a series collection. This module computes that
//! quadratic sweep from per-series [`CorProfile`]s, which hoist the
//! per-series work (finite-mask compaction, moments, mid-ranks, sort
//! permutations, tie statistics) out of the pair loop, and fills the upper
//! triangle in parallel with work-stealing over rows.
//!
//! Results are **bit-identical** to calling
//! [`correlation_similarity`](crate::similarity::correlation_similarity)
//! per pair: the profiled coefficient functions reproduce the from-scratch
//! accumulation orders exactly, and pairs whose finite masks differ fall
//! back to pairwise deletion internally (see `wtts_stats::corprofile`).

use crate::obs::PipelineObs;
use crate::similarity::CorSimilarity;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wtts_stats::sketch::{prune_pair, CorSketch, PruneTier, SketchConfig};
use wtts_stats::{cor_tests_profiled, CorProfile, CorScratch, ALPHA};

/// Configuration for [`cor_matrix`].
#[derive(Debug, Clone)]
pub struct CorMatrixConfig {
    /// Significance level of Definition 1 (the paper uses α = 0.05).
    pub alpha: f64,
    /// Worker threads; `None` uses the machine's available parallelism.
    pub threads: Option<usize>,
}

impl Default for CorMatrixConfig {
    fn default() -> CorMatrixConfig {
        CorMatrixConfig {
            alpha: ALPHA,
            threads: None,
        }
    }
}

/// The upper triangle of a symmetric pairwise-similarity matrix, stored
/// condensed (row-major, diagonal implicit) in `n(n−1)/2` floats.
///
/// `f32` keeps fleet-scale matrices compact, at a price at decision
/// thresholds: rounding `f64 → f32` can carry a similarity just *below*
/// φ = 0.8 (or ¾φ = 0.6) up across the threshold, flipping Definition 4/5
/// membership versus an exact evaluation. Consumers that decide membership
/// by `≥ threshold` therefore re-verify comparisons landing within
/// [`crate::motif::F32_REVERIFY_BAND`] of the threshold in `f64` (see
/// [`crate::motif::discover_motifs`]); the matrix itself stays a compact
/// pre-filter. The implicit diagonal reads as `1.0` (a series evolves
/// identically to itself).
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f32>,
}

impl CondensedMatrix {
    /// Number of series the matrix covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The condensed upper-triangle storage, row-major: row `i` holds
    /// `(i, i+1) .. (i, n-1)`.
    pub fn values(&self) -> &[f32] {
        &self.data
    }

    /// Flat index of the pair `(i, j)` with `i < j`.
    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// The similarity of series `i` and `j`, in either order; `1.0` on the
    /// diagonal.
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.n && j < self.n, "pair index out of bounds");
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.data[self.index(i, j)],
            std::cmp::Ordering::Equal => 1.0,
            std::cmp::Ordering::Greater => self.data[self.index(j, i)],
        }
    }
}

/// Definition 1 over two profiles: the maximum statistically significant
/// coefficient at level `alpha`, `0` when none is significant.
///
/// Bit-identical to
/// [`correlation_similarity_at`](crate::similarity::correlation_similarity_at)
/// on the profiles' source series. `scratch` carries the reusable
/// per-pair buffers; keep one per thread.
pub fn correlation_similarity_profiled(
    a: &CorProfile,
    b: &CorProfile,
    scratch: &mut CorScratch,
    alpha: f64,
) -> CorSimilarity {
    let (p, s, k) = cor_tests_profiled(a, b, scratch);
    CorSimilarity::from_tests(p, s, k, alpha)
}

/// `cor(X, Y)` of Definition 1 over two profiles at the paper's α = 0.05.
pub fn cor_profiled(a: &CorProfile, b: &CorProfile, scratch: &mut CorScratch) -> f64 {
    correlation_similarity_profiled(a, b, scratch, ALPHA).value
}

/// Computes the full pairwise similarity matrix of `profiles`.
///
/// Rows of the condensed upper triangle are handed out to worker threads
/// through a work-stealing counter (early rows are the longest, so
/// stealing balances the triangle's skew). Each worker owns one
/// [`CorScratch`], amortizing the Kendall buffers across its rows. The
/// per-pair fill bottoms out in the stats crate's kernel layer
/// (`wtts_stats::kernels`): fused Pearson+Spearman cross-moment folds,
/// branch-light rank gathers and the merge-based Kendall inversion count —
/// all bit-identical to the from-scratch coefficients, benchmarked
/// per-kernel in `BENCH_kernels.json`.
pub fn cor_matrix(profiles: &[CorProfile], config: &CorMatrixConfig) -> CondensedMatrix {
    cor_matrix_observed(profiles, config, None)
}

/// [`cor_matrix`] with optional observability: when `obs` is `Some`, every
/// row fill opens a span on [`PipelineObs::row_fill`] (one per row, across
/// all worker threads). With `None` this is exactly `cor_matrix` — no
/// atomics touched, no clocks read, bit-identical output.
pub fn cor_matrix_observed(
    profiles: &[CorProfile],
    config: &CorMatrixConfig,
    obs: Option<&PipelineObs>,
) -> CondensedMatrix {
    let n = profiles.len();
    let total = n * n.saturating_sub(1) / 2;
    let mut data = vec![0.0f32; total];
    let threads = config
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .max(1);

    if n < 2 {
        return CondensedMatrix { n, data };
    }

    if threads == 1 {
        let mut scratch = CorScratch::new();
        let mut rest = data.as_mut_slice();
        for i in 0..n - 1 {
            let (row, tail) = rest.split_at_mut(n - 1 - i);
            let _span = obs.map(|o| o.row_fill.enter());
            fill_row(profiles, i, row, &mut scratch, config.alpha);
            rest = tail;
        }
        return CondensedMatrix { n, data };
    }

    // Carve the condensed storage into per-row slices so workers write
    // without aliasing; a shared counter hands rows out (the same pattern
    // the bench fleet generator uses for gateways).
    let mut rows: Vec<Option<&mut [f32]>> = Vec::with_capacity(n - 1);
    let mut rest = data.as_mut_slice();
    for i in 0..n - 1 {
        let (row, tail) = rest.split_at_mut(n - 1 - i);
        rows.push(Some(row));
        rest = tail;
    }
    let next = AtomicUsize::new(0);
    let rows = Mutex::new(rows);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n - 1) {
            scope.spawn(|| {
                let mut scratch = CorScratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n - 1 {
                        break;
                    }
                    let row = {
                        let mut guard = rows.lock().expect("no poisoned row lock");
                        guard[i].take().expect("each row is taken once")
                    };
                    let _span = obs.map(|o| o.row_fill.enter());
                    fill_row(profiles, i, row, &mut scratch, config.alpha);
                }
            });
        }
    });

    CondensedMatrix { n, data }
}

/// Fills row `i` of the condensed triangle: similarities of `(i, j)` for
/// `j = i+1 .. n-1`.
fn fill_row(
    profiles: &[CorProfile],
    i: usize,
    row: &mut [f32],
    scratch: &mut CorScratch,
    alpha: f64,
) {
    for (offset, slot) in row.iter_mut().enumerate() {
        let j = i + 1 + offset;
        *slot = correlation_similarity_profiled(&profiles[i], &profiles[j], scratch, alpha).value
            as f32;
    }
}

/// Profiles a collection of series (a convenience for `cor_matrix` callers).
pub fn profile_series<S: AsRef<[f64]>>(series: &[S]) -> Vec<CorProfile> {
    profile_series_observed(series, None)
}

/// [`profile_series`] with optional observability: when `obs` is `Some`,
/// each profile construction opens a span on [`PipelineObs::profile_build`].
pub fn profile_series_observed<S: AsRef<[f64]>>(
    series: &[S],
    obs: Option<&PipelineObs>,
) -> Vec<CorProfile> {
    series
        .iter()
        .map(|s| profile_one(s.as_ref(), obs))
        .collect()
}

/// Profiles a single series under a [`PipelineObs::profile_build`] span —
/// the per-item building block of [`profile_series_observed`], shared with
/// the lag-search preparation phase ([`crate::lagsearch`]).
pub(crate) fn profile_one(series: &[f64], obs: Option<&PipelineObs>) -> CorProfile {
    let _span = obs.map(|o| o.profile_build.enter());
    CorProfile::new(series)
}

/// Configuration for the sketch-pruned matrix build: the similarity
/// threshold pruning targets, the sketch resolution, and the exact
/// engine's own settings for survivors.
#[derive(Debug, Clone)]
pub struct PruneConfig {
    /// The similarity threshold φ: pairs provably below it are pruned.
    /// Pruning is sound only for `threshold > 0` (Definition 1 maps
    /// insignificant pairs to 0); at `threshold ≤ 0` every pair is
    /// evaluated exactly.
    pub threshold: f64,
    /// Sketch resolution (segments and SAX alphabet).
    pub sketch: SketchConfig,
    /// Exact-path settings (significance level, worker threads).
    pub matrix: CorMatrixConfig,
}

impl PruneConfig {
    /// Default sketches and exact-path settings at threshold `phi`.
    pub fn at_threshold(phi: f64) -> PruneConfig {
        PruneConfig {
            threshold: phi,
            sketch: SketchConfig::default(),
            matrix: CorMatrixConfig::default(),
        }
    }
}

/// Per-tier accounting of one pruned matrix build. The conservation law
/// `pairs_pruned() + pairs_evaluated == pairs_total` holds by
/// construction and is what the CI smoke asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// All unordered pairs considered (`n(n−1)/2`).
    pub pairs_total: u64,
    /// Pairs dismissed because a side degenerates every coefficient.
    pub pruned_degenerate: u64,
    /// Pairs dismissed by the symbolized (SAX MINDIST) bounds.
    pub pruned_sax: u64,
    /// Pairs dismissed by the segment-mean (moment) bounds.
    pub pruned_moment: u64,
    /// Pairs evaluated exactly (stored in the sparse matrix).
    pub pairs_evaluated: u64,
    /// Evaluated pairs that were ineligible for pruning because their
    /// finite masks differ (a subset of `pairs_evaluated`).
    pub mask_fallthrough: u64,
}

impl PruneStats {
    /// Pairs dismissed across all tiers.
    pub fn pairs_pruned(&self) -> u64 {
        self.pruned_degenerate + self.pruned_sax + self.pruned_moment
    }

    /// Fraction of pairs dismissed without exact work (0 for `n < 2`).
    pub fn prune_rate(&self) -> f64 {
        if self.pairs_total == 0 {
            0.0
        } else {
            self.pairs_pruned() as f64 / self.pairs_total as f64
        }
    }

    /// The conservation law every build must satisfy.
    pub fn conserved(&self) -> bool {
        self.pairs_pruned() + self.pairs_evaluated == self.pairs_total
    }

    fn absorb(&mut self, other: &PruneStats) {
        self.pairs_total += other.pairs_total;
        self.pruned_degenerate += other.pruned_degenerate;
        self.pruned_sax += other.pruned_sax;
        self.pruned_moment += other.pruned_moment;
        self.pairs_evaluated += other.pairs_evaluated;
        self.mask_fallthrough += other.mask_fallthrough;
    }
}

/// The sparse upper triangle a pruned build produces: only pairs that
/// survived pruning carry a value (bit-identical to the dense
/// [`CondensedMatrix`] entry); pruned pairs are absent, which certifies
/// their similarity is strictly below the build threshold.
///
/// Storage is CSR-like: `row_start[i] .. row_start[i+1]` indexes the
/// columns (`j > i`, ascending) and values of row `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCorMatrix {
    n: usize,
    threshold: f64,
    row_start: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl SparseCorMatrix {
    /// Number of series the matrix covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The threshold the build pruned against: `get` returning `None`
    /// certifies the pair's exact similarity is below this.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of stored (exactly evaluated) pairs.
    pub fn evaluated_pairs(&self) -> usize {
        self.cols.len()
    }

    /// The similarity of series `i` and `j`, in either order: `Some` with
    /// the dense-identical value when the pair was evaluated, `1.0` on the
    /// diagonal, `None` when the pair was pruned (provably `< threshold`).
    ///
    /// # Panics
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Option<f32> {
        assert!(i < self.n && j < self.n, "pair index out of bounds");
        let (i, j) = match i.cmp(&j) {
            std::cmp::Ordering::Less => (i, j),
            std::cmp::Ordering::Equal => return Some(1.0),
            std::cmp::Ordering::Greater => (j, i),
        };
        let row = &self.cols[self.row_start[i]..self.row_start[i + 1]];
        row.binary_search(&(j as u32))
            .ok()
            .map(|k| self.vals[self.row_start[i] + k])
    }

    /// All stored entries `(i, j, value)` with `i < j`, in lexicographic
    /// `(i, j)` order — the same order a dense candidate scan visits
    /// pairs, which is what keeps pruned motif discovery bit-identical.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.n).flat_map(move |i| {
            (self.row_start[i]..self.row_start[i + 1])
                .map(move |k| (i, self.cols[k] as usize, self.vals[k]))
        })
    }
}

/// Builds the pruning sketch of every profile (a convenience for
/// [`cor_matrix_pruned`] callers).
pub fn sketch_series(profiles: &[CorProfile], config: &SketchConfig) -> Vec<CorSketch> {
    sketch_series_observed(profiles, config, None)
}

/// [`sketch_series`] with optional observability: when `obs` is `Some`,
/// each sketch construction opens a span on [`PipelineObs::sketch_build`].
pub fn sketch_series_observed(
    profiles: &[CorProfile],
    config: &SketchConfig,
    obs: Option<&PipelineObs>,
) -> Vec<CorSketch> {
    profiles
        .iter()
        .map(|p| sketch_one(p, config, obs))
        .collect()
}

/// Sketches a single profile under a [`PipelineObs::sketch_build`] span —
/// the per-item building block of [`sketch_series_observed`], shared with
/// the lag-search preparation phase ([`crate::lagsearch`]).
pub(crate) fn sketch_one(
    profile: &CorProfile,
    config: &SketchConfig,
    obs: Option<&PipelineObs>,
) -> CorSketch {
    let _span = obs.map(|o| o.sketch_build.enter());
    CorSketch::from_profile(profile, config)
}

/// Sketch-pruned pairwise similarity: evaluates only the pairs whose
/// coefficient upper bounds do not already prove `cor < threshold`.
///
/// Zero false dismissals: every pair whose exact similarity is at or
/// above `config.threshold` is present in the result with the value the
/// dense [`cor_matrix`] would store, bit for bit (survivors run through
/// the identical exact path). Pairs whose finite masks differ are never
/// pruned — the sketch bounds assume a shared mask — and fall through to
/// exact evaluation, counted in [`PruneStats::mask_fallthrough`].
pub fn cor_matrix_pruned(
    profiles: &[CorProfile],
    sketches: &[CorSketch],
    config: &PruneConfig,
) -> (SparseCorMatrix, PruneStats) {
    cor_matrix_pruned_observed(profiles, sketches, config, None)
}

/// [`cor_matrix_pruned`] with optional observability: row fills open
/// spans on [`PipelineObs::row_fill`], and the per-tier prune counters
/// ([`PipelineObs::prune_pairs_total`] and friends) accumulate the
/// returned [`PruneStats`].
pub fn cor_matrix_pruned_observed(
    profiles: &[CorProfile],
    sketches: &[CorSketch],
    config: &PruneConfig,
    obs: Option<&PipelineObs>,
) -> (SparseCorMatrix, PruneStats) {
    assert_eq!(
        profiles.len(),
        sketches.len(),
        "one sketch per profile required"
    );
    let n = profiles.len();
    let threads = config
        .matrix
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .max(1);

    let mut stats = PruneStats::default();
    let mut row_cols: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut row_vals: Vec<Vec<f32>> = Vec::with_capacity(n);

    if n < 2 {
        row_cols.resize_with(n, Vec::new);
        row_vals.resize_with(n, Vec::new);
    } else if threads == 1 {
        let mut scratch = CorScratch::new();
        for i in 0..n {
            let _span = (i + 1 < n).then(|| obs.map(|o| o.row_fill.enter()));
            let (cols, vals) =
                fill_row_pruned(profiles, sketches, i, config, &mut scratch, &mut stats);
            row_cols.push(cols);
            row_vals.push(vals);
        }
    } else {
        let mut slots: Vec<Option<(Vec<u32>, Vec<f32>)>> = Vec::new();
        slots.resize_with(n, || None);
        let slots = Mutex::new(slots);
        let total = Mutex::new(PruneStats::default());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(n - 1) {
                scope.spawn(|| {
                    let mut scratch = CorScratch::new();
                    let mut local = PruneStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n - 1 {
                            break;
                        }
                        let _span = obs.map(|o| o.row_fill.enter());
                        let row = fill_row_pruned(
                            profiles,
                            sketches,
                            i,
                            config,
                            &mut scratch,
                            &mut local,
                        );
                        slots.lock().expect("no poisoned slot lock")[i] = Some(row);
                    }
                    total.lock().expect("no poisoned stats lock").absorb(&local);
                });
            }
        });
        stats = total.into_inner().expect("no poisoned stats lock");
        for slot in slots.into_inner().expect("no poisoned slot lock") {
            let (cols, vals) = slot.unwrap_or_default();
            row_cols.push(cols);
            row_vals.push(vals);
        }
    }

    let mut row_start = Vec::with_capacity(n + 1);
    row_start.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for (rc, rv) in row_cols.iter().zip(&row_vals) {
        cols.extend_from_slice(rc);
        vals.extend_from_slice(rv);
        row_start.push(cols.len());
    }

    if let Some(o) = obs {
        o.prune_pairs_total.add(stats.pairs_total);
        o.pairs_pruned_degenerate.add(stats.pruned_degenerate);
        o.pairs_pruned_sax.add(stats.pruned_sax);
        o.pairs_pruned_moment.add(stats.pruned_moment);
        o.prune_pairs_evaluated.add(stats.pairs_evaluated);
        o.prune_mask_fallthrough.add(stats.mask_fallthrough);
    }
    debug_assert!(stats.conserved());
    (
        SparseCorMatrix {
            n,
            threshold: config.threshold,
            row_start,
            cols,
            vals,
        },
        stats,
    )
}

/// Fills one pruned row: prune-or-evaluate every pair `(i, j)`, `j > i`.
fn fill_row_pruned(
    profiles: &[CorProfile],
    sketches: &[CorSketch],
    i: usize,
    config: &PruneConfig,
    scratch: &mut CorScratch,
    stats: &mut PruneStats,
) -> (Vec<u32>, Vec<f32>) {
    let n = profiles.len();
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for j in i + 1..n {
        stats.pairs_total += 1;
        let same_mask = profiles[i].same_mask(&profiles[j]);
        let tier = if same_mask {
            prune_pair(&sketches[i], &sketches[j], config.threshold)
        } else {
            None
        };
        match tier {
            Some(PruneTier::Degenerate) => stats.pruned_degenerate += 1,
            Some(PruneTier::Sax) => stats.pruned_sax += 1,
            Some(PruneTier::Moment) => stats.pruned_moment += 1,
            None => {
                stats.pairs_evaluated += 1;
                if !same_mask {
                    stats.mask_fallthrough += 1;
                }
                let v = correlation_similarity_profiled(
                    &profiles[i],
                    &profiles[j],
                    scratch,
                    config.matrix.alpha,
                )
                .value as f32;
                cols.push(j as u32);
                vals.push(v);
            }
        }
    }
    (cols, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cor;

    fn series_fixture(n: usize, len: usize) -> Vec<Vec<f64>> {
        // Deterministic mix of correlated, shifted and noisy series with a
        // few NaN holes.
        (0..n)
            .map(|s| {
                (0..len)
                    .map(|t| {
                        let base = ((t * (s % 5 + 1)) % 13) as f64;
                        let wobble = (((t * 7 + s * 3) % 11) as f64) * 0.1;
                        if (t + s) % 17 == 0 && s % 3 == 0 {
                            f64::NAN
                        } else {
                            base + wobble
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn condensed_index_roundtrip() {
        let n = 7;
        let m = CondensedMatrix {
            n,
            data: (0..n * (n - 1) / 2).map(|k| k as f32).collect(),
        };
        // Walk the triangle in storage order and confirm get() agrees.
        let mut k = 0;
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(m.get(i, j), k as f32);
                assert_eq!(m.get(j, i), k as f32);
                k += 1;
            }
        }
        assert_eq!(m.get(3, 3), 1.0);
    }

    #[test]
    fn matrix_matches_per_pair_cor() {
        let series = series_fixture(9, 40);
        let profiles = profile_series(&series);
        let m = cor_matrix(&profiles, &CorMatrixConfig::default());
        for i in 0..series.len() {
            for j in i + 1..series.len() {
                let reference = cor(&series[i], &series[j]) as f32;
                assert_eq!(
                    m.get(i, j).to_bits(),
                    reference.to_bits(),
                    "pair ({i}, {j}): {} vs {}",
                    m.get(i, j),
                    reference
                );
            }
        }
    }

    #[test]
    fn thread_counts_agree() {
        let series = series_fixture(8, 30);
        let profiles = profile_series(&series);
        let single = cor_matrix(
            &profiles,
            &CorMatrixConfig {
                threads: Some(1),
                ..CorMatrixConfig::default()
            },
        );
        for threads in [2, 4, 16] {
            let multi = cor_matrix(
                &profiles,
                &CorMatrixConfig {
                    threads: Some(threads),
                    ..CorMatrixConfig::default()
                },
            );
            assert_eq!(single, multi, "threads = {threads}");
        }
    }

    #[test]
    fn tiny_collections() {
        assert_eq!(cor_matrix(&[], &CorMatrixConfig::default()).n(), 0);
        let one = profile_series(&[vec![1.0, 2.0, 3.0]]);
        let m = cor_matrix(&one, &CorMatrixConfig::default());
        assert_eq!(m.n(), 1);
        assert_eq!(m.get(0, 0), 1.0);
    }

    /// Pruned-vs-dense agreement on a fixture: survivors bit-identical,
    /// pruned pairs truly below threshold, books conserved.
    fn assert_pruned_matches_dense(series: &[Vec<f64>], phi: f64, threads: Option<usize>) {
        let profiles = profile_series(series);
        let mut config = PruneConfig::at_threshold(phi);
        config.matrix.threads = threads;
        let sketches = sketch_series(&profiles, &config.sketch);
        let (sparse, stats) = cor_matrix_pruned(&profiles, &sketches, &config);
        let dense = cor_matrix(&profiles, &config.matrix);
        assert!(stats.conserved(), "{stats:?}");
        assert_eq!(stats.pairs_evaluated as usize, sparse.evaluated_pairs());
        for i in 0..series.len() {
            for j in i + 1..series.len() {
                let d = dense.get(i, j);
                match sparse.get(i, j) {
                    Some(v) => assert_eq!(v.to_bits(), d.to_bits(), "pair ({i},{j})"),
                    None => assert!(
                        (d as f64) < phi,
                        "pair ({i},{j}) pruned but dense = {d} ≥ {phi}"
                    ),
                }
            }
        }
    }

    #[test]
    fn pruned_matrix_matches_dense_on_fixture() {
        let series = series_fixture(12, 48);
        for phi in [0.3, 0.6, 0.9] {
            assert_pruned_matches_dense(&series, phi, Some(1));
        }
        assert_pruned_matches_dense(&series, 0.6, Some(4));
    }

    #[test]
    fn non_positive_threshold_evaluates_everything() {
        let series = series_fixture(6, 30);
        let profiles = profile_series(&series);
        let config = PruneConfig::at_threshold(0.0);
        let sketches = sketch_series(&profiles, &config.sketch);
        let (sparse, stats) = cor_matrix_pruned(&profiles, &sketches, &config);
        assert_eq!(stats.pairs_pruned(), 0);
        assert_eq!(stats.pairs_evaluated, stats.pairs_total);
        assert_eq!(sparse.evaluated_pairs() as u64, stats.pairs_total);
    }

    #[test]
    fn pruned_matrix_prunes_antiphase_pairs() {
        // Two strongly separated shape families with a continuous tilt so
        // values are tie-free: cross-family pairs must actually prune.
        let n = 56;
        let series: Vec<Vec<f64>> = (0..10)
            .map(|s| {
                let sign = if s % 2 == 0 { 1.0 } else { -1.0 };
                (0..n)
                    .map(|t| {
                        sign * (t as f64 * std::f64::consts::TAU / 8.0).sin() * 100.0
                            + (t as f64) * 1e-3
                            + (s as f64) * 1e-4 * (t as f64 % 7.0)
                    })
                    .collect()
            })
            .collect();
        let profiles = profile_series(&series);
        let config = PruneConfig::at_threshold(0.6);
        let sketches = sketch_series(&profiles, &config.sketch);
        let (_, stats) = cor_matrix_pruned(&profiles, &sketches, &config);
        assert!(
            stats.pairs_pruned() >= 25,
            "expected cross-family prunes, got {stats:?}"
        );
        assert_pruned_matches_dense(&series, 0.6, Some(1));
    }

    #[test]
    fn pruned_matrix_obs_counters_conserve() {
        let series = series_fixture(10, 40);
        let profiles = profile_series(&series);
        let config = PruneConfig::at_threshold(0.6);
        let obs = PipelineObs::new();
        let sketches = sketch_series_observed(&profiles, &config.sketch, Some(&obs));
        let (_, stats) = cor_matrix_pruned_observed(&profiles, &sketches, &config, Some(&obs));
        let snap = obs.snapshot();
        assert!(snap.quiescent());
        assert_eq!(snap.counter("prune_pairs_total"), stats.pairs_total);
        assert_eq!(
            snap.counter("pairs_pruned_degenerate")
                + snap.counter("pairs_pruned_sax")
                + snap.counter("pairs_pruned_moment")
                + snap.counter("prune_pairs_evaluated"),
            snap.counter("prune_pairs_total"),
        );
        let sketch_stage = snap
            .stages
            .iter()
            .find(|(name, _)| *name == "sketch_build")
            .map(|(_, s)| s.clone())
            .expect("sketch_build stage present");
        assert_eq!(sketch_stage.entered, series.len() as u64);
    }

    #[test]
    fn sparse_get_handles_diagonal_and_orientation() {
        let series = series_fixture(5, 30);
        let profiles = profile_series(&series);
        let config = PruneConfig::at_threshold(0.5);
        let sketches = sketch_series(&profiles, &config.sketch);
        let (sparse, _) = cor_matrix_pruned(&profiles, &sketches, &config);
        assert_eq!(sparse.get(2, 2), Some(1.0));
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(sparse.get(i, j), sparse.get(j, i));
            }
        }
        let collected: Vec<_> = sparse.entries().collect();
        assert_eq!(collected.len(), sparse.evaluated_pairs());
        assert!(collected
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn profiled_similarity_matches_plain() {
        let series = series_fixture(4, 50);
        let profiles = profile_series(&series);
        let mut scratch = CorScratch::new();
        for i in 0..series.len() {
            for j in 0..series.len() {
                if i == j {
                    continue;
                }
                let plain = crate::similarity::correlation_similarity(&series[i], &series[j]);
                let fast = correlation_similarity_profiled(
                    &profiles[i],
                    &profiles[j],
                    &mut scratch,
                    ALPHA,
                );
                assert_eq!(plain.value.to_bits(), fast.value.to_bits());
                assert_eq!(plain.best, fast.best);
                assert_eq!(plain.pearson, fast.pearson);
                assert_eq!(plain.spearman, fast.spearman);
                assert_eq!(plain.kendall, fast.kendall);
            }
        }
    }
}
