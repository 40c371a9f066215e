//! Batch pairwise-correlation engine.
//!
//! Every framework primitive — motif discovery (Definition 5), clustering
//! under `1 − cor` (Figure 3), strong stationarity (Definition 2) and
//! granularity scoring (Definition 3) — evaluates the similarity measure
//! over all pairs of a series collection. This module computes that
//! quadratic sweep from per-series [`CorProfile`]s, which hoist the
//! per-series work (finite-mask compaction, moments, mid-ranks, sort
//! permutations, tie statistics) out of the pair loop, and fills the upper
//! triangle in parallel, one `run_grid` task per row.
//!
//! Results are **bit-identical** to calling
//! [`correlation_similarity`](crate::similarity::correlation_similarity)
//! per pair: the profiled coefficient functions reproduce the from-scratch
//! accumulation orders exactly, and pairs whose finite masks differ fall
//! back to pairwise deletion internally (see `wtts_stats::corprofile`).
//!
//! Every entry point takes `obs: Option<&PipelineObs>` last; with `None` no
//! atomic is touched and the output is unchanged. At threshold ≤ 0 the
//! sketch-pruned [`cor_matrix_pruned`] prunes nothing and reproduces the
//! dense [`cor_matrix`]: the same pairs, in the same order, with the same
//! bits.

use crate::obs::PipelineObs;
use crate::similarity::CorSimilarity;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wtts_stats::sketch::{prune_pair, CorSketch, PruneTier, SketchConfig};
use wtts_stats::{cor_tests_profiled, CorProfile, CorScratch, ALPHA};

/// Configuration for [`cor_matrix`].
#[derive(Debug, Clone, Default)]
pub struct CorMatrixConfig {
    /// Worker threads; `None` uses the machine's available parallelism.
    pub threads: Option<usize>,
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

/// Definition 1 over two profiles at the paper's α = 0.05: the maximum
/// statistically significant coefficient, `0` when none is significant.
///
/// Bit-identical to
/// [`correlation_similarity`](crate::similarity::correlation_similarity)
/// on the profiles' source series. `scratch` carries the reusable
/// per-pair buffers; keep one per thread.
pub fn correlation_similarity_profiled(
    a: &CorProfile,
    b: &CorProfile,
    scratch: &mut CorScratch,
) -> CorSimilarity {
    let (p, s, k) = cor_tests_profiled(a, b, scratch);
    CorSimilarity::from_tests(p, s, k, ALPHA)
}

/// `cor(X, Y)` of Definition 1 over two profiles at the paper's α = 0.05.
pub fn cor_profiled(a: &CorProfile, b: &CorProfile, scratch: &mut CorScratch) -> f64 {
    correlation_similarity_profiled(a, b, scratch).value
}

/// Runs `compute` over every `(row, col)` cell of a grid, fanning the flat
/// task list across work-stealing workers — the one parallel loop behind
/// every analysis grid: matrix rows here, the granularity sweep
/// ([`crate::sweep`]), the lag search ([`crate::lagsearch`]) and the
/// experiments' per-gateway fleet pass.
///
/// `threads: None` uses the machine's available parallelism. The calling
/// thread is one of the workers, so `threads = 1` spawns nothing. Each
/// worker owns one [`CorScratch`]; each cell writes its own slot, so
/// results are deterministic in the thread count.
pub fn run_grid<C, F>(
    n_rows: usize,
    n_cols: usize,
    threads: Option<usize>,
    compute: F,
) -> Vec<Vec<C>>
where
    C: Send,
    F: Fn(usize, usize, &mut CorScratch) -> C + Sync,
{
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .max(1);
    let total = n_rows * n_cols;
    let slots: Vec<Mutex<Option<C>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut scratch = CorScratch::new();
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= total {
                break;
            }
            let cell = compute(t / n_cols, t % n_cols, &mut scratch);
            *slots[t].lock().expect("no poisoned slot") = Some(cell);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(total) {
            scope.spawn(work);
        }
        work();
    });
    let mut slots = slots.into_iter();
    (0..n_rows)
        .map(|_| {
            (0..n_cols)
                .map(|_| {
                    slots
                        .next()
                        .expect("one slot per cell")
                        .into_inner()
                        .expect("no poisoned slot")
                        .expect("every task index was claimed")
                })
                .collect()
        })
        .collect()
}

/// Computes the full pairwise similarity matrix of `profiles`.
///
/// Each row of the condensed upper triangle is one `run_grid` task
/// (early rows are the longest, so work-stealing balances the triangle's
/// skew), filled under a [`PipelineObs::row_fill`] span when `obs` is
/// `Some`. The per-pair fill bottoms out in the stats crate's kernel layer
/// (`wtts_stats::kernels`): fused Pearson+Spearman cross-moment folds,
/// branch-light rank gathers and the merge-based Kendall inversion count —
/// all bit-identical to the from-scratch coefficients, benchmarked
/// per-kernel in `BENCH_kernels.json`.
pub fn cor_matrix(
    profiles: &[CorProfile],
    config: &CorMatrixConfig,
    obs: Option<&PipelineObs>,
) -> CondensedMatrix {
    let n = profiles.len();
    let rows = run_grid(n.saturating_sub(1), 1, config.threads, |i, _, scratch| {
        let _span = obs.map(|o| o.row_fill.enter());
        (i + 1..n)
            .map(|j| {
                correlation_similarity_profiled(&profiles[i], &profiles[j], scratch).value as f32
            })
            .collect::<Vec<f32>>()
    });
    let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for row in rows.into_iter().flatten() {
        data.extend(row);
    }
    CondensedMatrix { n, data }
}

/// Profiles a collection of series (a convenience for `cor_matrix` callers);
/// each construction opens a span on [`PipelineObs::profile_build`].
pub fn profile_series<S: AsRef<[f64]>>(series: &[S], obs: Option<&PipelineObs>) -> Vec<CorProfile> {
    series
        .iter()
        .map(|s| profile_one(s.as_ref(), obs))
        .collect()
}

/// Profiles a single series under a [`PipelineObs::profile_build`] span —
/// the per-item building block of [`profile_series`], shared with motif
/// indexing ([`crate::motif`]) and lag-search preparation
/// ([`crate::lagsearch`]).
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
    /// Exact-path settings (worker threads).
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
/// [`cor_matrix_pruned`] callers); each construction opens a span on
/// [`PipelineObs::sketch_build`].
pub fn sketch_series(
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
/// the per-item building block of [`sketch_series`], shared with the
/// lag-search preparation phase ([`crate::lagsearch`]).
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
///
/// At `config.threshold ≤ 0` nothing is pruned and every pair is stored
/// with its [`cor_matrix`] value, in the same row-major order — the dense
/// build as a special case. Rows fan out over `run_grid`; with `obs`,
/// row fills open spans on [`PipelineObs::row_fill`] and the per-tier
/// prune counters ([`PipelineObs::prune_pairs_total`] and friends)
/// accumulate the returned [`PruneStats`].
pub fn cor_matrix_pruned(
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
    let rows = run_grid(
        n.saturating_sub(1),
        1,
        config.matrix.threads,
        |i, _, scratch| {
            let _span = obs.map(|o| o.row_fill.enter());
            fill_row_pruned(profiles, sketches, i, config, scratch)
        },
    );

    let mut stats = PruneStats::default();
    let mut row_start = Vec::with_capacity(n + 1);
    row_start.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for (rc, rv, row_stats) in rows.into_iter().flatten() {
        cols.extend(rc);
        vals.extend(rv);
        row_start.push(cols.len());
        stats.absorb(&row_stats);
    }
    // The last row (and every row of a collection smaller than two) is
    // empty.
    row_start.resize(n + 1, cols.len());

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
/// Returns the surviving columns, their values and the row's tier counts.
fn fill_row_pruned(
    profiles: &[CorProfile],
    sketches: &[CorSketch],
    i: usize,
    config: &PruneConfig,
    scratch: &mut CorScratch,
) -> (Vec<u32>, Vec<f32>, PruneStats) {
    let n = profiles.len();
    let mut stats = PruneStats::default();
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
                let v = correlation_similarity_profiled(&profiles[i], &profiles[j], scratch).value
                    as f32;
                cols.push(j as u32);
                vals.push(v);
            }
        }
    }
    (cols, vals, stats)
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
        let profiles = profile_series(&series, None);
        let m = cor_matrix(&profiles, &CorMatrixConfig::default(), None);
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
        let profiles = profile_series(&series, None);
        let single = cor_matrix(&profiles, &CorMatrixConfig { threads: Some(1) }, None);
        for threads in [2, 4, 16] {
            let multi = cor_matrix(
                &profiles,
                &CorMatrixConfig {
                    threads: Some(threads),
                },
                None,
            );
            assert_eq!(single, multi, "threads = {threads}");
        }
    }

    #[test]
    fn tiny_collections() {
        assert_eq!(cor_matrix(&[], &CorMatrixConfig::default(), None).n(), 0);
        let one = profile_series(&[vec![1.0, 2.0, 3.0]], None);
        let m = cor_matrix(&one, &CorMatrixConfig::default(), None);
        assert_eq!(m.n(), 1);
        assert_eq!(m.get(0, 0), 1.0);
        let config = PruneConfig::at_threshold(0.6);
        let sketches = sketch_series(&one, &config.sketch, None);
        let (sparse, stats) = cor_matrix_pruned(&one, &sketches, &config, None);
        assert_eq!((sparse.n(), sparse.get(0, 0)), (1, Some(1.0)));
        assert_eq!(stats, PruneStats::default());
        let (empty, _) = cor_matrix_pruned(&[], &[], &config, None);
        assert_eq!((empty.n(), empty.evaluated_pairs()), (0, 0));
    }

    /// Pruned-vs-dense agreement on a fixture: survivors bit-identical,
    /// pruned pairs truly below threshold, books conserved.
    fn assert_pruned_matches_dense(series: &[Vec<f64>], phi: f64, threads: Option<usize>) {
        let profiles = profile_series(series, None);
        let mut config = PruneConfig::at_threshold(phi);
        config.matrix.threads = threads;
        let sketches = sketch_series(&profiles, &config.sketch, None);
        let (sparse, stats) = cor_matrix_pruned(&profiles, &sketches, &config, None);
        let dense = cor_matrix(&profiles, &config.matrix, None);
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
        // The dense build as a special case of the pruned one: every pair
        // stored, in row-major order, bit-identical to `cor_matrix`.
        let series = series_fixture(6, 30);
        let profiles = profile_series(&series, None);
        let dense = cor_matrix(&profiles, &CorMatrixConfig::default(), None);
        for phi in [0.0, -0.5] {
            let config = PruneConfig::at_threshold(phi);
            let sketches = sketch_series(&profiles, &config.sketch, None);
            let (sparse, stats) = cor_matrix_pruned(&profiles, &sketches, &config, None);
            assert_eq!(stats.pairs_pruned(), 0);
            assert_eq!(stats.pairs_evaluated, stats.pairs_total);
            assert_eq!(sparse.evaluated_pairs() as u64, stats.pairs_total);
            let stored: Vec<u32> = sparse.entries().map(|(_, _, v)| v.to_bits()).collect();
            let expected: Vec<u32> = dense.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(stored, expected, "phi {phi}");
        }
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
        let profiles = profile_series(&series, None);
        let config = PruneConfig::at_threshold(0.6);
        let sketches = sketch_series(&profiles, &config.sketch, None);
        let (_, stats) = cor_matrix_pruned(&profiles, &sketches, &config, None);
        assert!(
            stats.pairs_pruned() >= 25,
            "expected cross-family prunes, got {stats:?}"
        );
        assert_pruned_matches_dense(&series, 0.6, Some(1));
    }

    #[test]
    fn pruned_matrix_obs_counters_conserve() {
        let series = series_fixture(10, 40);
        let profiles = profile_series(&series, None);
        let config = PruneConfig::at_threshold(0.6);
        let obs = PipelineObs::new();
        let sketches = sketch_series(&profiles, &config.sketch, Some(&obs));
        let (_, stats) = cor_matrix_pruned(&profiles, &sketches, &config, Some(&obs));
        let snap = obs.snapshot();
        assert_eq!(snap.check_laws(), Vec::<String>::new());
        assert_eq!(snap.prune_pairs_total, stats.pairs_total);
        assert_eq!(snap.prune_pairs_evaluated, stats.pairs_evaluated);
        assert_eq!(snap.sketch_build.entered, series.len() as u64);
    }

    #[test]
    fn sparse_get_handles_diagonal_and_orientation() {
        let series = series_fixture(5, 30);
        let profiles = profile_series(&series, None);
        let config = PruneConfig::at_threshold(0.5);
        let sketches = sketch_series(&profiles, &config.sketch, None);
        let (sparse, _) = cor_matrix_pruned(&profiles, &sketches, &config, None);
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
        let profiles = profile_series(&series, None);
        let mut scratch = CorScratch::new();
        for i in 0..series.len() {
            for j in 0..series.len() {
                if i == j {
                    continue;
                }
                let plain = crate::similarity::correlation_similarity(&series[i], &series[j]);
                let fast =
                    correlation_similarity_profiled(&profiles[i], &profiles[j], &mut scratch);
                assert_eq!(plain.value.to_bits(), fast.value.to_bits());
                assert_eq!(plain.best, fast.best);
                assert_eq!(plain.pearson, fast.pearson);
                assert_eq!(plain.spearman, fast.spearman);
                assert_eq!(plain.kendall, fast.kendall);
            }
        }
    }
}
