//! Per-series correlation profiles for batch pairwise computation.
//!
//! Definition 1 of the paper compares every pair of series with up to
//! three coefficients, and every framework primitive built on it (motifs,
//! clustering, stationarity, granularity scoring) is `O(n²)` in the number
//! of series. Computing each coefficient from scratch repeats a large
//! amount of *per-series* work per pair: compaction of finite values,
//! means and second moments, mid-ranks, sort permutations and tie-group
//! statistics. A [`CorProfile`] hoists all of that out of the pair loop,
//! so a pair costs only the genuinely pairwise parts — one fused
//! cross-moment pass for Pearson and Spearman, and a per-run refinement
//! plus inversion count over integer rank keys for Kendall.
//!
//! **Exactness.** [`cor_tests_profiled`] returns results bit-identical to
//! [`pearson`](crate::pearson) / [`spearman`](crate::spearman) /
//! [`kendall`](crate::kendall) on the same inputs. The fast path applies
//! when two profiles share the same finite mask (in particular whenever
//! both series are complete): then "pairwise-complete observations" are
//! exactly the profiles' compacted values and every cached statistic is
//! valid. When masks differ, the pair falls back to pairwise deletion:
//! the intersected observations are gathered from the two compactions,
//! and each side's cached sort permutation — filtered down to the
//! intersection — replaces the per-pair sorts the from-scratch routines
//! perform. A stable sort of a subsequence is the filtered stable sort of
//! the full sequence, so the filtered orders, the mid-ranks walked from
//! them and the tie groups they delimit are exactly what sorting the
//! gathered values would produce. Accumulation orders match the
//! from-scratch loops term for term (see `pearson_from_moments` and
//! `kendall_from_parts`), and Kendall's counts are the same integers on
//! rank keys as on values (see [`kernels::gather_rank_keys`]), which is
//! what makes bit-equality hold rather than mere approximation.

use crate::correlation::{
    kendall_from_parts, kendall_ties, pearson_from_moments, pearson_from_sxy,
    CorrelationCoefficient, CorrelationTest, KendallTies,
};
use crate::kernels;
use crate::rank::rank_series;

/// Everything about one series that pairwise correlation can reuse:
/// finite-value mask, compacted values, Pearson moments, mid-ranks with
/// their moments, the stable sort permutation and tie statistics.
///
/// Build once per series with [`CorProfile::new`], then hand pairs to
/// [`cor_tests_profiled`].
#[derive(Debug, Clone)]
pub struct CorProfile {
    /// Original series length (including non-finite positions).
    len: usize,
    /// Finite-position bitmask, 64 positions per word, LSB-first.
    mask: Vec<u64>,
    /// Whether every position is finite.
    complete: bool,
    /// The finite values, in series order.
    vals: Vec<f64>,
    /// Mean of `vals`, accumulated exactly like `pearson`'s.
    mean: f64,
    /// Centered second moment Σ(v − mean)², in `pearson`'s order.
    sxx: f64,
    /// Mid-ranks of `vals` (1-based, ties averaged).
    ranks: Vec<f64>,
    /// Mean of `ranks`.
    rank_mean: f64,
    /// Centered second moment of `ranks`.
    rank_sxx: f64,
    /// Stable sort permutation of `vals` (ascending; ties keep order).
    order: Vec<u32>,
    /// `(start, len)` of each tie run (len > 1) in the sorted sequence.
    tie_runs: Vec<(u32, u32)>,
    /// Tie aggregates for τ-b's denominator and variance.
    ties: KendallTies,
}

impl CorProfile {
    /// Profiles `series`, treating non-finite values as missing.
    pub fn new(series: &[f64]) -> CorProfile {
        let len = series.len();
        let mut mask = vec![0u64; len.div_ceil(64)];
        let mut vals = Vec::with_capacity(len);
        for (i, &v) in series.iter().enumerate() {
            if v.is_finite() {
                mask[i / 64] |= 1u64 << (i % 64);
                vals.push(v);
            }
        }
        let complete = vals.len() == len;
        let (mean, sxx) = mean_and_sxx(&vals);
        let ranked = rank_series(&vals);
        let (rank_mean, rank_sxx) = mean_and_sxx(&ranked.ranks);
        let ties = kendall_ties(&ranked.ties);
        let order = ranked.order;
        // Tie runs in the sorted sequence; singleton runs need no per-pair
        // refinement, so only len > 1 runs are kept.
        let mut tie_runs = Vec::with_capacity(ranked.ties.len());
        let mut i = 0;
        while i < vals.len() {
            let mut j = i;
            while j + 1 < vals.len() && vals[order[j + 1] as usize] == vals[order[i] as usize] {
                j += 1;
            }
            if j > i {
                tie_runs.push((i as u32, (j - i + 1) as u32));
            }
            i = j + 1;
        }
        CorProfile {
            len,
            mask,
            complete,
            vals,
            mean,
            sxx,
            ranks: ranked.ranks,
            rank_mean,
            rank_sxx,
            order,
            tie_runs,
            ties,
        }
    }

    /// Original series length, including missing positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the original series was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of finite observations.
    pub fn n_finite(&self) -> usize {
        self.vals.len()
    }

    /// Whether every position holds a finite value.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Whether `self` and `other` have finite values at exactly the same
    /// positions — the precondition for the cached fast path.
    pub fn same_mask(&self, other: &CorProfile) -> bool {
        self.len == other.len && ((self.complete && other.complete) || self.mask == other.mask)
    }

    /// The finite values in ascending order, gathered from the cached stable
    /// sort permutation. Bit-identical — including the relative order of
    /// `-0.0`/`0.0` ties — to what sorting the finite values with
    /// `sort_by(partial_cmp)` produces, so the result can feed
    /// [`ks_two_sample_sorted`](crate::ks_two_sample_sorted) in place of a
    /// per-pair sort.
    pub fn sorted_values(&self) -> Vec<f64> {
        let mut out = Vec::new();
        kernels::gather_values(&self.order, &self.vals, &mut out);
        out
    }

    /// The finite values in series order (the profile's compaction).
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mean of the finite values.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Centered second moment Σ(v − mean)² of the finite values. Zero iff
    /// the series is constant (which degenerates all three coefficients).
    pub fn sxx(&self) -> f64 {
        self.sxx
    }

    /// Mid-ranks of the finite values (1-based, ties averaged).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Mean of the mid-ranks.
    pub fn rank_mean(&self) -> f64 {
        self.rank_mean
    }

    /// Centered second moment of the mid-ranks.
    pub fn rank_sxx(&self) -> f64 {
        self.rank_sxx
    }

    /// Whether the finite values contain no ties at all. When both sides of
    /// a pair are tie-free, Kendall's τ and Spearman's ρ are linked by
    /// Daniels' inequality −1 ≤ 3τ − 2ρ ≤ 1, which the pruning sketches
    /// exploit.
    pub fn tie_free(&self) -> bool {
        self.tie_runs.is_empty()
    }

    /// Number of tied pairs Σ t(t−1)/2 over the tie groups — the `n1`/`n2`
    /// term of τ-b's denominator.
    pub fn n_tied_pairs(&self) -> u64 {
        self.ties.n_tied_pairs
    }
}

/// Per-series mean and centered second moment in `pearson_complete`'s exact
/// accumulation order — see [`kernels::mean_and_sxx`] for why the order is
/// pinned.
fn mean_and_sxx(vals: &[f64]) -> (f64, f64) {
    kernels::mean_and_sxx(vals)
}

/// Reusable per-thread buffers for [`cor_tests_profiled`]: Kendall's rank
/// keys and counting tree plus the gathered values, filtered sort orders
/// and rank vectors of the pairwise-deletion fallback. Reusing them across
/// a batch removes every per-pair allocation.
#[derive(Debug, Default)]
pub struct CorScratch {
    /// Partner rank keys in x-sorted order (Kendall's inversion input).
    keys: Vec<u32>,
    /// Fenwick prefix-count tree of the keyed inversion count.
    tree: Vec<u32>,
    /// Gathered x values on the mask intersection.
    xs: Vec<f64>,
    /// Gathered y values on the mask intersection.
    ys: Vec<f64>,
    /// `a.vals` index → gathered position (`u32::MAX` when dropped).
    a_pos: Vec<u32>,
    /// `b.vals` index → gathered position (`u32::MAX` when dropped).
    b_pos: Vec<u32>,
    /// `a`'s sort order filtered down to the intersection.
    a_order: Vec<u32>,
    /// `b`'s sort order filtered down to the intersection.
    b_order: Vec<u32>,
    /// Mid-ranks of the gathered x values.
    rx: Vec<f64>,
    /// Mid-ranks of the gathered y values.
    ry: Vec<f64>,
    /// `(start, len)` tie runs of the filtered x order.
    runs_a: Vec<(u32, u32)>,
    /// `(start, len)` tie runs of the filtered y order.
    runs_b: Vec<(u32, u32)>,
    /// Sorted-values gather scratch for the order-walk kernel.
    sv: Vec<f64>,
}

impl CorScratch {
    pub fn new() -> CorScratch {
        CorScratch::default()
    }
}

/// Gathers the pairwise-complete observations of two profiles whose masks
/// differ into `scratch.xs`/`scratch.ys`, recording each compacted index's
/// gathered position in `scratch.a_pos`/`scratch.b_pos`.
///
/// Walks the mask intersection word by word; within a word, the index of a
/// value inside a profile's compaction is the running popcount of that
/// profile's mask below the bit. The gathered vectors are exactly what
/// [`pairwise_complete`](crate::pairwise_complete) would produce on the raw
/// series, and the position maps let the profiles' cached sort orders be
/// filtered down to the intersection without re-sorting.
///
/// Returns the two sides' value sums, accumulated in gather order — the
/// same order `pearson_complete` sums them, so `sum / m` is its mean
/// bit for bit.
#[allow(clippy::too_many_arguments)]
fn gather_pairwise(
    a: &CorProfile,
    b: &CorProfile,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
    a_pos: &mut Vec<u32>,
    b_pos: &mut Vec<u32>,
) -> (f64, f64) {
    assert_eq!(a.len, b.len, "paired samples must have equal length");
    xs.clear();
    ys.clear();
    a_pos.clear();
    a_pos.resize(a.vals.len(), u32::MAX);
    b_pos.clear();
    b_pos.resize(b.vals.len(), u32::MAX);
    let mut base_a = 0usize;
    let mut base_b = 0usize;
    let mut sum_x = 0.0;
    let mut sum_y = 0.0;
    for (&wa, &wb) in a.mask.iter().zip(&b.mask) {
        let mut both = wa & wb;
        while both != 0 {
            let bit = both.trailing_zeros();
            let below = (1u64 << bit) - 1;
            let ia = base_a + (wa & below).count_ones() as usize;
            let ib = base_b + (wb & below).count_ones() as usize;
            a_pos[ia] = xs.len() as u32;
            b_pos[ib] = ys.len() as u32;
            sum_x += a.vals[ia];
            sum_y += b.vals[ib];
            xs.push(a.vals[ia]);
            ys.push(b.vals[ib]);
            both &= both - 1;
        }
        base_a += wa.count_ones() as usize;
        base_b += wb.count_ones() as usize;
    }
    (sum_x, sum_y)
}

/// Whether `sub`'s finite positions are a subset of `sup`'s. Then the
/// pair's intersection is exactly `sub`'s mask, `sub`'s compaction survives
/// pairwise deletion verbatim, and every statistic cached on `sub` stays
/// valid. Both profiles must have equal `len`.
fn mask_subset(sub: &CorProfile, sup: &CorProfile) -> bool {
    sup.complete || sub.mask.iter().zip(&sup.mask).all(|(&s, &p)| s & !p == 0)
}

/// Gathers `sup`'s values at `sub`'s finite positions (requires
/// [`mask_subset`]`(sub, sup)`), recording each `sup.vals` index's gathered
/// position in `pos`. Gathered positions coincide with `sub`'s compaction
/// indices, which is what lets `sub`'s cached artifacts index the result.
///
/// Returns the gathered values' sum, accumulated in gather order (see
/// [`gather_pairwise`]).
fn gather_superset(
    sub: &CorProfile,
    sup: &CorProfile,
    out: &mut Vec<f64>,
    pos: &mut Vec<u32>,
) -> f64 {
    out.clear();
    pos.clear();
    pos.resize(sup.vals.len(), u32::MAX);
    let mut base = 0usize;
    let mut sum = 0.0;
    for (&ws, &wp) in sub.mask.iter().zip(&sup.mask) {
        let mut bits = ws;
        while bits != 0 {
            let bit = bits.trailing_zeros();
            let below = (1u64 << bit) - 1;
            let ip = base + (wp & below).count_ones() as usize;
            pos[ip] = out.len() as u32;
            sum += sup.vals[ip];
            out.push(sup.vals[ip]);
            bits &= bits - 1;
        }
        base += wp.count_ones() as usize;
    }
    sum
}

/// One side of a pair, resolved down to the mask intersection: either the
/// profile's cached artifacts verbatim (when its own mask *is* the
/// intersection) or statistics recomputed into scratch buffers from the
/// filtered sort order.
struct SideView<'v> {
    vals: &'v [f64],
    mean: f64,
    sxx: f64,
    ranks: &'v [f64],
    rank_mean: f64,
    rank_sxx: f64,
    /// Stable ascending order of `vals` (positions into `vals`).
    order: &'v [u32],
    /// `(start, len)` tie runs (len > 1) of `order`.
    runs: &'v [(u32, u32)],
    ties: KendallTies,
}

impl CorProfile {
    /// The profile's cached statistics as a [`SideView`] — valid whenever
    /// the pair's intersection equals this profile's own mask.
    fn as_view(&self) -> SideView<'_> {
        SideView {
            vals: &self.vals,
            mean: self.mean,
            sxx: self.sxx,
            ranks: &self.ranks,
            rank_mean: self.rank_mean,
            rank_sxx: self.rank_sxx,
            order: &self.order,
            runs: &self.tie_runs,
            ties: self.ties,
        }
    }
}

/// Resolves a profile whose mask is strictly wider than the intersection:
/// filters its sort order down to the `gathered` values and rebuilds ranks,
/// tie runs, tie aggregates and moments — all without sorting, and with the
/// from-scratch accumulation orders.
#[allow(clippy::too_many_arguments)]
fn resolve_filtered<'v>(
    p: &CorProfile,
    gathered: &'v [f64],
    sum: f64,
    pos: &[u32],
    order_buf: &'v mut Vec<u32>,
    ranks_buf: &'v mut Vec<f64>,
    runs_buf: &'v mut Vec<(u32, u32)>,
    sv_buf: &mut Vec<f64>,
) -> SideView<'v> {
    kernels::filter_order_into(&p.order, pos, order_buf);
    let ties = kernels::order_stats_gather(
        order_buf,
        gathered,
        sv_buf,
        Some(&mut *ranks_buf),
        Some(&mut *runs_buf),
    );
    // The gather already summed the values in `pearson_complete`'s order;
    // only the centered second moment needs its own pass.
    let m = gathered.len();
    let mean = if m == 0 { 0.0 } else { sum / m as f64 };
    let sxx = kernels::sxx_given_mean(gathered, mean);
    let (rank_mean, rank_sxx) = mean_and_sxx(ranks_buf);
    SideView {
        vals: gathered,
        mean,
        sxx,
        ranks: ranks_buf,
        rank_mean,
        rank_sxx,
        order: order_buf,
        runs: runs_buf,
        ties,
    }
}

/// Assembles the three coefficient tests from two resolved sides, with the
/// from-scratch routines' exact degenerate handling and arithmetic.
fn assemble(
    x: &SideView<'_>,
    y: &SideView<'_>,
    keys: &mut Vec<u32>,
    tree: &mut Vec<u32>,
) -> (CorrelationTest, CorrelationTest, CorrelationTest) {
    let m = x.vals.len();
    if m < 3 {
        return (
            CorrelationTest::degenerate(CorrelationCoefficient::Pearson, m),
            CorrelationTest::degenerate(CorrelationCoefficient::Spearman, m),
            CorrelationTest::degenerate(CorrelationCoefficient::Kendall, m),
        );
    }
    let pearson_ok = x.sxx != 0.0 && y.sxx != 0.0;
    let spearman_ok = x.rank_sxx != 0.0 && y.rank_sxx != 0.0;
    let (p, s) = if pearson_ok && spearman_ok {
        // The hot case: both coefficients live, so the values chain and the
        // ranks chain fuse into one walk of the four streams. Each chain's
        // own accumulation order is untouched (see `kernels::sxy_fold2`),
        // so both results match the separate `pearson_from_moments` passes
        // bit for bit.
        let (sv, sr) = kernels::sxy_fold2(
            x.vals,
            y.vals,
            x.mean,
            y.mean,
            x.ranks,
            y.ranks,
            x.rank_mean,
            y.rank_mean,
        );
        (
            pearson_from_sxy(CorrelationCoefficient::Pearson, sv, x.sxx, y.sxx, m),
            pearson_from_sxy(
                CorrelationCoefficient::Spearman,
                sr,
                x.rank_sxx,
                y.rank_sxx,
                m,
            ),
        )
    } else {
        let p = if !pearson_ok {
            CorrelationTest::degenerate(CorrelationCoefficient::Pearson, m)
        } else {
            pearson_from_moments(
                CorrelationCoefficient::Pearson,
                x.vals,
                y.vals,
                x.mean,
                y.mean,
                x.sxx,
                y.sxx,
            )
        };
        let s = if !spearman_ok {
            CorrelationTest::degenerate(CorrelationCoefficient::Spearman, m)
        } else {
            pearson_from_moments(
                CorrelationCoefficient::Spearman,
                x.ranks,
                y.ranks,
                x.rank_mean,
                y.rank_mean,
                x.rank_sxx,
                y.rank_sxx,
            )
        };
        (p, s)
    };
    // Kendall (Knight's algorithm): the from-scratch path sorts the pairs
    // by `(x, y)` and counts inversions of the y sequence. Walking x's
    // stable order and sorting the partner inside each x-tie run gives the
    // same sequence, and joint ties are the equal-partner runs inside x-tie
    // runs. The partner enters as its cached mid-ranks, floored to integer
    // keys in [1, m] that order and tie exactly like its values, so the
    // joint-tie and discordant counts are the same integers — counted by
    // the Fenwick lane instead of an `f64` merge.
    kernels::gather_rank_keys(x.order, y.ranks, keys);
    let n3 = kernels::refine_tie_runs(keys, x.runs);
    let discordant = kernels::count_inversions_keyed(keys, m + 1, tree);
    let k = kendall_from_parts(m, n3, discordant, &x.ties, &y.ties);
    (p, s, k)
}

/// All three coefficients of a pair at once — the batch engine's per-pair
/// entry point. Bit-identical to [`pearson`](crate::pearson),
/// [`spearman`](crate::spearman) and [`kendall`](crate::kendall) on the
/// raw series, sharing all per-pair work across the three tests, with
/// three tiers of reuse:
///
/// 1. equal masks — every cached statistic of both profiles applies;
/// 2. one mask a subset of the other (a complete series against one with
///    holes is the common case) — the subset side's cache applies verbatim
///    and only the wider side is filtered;
/// 3. incomparable masks — both sides are filtered, still without sorting.
pub fn cor_tests_profiled(
    a: &CorProfile,
    b: &CorProfile,
    scratch: &mut CorScratch,
) -> (CorrelationTest, CorrelationTest, CorrelationTest) {
    let s = &mut *scratch;
    if a.same_mask(b) {
        // Equal masks: both profiles' caches are views of the intersection
        // already, and `assemble` fuses the Pearson and Spearman folds into
        // one pass (same degenerate ladder, same per-chain accumulation
        // orders as the from-scratch coefficients).
        return assemble(&a.as_view(), &b.as_view(), &mut s.keys, &mut s.tree);
    }
    assert_eq!(a.len, b.len, "paired samples must have equal length");
    if mask_subset(a, b) {
        let sum = gather_superset(a, b, &mut s.ys, &mut s.b_pos);
        let y = resolve_filtered(
            b,
            &s.ys,
            sum,
            &s.b_pos,
            &mut s.b_order,
            &mut s.ry,
            &mut s.runs_b,
            &mut s.sv,
        );
        assemble(&a.as_view(), &y, &mut s.keys, &mut s.tree)
    } else if mask_subset(b, a) {
        let sum = gather_superset(b, a, &mut s.xs, &mut s.a_pos);
        let x = resolve_filtered(
            a,
            &s.xs,
            sum,
            &s.a_pos,
            &mut s.a_order,
            &mut s.rx,
            &mut s.runs_a,
            &mut s.sv,
        );
        assemble(&x, &b.as_view(), &mut s.keys, &mut s.tree)
    } else {
        let (sum_x, sum_y) =
            gather_pairwise(a, b, &mut s.xs, &mut s.ys, &mut s.a_pos, &mut s.b_pos);
        let x = resolve_filtered(
            a,
            &s.xs,
            sum_x,
            &s.a_pos,
            &mut s.a_order,
            &mut s.rx,
            &mut s.runs_a,
            &mut s.sv,
        );
        let y = resolve_filtered(
            b,
            &s.ys,
            sum_y,
            &s.b_pos,
            &mut s.b_order,
            &mut s.ry,
            &mut s.runs_b,
            &mut s.sv,
        );
        assemble(&x, &y, &mut s.keys, &mut s.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::{kendall, pearson, spearman};

    /// `cor_tests_profiled` against the from-scratch coefficients, every
    /// field bit for bit.
    fn assert_bit_identical(x: &[f64], y: &[f64]) {
        let (pa, pb) = (CorProfile::new(x), CorProfile::new(y));
        let mut scratch = CorScratch::new();
        assert_tests_match(x, y, cor_tests_profiled(&pa, &pb, &mut scratch));
    }

    fn assert_tests_match(
        x: &[f64],
        y: &[f64],
        (p, s, k): (CorrelationTest, CorrelationTest, CorrelationTest),
    ) {
        for (reference, profiled) in [(pearson(x, y), p), (spearman(x, y), s), (kendall(x, y), k)] {
            assert_eq!(reference.coefficient, profiled.coefficient);
            assert_eq!(reference.n, profiled.n);
            assert_eq!(
                reference.value.to_bits(),
                profiled.value.to_bits(),
                "value mismatch: {} vs {} ({})",
                reference.value,
                profiled.value,
                reference.coefficient
            );
            assert_eq!(
                reference.p_value.to_bits(),
                profiled.p_value.to_bits(),
                "p mismatch: {} vs {} ({})",
                reference.p_value,
                profiled.p_value,
                reference.coefficient
            );
        }
    }

    #[test]
    fn complete_series_match_scratch_path() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0];
        assert_bit_identical(&x, &y);
    }

    #[test]
    fn tied_series_match_scratch_path() {
        let x = [1.0, 2.0, 2.0, 3.0, 2.0, 1.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0, 2.0, 2.0, 4.0];
        assert_bit_identical(&x, &y);
    }

    #[test]
    fn equal_masks_take_the_fast_path() {
        let x = [1.0, f64::NAN, 3.0, 4.0, 5.0, f64::NAN, 7.0];
        let y = [2.0, f64::NAN, 6.0, 8.0, 11.0, f64::NAN, 14.0];
        let (pa, pb) = (CorProfile::new(&x), CorProfile::new(&y));
        assert!(pa.same_mask(&pb));
        assert_bit_identical(&x, &y);
    }

    #[test]
    fn differing_masks_fall_back_to_pairwise_deletion() {
        let x = [1.0, 2.0, f64::NAN, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = [2.0, 4.0, 6.0, f64::NAN, 10.0, 12.0, 15.0, 16.0];
        let (pa, pb) = (CorProfile::new(&x), CorProfile::new(&y));
        assert!(!pa.same_mask(&pb));
        assert_bit_identical(&x, &y);
    }

    #[test]
    fn degenerate_cases_match() {
        // Constant series, all-tied, and too-few-observations.
        assert_bit_identical(&[1.0; 6], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_bit_identical(&[2.0; 5], &[3.0; 5]);
        assert_bit_identical(&[1.0, 2.0], &[3.0, 4.0]);
        assert_bit_identical(
            &[1.0, f64::NAN, f64::NAN, 2.0],
            &[f64::NAN, 1.0, 2.0, f64::NAN],
        );
    }

    #[test]
    fn subset_masks_reuse_the_narrow_side() {
        // Complete against holey, both directions.
        let complete = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0];
        let holey = [3.0, f64::NAN, 4.0, 1.0, f64::NAN, 9.0, 2.0, 6.0];
        assert!(mask_subset(
            &CorProfile::new(&holey),
            &CorProfile::new(&complete)
        ));
        assert_bit_identical(&holey, &complete);
        assert_bit_identical(&complete, &holey);
        // Strictly nested holes, neither side complete.
        let narrow = [3.0, f64::NAN, 4.0, 1.0, f64::NAN, 9.0, 2.0, 2.0];
        let wide = [1.0, f64::NAN, 3.0, 4.0, 5.0, 6.0, 7.0, 7.0];
        assert!(mask_subset(
            &CorProfile::new(&narrow),
            &CorProfile::new(&wide)
        ));
        assert!(!mask_subset(
            &CorProfile::new(&wide),
            &CorProfile::new(&narrow)
        ));
        assert_bit_identical(&narrow, &wide);
        assert_bit_identical(&wide, &narrow);
        // Incomparable masks still go through the two-sided fallback.
        let left = [1.0, f64::NAN, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let right = [2.0, 4.0, 6.0, f64::NAN, 10.0, 12.0, 15.0, 16.0];
        assert!(!mask_subset(
            &CorProfile::new(&left),
            &CorProfile::new(&right)
        ));
        assert_bit_identical(&left, &right);
    }

    #[test]
    fn combined_tests_match_individual_functions() {
        // One scratch across all three mask tiers and back: no buffer may
        // carry state from one pair into the next.
        let x = [1.0, 2.0, f64::NAN, 4.0, 4.0, 6.0, 7.0, 8.0];
        let y = [2.0, 4.0, 6.0, f64::NAN, 10.0, 10.0, 15.0, 16.0];
        let z = [2.0, 9.0, 6.0, 5.0, 10.0, 1.0, 15.0, 16.0];
        let w = [3.0, 9.0, f64::NAN, 5.0, 3.0, 1.0, 15.0, 16.0];
        let mut scratch = CorScratch::new();
        for (a, b) in [(&x, &y), (&x, &z), (&z, &x), (&x, &w), (&x, &y), (&w, &w)] {
            let (pa, pb) = (CorProfile::new(a), CorProfile::new(b));
            assert_tests_match(a, b, cor_tests_profiled(&pa, &pb, &mut scratch));
        }
        // Too few shared observations degenerate every coefficient.
        let (pa, pb) = (
            CorProfile::new(&[1.0, f64::NAN, 3.0, 4.0]),
            CorProfile::new(&[1.0, 2.0, f64::NAN, 4.0]),
        );
        let (p, s, k) = cor_tests_profiled(&pa, &pb, &mut scratch);
        assert_eq!((p.value, p.n), (0.0, 2));
        assert_eq!((s.value, s.n), (0.0, 2));
        assert_eq!((k.value, k.n), (0.0, 2));
    }

    #[test]
    fn sorted_values_match_direct_sort() {
        let x = [5.0, f64::NAN, 1.0, 3.0, -0.0, 0.0, 3.0, 8.0, f64::NAN];
        let p = CorProfile::new(&x);
        let mut expect: Vec<f64> = x.iter().copied().filter(|v| v.is_finite()).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = p.sorted_values();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn profile_reports_mask_facts() {
        let p = CorProfile::new(&[1.0, f64::NAN, 3.0]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.n_finite(), 2);
        assert!(!p.is_complete());
        assert!(!p.is_empty());
        let q = CorProfile::new(&[1.0, 2.0, 3.0]);
        assert!(q.is_complete());
        assert!(!p.same_mask(&q));
        assert!(q.same_mask(&q.clone()));
    }
}
