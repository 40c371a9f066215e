//! Rank transforms with tie handling.

/// Everything one stable sort of a series yields: the sort permutation,
/// the mid-ranks, and the tie-group sizes.
///
/// The three views share tie-run detection, so computing them together
/// costs one `O(n log n)` sort instead of the two sorts (plus a value
/// clone) that separate [`mid_ranks`] / [`tie_group_sizes`] calls used to
/// spend. Batch correlation profiles lean on this: ranks feed Spearman,
/// tie groups feed Kendall's variance, and the permutation seeds Knight's
/// algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSeries {
    /// Stable sort permutation: `order[k]` is the index (into the input) of
    /// the `k`-th smallest value; equal values keep their input order.
    /// Indices are `u32` — the width every downstream gather kernel uses —
    /// so the permutation flows into correlation profiles without a
    /// widening copy (series are capped at `u32::MAX` points).
    pub order: Vec<u32>,
    /// 1-based mid-ranks: ties receive the average of the ranks they
    /// occupy, the convention required by Spearman's ρ and Kendall's τ-b
    /// tie corrections.
    pub ranks: Vec<f64>,
    /// Sizes of each group of tied values, in value order; groups of size 1
    /// are omitted. Feeds the tie-corrected variance of Kendall's S.
    pub ties: Vec<usize>,
}

/// Ranks `xs` once and returns every per-series rank artifact.
///
/// Input values must be finite (filter missing data first).
///
/// # Panics
/// Panics if any value is not finite.
pub fn rank_series(xs: &[f64]) -> RankedSeries {
    use crate::kernels::{self, DomainProbe};
    // A ladder of three lanes, each chosen from the input alone and each
    // bit-identical to the comparison sort (see the kernels for the
    // identity arguments):
    //
    // 1. integral values spanning less than max(n, 512): stable counting
    //    sort in O(n + range) (`kernels::rank_small_domain`), the shape of
    //    binned traffic windows;
    // 2. integral values spanning less than 2³², at least `RADIX_MIN_LEN`
    //    long: packed `(v − min, index)` keys sorted by quicksort or, on
    //    long series, LSD radix (`kernels::rank_radix`), the shape of raw
    //    bytes/min device series, seeded with the extremes lane 1's probe
    //    already folded;
    // 3. anything else: stable `(value, index)` comparison sort, then one
    //    sequential tie walk.
    //
    // Lane 1's probe certifies every value finite whenever it reports the
    // series integral, so the explicit finite scan only runs on lane 3.
    let mut order = Vec::new();
    let mut ranks = Vec::new();
    let mut ties = Vec::new();
    let ranked = match kernels::rank_small_domain(xs, &mut order, &mut ranks, &mut ties) {
        DomainProbe::Ranked => true,
        DomainProbe::WideIntegral { min, max } => {
            kernels::rank_radix(xs, min, max, &mut order, &mut ranks, &mut ties)
        }
        DomainProbe::General => {
            assert!(
                xs.iter().all(|x| x.is_finite()),
                "mid_ranks requires finite inputs"
            );
            false
        }
    };
    if !ranked {
        let mut kv = Vec::new();
        kernels::stable_value_sort(xs, &mut kv);
        kernels::ranks_from_sorted_pairs(&kv, &mut ranks, &mut ties);
        order = kv.iter().map(|pair| pair.1).collect();
    }
    RankedSeries { order, ranks, ties }
}

/// Mid-ranks and tie-group sizes of `xs` from a single sort.
///
/// # Panics
/// Panics if any value is not finite.
pub fn ranks_and_ties(xs: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let ranked = rank_series(xs);
    (ranked.ranks, ranked.ties)
}

/// Mid-ranks (average ranks) of `xs`, 1-based: ties receive the average of
/// the ranks they occupy, the convention required by Spearman's ρ and
/// Kendall's τ-b tie corrections.
///
/// Input values must be finite (filter missing data first).
///
/// # Panics
/// Panics if any value is not finite.
pub fn mid_ranks(xs: &[f64]) -> Vec<f64> {
    rank_series(xs).ranks
}

/// Sizes of each group of tied values (groups of size 1 are omitted).
///
/// Used by the tie-corrected variance of Kendall's S statistic.
///
/// # Panics
/// Panics if any value is not finite.
pub fn tie_group_sizes(xs: &[f64]) -> Vec<usize> {
    rank_series(xs).ties
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_without_ties() {
        let r = mid_ranks(&[30.0, 10.0, 20.0]);
        assert_eq!(r, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ranks_with_ties_average() {
        // Values: 1, 2, 2, 3 -> ranks 1, 2.5, 2.5, 4
        let r = mid_ranks(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn all_equal_values() {
        let r = mid_ranks(&[5.0; 4]);
        assert_eq!(r, vec![2.5; 4]);
    }

    #[test]
    fn empty_and_single() {
        assert!(mid_ranks(&[]).is_empty());
        assert_eq!(mid_ranks(&[42.0]), vec![1.0]);
    }

    #[test]
    fn rank_sum_invariant() {
        // Ranks always sum to n(n+1)/2 regardless of ties.
        let xs = [3.0, 1.0, 3.0, 3.0, 2.0, 1.0];
        let r = mid_ranks(&xs);
        let sum: f64 = r.iter().sum();
        assert!((sum - 21.0).abs() < 1e-12);
    }

    #[test]
    fn tie_groups() {
        assert_eq!(tie_group_sizes(&[1.0, 2.0, 3.0]), Vec::<usize>::new());
        assert_eq!(tie_group_sizes(&[1.0, 2.0, 2.0, 2.0, 3.0, 3.0]), vec![3, 2]);
        assert_eq!(tie_group_sizes(&[0.0; 5]), vec![5]);
    }

    #[test]
    #[should_panic(expected = "finite inputs")]
    fn ranks_reject_nan() {
        let _ = mid_ranks(&[1.0, f64::NAN]);
    }

    #[test]
    fn combined_matches_separate_views() {
        let xs = [3.0, 1.0, 3.0, 3.0, 2.0, 1.0];
        let (ranks, ties) = ranks_and_ties(&xs);
        assert_eq!(ranks, mid_ranks(&xs));
        assert_eq!(ties, tie_group_sizes(&xs));
    }

    #[test]
    fn order_is_a_stable_sort_permutation() {
        let xs = [2.0, 1.0, 2.0, 0.5, 1.0];
        let ranked = rank_series(&xs);
        // Sorted value sequence is non-decreasing...
        let sorted: Vec<f64> = ranked.order.iter().map(|&i| xs[i as usize]).collect();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        // ...and equal values keep their input order (stability).
        assert_eq!(ranked.order, vec![3, 1, 4, 0, 2]);
    }
}
