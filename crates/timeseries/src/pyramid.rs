//! Granularity pyramid: O(bins) re-binning from exact integer prefix sums.
//!
//! Definition 3 of the paper scores *every* candidate binning of a series —
//! 1–180 minutes for daily patterns, the divisor-of-24-hours grid for weekly
//! patterns — and [`aggregate`](crate::binning::aggregate) re-reads all
//! `O(series_len)` samples per candidate. A [`GranularityPyramid`] does the
//! per-minute pass **once**: it stores an integer prefix sum of the finite
//! values plus a parallel finite-count prefix, from which any
//! `(granularity, offset)` binning is a subtraction per bin. A
//! [`PyramidLevel`] additionally folds the prefixes down to one coarse
//! binning's boundaries, so candidate granularities that are multiples of a
//! shared base re-bin from `O(bins_base)` entries instead of re-touching the
//! per-minute arrays at all.
//!
//! # Exactness
//!
//! Traffic counters are integer byte counts, so the pyramid demands integer
//! values and accumulates in `i64`. Eligibility ([`GranularityPyramid::
//! try_new`] returns `None` otherwise) requires every finite sample to be an
//! integer with magnitude at most `2^53` and the running sum of magnitudes
//! to stay within `2^53`. Under those conditions every partial sum the
//! direct `f64` accumulation in `aggregate` forms is an integer of magnitude
//! `≤ 2^53`, hence exactly representable in `f64`: no addition ever rounds,
//! so the direct result *is* the mathematical integer sum — the same number
//! the prefix-sum subtraction produces — and `(psum[hi] - psum[lo]) as f64`
//! is bit-identical to the direct accumulation (IEEE-754 doubles represent
//! each integer in range uniquely, and sums of integers under the default
//! rounding never produce `-0.0`). Bin *boundaries* are computed by the very
//! same `bin_layout` routine `aggregate` uses, so the two paths cannot
//! disagree on geometry either. Non-integer series (e.g. normalized rates)
//! simply fall back to `aggregate` — the caller keeps exactness by
//! construction, not by accident.

use crate::binning::{bin_layout, BinLayout, Granularity};
use crate::series::TimeSeries;
use crate::time::Minute;

/// Largest magnitude an intermediate sum may reach while staying exactly
/// representable in `f64` (`2^53`).
const MAX_EXACT: i64 = 1 << 53;

/// Integer prefix sums of a series' finite values plus a finite-count
/// prefix, supporting exact O(bins) re-binning at any `(granularity,
/// offset)`. Build once per series with [`GranularityPyramid::try_new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GranularityPyramid {
    start: Minute,
    step: u32,
    /// `psum[i]` = sum of the finite values among the first `i` samples.
    psum: Vec<i64>,
    /// `pcnt[i]` = number of finite values among the first `i` samples.
    pcnt: Vec<u32>,
}

impl GranularityPyramid {
    /// Builds the pyramid base, or `None` when the series is not exactly
    /// representable: a finite value is non-integer, exceeds `2^53` in
    /// magnitude, or the running sum of magnitudes exceeds `2^53` (callers
    /// then fall back to [`aggregate`](crate::binning::aggregate)).
    pub fn try_new(series: &TimeSeries) -> Option<GranularityPyramid> {
        let n = series.len();
        let mut psum = Vec::with_capacity(n + 1);
        let mut pcnt = Vec::with_capacity(n + 1);
        psum.push(0);
        pcnt.push(0);
        let mut sum: i64 = 0;
        let mut cnt: u32 = 0;
        let mut abs_sum: i64 = 0;
        for &v in series.values() {
            if v.is_finite() {
                if v.fract() != 0.0 || v.abs() > MAX_EXACT as f64 {
                    return None;
                }
                let iv = v as i64;
                abs_sum += iv.abs();
                if abs_sum > MAX_EXACT {
                    return None;
                }
                sum += iv;
                cnt += 1;
            }
            psum.push(sum);
            pcnt.push(cnt);
        }
        Some(GranularityPyramid {
            start: series.start(),
            step: series.step_minutes(),
            psum,
            pcnt,
        })
    }

    /// First covered minute of the source series.
    pub fn start(&self) -> Minute {
        self.start
    }

    /// Sampling step of the source series, in minutes.
    pub fn step_minutes(&self) -> u32 {
        self.step
    }

    /// Number of source samples.
    pub fn len(&self) -> usize {
        self.psum.len() - 1
    }

    /// Whether the source series was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the last covered minute of the source series.
    fn end(&self) -> Minute {
        self.start.plus(self.len() as u32 * self.step)
    }

    /// Index of the first sample at or after absolute minute `m`, clamped
    /// to `[0, len]`. For any bin `[m, m + g)` on a lattice `offset + k*g`
    /// (`g` a multiple of the step), the samples the direct `aggregate`
    /// loop reads are exactly indices `first_idx(m) .. first_idx(m + g)`:
    /// its probes visit consecutive indices, one per step, trimmed by the
    /// same `t < start` / `t >= end` bounds this clamp applies.
    fn first_idx(&self, m: i64) -> usize {
        let start = self.start.0 as i64;
        if m <= start {
            0
        } else {
            (((m - start) / self.step as i64) as usize).min(self.len())
        }
    }

    /// Number of bins [`GranularityPyramid::rebin`] would produce at the
    /// given `(granularity, offset)` — the geometry alone, without
    /// materializing the binned series. Lag-search callers use this to size
    /// `(scale, lag)` grids and their cell-accounting totals up front.
    ///
    /// # Panics
    /// Panics if `granularity` is not a multiple of the source step.
    pub fn bin_count(&self, granularity: Granularity, offset_minutes: u32) -> usize {
        let g = granularity.as_minutes();
        assert!(
            g.is_multiple_of(self.step),
            "granularity {g}m must be a multiple of the input step {}m",
            self.step
        );
        if self.is_empty() {
            return 0;
        }
        match bin_layout(self.start.0, self.end().0, g, offset_minutes) {
            BinLayout::Empty { .. } => 0,
            BinLayout::Bins { n_bins, .. } => n_bins,
        }
    }

    /// Re-bins the source series, bit-identical to
    /// [`aggregate`](crate::binning::aggregate) at the same arguments.
    ///
    /// # Panics
    /// Panics if `granularity` is not a multiple of the source step.
    pub fn rebin(&self, granularity: Granularity, offset_minutes: u32) -> TimeSeries {
        let g = granularity.as_minutes();
        assert!(
            g.is_multiple_of(self.step),
            "granularity {g}m must be a multiple of the input step {}m",
            self.step
        );
        if self.is_empty() {
            return TimeSeries::new(self.start, g, Vec::new());
        }
        match bin_layout(self.start.0, self.end().0, g, offset_minutes) {
            BinLayout::Empty { first_bin_start } => {
                TimeSeries::new(Minute(first_bin_start), g, Vec::new())
            }
            BinLayout::Bins {
                first_bin_start,
                n_bins,
            } => {
                let mut out = Vec::with_capacity(n_bins);
                let mut lo = self.first_idx(first_bin_start as i64);
                for b in 0..n_bins {
                    let hi = self.first_idx(first_bin_start as i64 + (b as i64 + 1) * g as i64);
                    out.push(if self.pcnt[hi] == self.pcnt[lo] {
                        f64::NAN
                    } else {
                        (self.psum[hi] - self.psum[lo]) as f64
                    });
                    lo = hi;
                }
                TimeSeries::new(Minute(first_bin_start), g, out)
            }
        }
    }

    /// Folds the pyramid down to the boundaries of one `(base, offset)`
    /// binning. Coarser granularities that are multiples of `base` then
    /// re-bin from the level's `O(bins_base)` prefixes via
    /// [`PyramidLevel::rebin`] without touching the per-sample arrays.
    ///
    /// # Panics
    /// Panics if `base` is not a multiple of the source step.
    pub fn level(&self, base: Granularity, offset_minutes: u32) -> PyramidLevel {
        let g = base.as_minutes();
        assert!(
            g.is_multiple_of(self.step),
            "level base {g}m must be a multiple of the input step {}m",
            self.step
        );
        let (first_bin_start, n_bins) = if self.is_empty() {
            (self.start.0, 0)
        } else {
            match bin_layout(self.start.0, self.end().0, g, offset_minutes) {
                BinLayout::Empty { first_bin_start } => (first_bin_start, 0),
                BinLayout::Bins {
                    first_bin_start,
                    n_bins,
                } => (first_bin_start, n_bins),
            }
        };
        let mut psum = Vec::with_capacity(n_bins + 1);
        let mut pcnt = Vec::with_capacity(n_bins + 1);
        for b in 0..=n_bins {
            let idx = self.first_idx(first_bin_start as i64 + b as i64 * g as i64);
            psum.push(self.psum[idx]);
            pcnt.push(self.pcnt[idx]);
        }
        PyramidLevel {
            src_start: self.start,
            src_end: self.end(),
            src_empty: self.is_empty(),
            base: g,
            offset_minutes,
            first_bin_start,
            psum,
            pcnt,
        }
    }
}

/// One pyramid level: the prefix sums sampled at the bin boundaries of a
/// `(base, offset)` binning. Obtained from [`GranularityPyramid::level`].
///
/// Every boundary of a coarser granularity `k·base` at the *same offset*
/// lies on the level's boundary lattice (both lattices are `offset + j·m`
/// grids with `base` dividing `k·base`), so coarse re-binning is a lookup
/// plus subtraction per bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyramidLevel {
    src_start: Minute,
    src_end: Minute,
    src_empty: bool,
    base: u32,
    offset_minutes: u32,
    first_bin_start: u32,
    /// Source prefix sum at each level boundary (`n_bins + 1` entries).
    psum: Vec<i64>,
    /// Source finite-count prefix at each level boundary.
    pcnt: Vec<u32>,
}

impl PyramidLevel {
    /// The level's bin width in minutes.
    pub fn base_minutes(&self) -> u32 {
        self.base
    }

    /// The level's day-start offset in minutes.
    pub fn offset_minutes(&self) -> u32 {
        self.offset_minutes
    }

    /// Index into the level prefixes for an absolute boundary minute `m` of
    /// a coarser binning. Clamping is exact, not approximate: a boundary
    /// below the level's first one can only occur when both are at or below
    /// the series start (where the prefix is 0 either way), and a boundary
    /// past the level's last one is past the series end (where the prefix is
    /// the full-series total either way) — see the unit and property tests.
    fn boundary_idx(&self, m: i64) -> usize {
        let d = m - self.first_bin_start as i64;
        if d <= 0 {
            return 0;
        }
        debug_assert_eq!(d % self.base as i64, 0, "boundary off the level lattice");
        ((d / self.base as i64) as usize).min(self.psum.len() - 1)
    }

    /// Re-bins at a multiple of the level base and the level's own offset,
    /// bit-identical to [`aggregate`](crate::binning::aggregate) on the
    /// source series at the same arguments.
    ///
    /// # Panics
    /// Panics if `granularity` is not a multiple of the level base.
    pub fn rebin(&self, granularity: Granularity) -> TimeSeries {
        let g = granularity.as_minutes();
        assert!(
            g.is_multiple_of(self.base),
            "granularity {g}m must be a multiple of the level base {}m",
            self.base
        );
        if self.src_empty {
            return TimeSeries::new(self.src_start, g, Vec::new());
        }
        match bin_layout(self.src_start.0, self.src_end.0, g, self.offset_minutes) {
            BinLayout::Empty { first_bin_start } => {
                TimeSeries::new(Minute(first_bin_start), g, Vec::new())
            }
            BinLayout::Bins {
                first_bin_start,
                n_bins,
            } => {
                let mut out = Vec::with_capacity(n_bins);
                let mut lo = self.boundary_idx(first_bin_start as i64);
                for b in 0..n_bins {
                    let hi = self.boundary_idx(first_bin_start as i64 + (b as i64 + 1) * g as i64);
                    out.push(if self.pcnt[hi] == self.pcnt[lo] {
                        f64::NAN
                    } else {
                        (self.psum[hi] - self.psum[lo]) as f64
                    });
                    lo = hi;
                }
                TimeSeries::new(Minute(first_bin_start), g, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::aggregate;

    /// Asserts bitwise equality of two series (NaN positions included).
    fn assert_bit_identical(a: &TimeSeries, b: &TimeSeries, context: &str) {
        assert_eq!(a.start(), b.start(), "{context}: start");
        assert_eq!(a.step_minutes(), b.step_minutes(), "{context}: step");
        assert_eq!(a.len(), b.len(), "{context}: len");
        for (i, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: bin {i}: {x} vs {y} differ"
            );
        }
    }

    fn fixture(start: u32, step: u32, len: usize) -> TimeSeries {
        let values: Vec<f64> = (0..len)
            .map(|i| {
                if i % 7 == 3 {
                    f64::NAN
                } else {
                    ((i * 31 + 5) % 97) as f64 - 13.0
                }
            })
            .collect();
        TimeSeries::new(Minute(start), step, values)
    }

    #[test]
    fn rebin_matches_aggregate_across_geometries() {
        for (start, step, len) in [(0u32, 1u32, 253usize), (10, 1, 100), (7, 3, 81), (0, 2, 0)] {
            let s = fixture(start, step, len);
            let p = GranularityPyramid::try_new(&s).expect("integer series");
            for mult in [1u32, 2, 3, 5, 8, 60] {
                let g = Granularity::minutes(step * mult);
                for offset in [0u32, 1, 2, 5, 17, 120, 1000] {
                    let direct = aggregate(&s, g, offset);
                    let fast = p.rebin(g, offset);
                    assert_bit_identical(
                        &direct,
                        &fast,
                        &format!("start={start} step={step} len={len} g={g} offset={offset}"),
                    );
                }
            }
        }
    }

    #[test]
    fn level_fold_matches_aggregate() {
        for (start, step, len) in [(0u32, 1u32, 300usize), (13, 2, 77)] {
            let s = fixture(start, step, len);
            let p = GranularityPyramid::try_new(&s).unwrap();
            for base_mult in [1u32, 2, 5] {
                let base = Granularity::minutes(step * base_mult);
                for offset in [0u32, 3, 30, 500] {
                    let level = p.level(base, offset);
                    for k in [1u32, 2, 3, 7, 12] {
                        let g = Granularity::minutes(step * base_mult * k);
                        let direct = aggregate(&s, g, offset);
                        let fast = level.rebin(g);
                        assert_bit_identical(
                            &direct,
                            &fast,
                            &format!("start={start} step={step} base={base} g={g} offset={offset}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_missing_and_empty_series() {
        let missing = TimeSeries::missing(Minute(5), 1, 10);
        let p = GranularityPyramid::try_new(&missing).expect("NaN-only series is eligible");
        let fast = p.rebin(Granularity::minutes(4), 1);
        assert_bit_identical(&aggregate(&missing, Granularity::minutes(4), 1), &fast, "");
        assert!(fast.values().iter().all(|v| v.is_nan()));

        let empty = TimeSeries::new(Minute(9), 2, Vec::new());
        let p = GranularityPyramid::try_new(&empty).unwrap();
        assert!(p.is_empty());
        let fast = p.rebin(Granularity::minutes(6), 0);
        assert_bit_identical(&aggregate(&empty, Granularity::minutes(6), 0), &fast, "");
        let level = p.level(Granularity::minutes(2), 0);
        assert_bit_identical(
            &aggregate(&empty, Granularity::minutes(6), 0),
            &level.rebin(Granularity::minutes(6)),
            "",
        );
    }

    #[test]
    fn bin_count_matches_materialized_rebin() {
        for (start, step, len) in [(0u32, 1u32, 253usize), (7, 3, 81), (0, 2, 0)] {
            let s = fixture(start, step, len);
            let p = GranularityPyramid::try_new(&s).unwrap();
            for mult in [1u32, 2, 5, 60] {
                let g = Granularity::minutes(step * mult);
                for offset in [0u32, 1, 17, 1000] {
                    assert_eq!(
                        p.bin_count(g, offset),
                        p.rebin(g, offset).len(),
                        "start={start} step={step} len={len} g={g} offset={offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn offset_past_end_gives_empty_binning() {
        // First non-negative boundary lands at or past the series end.
        let s = TimeSeries::per_minute(vec![1.0, 2.0, 3.0]);
        let p = GranularityPyramid::try_new(&s).unwrap();
        let direct = aggregate(&s, Granularity::minutes(10), 5);
        let fast = p.rebin(Granularity::minutes(10), 5);
        assert_bit_identical(&direct, &fast, "empty layout");
        assert!(fast.is_empty());
    }

    #[test]
    fn negative_zero_and_mixed_signs() {
        let s = TimeSeries::per_minute(vec![-0.0, 0.0, -5.0, 5.0, f64::NAN, -0.0]);
        let p = GranularityPyramid::try_new(&s).expect("-0.0 is an integer");
        for g in [1u32, 2, 3, 6] {
            assert_bit_identical(
                &aggregate(&s, Granularity::minutes(g), 0),
                &p.rebin(Granularity::minutes(g), 0),
                &format!("g={g}"),
            );
        }
    }

    #[test]
    fn non_integer_values_are_rejected() {
        let s = TimeSeries::per_minute(vec![1.0, 2.5, 3.0]);
        assert!(GranularityPyramid::try_new(&s).is_none());
        let tiny = TimeSeries::per_minute(vec![1e-3]);
        assert!(GranularityPyramid::try_new(&tiny).is_none());
    }

    #[test]
    fn magnitude_guard_rejects_unsafe_sums() {
        let max = (1u64 << 53) as f64;
        // A single value at the cap is fine…
        let ok = TimeSeries::per_minute(vec![max]);
        assert!(GranularityPyramid::try_new(&ok).is_some());
        // …a value beyond it is not, nor is a running sum crossing it.
        let too_big = TimeSeries::per_minute(vec![2.0 * max]);
        assert!(GranularityPyramid::try_new(&too_big).is_none());
        let creeping = TimeSeries::per_minute(vec![max, 1.0]);
        assert!(GranularityPyramid::try_new(&creeping).is_none());
        // Magnitudes are what matters: cancellation does not restore safety.
        let cancelling = TimeSeries::per_minute(vec![max, -max]);
        assert!(GranularityPyramid::try_new(&cancelling).is_none());
    }

    #[test]
    #[should_panic(expected = "multiple of the input step")]
    fn rebin_rejects_non_multiple_granularity() {
        let s = TimeSeries::new(Minute(0), 2, vec![1.0; 4]);
        let p = GranularityPyramid::try_new(&s).unwrap();
        let _ = p.rebin(Granularity::minutes(3), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of the level base")]
    fn level_rebin_rejects_non_multiple_granularity() {
        let s = TimeSeries::per_minute(vec![1.0; 10]);
        let p = GranularityPyramid::try_new(&s).unwrap();
        let level = p.level(Granularity::minutes(2), 0);
        let _ = level.rebin(Granularity::minutes(3));
    }
}
