//! Property tests for the `kernels` layer: the fast lanes must never
//! silently diverge from the exact paths they replace.
//!
//! Six contracts are pinned here:
//!
//! 1. the moment folds ([`mean_and_sxx`], [`mean_and_sxx_welford`]) stay
//!    within analytic error bounds of the Kahan-compensated reference on
//!    adversarial magnitude mixes (1e±12) and on gappy series;
//! 2. the `f32` fast lane plus its re-verification band never *decides*
//!    against the exact `f64` comparison — near-threshold cases must come
//!    back [`FastDecision::Reverify`], everything else must agree;
//! 3. the Kendall tie-run refinement (exercised through
//!    [`cor_tests_profiled`]) matches a naive O(n²) concordance count on
//!    every tie shape — all-tied heads and tails, singleton runs, and runs
//!    spanning the merge kernel's chunk boundary;
//! 4. the small-domain counting lanes behind [`rank_series`] and
//!    [`count_inversions`], and the strided KS sup-scan, are bit-identical
//!    to their comparison-based fallbacks on inputs that straddle the lane
//!    boundary (negatives, offsets past the fused probe's window,
//!    `-0.0`/`0.0` mixes, non-integral values);
//! 5. the wide-span integral lanes — the radix ranks behind
//!    [`rank_series`] and the rank-key Kendall count behind
//!    [`cor_tests_profiled`] — are bit-identical to the comparison sort and
//!    to from-scratch [`kendall`] across the length cutoff, the 2³² span
//!    gate, signed zeros and all three mask tiers (which lane a series
//!    takes is pinned by the `kernels` unit tests);
//! 6. the selection-based [`BoxplotStats::from_samples`] and [`quantile`]
//!    match a sort-based reference in every field, bit for bit.

use proptest::prelude::*;
use wtts_stats::corprofile::{cor_tests_profiled, CorProfile, CorScratch};
use wtts_stats::kernels::{
    count_inversions, f32_lane_band, fast_lane_decision, ks_sup_scan, ks_sup_scan_reference,
    mean_and_sxx, mean_and_sxx_kahan, mean_and_sxx_welford, pearson_r_f32, ranks_from_sorted_pairs,
    stable_value_sort, sxy_fold, FastDecision,
};
use wtts_stats::{kendall, quantile, rank_series, BoxplotStats};

// ---------------------------------------------------------------------------
// Shared references
// ---------------------------------------------------------------------------

/// Naive O(n²) inversion count — pairs `i < j` with `v[i] > v[j]`.
fn naive_inversions(v: &[f64]) -> u64 {
    let mut inv = 0u64;
    for i in 0..v.len() {
        for j in i + 1..v.len() {
            if v[i] > v[j] {
                inv += 1;
            }
        }
    }
    inv
}

/// Naive O(n²) Kendall τ-b over complete pairs.
fn naive_tau_b(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len();
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut tied_x, mut tied_y) = (0i64, 0i64);
    // NB: not `f64::signum` — that maps ±0.0 to ±1.0, which would count
    // tied pairs as concordant.
    let sign = |a: f64, b: f64| (a > b) as i64 - (a < b) as i64;
    for i in 0..n {
        for j in i + 1..n {
            let dx = sign(xs[i], xs[j]);
            let dy = sign(ys[i], ys[j]);
            if dx == 0 && dy == 0 {
                continue;
            } else if dx == 0 {
                tied_x += 1;
            } else if dy == 0 {
                tied_y += 1;
            } else if dx == dy {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let nx = concordant + discordant + tied_x;
    let ny = concordant + discordant + tied_y;
    if nx == 0 || ny == 0 {
        return f64::NAN;
    }
    (concordant - discordant) as f64 / ((nx as f64) * (ny as f64)).sqrt()
}

/// Rank artifacts through the frozen pair-sort path, bypassing the
/// counting lane — the differential reference for `rank_series`.
fn rank_reference(xs: &[f64]) -> (Vec<u32>, Vec<f64>, Vec<usize>) {
    let mut kv = Vec::new();
    stable_value_sort(xs, &mut kv);
    let mut ranks = Vec::new();
    let mut ties = Vec::new();
    ranks_from_sorted_pairs(&kv, &mut ranks, &mut ties);
    (kv.iter().map(|p| p.1).collect(), ranks, ties)
}

fn assert_rank_matches(xs: &[f64], label: &str) {
    let ranked = rank_series(xs);
    let (order_ref, ranks_ref, ties_ref) = rank_reference(xs);
    assert_eq!(ranked.order, order_ref, "order: {label}");
    assert_eq!(ranked.ranks.len(), ranks_ref.len(), "rank len: {label}");
    for (i, (a, b)) in ranked.ranks.iter().zip(&ranks_ref).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "rank {i}: {label}");
    }
    assert_eq!(ranked.ties, ties_ref, "ties: {label}");
}

/// The profiled Kendall test is bit-identical to from-scratch [`kendall`]
/// and agrees with the naive τ-b over the pairwise-complete observations.
fn assert_kendall_matches(xs: &[f64], ys: &[f64], label: &str) {
    let (a, b) = (CorProfile::new(xs), CorProfile::new(ys));
    let mut scratch = CorScratch::new();
    let (_, _, fast) = cor_tests_profiled(&a, &b, &mut scratch);
    let reference = kendall(xs, ys);
    assert_eq!(fast.n, reference.n, "n: {label}");
    assert_eq!(
        fast.value.to_bits(),
        reference.value.to_bits(),
        "tau: {label}"
    );
    assert_eq!(
        fast.p_value.to_bits(),
        reference.p_value.to_bits(),
        "p: {label}"
    );
    let (cx, cy): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .unzip();
    if cx.len() < 3 {
        assert_eq!(fast.value, 0.0, "too few pairs: {label}");
        return;
    }
    let naive = naive_tau_b(&cx, &cy);
    if naive.is_nan() {
        // Degenerate convention: value 0.0, p 1.0 (CorrelationTest::degenerate).
        assert_eq!(fast.value, 0.0, "degenerate tau convention: {label}");
        assert_eq!(fast.p_value, 1.0, "degenerate p convention: {label}");
    } else {
        assert!(
            (fast.value - naive).abs() < 1e-12,
            "tau mismatch: {} vs {naive}: {label}",
            fast.value
        );
    }
}

// ---------------------------------------------------------------------------
// Targeted tie-shape edge cases (satellite: kendall_refine)
// ---------------------------------------------------------------------------

/// All-tied head: the first tie run starts at index 0 and spans past the
/// merge kernel's 32-wide chunk base.
#[test]
fn kendall_all_tied_head() {
    let n = 80;
    let xs: Vec<f64> = (0..n)
        .map(|i| if i < 40 { 1.0 } else { i as f64 })
        .collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64).collect();
    assert_kendall_matches(&xs, &ys, "all-tied head");
}

/// All-tied tail: the last tie run runs to the end of the series.
#[test]
fn kendall_all_tied_tail() {
    let n = 80;
    let xs: Vec<f64> = (0..n)
        .map(|i| if i >= 30 { 99.0 } else { i as f64 })
        .collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64).collect();
    assert_kendall_matches(&xs, &ys, "all-tied tail");
}

/// Fully tied x: every pair is an x-tie; τ-b is degenerate (nx = 0).
#[test]
fn kendall_fully_tied_x() {
    let xs = vec![3.0; 40];
    let ys: Vec<f64> = (0..40).map(|i| (i % 7) as f64).collect();
    assert_kendall_matches(&xs, &ys, "fully tied x");
}

/// Singleton runs only: strictly increasing x skips refinement entirely.
#[test]
fn kendall_singleton_runs() {
    let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let ys: Vec<f64> = (0..64).map(|i| ((i * 29) % 64) as f64).collect();
    assert_kendall_matches(&xs, &ys, "singleton runs");
}

/// A tie run straddling the 32-wide insertion-sort chunk boundary of the
/// inversion merge (indices 24..40 share one x value).
#[test]
fn kendall_run_spanning_chunk_boundary() {
    let n = 72;
    let xs: Vec<f64> = (0..n)
        .map(|i| if (24..40).contains(&i) { 5.0 } else { i as f64 })
        .collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64).collect();
    assert_kendall_matches(&xs, &ys, "run spanning chunk boundary");
}

/// Alternating two-value x: maximal run count with runs of length n/2.
#[test]
fn kendall_two_value_x() {
    let n = 66;
    let xs: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 19) % 23) as f64).collect();
    assert_kendall_matches(&xs, &ys, "two-value x");
}

// ---------------------------------------------------------------------------
// Targeted small-domain lane boundaries (rank + inversions)
// ---------------------------------------------------------------------------

/// Signed zeros share a bucket and a tie run; the counting lane must keep
/// the input's `-0.0` bits in the same stable positions the sort would.
#[test]
fn rank_signed_zero_mix() {
    let xs = [0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -0.0];
    assert_rank_matches(&xs, "signed zero mix");
    let mut v = xs.to_vec();
    let mut tmp = Vec::new();
    let inv = count_inversions(&mut v, &mut tmp);
    assert_eq!(inv, naive_inversions(&xs));
    // Sorted output preserves the sign bits of the zeros, in input order.
    let zeros: Vec<u64> = v[..5].iter().map(|z| z.to_bits()).collect();
    let expected: Vec<u64> = [0.0f64, -0.0, -0.0, 0.0, -0.0]
        .iter()
        .map(|z| z.to_bits())
        .collect();
    assert_eq!(zeros, expected, "stable counting sort must keep zero signs");
}

/// Values offset far past the fused probe's 512-bucket window exercise the
/// histogram rebuild path; negatives exercise it too.
#[test]
fn rank_offset_and_negative_domains() {
    let offset: Vec<f64> = (0..200)
        .map(|i| 100_000.0 + ((i * 37) % 90) as f64)
        .collect();
    assert_rank_matches(&offset, "offset domain");
    let negative: Vec<f64> = (0..200).map(|i| -250.0 + ((i * 53) % 400) as f64).collect();
    assert_rank_matches(&negative, "negative domain");
    for base in [&offset, &negative] {
        let mut v = base.clone();
        let mut tmp = Vec::new();
        assert_eq!(count_inversions(&mut v, &mut tmp), naive_inversions(base));
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }
}

/// Range exactly at the acceptance boundary (`range = max(n, 512) − 1`
/// accepted, anything wider takes the comparison path) — both sides must
/// agree bit for bit.
#[test]
fn rank_range_boundary() {
    let n = 64usize;
    let cap = n.max(512) as f64;
    let accepted: Vec<f64> = (0..n)
        .map(|i| {
            if i == 0 {
                0.0
            } else {
                cap - 1.0 - (i % 7) as f64
            }
        })
        .collect();
    assert_rank_matches(&accepted, "range just inside");
    let rejected: Vec<f64> = (0..n)
        .map(|i| {
            if i == 0 {
                0.0
            } else {
                cap + 1.0 - (i % 7) as f64
            }
        })
        .collect();
    assert_rank_matches(&rejected, "range just outside");
}

// ---------------------------------------------------------------------------
// Wide-span integral lanes: radix ranks and rank-key Kendall counts
// ---------------------------------------------------------------------------

/// Deterministic wide-span integral series: raw bytes/min scale values
/// (span ≫ n) from a xorshift stream, with every `tie_every`-th value a
/// repeat of an earlier one.
fn wide_series(n: usize, span: u64, base: f64, tie_every: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let mut out: Vec<f64> = Vec::with_capacity(n);
    for i in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if tie_every > 0 && i >= 3 && i % tie_every == 0 {
            out.push(out[i - 3]);
        } else {
            out.push(base + (state % span) as f64);
        }
    }
    out
}

/// The length cutoff: short wide series keep the comparison sort, longer
/// ones take the radix lane (sorted by quicksort, or by LSD radix passes
/// from ~8k points), and all match the reference.
#[test]
fn radix_lengths_straddle_the_cutoff() {
    for n in [2usize, 8, 15, 16, 17, 31, 32, 64, 1000, 8191, 8192, 9001] {
        let xs = wide_series(n, 300_000_000, 0.0, 5, n as u64);
        assert_rank_matches(&xs, &format!("wide n={n}"));
    }
}

/// Span 2³² − 1 is the widest the radix lane takes; span 2³² falls back.
/// Both match the reference.
#[test]
fn radix_span_gate() {
    let top = 4_294_967_295.0;
    for span in [top, top + 1.0] {
        for (n, base) in [
            (300, 0.0),
            (300, -2_000_000_000.0),
            (300, 1e15),
            (9000, -7.0),
        ] {
            let mut xs = wide_series(n, 1 << 31, base, 4, 7);
            xs[17] = base;
            xs[230] = base + span;
            assert_rank_matches(&xs, &format!("span {span} base {base}"));
        }
    }
}

/// Negative and offset minima, and signed zeros inside a wide span: equal
/// values (both zeros included) keep input order.
#[test]
fn radix_offsets_and_signed_zeros() {
    for n in [500, 10_000] {
        for base in [-3e8, -1.5e8, 7e9, 2f64.powi(60)] {
            let xs = wide_series(n, 300_000_000, base, 3, 11);
            assert_rank_matches(&xs, &format!("n {n} base {base}"));
        }
        let mut xs = wide_series(n, 300_000_000, -1e8, 6, 13);
        for i in (0..n).step_by(5) {
            xs[i] = if i % 3 == 0 { -0.0 } else { 0.0 };
        }
        assert_rank_matches(&xs, &format!("n {n}: signed zeros in a wide span"));
    }
}

/// Non-integral wide input takes the comparison fallback and matches too.
#[test]
fn wide_non_integral_input_matches() {
    let mut xs = wide_series(300, 300_000_000, 0.0, 4, 17);
    xs[100] += 0.5;
    assert_rank_matches(&xs, "non-integral wide");
}

/// NaN in a wide integral series still panics, as on every lane.
#[test]
#[should_panic(expected = "finite inputs")]
fn radix_input_with_nan_panics() {
    let mut xs = wide_series(300, 300_000_000, 0.0, 4, 19);
    xs[150] = f64::NAN;
    let _ = rank_series(&xs);
}

/// ±∞ in a wide integral series panics too.
#[test]
#[should_panic(expected = "finite inputs")]
fn radix_input_with_infinity_panics() {
    let mut xs = wide_series(300, 300_000_000, 0.0, 4, 23);
    xs[10] = f64::INFINITY;
    let _ = rank_series(&xs);
}

/// Rank-key Kendall on wide pairs with x-, y- and joint ties, in all three
/// mask tiers of `cor_tests_profiled`: equal masks, one mask inside the
/// other, incomparable masks.
#[test]
fn rank_key_kendall_wide_pairs_all_tiers() {
    let n = 700;
    let xs = wide_series(n, 300_000_000, 0.0, 3, 29);
    let mut ys = wide_series(n, 200_000_000, -5e7, 4, 31);
    // Joint ties: where x repeats, repeat y with the same lag.
    for i in (3..n).step_by(6) {
        ys[i] = ys[i - 3];
    }
    let hole = |v: &[f64], every: usize, phase: usize| -> Vec<f64> {
        v.iter()
            .enumerate()
            .map(|(i, &x)| if i % every == phase { f64::NAN } else { x })
            .collect()
    };
    assert_kendall_matches(&xs, &ys, "equal masks, complete");
    assert_kendall_matches(&hole(&xs, 9, 2), &hole(&ys, 9, 2), "equal masks, holey");
    assert_kendall_matches(&xs, &hole(&ys, 7, 1), "subset mask (y narrower)");
    assert_kendall_matches(&hole(&xs, 5, 0), &ys, "subset mask (x narrower)");
    assert_kendall_matches(&hole(&xs, 5, 0), &hole(&ys, 7, 3), "incomparable masks");
    // A long x-tie run (idle minutes) forces the large-run refinement.
    let mut idle = xs.clone();
    for v in idle.iter_mut().step_by(2) {
        *v = 0.0;
    }
    assert_kendall_matches(&idle, &ys, "long x-tie run");
    assert_kendall_matches(&ys, &idle, "long y-tie run");
}

// ---------------------------------------------------------------------------
// Selection-based order statistics (boxplot whiskers and quantiles)
// ---------------------------------------------------------------------------

/// The sort-based type-7 quantile the selection path replaced.
fn quantile_sorted_reference(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

fn sorted_finite(xs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

/// The sort-based boxplot the selection path replaced.
fn boxplot_reference(xs: &[f64]) -> Option<BoxplotStats> {
    let v = sorted_finite(xs);
    if v.is_empty() {
        return None;
    }
    let q1 = quantile_sorted_reference(&v, 0.25);
    let q3 = quantile_sorted_reference(&v, 0.75);
    let iqr = q3 - q1;
    let hi_fence = q3 + 1.5 * iqr;
    let lo_fence = q1 - 1.5 * iqr;
    let upper_whisker = v.iter().copied().rfind(|&x| x <= hi_fence).unwrap_or(q3);
    let lower_whisker = v.iter().copied().find(|&x| x >= lo_fence).unwrap_or(q1);
    Some(BoxplotStats {
        min: v[0],
        q1,
        median: quantile_sorted_reference(&v, 0.5),
        q3,
        max: v[v.len() - 1],
        upper_whisker,
        lower_whisker,
        upper_outliers: v.iter().filter(|&&x| x > upper_whisker).count(),
        lower_outliers: v.iter().filter(|&&x| x < lower_whisker).count(),
        n: v.len(),
    })
}

fn assert_boxplot_matches(xs: &[f64], label: &str) {
    let got = BoxplotStats::from_samples(xs);
    let want = boxplot_reference(xs);
    let (Some(got), Some(want)) = (got, want) else {
        assert_eq!(got.is_none(), want.is_none(), "presence: {label}");
        return;
    };
    let bits = |b: &BoxplotStats| {
        [
            b.min,
            b.q1,
            b.median,
            b.q3,
            b.max,
            b.upper_whisker,
            b.lower_whisker,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(bits(&got), bits(&want), "fields: {label}");
    assert_eq!(
        (got.upper_outliers, got.lower_outliers, got.n),
        (want.upper_outliers, want.lower_outliers, want.n),
        "counts: {label}"
    );
    let sorted = sorted_finite(xs);
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        assert_eq!(
            quantile(xs, q).to_bits(),
            quantile_sorted_reference(&sorted, q).to_bits(),
            "quantile {q}: {label}"
        );
    }
}

/// Every short length, all-equal inputs, heavy ties, signed-zero mixes
/// and non-finite holes.
#[test]
fn boxplot_selection_matches_sort_reference() {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("empty", vec![]),
        ("all missing", vec![nan, inf, -inf]),
        ("n=1", vec![4.0]),
        ("n=2", vec![9.0, -1.0]),
        ("n=3", vec![3.0, 1.0, 2.0]),
        ("n=4", vec![4.0, 1.0, 3.0, 2.0]),
        ("n=5", vec![5.0, 1.0, 4.0, 2.0, 3.0]),
        ("all equal", vec![7.0; 9]),
        ("all zero, mixed signs", vec![0.0, -0.0, -0.0, 0.0, -0.0]),
        ("all negative zero", vec![-0.0; 6]),
        (
            "heavy ties",
            vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 50.0, 1.0, 2.0],
        ),
        (
            "zero quartiles with signs",
            vec![0.0, -0.0, 5.0, -0.0, 0.0, 0.0, -0.0, 9000.0, -0.0, 0.0, 3.0],
        ),
        ("negative zero max", vec![-5.0, -0.0, -3.0, 0.0, -0.0]),
        ("negative zero min", vec![-0.0, 2.0, 0.0, 3.0, -0.0, 1.0]),
        (
            "holes",
            vec![nan, 3.0, inf, -0.0, 8.0, nan, 0.0, -inf, 2.0, 1e9],
        ),
        (
            "outliers both sides",
            vec![-1e9, 1.0, 2.0, 3.0, 2.0, 1.0, 4.0, 1e9],
        ),
    ];
    for (label, xs) in &cases {
        assert_boxplot_matches(xs, label);
    }
    // Every length 1..=5 over every sign pattern of zeros and ones.
    for n in 1..=5usize {
        for pattern in 0..3usize.pow(n as u32) {
            let mut p = pattern;
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    let v = [0.0, -0.0, 1.0][p % 3];
                    p /= 3;
                    v
                })
                .collect();
            assert_boxplot_matches(&xs, &format!("pattern {pattern} n={n}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// Values spanning twelve orders of magnitude in both signs.
fn adversarial(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![-1e12f64..1e12, -1e-12f64..1e-12, -1e6f64..1e6, Just(0.0f64),],
        len,
    )
}

/// Integral series whose domain straddles every counting-lane boundary:
/// dense-small (fused probe), offset (rebuild), negative (rebuild), and
/// wide (comparison fallback).
fn lane_straddling(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec((0i64..400).prop_map(|v| v as f64), len.clone()),
        prop::collection::vec((900i64..1300).prop_map(|v| v as f64), len.clone()),
        prop::collection::vec((-200i64..200).prop_map(|v| v as f64), len.clone()),
        prop::collection::vec((0i64..100_000).prop_map(|v| v as f64), len.clone()),
        prop::collection::vec(-1e3f64..1e3, len),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact and Welford folds stay within the analytic error bound of the
    /// Kahan reference on adversarial magnitude mixes.
    #[test]
    fn moment_folds_pin_to_kahan(vals in adversarial(1..400)) {
        let (m_exact, s_exact) = mean_and_sxx(&vals);
        let (m_welford, s_welford) = mean_and_sxx_welford(&vals);
        let (m_ref, s_ref) = mean_and_sxx_kahan(&vals);
        let n = vals.len() as f64;
        let scale = vals.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1.0);
        let mean_tol = n * scale * f64::EPSILON * 4.0;
        prop_assert!((m_exact - m_ref).abs() <= mean_tol, "exact mean {m_exact} vs {m_ref}");
        prop_assert!((m_welford - m_ref).abs() <= mean_tol, "welford mean {m_welford} vs {m_ref}");
        let sxx_tol = n * scale * scale * f64::EPSILON * 8.0 + s_ref * n * f64::EPSILON * 8.0;
        prop_assert!((s_exact - s_ref).abs() <= sxx_tol, "exact sxx {s_exact} vs {s_ref}");
        prop_assert!((s_welford - s_ref).abs() <= sxx_tol, "welford sxx {s_welford} vs {s_ref}");
        prop_assert!(s_exact >= -sxx_tol && s_welford >= 0.0, "sxx must not go negative");
    }

    /// NaN gaps: the profile's finite filter composes with the folds — a
    /// gappy series' profile moments equal the folds over the compacted
    /// values exactly.
    #[test]
    fn moment_folds_through_nan_gaps(
        vals in adversarial(4..200),
        gaps in prop::collection::vec((0u8..2).prop_map(|v| v == 1), 4..200),
    ) {
        let gappy: Vec<f64> = vals
            .iter()
            .zip(gaps.iter().cycle())
            .map(|(&v, &g)| if g { f64::NAN } else { v })
            .collect();
        let kept: Vec<f64> = gappy.iter().copied().filter(|v| v.is_finite()).collect();
        let profile = CorProfile::new(&gappy);
        let (m, s) = mean_and_sxx(&kept);
        prop_assert_eq!(profile.mean().to_bits(), m.to_bits());
        prop_assert_eq!(profile.sxx().to_bits(), s.to_bits());
    }

    /// Zero silent divergence: whenever the f32 lane *decides* (does not
    /// ask for re-verification), the exact f64 comparison agrees.
    #[test]
    fn f32_lane_never_silently_diverges(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 8..300),
        threshold in -1.0f64..1.0,
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let (mx, sxx) = mean_and_sxx(&xs);
        let (my, syy) = mean_and_sxx(&ys);
        if !(sxx > 1e-9 && syy > 1e-9) {
            continue;
        }
        let r_exact = sxy_fold(&xs, &ys, mx, my) / (sxx * syy).sqrt();
        let r_fast = pearson_r_f32(&xs, &ys, mx, my, sxx, syy);
        let band = f32_lane_band(xs.len());
        prop_assert!((r_fast - r_exact).abs() <= band,
            "f32 lane drifted outside its band: {r_fast} vs {r_exact}");
        match fast_lane_decision(r_fast, threshold, band) {
            FastDecision::AtLeast => prop_assert!(r_exact >= threshold,
                "silent divergence: fast said AtLeast, exact {r_exact} < {threshold}"),
            FastDecision::Below => prop_assert!(r_exact < threshold,
                "silent divergence: fast said Below, exact {r_exact} >= {threshold}"),
            FastDecision::Reverify => {}
        }
    }

    /// The profiled Kendall path (gather + tie-run refinement + Knight
    /// inversion count) matches the naive O(n²) τ-b on arbitrary tie
    /// shapes.
    #[test]
    fn kendall_refinement_matches_naive(
        xs in prop::collection::vec((0i64..8).prop_map(|v| v as f64), 3..60),
        ys in prop::collection::vec((0i64..8).prop_map(|v| v as f64), 3..60),
    ) {
        let n = xs.len().min(ys.len());
        assert_kendall_matches(&xs[..n], &ys[..n], "proptest tie shapes");
    }

    /// `rank_series` is bit-identical to the pair-sort reference across
    /// every lane boundary.
    #[test]
    fn rank_lanes_agree(xs in lane_straddling(0..300)) {
        assert_rank_matches(&xs, "lane straddling");
    }

    /// `count_inversions` (small-domain Fenwick lane or merge fallback)
    /// matches the naive count and sorts ascending.
    #[test]
    fn inversion_lanes_agree(xs in lane_straddling(0..200)) {
        let expected = naive_inversions(&xs);
        let mut v = xs.clone();
        let mut tmp = Vec::new();
        prop_assert_eq!(count_inversions(&mut v, &mut tmp), expected);
        prop_assert!(v.windows(2).all(|w| w[0] <= w[1]), "output must be sorted");
    }

    /// `rank_series` on wide-span integral series (radix lane above the
    /// length cutoff, comparison sort below) is bit-identical to the
    /// pair-sort reference.
    #[test]
    fn radix_rank_lane_agrees(
        pool in prop::collection::vec(-300_000_000i64..300_000_000, 1..40),
        picks in prop::collection::vec(0usize..1000, 0..400),
        zeros in prop::collection::vec(0u8..4, 0..400),
    ) {
        // Drawing from a small pool of wide values makes ties common.
        let xs: Vec<f64> = picks
            .iter()
            .zip(zeros.iter().chain(std::iter::repeat(&3)))
            .map(|(&k, &z)| match z {
                0 => 0.0,
                1 => -0.0,
                _ => pool[k % pool.len()] as f64,
            })
            .collect();
        assert_rank_matches(&xs, "wide pool");
    }

    /// Rank-key Kendall on wide-range integral pairs with ties on both
    /// sides, through every mask tier, against from-scratch `kendall` and
    /// the naive τ-b.
    #[test]
    fn rank_key_kendall_agrees(
        pairs in prop::collection::vec((0usize..12, 0usize..12, 0u8..10), 3..150),
        scale in 1_000i64..300_000_000,
    ) {
        let wide = |k: usize| (k as i64 * scale - 5 * scale) as f64;
        let xs: Vec<f64> = pairs.iter().map(|p| wide(p.0)).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| wide(p.1)).collect();
        // Hole code: 0 = x missing, 1 = y missing, 2 = both, else none.
        let mask = |v: &[f64], side: u8| -> Vec<f64> {
            v.iter()
                .zip(&pairs)
                .map(|(&x, p)| if p.2 == side || p.2 == 2 { f64::NAN } else { x })
                .collect()
        };
        assert_kendall_matches(&xs, &ys, "complete");
        assert_kendall_matches(&mask(&xs, 0), &mask(&ys, 0), "x holes on both");
        assert_kendall_matches(&xs, &mask(&ys, 1), "subset");
        assert_kendall_matches(&mask(&xs, 0), &mask(&ys, 1), "incomparable");
    }

    /// Selection-based boxplot and quantiles equal the sort-based
    /// reference on tied, signed-zero, holey samples.
    #[test]
    fn boxplot_selection_agrees(
        codes in prop::collection::vec(0u8..12, 0..120),
        spread in 1.0f64..1e6,
    ) {
        let xs: Vec<f64> = codes
            .iter()
            .map(|&c| match c {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => spread * 40.0,
                _ => (c as f64 - 7.0) * spread,
            })
            .collect();
        assert_boxplot_matches(&xs, "proptest sample");
    }

    /// The strided, integer-gated KS sup-scan is bit-identical to the
    /// per-step reference on tied, unequal-length sorted samples.
    #[test]
    fn ks_scan_lanes_agree(
        a in prop::collection::vec((0i64..40).prop_map(|v| v as f64 * 0.5), 1..200),
        b in prop::collection::vec((0i64..40).prop_map(|v| v as f64 * 0.7), 1..150),
    ) {
        let mut a = a;
        let mut b = b;
        a.sort_by(|p, q| p.partial_cmp(q).unwrap());
        b.sort_by(|p, q| p.partial_cmp(q).unwrap());
        let fast = ks_sup_scan(&a, &b);
        let reference = ks_sup_scan_reference(&a, &b);
        prop_assert_eq!(fast.to_bits(), reference.to_bits());
    }
}
