//! Cache- and autovectorization-friendly inner-loop kernels.
//!
//! After the algorithmic layers (profiles, sketches, pyramids, energy
//! bounds) removed the redundant work, the pipeline's remaining cost is four
//! scalar inner loops: Pearson/CCF moment accumulation, the mid-rank gather
//! of the pairwise-deletion fallback, Kendall inversion counting, and the
//! KS sup-scan. This module rebuilds those loops for the machine — chunked
//! independent accumulator chains, branch-light index gathers over `u32`
//! order/pos arrays, an allocation-free bottom-up merge, and an
//! integer-scored sup-scan — while keeping every `f64` **decision value
//! bit-identical** to the straightforward loops they replace.
//!
//! # The bit-identity discipline
//!
//! `f64` addition is not associative, so *any* reordering of an `f64`
//! accumulation chain changes the result's bits, and the repo's contract
//! (`results/` CSVs bit-identical across refactors, profiled == from-scratch
//! in every test) forbids that. Each kernel therefore takes its speedup
//! from one of four bit-safe sources:
//!
//! 1. **Instruction-level parallelism across *independent* chains.**
//!    [`sxy_fold2`] interleaves the values cross-moment and the ranks
//!    cross-moment — two sums the old code ran as separate passes — in one
//!    loop. Each chain's own accumulation order is untouched; they merely
//!    overlap each other's add latency. Same idea at higher fan-out in
//!    [`dot_lags_batch`]: one sweep carries up to four lags' independent
//!    accumulators.
//! 2. **Integer-exact arithmetic.** Inversion counts ([`count_inversions`],
//!    [`count_inversions_keyed`]) and joint-tie counts ([`refine_tie_runs`])
//!    are integers; any correct algorithm produces the same integer, on the
//!    values or on any integer keys that order and tie exactly like them
//!    ([`gather_rank_keys`]), so the counting strategy is free to change.
//!    Likewise distinct integer keys have one ascending order, whichever
//!    sort finds it (the radix lane behind `rank_series`). The KS scan's
//!    record test ([`ks_sup_scan`]) is moved to exact integer
//!    cross-multiples, with the `f64` gap evaluated only at weak records —
//!    in the very order the reference scan would have used.
//! 3. **Branch removal.** [`filter_order_into`] replaces a ~50%
//!    mispredicted filter branch with an unconditional store and a counted
//!    bump; [`order_stats_gather`] gathers the sorted values once and walks
//!    tie runs over sequential memory instead of re-gathering per compare.
//! 4. **An explicit `f32` fast lane with re-verification.** Approximate
//!    results are allowed only behind [`fast_lane_decision`], which forces
//!    the exact `f64` lane whenever the approximation lands inside the
//!    error band of a decision threshold — the `ExactChecker` pattern from
//!    the motif engine, formalized here. The `f64` exact lane never changes.
//!
//! The kernels are exercised three ways: the stats crate's bit-identity
//! tests (profiled vs from-scratch), the differential proptests in
//! `tests/kernel_props.rs`, and `benches/kernels.rs`, which freezes the
//! pre-kernel loops as baselines and records per-kernel single-thread
//! speedups into `results/BENCH_kernels.json` — gated in CI by
//! `scripts/perf_gate.py` against `results/PERF_BUDGET.json`.

use crate::correlation::KendallTies;

// ---------------------------------------------------------------------------
// Mean / second-moment folds
// ---------------------------------------------------------------------------

/// Per-series mean and centered second moment with the exact accumulation
/// order `pearson_complete` uses (plain left-to-right sum, then a
/// left-to-right Σ(v − mean)² pass), so every downstream coefficient stays
/// bit-identical. This is the **exact lane**: its order is pinned by the
/// repo's CSV bit-identity contract and must not be "improved".
///
/// For error-robust variants whose order is *not* pinned, see
/// [`mean_and_sxx_welford`] and [`mean_and_sxx_kahan`]; the proptests pin
/// all three within analytic error bounds of each other on adversarial
/// magnitude mixes.
pub fn mean_and_sxx(vals: &[f64]) -> (f64, f64) {
    let n = vals.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = vals.iter().sum::<f64>() / n as f64;
    (mean, sxx_given_mean(vals, mean))
}

/// Left-to-right Σ(v − mean)² — the second pass of [`mean_and_sxx`], split
/// out for callers that already hold the mean (the gather paths accumulate
/// the value sum during the gather itself).
pub fn sxx_given_mean(vals: &[f64], mean: f64) -> f64 {
    let mut sxx = 0.0;
    for &v in vals {
        let dx = v - mean;
        sxx += dx * dx;
    }
    sxx
}

/// Chunked Welford fold: single pass, numerically robust, chunk partials
/// merged with Chan's parallel update. Not bit-compatible with
/// [`mean_and_sxx`] (different accumulation order) — use it where no cached
/// decision value depends on the bits, e.g. streaming summaries.
pub fn mean_and_sxx_welford(vals: &[f64]) -> (f64, f64) {
    const CHUNK: usize = 256;
    let mut count = 0.0f64;
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    for chunk in vals.chunks(CHUNK) {
        let mut c = 0.0f64;
        let mut m = 0.0f64;
        let mut s = 0.0f64;
        for &v in chunk {
            c += 1.0;
            let d = v - m;
            m += d / c;
            s += d * (v - m);
        }
        if count == 0.0 {
            (count, mean, m2) = (c, m, s);
        } else {
            let delta = m - mean;
            let total = count + c;
            m2 += s + delta * delta * count * c / total;
            mean += delta * c / total;
            count = total;
        }
    }
    if count == 0.0 {
        (0.0, 0.0)
    } else {
        (mean, m2)
    }
}

/// Kahan-compensated two-pass reference: the most accurate `f64` evaluation
/// available without widening the type. The proptests use it as the ground
/// truth that both [`mean_and_sxx`] and [`mean_and_sxx_welford`] are pinned
/// against on adversarial 1e±12 magnitude mixes.
pub fn mean_and_sxx_kahan(vals: &[f64]) -> (f64, f64) {
    let n = vals.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for &v in vals {
        let y = v - comp;
        let t = sum + y;
        comp = (t - sum) - y;
        sum = t;
    }
    let mean = sum / n as f64;
    let mut sxx = 0.0f64;
    let mut comp2 = 0.0f64;
    for &v in vals {
        let d = v - mean;
        let y = d * d - comp2;
        let t = sxx + y;
        comp2 = (t - sxx) - y;
        sxx = t;
    }
    (mean, sxx)
}

// ---------------------------------------------------------------------------
// Pearson / CCF cross-moment folds (kernel A)
// ---------------------------------------------------------------------------

/// The exact single-chain cross-moment Σ(x − mx)(y − my), left to right —
/// the loop `pearson_from_moments` has always run, isolated as a kernel.
#[inline]
pub fn sxy_fold(xs: &[f64], ys: &[f64], mx: f64, my: f64) -> f64 {
    let n = xs.len().min(ys.len());
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let mut sxy = 0.0;
    for i in 0..n {
        sxy += (xs[i] - mx) * (ys[i] - my);
    }
    sxy
}

/// Fused dual cross-moment: the values chain and the ranks chain of one
/// pair's Pearson + Spearman evaluation in a single loop. Each chain's own
/// left-to-right order is exactly [`sxy_fold`]'s, so both sums are
/// bit-identical to two separate passes; fusing them overlaps the two serial
/// add-latency chains (≈2× on the pair hot path) and walks the four input
/// streams once.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn sxy_fold2(
    vx: &[f64],
    vy: &[f64],
    mvx: f64,
    mvy: f64,
    rx: &[f64],
    ry: &[f64],
    mrx: f64,
    mry: f64,
) -> (f64, f64) {
    let n = vx.len().min(vy.len()).min(rx.len()).min(ry.len());
    let (vx, vy, rx, ry) = (&vx[..n], &vy[..n], &rx[..n], &ry[..n]);
    let mut sv = 0.0;
    let mut sr = 0.0;
    for i in 0..n {
        sv += (vx[i] - mvx) * (vy[i] - mvy);
        sr += (rx[i] - mrx) * (ry[i] - mry);
    }
    (sv, sr)
}

/// Plain left-to-right product fold Σ x[t]·y[t] — the CCF numerator over a
/// pre-shifted overlap, in the exact order `ccf` has always summed it.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut s = 0.0;
    for i in 0..n {
        s += x[i] * y[i];
    }
    s
}

/// Batched complete-series CCF numerators: for each `lags[l]` computes
/// Σ_t a[t+k]·b[t] (k ≥ 0) or Σ_t a[t]·b[t−k] (k < 0) over the full overlap,
/// exactly as a per-lag [`dot`] would — per-lag `t`-ascending order is
/// preserved, so every cell is bit-identical to the one-at-a-time fold.
///
/// Lags are processed in groups of four independent accumulator chains over
/// one shared sweep of the deviation arrays: adjacent surviving lags reuse
/// each other's cache lines and overlap each other's add latency, which is
/// where the batch beats `lags.len()` separate passes.
///
/// `a` and `b` must have equal length; `|lag|` must be `< a.len()`.
pub fn dot_lags_batch(a: &[f64], b: &[f64], lags: &[i64], out: &mut Vec<f64>) {
    assert_eq!(a.len(), b.len(), "CCF sides must have equal length");
    let n = a.len();
    out.clear();
    out.reserve(lags.len());
    // Resolve each lag to (x offset into a, y offset into b, overlap len).
    let resolve = |lag: i64| -> (usize, usize, usize) {
        let k = lag.unsigned_abs() as usize;
        debug_assert!(k < n, "lag magnitude must be below the series length");
        if lag >= 0 {
            (k, 0, n - k)
        } else {
            (0, k, n - k)
        }
    };
    for group in lags.chunks(4) {
        match *group {
            [l0, l1, l2, l3] => {
                let (x0, y0, n0) = resolve(l0);
                let (x1, y1, n1) = resolve(l1);
                let (x2, y2, n2) = resolve(l2);
                let (x3, y3, n3) = resolve(l3);
                let m = n0.min(n1).min(n2).min(n3);
                let mut s0 = 0.0;
                let mut s1 = 0.0;
                let mut s2 = 0.0;
                let mut s3 = 0.0;
                let consecutive = l1 == l0 + 1 && l2 == l0 + 2 && l3 == l0 + 3;
                if consecutive && l0 >= 0 {
                    // Four consecutive non-negative lags read a sliding
                    // 4-wide window of `a` against one shared `b` element:
                    // lane d sums a[k₀+d+t]·b[t], so each step costs two new
                    // loads (the window rotates through registers) and four
                    // independent multiply-adds. Each lane still folds its
                    // own terms in t-ascending order — only *loads* are
                    // shared, never accumulators.
                    let k0 = l0 as usize;
                    let aw = &a[k0..k0 + m + 3];
                    let bw = &b[..m];
                    let (mut w0, mut w1, mut w2) = (aw[0], aw[1], aw[2]);
                    for t in 0..m {
                        let w3 = aw[t + 3];
                        let bt = bw[t];
                        s0 += w0 * bt;
                        s1 += w1 * bt;
                        s2 += w2 * bt;
                        s3 += w3 * bt;
                        (w0, w1, w2) = (w1, w2, w3);
                    }
                } else if consecutive && l3 < 0 {
                    // Four consecutive negative lags mirror the same shape:
                    // lane d sums a[t]·b[|l0|−d+t], a shared `a` element
                    // against a sliding window of `b` (lane 3 leads the
                    // window since it has the smallest magnitude).
                    let k = (-l0) as usize; // ≥ 4 because l3 = l0+3 < 0
                    let bwin = &b[k - 3..k + m];
                    let aw = &a[..m];
                    let (mut w3, mut w2, mut w1) = (bwin[0], bwin[1], bwin[2]);
                    for t in 0..m {
                        let w0 = bwin[t + 3];
                        let at = aw[t];
                        s0 += at * w0;
                        s1 += at * w1;
                        s2 += at * w2;
                        s3 += at * w3;
                        (w3, w2, w1) = (w2, w1, w0);
                    }
                } else {
                    // Generic group: exact-length lane slices let the shared
                    // loop run without per-access bounds checks (`t < m =
                    // slice len` is visible to the optimizer), which is what
                    // lets the four chains actually overlap.
                    let (a0, b0) = (&a[x0..x0 + m], &b[y0..y0 + m]);
                    let (a1, b1) = (&a[x1..x1 + m], &b[y1..y1 + m]);
                    let (a2, b2) = (&a[x2..x2 + m], &b[y2..y2 + m]);
                    let (a3, b3) = (&a[x3..x3 + m], &b[y3..y3 + m]);
                    for t in 0..m {
                        s0 += a0[t] * b0[t];
                        s1 += a1[t] * b1[t];
                        s2 += a2[t] * b2[t];
                        s3 += a3[t] * b3[t];
                    }
                }
                // Finish each lane's tail in its own (t-ascending) order.
                for t in m..n0 {
                    s0 += a[x0 + t] * b[y0 + t];
                }
                for t in m..n1 {
                    s1 += a[x1 + t] * b[y1 + t];
                }
                for t in m..n2 {
                    s2 += a[x2 + t] * b[y2 + t];
                }
                for t in m..n3 {
                    s3 += a[x3 + t] * b[y3 + t];
                }
                out.extend_from_slice(&[s0, s1, s2, s3]);
            }
            _ => {
                for &lag in group {
                    let (x, y, len) = resolve(lag);
                    out.push(dot(&a[x..x + len], &b[y..y + len]));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f32 fast lane (kernel A's approximate tier)
// ---------------------------------------------------------------------------

/// Pearson's r computed in an 8-wide chunked `f32` accumulator fold —
/// roughly half the memory traffic and a vectorizable reduction, at `f32`
/// accuracy. **Never a decision value on its own**: route the result
/// through [`fast_lane_decision`] with [`f32_lane_band`] so anything near a
/// threshold is re-verified on the exact `f64` lane.
pub fn pearson_r_f32(xs: &[f64], ys: &[f64], mx: f64, my: f64, sxx: f64, syy: f64) -> f64 {
    let n = xs.len().min(ys.len());
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let (mxf, myf) = (mx as f32, my as f32);
    let mut acc = [0.0f32; 8];
    let mut i = 0;
    while i + 8 <= n {
        for (lane, slot) in acc.iter_mut().enumerate() {
            *slot += (xs[i + lane] as f32 - mxf) * (ys[i + lane] as f32 - myf);
        }
        i += 8;
    }
    let mut tail = 0.0f32;
    while i < n {
        tail += (xs[i] as f32 - mxf) * (ys[i] as f32 - myf);
        i += 1;
    }
    let sxy = acc.iter().sum::<f32>() as f64 + tail as f64;
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// Conservative bound on `|r_f32 − r_f64|` for an `n`-point
/// [`pearson_r_f32`] fold: the rounding of each product and each partial sum
/// contributes O(ε₃₂) relative to Σ|dx·dy| ≤ √(sxx·syy) (Cauchy–Schwarz),
/// so the error in r is below `n·ε₃₂` with the constant folded in for
/// slack. Decisions whose margin is inside this band must re-verify.
pub fn f32_lane_band(n: usize) -> f64 {
    8.0 * n as f64 * f32::EPSILON as f64
}

/// Outcome of comparing a fast-lane approximation against a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastDecision {
    /// Approximation is below the threshold by more than the band.
    Below,
    /// Approximation meets the threshold by more than the band.
    AtLeast,
    /// Too close to call at fast-lane accuracy — recompute on the exact
    /// `f64` lane before deciding.
    Reverify,
}

/// The re-verification band test: trust the fast lane only when it clears
/// the threshold by more than `band` in either direction. This is the
/// decision rule the motif engine's `ExactChecker` has always applied to
/// the `f32` condensed-matrix entries, shared here so every fast-lane
/// consumer uses the same arithmetic.
#[inline]
pub fn fast_lane_decision(approx: f64, threshold: f64, band: f64) -> FastDecision {
    if (approx - threshold).abs() <= band {
        FastDecision::Reverify
    } else if approx >= threshold {
        FastDecision::AtLeast
    } else {
        FastDecision::Below
    }
}

// ---------------------------------------------------------------------------
// Mid-rank gather kernels (kernel B)
// ---------------------------------------------------------------------------

/// Index types the order/gather kernels accept: the profiles' compact `u32`
/// orders and the rank module's `usize` orders monomorphize to the same
/// branch-light loops.
pub trait SortIndex: Copy {
    fn ix(self) -> usize;
}

impl SortIndex for u32 {
    #[inline(always)]
    fn ix(self) -> usize {
        self as usize
    }
}

impl SortIndex for usize {
    #[inline(always)]
    fn ix(self) -> usize {
        self
    }
}

/// Gathers `values` along `order` into `out` (`out[k] = values[order[k]]`):
/// one indexed load and one sequential store per element.
pub fn gather_values<I: SortIndex>(order: &[I], values: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(order.iter().map(|&k| values[k.ix()]));
}

/// Filters a sort order down to a gathered intersection: `out[k]` is the
/// gathered position of the k-th smallest surviving value, where `pos`
/// maps full-compaction indices to gathered positions (`u32::MAX` =
/// dropped).
///
/// The filter predicate is data-dependent and ~50% taken on independently
/// holey masks, so the old `if … push` form paid a misprediction per
/// element. This form stores unconditionally and bumps the length by the
/// predicate — branch-free in the loop body.
pub fn filter_order_into(order: &[u32], pos: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.resize(order.len(), 0);
    let mut len = 0usize;
    for &k in order {
        let g = pos[k as usize];
        out[len] = g;
        len += (g != u32::MAX) as usize;
    }
    out.truncate(len);
}

/// One walk of `values` along their sort order, producing any of: mid-ranks
/// (with `rank_series`' exact tie-averaging arithmetic), the `(start, len)`
/// tie runs (len > 1) for Kendall's y-refinement, and the tie aggregates
/// accumulated in group order exactly like `kendall_ties` over the group
/// sizes.
///
/// Unlike the Option-driven walk it replaces, this gathers the sorted
/// values into `sorted` first (one indexed load per element instead of two
/// per comparison) and then detects tie runs over sequential memory; the
/// gathered copy also feeds KS directly when the caller needs it.
pub fn order_stats_gather<I: SortIndex>(
    order: &[I],
    values: &[f64],
    sorted: &mut Vec<f64>,
    mut ranks: Option<&mut Vec<f64>>,
    mut runs: Option<&mut Vec<(u32, u32)>>,
) -> KendallTies {
    gather_values(order, values, sorted);
    let m = order.len();
    if let Some(ranks) = ranks.as_deref_mut() {
        ranks.clear();
        ranks.resize(m, 0.0);
    }
    if let Some(runs) = runs.as_deref_mut() {
        runs.clear();
    }
    let mut ties = KendallTies {
        n_tied_pairs: 0,
        vt: 0.0,
        sum_t2: 0.0,
        sum_t3: 0.0,
    };
    let sv = &sorted[..m];
    let mut i = 0;
    while i < m {
        let v = sv[i];
        let mut j = i + 1;
        while j < m && sv[j] == v {
            j += 1;
        }
        // Run is i..j (exclusive): length j - i.
        if let Some(ranks) = ranks.as_deref_mut() {
            let avg = (i + j - 1) as f64 / 2.0 + 1.0;
            for &g in &order[i..j] {
                ranks[g.ix()] = avg;
            }
        }
        if j - i > 1 {
            let t = (j - i) as u64;
            let tf = t as f64;
            ties.n_tied_pairs += t * (t - 1) / 2;
            ties.vt += tf * (tf - 1.0) * (2.0 * tf + 5.0);
            ties.sum_t2 += tf * (tf - 1.0);
            ties.sum_t3 += tf * (tf - 1.0) * (tf - 2.0);
            if let Some(runs) = runs.as_deref_mut() {
                runs.push((i as u32, (j - i) as u32));
            }
        }
        i = j;
    }
    ties
}

/// Stable `(value, index)` sort of `xs` into `kv` — the same permutation an
/// index sort with a `xs[a] ≤ xs[b]` comparator produces (stability breaks
/// value ties by input position either way), but faster: the sort compares
/// sequential pair keys instead of chasing indices through `xs`, so every
/// comparison is one cache line instead of two dependent loads.
///
/// # Panics
/// Panics if any value is NaN (infinite values order fine either way).
pub fn stable_value_sort(xs: &[f64], kv: &mut Vec<(f64, u32)>) {
    assert!(
        xs.len() <= u32::MAX as usize,
        "series too long for u32 order"
    );
    kv.clear();
    kv.extend(xs.iter().enumerate().map(|(i, &v)| (v, i as u32)));
    kv.sort_by(|p, q| p.0.partial_cmp(&q.0).expect("finite values compare"));
}

/// Mid-ranks and tie-group sizes walked off a stable `(value, index)` sort:
/// the sorted values are already sequential in `kv`, so run detection never
/// touches the original array, and ranks are written with one scatter per
/// element.
pub fn ranks_from_sorted_pairs(kv: &[(f64, u32)], ranks: &mut Vec<f64>, ties: &mut Vec<usize>) {
    ranks_from_sorted(kv, |p| p.0, |p| p.1, ranks, ties);
}

/// The tie walk behind [`ranks_from_sorted_pairs`] and [`rank_radix`], over
/// any stably sorted sequence: `key` decides which sorted neighbours tie,
/// `index` is each element's input position.
fn ranks_from_sorted<T: Copy, K: PartialEq>(
    sorted: &[T],
    key: impl Fn(T) -> K,
    index: impl Fn(T) -> u32,
    ranks: &mut Vec<f64>,
    ties: &mut Vec<usize>,
) {
    let n = sorted.len();
    ranks.clear();
    ranks.resize(n, 0.0);
    ties.clear();
    let mut i = 0;
    while i < n {
        let v = key(sorted[i]);
        let mut j = i + 1;
        while j < n && key(sorted[j]) == v {
            j += 1;
        }
        let avg = (i + j - 1) as f64 / 2.0 + 1.0;
        for &e in &sorted[i..j] {
            ranks[index(e) as usize] = avg;
        }
        if j - i > 1 {
            ties.push(j - i);
        }
        i = j;
    }
}

// ---------------------------------------------------------------------------
// Integral fast lanes: small-domain counting, wide-span radix (kernels B, C)
// ---------------------------------------------------------------------------

/// Detects the *small-domain* case: every value is an exactly-representable
/// integer and the value range is below `max(n, 512)`. Home-traffic windows
/// are overwhelmingly like this — byte/packet counts are small non-negative
/// integers — and the property unlocks O(n + range) counting algorithms in
/// place of comparison sorts. Returns `(min, bucket_count)` on success.
///
/// The scan runs four independent min/max chains (the comparison folds are
/// latency-bound, so the chains overlap) and piggybacks the integrality
/// check — an `i64` round-trip, exact for every in-range integer — on the
/// same pass. NaN and ±∞ fail the round-trip, so a `Some` return also
/// certifies the values finite.
fn small_domain(xs: &[f64]) -> Option<(f64, usize)> {
    let n = xs.len();
    let mut mn = [f64::INFINITY; 4];
    let mut mx = [f64::NEG_INFINITY; 4];
    let mut integral = true;
    let mut it = xs.chunks_exact(4);
    for p in &mut it {
        for (lane, &v) in p.iter().enumerate() {
            mn[lane] = if v < mn[lane] { v } else { mn[lane] };
            mx[lane] = if v > mx[lane] { v } else { mx[lane] };
            integral &= v as i64 as f64 == v;
        }
    }
    for &v in it.remainder() {
        mn[0] = if v < mn[0] { v } else { mn[0] };
        mx[0] = if v > mx[0] { v } else { mx[0] };
        integral &= v as i64 as f64 == v;
    }
    if !integral {
        return None;
    }
    let mn = mn
        .iter()
        .fold(f64::INFINITY, |a, &b| if b < a { b } else { a });
    let mx = mx
        .iter()
        .fold(f64::NEG_INFINITY, |a, &b| if b > a { b } else { a });
    let range = mx - mn;
    if range.is_nan() || range < 0.0 || range >= n.max(512) as f64 {
        return None;
    }
    Some((mn, range as usize + 1))
}

/// Bucket count of the optimistic fused probe in [`rank_small_domain`]:
/// one pass histograms into a fixed table of this many clamped buckets
/// *while* computing min/max/integrality, betting that values already lie
/// in `[0, OPT_R)` — true for virtually every traffic window. The table is
/// 8 KiB (4 streams × 512 × u32), so the up-front zeroing stays cheap even
/// when the bet loses.
const OPT_R: usize = 512;

/// What the fused probe of [`rank_small_domain`] learned about a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DomainProbe {
    /// Small-domain series: ranked by the counting lane, outputs written.
    Ranked,
    /// Every value is integral (so finite), but the span `max − min` is too
    /// wide to count; the extremes seed [`rank_radix`] without a rescan.
    WideIntegral { min: f64, max: f64 },
    /// Some value is non-integral or non-finite: comparison sort only.
    General,
}

/// Counting-sort rank kernel for [`small_domain`] series: the stable sort
/// permutation, mid-ranks and tie-group sizes of `xs` in O(n + range),
/// bit-identical to the comparison-sort path. Returns
/// [`DomainProbe::Ranked`] when it ranked `xs`; otherwise the outputs are
/// untouched and the verdict says whether the values are integral.
///
/// Why the artifacts are identical to a stable comparator sort plus tie
/// walk:
///
/// * distinct integral values differ by ≥ 1, so each bucket holds exactly
///   one value — a bucket *is* a tie run (`-0.0` and `0.0` share bucket 0,
///   and they are one tie run under `==` too);
/// * the scatter fills each bucket in ascending input order (the four
///   streams are consecutive index blocks with bases laid out in stream
///   order), which is exactly stability;
/// * mid-ranks use the same `(start + end − 1) / 2 + 1` arithmetic on the
///   same run boundaries.
///
/// The first pass is an *optimistic fusion* of domain probe and histogram:
/// it counts into [`OPT_R`] clamped buckets (`v as i64`, clamped to the
/// table — the same conversion the integrality check needs anyway) while
/// folding four min/max/integral lanes. One validation afterwards decides
/// everything: non-integral input rejects the lane outright; integral input
/// already inside `[0, OPT_R)` — the overwhelmingly common case — uses the
/// histogram as is; integral input that is merely *offset* (all values
/// shifted away from zero, or negative) rebuilds the histogram once against
/// base `min` and proceeds identically. Histogram and scatter run four
/// independent streams so the hot-bucket increments (bursty traffic
/// concentrates in a handful of values) pipeline instead of serializing on
/// store-to-load forwarding.
pub(crate) fn rank_small_domain(
    xs: &[f64],
    order: &mut Vec<u32>,
    ranks: &mut Vec<f64>,
    ties: &mut Vec<usize>,
) -> DomainProbe {
    let n = xs.len();
    assert!(n <= u32::MAX as usize, "series too long for u32 order");
    if n == 0 {
        order.clear();
        ranks.clear();
        ties.clear();
        return DomainProbe::Ranked;
    }
    // Quarter streams: consecutive index blocks of length q, q, q, n − 3q.
    let q = n / 4;
    let (o1, o2, o3) = (q, 2 * q, 3 * q);
    // Fused probe + histogram. The min/max folds and the `i64` round-trip
    // integrality checks run four independent lanes each, so none of the
    // latency chains serializes the loop; the clamp keeps every store in
    // bounds while the lanes decide whether the counts are usable at all.
    let inf = f64::INFINITY;
    let (mut mn0, mut mn1, mut mn2, mut mn3) = (inf, inf, inf, inf);
    let (mut mx0, mut mx1, mut mx2, mut mx3) = (-inf, -inf, -inf, -inf);
    let (mut i0, mut i1, mut i2, mut i3) = (true, true, true, true);
    let mut hist = vec![0u32; 4 * OPT_R];
    {
        let (h0, rest) = hist.split_at_mut(OPT_R);
        let (h1, rest) = rest.split_at_mut(OPT_R);
        let (h2, h3) = rest.split_at_mut(OPT_R);
        for t in 0..q {
            let (a, b, c, d) = (xs[t], xs[o1 + t], xs[o2 + t], xs[o3 + t]);
            let (ka, kb, kc, kd) = (a as i64, b as i64, c as i64, d as i64);
            i0 &= ka as f64 == a;
            i1 &= kb as f64 == b;
            i2 &= kc as f64 == c;
            i3 &= kd as f64 == d;
            mn0 = if a < mn0 { a } else { mn0 };
            mx0 = if a > mx0 { a } else { mx0 };
            mn1 = if b < mn1 { b } else { mn1 };
            mx1 = if b > mx1 { b } else { mx1 };
            mn2 = if c < mn2 { c } else { mn2 };
            mx2 = if c > mx2 { c } else { mx2 };
            mn3 = if d < mn3 { d } else { mn3 };
            mx3 = if d > mx3 { d } else { mx3 };
            h0[(ka.max(0) as usize).min(OPT_R - 1)] += 1;
            h1[(kb.max(0) as usize).min(OPT_R - 1)] += 1;
            h2[(kc.max(0) as usize).min(OPT_R - 1)] += 1;
            h3[(kd.max(0) as usize).min(OPT_R - 1)] += 1;
        }
        for &v in &xs[o3 + q..] {
            let k = v as i64;
            i3 &= k as f64 == v;
            mn3 = if v < mn3 { v } else { mn3 };
            mx3 = if v > mx3 { v } else { mx3 };
            h3[(k.max(0) as usize).min(OPT_R - 1)] += 1;
        }
    }
    // NaN and ±∞ fail the round-trip, so passing this gate also certifies
    // every value finite (the caller skips its own finite scan).
    if !(i0 & i1 & i2 & i3) {
        return DomainProbe::General;
    }
    let mn01 = if mn1 < mn0 { mn1 } else { mn0 };
    let mn23 = if mn3 < mn2 { mn3 } else { mn2 };
    let mn = if mn23 < mn01 { mn23 } else { mn01 };
    let mx01 = if mx1 > mx0 { mx1 } else { mx0 };
    let mx23 = if mx3 > mx2 { mx3 } else { mx2 };
    let mx = if mx23 > mx01 { mx23 } else { mx01 };
    let range = mx - mn;
    if range >= n.max(512) as f64 {
        return DomainProbe::WideIntegral { min: mn, max: mx };
    }
    // `off` maps a value to its bucket as `(v − off) as usize`; the fused
    // histogram used `off = 0`, valid exactly when the values sat inside
    // the clamp-free window. Offset or negative small-domain series rebuild
    // the counts against base `mn` (one extra pass; rare in practice).
    let (off, r, stride) = if mn >= 0.0 && mx < OPT_R as f64 {
        (0.0, mx as usize + 1, OPT_R)
    } else {
        let r = range as usize + 1;
        hist = vec![0u32; 4 * r];
        let (h0, rest) = hist.split_at_mut(r);
        let (h1, rest) = rest.split_at_mut(r);
        let (h2, h3) = rest.split_at_mut(r);
        for t in 0..q {
            h0[(xs[t] - mn) as usize] += 1;
            h1[(xs[o1 + t] - mn) as usize] += 1;
            h2[(xs[o2 + t] - mn) as usize] += 1;
            h3[(xs[o3 + t] - mn) as usize] += 1;
        }
        for &v in &xs[o3 + q..] {
            h3[(v - mn) as usize] += 1;
        }
        (mn, r, r)
    };
    // Exclusive prefix over (bucket, stream): each stream's slot becomes its
    // scatter base, preserving input order within every bucket. A bucket is
    // a tie run, so its mid-rank `(start + end − 1) / 2 + 1` — the same
    // integer-exact arithmetic as the sorted tie walk — is known here too;
    // memoizing it per bucket lets the scatter below emit ranks in the same
    // pass (a sequential store) instead of a second walk of the permutation.
    ties.clear();
    let mut avgs = vec![0.0f64; r];
    {
        let (h0, rest) = hist.split_at_mut(stride);
        let (h1, rest) = rest.split_at_mut(stride);
        let (h2, h3) = rest.split_at_mut(stride);
        let mut sum = 0u32;
        for b in 0..r {
            let (c0, c1, c2, c3) = (h0[b], h1[b], h2[b], h3[b]);
            let c = c0 + c1 + c2 + c3;
            h0[b] = sum;
            h1[b] = sum + c0;
            h2[b] = sum + c0 + c1;
            h3[b] = sum + c0 + c1 + c2;
            if c != 0 {
                avgs[b] = (2 * sum as usize + c as usize - 1) as f64 / 2.0 + 1.0;
                if c > 1 {
                    ties.push(c as usize);
                }
            }
            sum += c;
        }
    }
    order.clear();
    order.resize(n, 0);
    ranks.clear();
    ranks.resize(n, 0.0);
    {
        let ord = order.as_mut_slice();
        let rk = ranks.as_mut_slice();
        let (h0, rest) = hist.split_at_mut(stride);
        let (h1, rest) = rest.split_at_mut(stride);
        let (h2, h3) = rest.split_at_mut(stride);
        for t in 0..q {
            let b0 = (xs[t] - off) as usize;
            let b1 = (xs[o1 + t] - off) as usize;
            let b2 = (xs[o2 + t] - off) as usize;
            let b3 = (xs[o3 + t] - off) as usize;
            ord[h0[b0] as usize] = t as u32;
            h0[b0] += 1;
            rk[t] = avgs[b0];
            ord[h1[b1] as usize] = (o1 + t) as u32;
            h1[b1] += 1;
            rk[o1 + t] = avgs[b1];
            ord[h2[b2] as usize] = (o2 + t) as u32;
            h2[b2] += 1;
            rk[o2 + t] = avgs[b2];
            ord[h3[b3] as usize] = (o3 + t) as u32;
            h3[b3] += 1;
            rk[o3 + t] = avgs[b3];
        }
        for i in o3 + q..n {
            let b = (xs[i] - off) as usize;
            ord[h3[b] as usize] = i as u32;
            h3[b] += 1;
            rk[i] = avgs[b];
        }
    }
    DomainProbe::Ranked
}

/// Integral series shorter than this keep the comparison sort, so the
/// online tier's 8-bin windows rank exactly as before. (Packed keys are
/// faster from 8 points up on a 2-vCPU VM — 0.10 vs 0.15 µs at 8 points,
/// 0.94 vs 1.85 µs at 64 — so the cutoff only scopes the lane.)
const RADIX_MIN_LEN: usize = 16;

/// From this length on, packed keys are sorted by LSD radix instead of
/// `sort_unstable`: measured on raw bytes/min spans (~29 bits), the
/// quicksort wins below ~10k points (26 vs 32 µs at 1440) and the two-pass
/// radix above (0.68 vs 1.25 ms at 40320).
const RADIX_LSD_LEN: usize = 8192;

/// Exclusive bound on the span `max − min` the radix lane accepts: value
/// offsets must fit the high half of a `u64` key.
const RADIX_SPAN: f64 = 4_294_967_296.0;

/// Widest LSD digit; digits are balanced below it, so any span under 2³²
/// sorts in at most two passes (a 29-bit span in two 15-bit passes).
const RADIX_DIGIT_BITS: u32 = 16;

/// Radix rank kernel for integral series whose span is too wide to count
/// (the shape of raw bytes/min device series): the stable sort permutation,
/// mid-ranks and tie-group sizes of `xs`, bit-identical to
/// [`stable_value_sort`] + [`ranks_from_sorted_pairs`]. `min`/`max` are the
/// extremes [`rank_small_domain`]'s probe certified (every value integral,
/// hence finite). Returns `false` (outputs untouched) when `xs` is shorter
/// than [`RADIX_MIN_LEN`] or spans 2³² or more.
///
/// Each value becomes the packed key `(v − min) << 32 | index`. The keys
/// are distinct, so every correct sort puts them in the one ascending
/// order: an LSD radix sort over the offset bits for long series, integer
/// `sort_unstable` for shorter ones. Why the artifacts are identical to a
/// stable comparator sort plus tie walk:
///
/// * `v − min` is exact: the span is below 2³², so either both operands are
///   below 2³³ in magnitude (exact integers) or they lie within a factor of
///   two of each other (Sterbenz). A rounded `max − min` cannot pass the
///   `< 2³²` gate either, since rounding is monotone and 2³² is
///   representable;
/// * so offsets are equal exactly when values are equal (`-0.0` and `0.0`
///   both map to offset 0, and they compare equal too) and ordered like
///   the values;
/// * the index in the low half breaks offset ties by input position —
///   stability;
/// * mid-ranks use the same `(start + end − 1) / 2 + 1` arithmetic on the
///   same run boundaries.
pub(crate) fn rank_radix(
    xs: &[f64],
    min: f64,
    max: f64,
    order: &mut Vec<u32>,
    ranks: &mut Vec<f64>,
    ties: &mut Vec<usize>,
) -> bool {
    let n = xs.len();
    let span = max - min;
    if n < RADIX_MIN_LEN || span.is_nan() || span >= RADIX_SPAN {
        return false;
    }
    assert!(n <= u32::MAX as usize, "series too long for u32 order");
    let keys = if n < RADIX_LSD_LEN {
        let mut keys: Vec<u64> = xs
            .iter()
            .enumerate()
            .map(|(i, &v)| (((v - min) as u64) << 32) | i as u64)
            .collect();
        keys.sort_unstable();
        keys
    } else {
        lsd_radix_keys(xs, min, u64::BITS - (span as u64).leading_zeros())
    };
    order.clear();
    order.extend(keys.iter().map(|&k| k as u32));
    ranks_from_sorted(&keys, |k| k >> 32, |k| k as u32, ranks, ties);
    true
}

/// The packed keys of `xs`, ascending, by stable LSD radix sort over the
/// offsets (which fit `bits` bits); the indices in the low halves start
/// ascending and ride along. Building the keys also fills every pass's
/// histogram, so the passes only scatter.
fn lsd_radix_keys(xs: &[f64], min: f64, bits: u32) -> Vec<u64> {
    let n = xs.len();
    let passes = bits.div_ceil(RADIX_DIGIT_BITS).max(1) as usize;
    let digit = bits.div_ceil(passes as u32);
    let buckets = 1usize << digit;
    let mask = buckets as u64 - 1;
    let mut hist = vec![0u32; passes * buckets];
    let mut keys = Vec::with_capacity(n);
    for (i, &v) in xs.iter().enumerate() {
        let off = (v - min) as u64;
        keys.push((off << 32) | i as u64);
        for p in 0..passes {
            hist[p * buckets + ((off >> (p as u32 * digit)) & mask) as usize] += 1;
        }
    }
    let mut tmp = vec![0u64; n];
    for (p, h) in hist.chunks_exact_mut(buckets).enumerate() {
        // A digit every key shares permutes nothing: skip the pass.
        if h.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut sum = 0u32;
        for c in h.iter_mut() {
            let t = *c;
            *c = sum;
            sum += t;
        }
        let shift = 32 + p as u32 * digit;
        for &k in &keys {
            let b = ((k >> shift) & mask) as usize;
            tmp[h[b] as usize] = k;
            h[b] += 1;
        }
        std::mem::swap(&mut keys, &mut tmp);
    }
    keys
}

// ---------------------------------------------------------------------------
// Kendall inversion counting (kernel C)
// ---------------------------------------------------------------------------

/// Runs at or below this length are sorted (and inversion-counted) by
/// insertion; also the base run width of the bottom-up merge.
const MERGE_BASE: usize = 32;

/// Counts inversions (pairs `i < j` with `v[i] > v[j]`) and sorts `v`
/// ascending. Equal values are *not* inversions, matching discordance in
/// τ-b. The count is an exact integer, so τ is bit-identical no matter how
/// the counting is organized — which frees the algorithm to be fast:
///
/// * width-[`MERGE_BASE`] base runs are built by counting insertion sort
///   (each element's shift distance is exactly its inversion count within
///   the run), replacing the five all-branchy narrow merge levels;
/// * merge levels ping-pong between `v` and `tmp` instead of copying back
///   per level;
/// * a merge whose halves are already ordered (`src[mid−1] ≤ src[mid]`)
///   contributes no cross inversions and degrades to one `memcpy`.
///
/// `tmp` is resized to `v.len()` and reused across calls — no per-call
/// allocation once the scratch has grown.
pub fn count_inversions(v: &mut [f64], tmp: &mut Vec<f64>) -> u64 {
    let n = v.len();
    if n < 2 {
        return 0;
    }
    if let Some(inv) = inversions_small_domain(v, tmp) {
        return inv;
    }
    tmp.clear();
    tmp.resize(n, 0.0);
    let mut inv = 0u64;
    for block in v.chunks_mut(MERGE_BASE) {
        inv += insertion_count(block);
    }
    let mut width = MERGE_BASE;
    let mut in_v = true;
    while width < n {
        inv += if in_v {
            merge_pass(v, tmp, width)
        } else {
            merge_pass(tmp, v, width)
        };
        in_v = !in_v;
        width *= 2;
    }
    if !in_v {
        v.copy_from_slice(tmp);
    }
    inv
}

/// [`small_domain`] fast path for [`count_inversions`]: a Fenwick tree over
/// the value buckets counts, for each element, how many strictly greater
/// values precede it — `i − (# previous values ≤ vᵢ)` — in O(n·log range)
/// with no comparison-dependent branches; a stable counting sort then
/// produces the ascending output. Both halves are exact:
///
/// * the inversion count is pure integer arithmetic, so it matches the
///   merge count no matter how the pairs are enumerated;
/// * the counting sort scatters the *original* `f64` values in input order
///   per bucket, reproducing the stable merge output bit for bit (equal
///   values — including a `-0.0`/`0.0` mix — keep input order under both).
///
/// Returns `None` (inputs untouched) when the series is not small-domain.
fn inversions_small_domain(v: &mut [f64], tmp: &mut Vec<f64>) -> Option<u64> {
    let n = v.len();
    let (mn, r) = small_domain(v)?;
    let mut tree = vec![0u32; r + 1];
    let inv = fenwick_inversions(v.iter().map(|&x| (x - mn) as usize + 1), &mut tree);
    // Stable counting sort of the values themselves into `tmp`, then copy
    // back: `count_inversions` promises `v` sorted ascending on return.
    let mut counts = vec![0u32; r];
    for &x in v.iter() {
        counts[(x - mn) as usize] += 1;
    }
    let mut sum = 0u32;
    for c in counts.iter_mut() {
        let t = *c;
        *c = sum;
        sum += t;
    }
    tmp.clear();
    tmp.resize(n, 0.0);
    for &x in v.iter() {
        let b = (x - mn) as usize;
        tmp[counts[b] as usize] = x;
        counts[b] += 1;
    }
    v.copy_from_slice(tmp);
    Some(inv)
}

/// The Fenwick lane's count: for each element, how many strictly greater
/// buckets precede it — `i − (# previous buckets ≤ bᵢ)` — in
/// O(n·log range) with no comparison-dependent branches. `buckets` yields
/// 1-based bucket indices into the zeroed prefix-count `tree` (length
/// range + 1); the count is pure integer arithmetic.
fn fenwick_inversions(buckets: impl Iterator<Item = usize>, tree: &mut [u32]) -> u64 {
    let r = tree.len() - 1;
    let mut inv = 0u64;
    for (i, b) in buckets.enumerate() {
        let mut idx = b;
        let mut at_most = 0u32;
        while idx > 0 {
            at_most += tree[idx];
            idx &= idx - 1;
        }
        inv += (i as u32 - at_most) as u64;
        let mut idx = b;
        while idx <= r {
            tree[idx] += 1;
            idx += idx & idx.wrapping_neg();
        }
    }
    inv
}

/// Inversions of integer `keys`, each in `[0, domain)`, through the
/// Fenwick lane of [`count_inversions`] at any domain width — the
/// profiled Kendall path's counter, whose keys are partner ranks (see
/// [`gather_rank_keys`]) in `[1, m]`. `keys` is left as is; `tree` is
/// resized to `domain + 1` zeroed counters and reused across calls.
///
/// # Panics
/// Panics if a key is `domain` or larger.
pub fn count_inversions_keyed(keys: &[u32], domain: usize, tree: &mut Vec<u32>) -> u64 {
    assert!(
        keys.len() <= u32::MAX as usize,
        "too many keys for u32 counts"
    );
    tree.clear();
    tree.resize(domain + 1, 0);
    fenwick_inversions(keys.iter().map(|&k| k as usize + 1), tree)
}

/// Gathers integer rank keys along a sort order: `out[k]` is
/// `⌊ranks[order[k]]⌋`, the floor of a mid-rank (1-based, ties averaged).
///
/// A tie group occupying sorted positions `[i, j)` has mid-rank in its own
/// rank interval `[i + 1, j]`, and so does the floor; the intervals of
/// distinct groups are disjoint and ordered. The keys are therefore exact
/// integers in `[1, m]`, strictly monotone in the underlying values and
/// equal exactly when the values are equal — every comparison Kendall's
/// counts make on values comes out the same on keys.
pub fn gather_rank_keys(order: &[u32], ranks: &[f64], out: &mut Vec<u32>) {
    out.clear();
    out.extend(order.iter().map(|&k| ranks[k as usize] as u32));
}

/// Insertion-sorts a short run, returning its exact inversion count: each
/// element's shift distance is the number of earlier, strictly greater
/// elements.
fn insertion_count<T: PartialOrd + Copy>(b: &mut [T]) -> u64 {
    let mut inv = 0u64;
    for i in 1..b.len() {
        let x = b[i];
        let mut j = i;
        while j > 0 && b[j - 1] > x {
            b[j] = b[j - 1];
            j -= 1;
        }
        inv += (i - j) as u64;
        b[j] = x;
    }
    inv
}

/// One merge level: pairs of sorted width-`width` runs in `src` merge into
/// `dst`, counting cross inversions. Lone tails and already-ordered pairs
/// copy through.
fn merge_pass(src: &[f64], dst: &mut [f64], width: usize) -> u64 {
    let n = src.len();
    let mut inv = 0u64;
    let mut lo = 0;
    while lo < n {
        let mid = (lo + width).min(n);
        let hi = (lo + 2 * width).min(n);
        if mid == hi || src[mid - 1] <= src[mid] {
            // Lone tail run, or left max ≤ right min: no cross inversions.
            dst[lo..hi].copy_from_slice(&src[lo..hi]);
        } else {
            inv += merge_into(&src[lo..hi], mid - lo, &mut dst[lo..hi]);
        }
        lo = hi;
    }
    inv
}

/// Stable two-run merge counting cross inversions: when the right side
/// wins strictly, it is smaller than every remaining left element.
///
/// The comparison stays a branch on purpose: a conditional-move variant
/// was measured slower here, because branchless selects chain every
/// iteration's loads behind the previous comparison, while the predicted
/// branch lets the out-of-order core run several iterations ahead. Once
/// either run empties, the rest is two tail copies (one of them empty).
fn merge_into(src: &[f64], mid: usize, dst: &mut [f64]) -> u64 {
    let (left, right) = src.split_at(mid);
    let (ll, rl) = (left.len(), right.len());
    let mut i = 0;
    let mut j = 0;
    let mut k = 0;
    let mut inv = 0u64;
    while i < ll && j < rl {
        let l = left[i];
        let r = right[j];
        if l <= r {
            dst[k] = l;
            i += 1;
        } else {
            inv += (ll - i) as u64;
            dst[k] = r;
            j += 1;
        }
        k += 1;
    }
    dst[k..k + (ll - i)].copy_from_slice(&left[i..]);
    dst[k + (ll - i)..].copy_from_slice(&right[j..]);
    inv
}

/// Kendall's y-refinement on partner keys (see [`gather_rank_keys`]):
/// sorts the keys inside each x-tie run and counts the joint ties
/// (equal-key runs inside x-tie runs) — Σ g(g−1)/2. Short runs (the
/// overwhelmingly common case for traffic values) use insertion sort; an
/// empty `tie_runs` (the `tie_free()` case) skips everything, touching no
/// memory. Equal integer keys are indistinguishable, so an unstable sort
/// of a long run leaves the same sequence a stable one would.
pub fn refine_tie_runs(keys: &mut [u32], tie_runs: &[(u32, u32)]) -> u64 {
    let mut n3 = 0u64;
    for &(start, len) in tie_runs {
        let seg = &mut keys[start as usize..(start + len) as usize];
        if seg.len() <= MERGE_BASE {
            insertion_count(seg);
        } else {
            seg.sort_unstable();
        }
        let mut i = 0;
        while i < seg.len() {
            let mut j = i;
            while j + 1 < seg.len() && seg[j + 1] == seg[i] {
                j += 1;
            }
            let g = (j - i + 1) as u64;
            n3 += g * (g - 1) / 2;
            i = j + 1;
        }
    }
    n3
}

// ---------------------------------------------------------------------------
// KS sup-scan (kernel D)
// ---------------------------------------------------------------------------

/// Above this product of sample sizes the integer-gated scan's monotonicity
/// argument loses its safety margin and [`ks_sup_scan`] falls back to the
/// reference scan. 2⁴⁸ is ~2.8·10¹⁴ — far beyond any real window pair.
const KS_INT_GUARD: u128 = 1 << 48;

/// Supremum CDF distance between two finite-only, ascending-sorted samples
/// — the D statistic of the two-sample KS test, bit-identical to
/// [`ks_sup_scan_reference`].
///
/// Two mechanics beat the reference loop:
///
/// * **Quad-stride advance.** The cursors move past a tie run one element
///   per compare in the reference. Sorted input means `a[i+3] ≤ t` already
///   proves the whole quad qualifies, so the advance strides four elements
///   per compare first and finishes with the single-step loop — landing on
///   exactly the same cursor positions with ~4× fewer iterations inside
///   runs (traffic samples repeat values heavily, so runs are long).
/// * **Integer-gated evaluation.** The reference pays two `f64` divisions
///   per step point for `|i/n1 − j/n2|`. This scan tracks the *integer*
///   cross-multiple `s = |i·n2 − j·n1|` instead (exact, and proportional
///   to the real gap) and evaluates the `f64` gap only at weak records
///   `s ≥ s_best` — after the first few steps of similar samples, almost
///   never.
///
/// Why the result is bit-identical and not merely close: distinct real gaps
/// differ by at least `1/(n1·n2)`, while the `f64` evaluation of a gap errs
/// by at most `3·2⁻⁵³`. For `n1·n2 ≤ 2⁴⁸` the spacing exceeds the combined
/// error 4×, so the computed-gap order agrees with the real-gap order, and
/// every point tied for the real maximum *is* evaluated (the record test
/// uses `≥`) in the same left-to-right order `max` would have folded them.
/// Larger samples take the reference scan.
pub fn ks_sup_scan(a: &[f64], b: &[f64]) -> f64 {
    let (n1, n2) = (a.len(), b.len());
    if (n1 as u128) * (n2 as u128) > KS_INT_GUARD {
        return ks_sup_scan_reference(a, b);
    }
    let (w1, w2) = (n2 as i64, n1 as i64);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut best = -1i64;
    let mut d: f64 = 0.0;
    while i < n1 && j < n2 {
        let t = a[i].min(b[j]);
        while i + 4 <= n1 && a[i + 3] <= t {
            i += 4;
        }
        while i < n1 && a[i] <= t {
            i += 1;
        }
        while j + 4 <= n2 && b[j + 3] <= t {
            j += 4;
        }
        while j < n2 && b[j] <= t {
            j += 1;
        }
        let s = (i as i64 * w1 - j as i64 * w2).abs();
        if s >= best {
            best = s;
            let f1 = i as f64 / n1 as f64;
            let f2 = j as f64 / n2 as f64;
            d = d.max((f1 - f2).abs());
        }
    }
    d
}

/// The classic sup-scan: per step point, advance both sides past the tie
/// run and fold the `f64` CDF gap into the running max. This is the exact
/// loop `ks_two_sample_sorted` has always run — kept as the guard fallback
/// for astronomically large samples and as the differential baseline.
pub fn ks_sup_scan_reference(a: &[f64], b: &[f64]) -> f64 {
    let (n1, n2) = (a.len(), b.len());
    let mut i = 0;
    let mut j = 0;
    let mut d: f64 = 0.0;
    while i < n1 && j < n2 {
        let t = a[i].min(b[j]);
        while i < n1 && a[i] <= t {
            i += 1;
        }
        while j < n2 && b[j] <= t {
            j += 1;
        }
        let f1 = i as f64 / n1 as f64;
        let f2 = j as f64 / n2 as f64;
        d = d.max((f1 - f2).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_vec(n: usize, modulo: u64, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n).map(|_| (lcg(&mut state) % modulo) as f64).collect()
    }

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

    #[test]
    fn count_inversions_matches_naive_and_sorts() {
        for (n, modulo, seed) in [
            (0usize, 7u64, 1u64),
            (1, 7, 2),
            (2, 7, 3),
            (31, 5, 4),
            (32, 5, 5),
            (33, 5, 6),
            (63, 1000, 7),
            (64, 1000, 8),
            (65, 3, 9),
            (200, 12, 10),
            (257, 1_000_000, 11),
        ] {
            let v = random_vec(n, modulo, seed);
            let expect = naive_inversions(&v);
            let mut work = v.clone();
            let mut tmp = Vec::new();
            let got = count_inversions(&mut work, &mut tmp);
            assert_eq!(got, expect, "n={n} modulo={modulo}");
            let mut sorted = v.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(work, sorted, "n={n}: output must be sorted");
        }
    }

    #[test]
    fn count_inversions_extremes() {
        let mut tmp = Vec::new();
        let mut asc: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(count_inversions(&mut asc, &mut tmp), 0);
        let mut desc: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(count_inversions(&mut desc, &mut tmp), 100 * 99 / 2);
        let mut tied = vec![4.0; 80];
        assert_eq!(count_inversions(&mut tied, &mut tmp), 0);
    }

    #[test]
    fn ks_scan_matches_reference() {
        for (n1, n2, m1, m2, s1, s2) in [
            (5usize, 7usize, 4u64, 4u64, 21u64, 22u64),
            (100, 80, 10, 10, 23, 24),
            (64, 64, 1_000_000, 1_000_000, 25, 26),
            (1, 9, 3, 3, 27, 28),
            (50, 50, 1, 1, 29, 30),
        ] {
            let mut a = random_vec(n1, m1, s1);
            let mut b = random_vec(n2, m2, s2);
            a.sort_by(|p, q| p.partial_cmp(q).unwrap());
            b.sort_by(|p, q| p.partial_cmp(q).unwrap());
            let fast = ks_sup_scan(&a, &b);
            let reference = ks_sup_scan_reference(&a, &b);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "n1={n1} n2={n2} m1={m1}"
            );
        }
    }

    #[test]
    fn sxy_fold2_matches_two_separate_folds() {
        let vx = random_vec(257, 1000, 41);
        let vy = random_vec(257, 1000, 42);
        let rx = random_vec(257, 50, 43);
        let ry = random_vec(257, 50, 44);
        let (sv, sr) = sxy_fold2(&vx, &vy, 3.25, 4.5, &rx, &ry, 10.0, 11.0);
        assert_eq!(sv.to_bits(), sxy_fold(&vx, &vy, 3.25, 4.5).to_bits());
        assert_eq!(sr.to_bits(), sxy_fold(&rx, &ry, 10.0, 11.0).to_bits());
    }

    #[test]
    fn dot_lags_batch_matches_per_lag_dot() {
        let a = random_vec(300, 1000, 51);
        let b = random_vec(300, 1000, 52);
        let lags: Vec<i64> = vec![-7, -3, -1, 0, 1, 2, 5, 11, 299];
        let mut out = Vec::new();
        dot_lags_batch(&a, &b, &lags, &mut out);
        assert_eq!(out.len(), lags.len());
        for (idx, &lag) in lags.iter().enumerate() {
            let k = lag.unsigned_abs() as usize;
            let expect = if lag >= 0 {
                dot(&a[k..], &b[..300 - k])
            } else {
                dot(&a[..300 - k], &b[k..])
            };
            assert_eq!(out[idx].to_bits(), expect.to_bits(), "lag={lag}");
        }
    }

    #[test]
    fn refine_tie_runs_counts_joint_ties() {
        // Two x-tie runs; joint ties only inside them.
        let mut y = vec![5, 2, 2, 9, 1, 1, 1, 4];
        let runs = vec![(1u32, 2u32), (4u32, 3u32)];
        let n3 = refine_tie_runs(&mut y, &runs);
        // Run 1: [2,2] -> 1 joint pair; run 2: [1,1,1] -> 3 joint pairs.
        assert_eq!(n3, 4);
        assert_eq!(y, vec![5, 2, 2, 9, 1, 1, 1, 4]);
        // A run longer than the insertion base is sorted, too.
        let mut long: Vec<u32> = (0..80).map(|i| (i * 37) % 11).collect();
        let n3 = refine_tie_runs(&mut long, &[(0, 80)]);
        assert!(long.windows(2).all(|w| w[0] <= w[1]));
        let groups: u64 = (0..11)
            .map(|v| long.iter().filter(|&&k| k == v).count() as u64)
            .map(|g| g * (g - 1) / 2)
            .sum();
        assert_eq!(n3, groups);
        // Empty runs touch nothing.
        assert_eq!(refine_tie_runs(&mut y, &[]), 0);
    }

    #[test]
    fn keyed_inversions_match_the_value_count() {
        let mut tree = Vec::new();
        for (n, modulo, seed) in [(0usize, 5u64, 1u64), (1, 5, 2), (40, 3, 3), (300, 1000, 4)] {
            let v = random_vec(n, modulo, seed);
            let keys: Vec<u32> = v.iter().map(|&x| x as u32).collect();
            let got = count_inversions_keyed(&keys, modulo as usize, &mut tree);
            assert_eq!(got, naive_inversions(&v), "n={n} modulo={modulo}");
        }
        // Floor-of-mid-rank keys are order-isomorphic to the values.
        let xs = [30.0, 10.0, 20.0, 10.0, 30.0, 5.0];
        let ranks = [5.5, 2.5, 4.0, 2.5, 5.5, 1.0];
        let order: Vec<u32> = (0..6).collect();
        let mut keys = Vec::new();
        gather_rank_keys(&order, &ranks, &mut keys);
        assert_eq!(keys, vec![5, 2, 4, 2, 5, 1]);
        assert_eq!(
            count_inversions_keyed(&keys, 7, &mut tree),
            naive_inversions(&xs)
        );
    }

    /// Which lane of `rank_series`' ladder takes `xs`: the probe's verdict,
    /// then whether the radix gate accepts a wide integral series.
    fn lane(xs: &[f64]) -> &'static str {
        let (mut order, mut ranks, mut ties) = (Vec::new(), Vec::new(), Vec::new());
        match rank_small_domain(xs, &mut order, &mut ranks, &mut ties) {
            DomainProbe::Ranked => "counting",
            DomainProbe::WideIntegral { min, max } => {
                if rank_radix(xs, min, max, &mut order, &mut ranks, &mut ties) {
                    "radix"
                } else {
                    "comparison"
                }
            }
            DomainProbe::General => "comparison",
        }
    }

    /// Each lane is chosen from the input alone: integrality, span and
    /// length. (`tests/kernel_props.rs` checks the same shapes' artifacts
    /// against the comparison reference through `rank_series`.)
    #[test]
    fn rank_lane_ladder_follows_the_input() {
        let mut state = 5u64;
        let mut wide = |n: usize, base: f64| -> Vec<f64> {
            (0..n)
                .map(|_| base + (lcg(&mut state) % 300_000_000) as f64)
                .collect()
        };
        // Length cutoff: 8-bin windows keep the comparison sort.
        for n in [2, 8, RADIX_MIN_LEN - 1] {
            assert_eq!(lane(&wide(n, 0.0)), "comparison", "n={n}");
        }
        for n in [RADIX_MIN_LEN, 64, 1440, RADIX_LSD_LEN, RADIX_LSD_LEN + 1] {
            assert_eq!(lane(&wide(n, 0.0)), "radix", "n={n}");
        }
        // Span gate: 2³² − 1 is the widest span taken, at any offset.
        for base in [0.0, -2e9, 1e15] {
            let mut xs = wide(300, base);
            xs[17] = base;
            xs[230] = base + (RADIX_SPAN - 1.0);
            assert_eq!(lane(&xs), "radix", "base {base}");
            xs[230] = base + RADIX_SPAN;
            assert_eq!(lane(&xs), "comparison", "base {base}");
        }
        // Negative and far-offset minima, signed zeros inside the span.
        for base in [-3e8, 7e9, 2f64.powi(60)] {
            assert_eq!(lane(&wide(500, base)), "radix", "base {base}");
        }
        let mut xs = wide(500, -1e8);
        for i in (0..500).step_by(5) {
            xs[i] = if i % 3 == 0 { -0.0 } else { 0.0 };
        }
        assert_eq!(lane(&xs), "radix");
        // Non-integral or non-finite values: comparison only.
        let mut xs = wide(300, 0.0);
        xs[100] += 0.5;
        assert_eq!(lane(&xs), "comparison");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut xs = wide(300, 0.0);
            xs[150] = bad;
            assert_eq!(lane(&xs), "comparison", "value {bad}");
        }
        // Narrow integral spans count, offset or not.
        assert_eq!(lane(&random_vec(1000, 400, 3)), "counting");
        let offset: Vec<f64> = random_vec(1000, 400, 4).iter().map(|v| v - 1e6).collect();
        assert_eq!(lane(&offset), "counting");
    }

    #[test]
    fn radix_lane_matches_pair_sort() {
        // Wide integral span, negative offset, signed zeros, ties.
        let mut state = 91u64;
        let mut xs: Vec<f64> = (0..500)
            .map(|_| (lcg(&mut state) % 3_000_000_000) as f64 - 1e9)
            .collect();
        for i in (0..500).step_by(7) {
            xs[i] = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        for i in (3..500).step_by(11) {
            xs[i] = xs[i - 3];
        }
        let (min, max) = xs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let (mut order, mut ranks, mut ties) = (Vec::new(), Vec::new(), Vec::new());
        assert!(rank_radix(&xs, min, max, &mut order, &mut ranks, &mut ties));
        let mut kv = Vec::new();
        stable_value_sort(&xs, &mut kv);
        let (mut ranks_ref, mut ties_ref) = (Vec::new(), Vec::new());
        ranks_from_sorted_pairs(&kv, &mut ranks_ref, &mut ties_ref);
        assert_eq!(order, kv.iter().map(|p| p.1).collect::<Vec<u32>>());
        assert_eq!(ranks, ranks_ref);
        assert_eq!(ties, ties_ref);
        // Too short, or a span of 2^32: the lane declines.
        assert!(!rank_radix(
            &xs[..8],
            min,
            max,
            &mut order,
            &mut ranks,
            &mut ties
        ));
        assert!(!rank_radix(
            &xs, 0.0, RADIX_SPAN, &mut order, &mut ranks, &mut ties
        ));
        // Long enough for the LSD passes: same artifacts as the pair sort.
        let long: Vec<f64> = (0..RADIX_LSD_LEN + 37)
            .map(|_| (lcg(&mut state) % 4_000_000_000) as f64 - 5.0)
            .collect();
        let (min, max) = long
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        assert!(rank_radix(
            &long, min, max, &mut order, &mut ranks, &mut ties
        ));
        stable_value_sort(&long, &mut kv);
        ranks_from_sorted_pairs(&kv, &mut ranks_ref, &mut ties_ref);
        assert_eq!(order, kv.iter().map(|p| p.1).collect::<Vec<u32>>());
        assert_eq!(ranks, ranks_ref);
        assert_eq!(ties, ties_ref);
    }

    #[test]
    fn order_stats_gather_handles_both_index_types() {
        let values = [3.0, 1.0, 3.0, 2.0];
        let order_u32: Vec<u32> = vec![1, 3, 0, 2];
        let mut sorted = Vec::new();
        let mut ranks = Vec::new();
        let mut runs = Vec::new();
        let ties = order_stats_gather(
            &order_u32,
            &values,
            &mut sorted,
            Some(&mut ranks),
            Some(&mut runs),
        );
        assert_eq!(sorted, vec![1.0, 2.0, 3.0, 3.0]);
        assert_eq!(ranks, vec![3.5, 1.0, 3.5, 2.0]);
        assert_eq!(runs, vec![(2, 2)]);
        assert_eq!(ties.n_tied_pairs, 1);
        let order_usize: Vec<usize> = vec![1, 3, 0, 2];
        let mut sorted2 = Vec::new();
        let ties2 = order_stats_gather(&order_usize, &values, &mut sorted2, None, None);
        assert_eq!(sorted2, sorted);
        assert_eq!(ties2, ties);
    }

    #[test]
    fn filter_order_into_is_a_filter() {
        let order: Vec<u32> = vec![4, 2, 0, 3, 1];
        let pos: Vec<u32> = vec![9, u32::MAX, 7, u32::MAX, 5];
        let mut out = Vec::new();
        filter_order_into(&order, &pos, &mut out);
        assert_eq!(out, vec![5, 7, 9]);
        filter_order_into(&[], &pos, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn welford_and_kahan_agree_with_exact_on_benign_data() {
        let vals = random_vec(1000, 10_000, 61);
        let (m0, s0) = mean_and_sxx(&vals);
        for (m, s) in [mean_and_sxx_welford(&vals), mean_and_sxx_kahan(&vals)] {
            assert!((m - m0).abs() <= 1e-9 * m0.abs().max(1.0));
            assert!((s - s0).abs() <= 1e-9 * s0.abs().max(1.0));
        }
        assert_eq!(mean_and_sxx_welford(&[]), (0.0, 0.0));
        assert_eq!(mean_and_sxx_kahan(&[]), (0.0, 0.0));
    }

    #[test]
    fn fast_lane_decision_bands() {
        assert_eq!(fast_lane_decision(0.9, 0.5, 1e-3), FastDecision::AtLeast);
        assert_eq!(fast_lane_decision(0.1, 0.5, 1e-3), FastDecision::Below);
        assert_eq!(
            fast_lane_decision(0.5005, 0.5, 1e-3),
            FastDecision::Reverify
        );
        assert_eq!(
            fast_lane_decision(0.4995, 0.5, 1e-3),
            FastDecision::Reverify
        );
        assert_eq!(fast_lane_decision(0.5, 0.5, 0.0), FastDecision::Reverify);
    }

    #[test]
    fn pearson_r_f32_close_to_exact() {
        let xs = random_vec(1440, 1000, 71);
        let ys: Vec<f64> = xs
            .iter()
            .zip(random_vec(1440, 200, 72))
            .map(|(&x, noise)| 0.7 * x + noise)
            .collect();
        let (mx, sxx) = mean_and_sxx(&xs);
        let (my, syy) = mean_and_sxx(&ys);
        let exact = {
            let sxy = sxy_fold(&xs, &ys, mx, my);
            (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
        };
        let approx = pearson_r_f32(&xs, &ys, mx, my, sxx, syy);
        assert!(
            (approx - exact).abs() <= f32_lane_band(1440),
            "approx={approx} exact={exact} band={}",
            f32_lane_band(1440)
        );
    }

    #[test]
    fn stable_value_sort_matches_index_sort() {
        let xs = [2.0, 1.0, 2.0, 0.5, 1.0];
        let mut kv = Vec::new();
        stable_value_sort(&xs, &mut kv);
        let idx: Vec<u32> = kv.iter().map(|p| p.1).collect();
        assert_eq!(idx, vec![3, 1, 4, 0, 2]);
        let mut ranks = Vec::new();
        let mut ties = Vec::new();
        ranks_from_sorted_pairs(&kv, &mut ranks, &mut ties);
        assert_eq!(ranks, vec![4.5, 2.5, 4.5, 1.0, 2.5]);
        assert_eq!(ties, vec![2, 2]);
    }
}
