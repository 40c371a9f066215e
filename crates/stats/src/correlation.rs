//! Correlation coefficients with significance tests.
//!
//! The paper's similarity measure (Definition 1) takes the maximum of the
//! *statistically significant* Pearson, Spearman and Kendall coefficients.
//! Each function here returns a [`CorrelationTest`] carrying both the
//! coefficient and its two-sided p-value against `H0: no association`:
//!
//! * **Pearson's r** — linear dependence; t-test with `n − 2` degrees of
//!   freedom.
//! * **Spearman's ρ** — monotone dependence; Pearson's r over mid-ranks,
//!   with the same t approximation (the standard large-sample test).
//! * **Kendall's τ-b** — concordance with tie correction; computed in
//!   `O(n log n)` via Knight's algorithm, tested with the tie-adjusted
//!   normal approximation of the S statistic.
//!
//! Missing data: all three operate on pairwise-complete observations.
//! Degenerate inputs (fewer than three complete pairs, or a constant series)
//! yield a zero coefficient with p-value 1 — "no significant correlation",
//! which is exactly how Definition 1 treats them.

use crate::pairwise_complete;
use crate::rank::{mid_ranks, tie_group_sizes};
use crate::special::{normal_two_sided_p, student_t_two_sided_p};

/// Which correlation coefficient a result refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrelationCoefficient {
    /// Pearson's product-moment r.
    Pearson,
    /// Spearman's rank ρ.
    Spearman,
    /// Kendall's τ-b.
    Kendall,
}

impl std::fmt::Display for CorrelationCoefficient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CorrelationCoefficient::Pearson => "pearson",
            CorrelationCoefficient::Spearman => "spearman",
            CorrelationCoefficient::Kendall => "kendall",
        })
    }
}

/// A correlation estimate together with its significance test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationTest {
    /// Which coefficient this is.
    pub coefficient: CorrelationCoefficient,
    /// The estimate, in `[-1, 1]`.
    pub value: f64,
    /// Two-sided p-value against `H0: coefficient = 0`.
    pub p_value: f64,
    /// Number of pairwise-complete observations used.
    pub n: usize,
}

impl CorrelationTest {
    /// Whether the coefficient is significant at level `alpha`.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }

    pub(crate) fn degenerate(coefficient: CorrelationCoefficient, n: usize) -> CorrelationTest {
        CorrelationTest {
            coefficient,
            value: 0.0,
            p_value: 1.0,
            n,
        }
    }
}

/// Pearson's product-moment correlation with a two-sided t-test.
///
/// ```
/// use wtts_stats::pearson;
///
/// let x: Vec<f64> = (0..20).map(f64::from).collect();
/// let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
/// let r = pearson(&x, &y);
/// assert!((r.value - 1.0).abs() < 1e-12);
/// assert!(r.significant(0.05));
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> CorrelationTest {
    let (xs, ys) = pairwise_complete(x, y);
    pearson_complete(&xs, &ys)
}

/// Pearson over already-complete samples (no missing values).
pub(crate) fn pearson_complete(xs: &[f64], ys: &[f64]) -> CorrelationTest {
    let n = xs.len();
    if n < 3 {
        return CorrelationTest::degenerate(CorrelationCoefficient::Pearson, n);
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in xs.iter().zip(ys) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        // A constant series carries no dependence information.
        return CorrelationTest::degenerate(CorrelationCoefficient::Pearson, n);
    }
    let r = (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0);
    let p = r_to_p(r, n);
    CorrelationTest {
        coefficient: CorrelationCoefficient::Pearson,
        value: r,
        p_value: p,
        n,
    }
}

/// Finishes a Pearson-style coefficient from precomputed first and second
/// moments, accumulating only the cross term.
///
/// The `sxy` loop adds the exact terms `pearson_complete`'s interleaved
/// loop adds, in the same order, so the result is bit-identical to the
/// from-scratch computation — this is what lets batch profiles cache
/// `mean`/`sxx` per series. Callers must have handled the degenerate cases
/// (`n < 3`, zero `sxx`/`syy`) already.
pub(crate) fn pearson_from_moments(
    coefficient: CorrelationCoefficient,
    xs: &[f64],
    ys: &[f64],
    mx: f64,
    my: f64,
    sxx: f64,
    syy: f64,
) -> CorrelationTest {
    let sxy = crate::kernels::sxy_fold(xs, ys, mx, my);
    pearson_from_sxy(coefficient, sxy, sxx, syy, xs.len())
}

/// Finishes a Pearson-style coefficient from a fully precomputed cross
/// moment — the tail of [`pearson_from_moments`], split out so fused
/// multi-chain folds ([`crate::kernels::sxy_fold2`]) can share the exact
/// clamp/t-test arithmetic.
pub(crate) fn pearson_from_sxy(
    coefficient: CorrelationCoefficient,
    sxy: f64,
    sxx: f64,
    syy: f64,
    n: usize,
) -> CorrelationTest {
    let r = (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0);
    CorrelationTest {
        coefficient,
        value: r,
        p_value: r_to_p(r, n),
        n,
    }
}

/// Two-sided p-value of a correlation `r` over `n` pairs via the t
/// transformation `t = r sqrt((n-2)/(1-r²))`.
///
/// Total over its domain: `n < 3` (no degrees of freedom for the t test)
/// reports "not significant" (`p = 1`) rather than underflowing `n − 2` or
/// asserting inside the t distribution; `|r| ≥ 1` pins the perfectly
/// determined case to `p = 0`; and the t statistic is clamped to a large
/// finite magnitude so `|r| → 1` can never push `Inf`/`NaN` into the
/// incomplete-beta evaluation.
fn r_to_p(r: f64, n: usize) -> f64 {
    if n < 3 {
        return 1.0;
    }
    if !r.is_finite() {
        return 1.0;
    }
    if r.abs() >= 1.0 {
        return 0.0;
    }
    let df = (n - 2) as f64;
    let denom = 1.0 - r * r;
    if denom <= 0.0 {
        return 0.0;
    }
    // |t| ≤ 1e15 keeps t² and the beta arguments finite; the two-sided
    // p-value at that magnitude is ≪ f64::MIN_POSITIVE anyway.
    let t = (r * (df / denom).sqrt()).clamp(-1e15, 1e15);
    student_t_two_sided_p(t, df)
}

/// Spearman's rank correlation: Pearson's r over mid-ranks, tested with the
/// same t approximation.
pub fn spearman(x: &[f64], y: &[f64]) -> CorrelationTest {
    let (xs, ys) = pairwise_complete(x, y);
    spearman_complete(&xs, &ys)
}

/// Spearman over already-complete samples (no missing values).
pub(crate) fn spearman_complete(xs: &[f64], ys: &[f64]) -> CorrelationTest {
    if xs.len() < 3 {
        return CorrelationTest::degenerate(CorrelationCoefficient::Spearman, xs.len());
    }
    let rx = mid_ranks(xs);
    let ry = mid_ranks(ys);
    let p = pearson_complete(&rx, &ry);
    CorrelationTest {
        coefficient: CorrelationCoefficient::Spearman,
        value: p.value,
        p_value: p.p_value,
        n: p.n,
    }
}

/// Kendall's τ-b with tie correction, computed in `O(n log n)`.
///
/// The significance test uses the tie-adjusted normal approximation of the
/// S statistic (the same approximation SciPy and R use for n beyond the
/// exact-table range):
///
/// ```text
/// var(S) = (v0 − vt − vu)/18 + v1 + v2
/// v0 = n(n−1)(2n+5),  vt/vu analogous over tie groups,
/// v1 = Σt(t−1) · Σu(u−1) / (2n(n−1)),
/// v2 = Σt(t−1)(t−2) · Σu(u−1)(u−2) / (9n(n−1)(n−2)).
/// ```
pub fn kendall(x: &[f64], y: &[f64]) -> CorrelationTest {
    let (xs, ys) = pairwise_complete(x, y);
    kendall_complete(&xs, &ys)
}

/// Kendall's τ-b over already-complete samples (no missing values).
pub(crate) fn kendall_complete(xs: &[f64], ys: &[f64]) -> CorrelationTest {
    let n = xs.len();
    if n < 3 {
        return CorrelationTest::degenerate(CorrelationCoefficient::Kendall, n);
    }

    // Sort by x, breaking ties by y (Knight's algorithm).
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .expect("finite values compare")
            .then(ys[a].partial_cmp(&ys[b]).expect("finite values compare"))
    });
    let y_sorted: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
    let x_sorted: Vec<f64> = idx.iter().map(|&i| xs[i]).collect();

    // Joint ties (pairs tied in both x and y).
    let mut n3 = 0u64; // Σ over joint tie groups of g(g-1)/2
    {
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && x_sorted[j + 1] == x_sorted[i] && y_sorted[j + 1] == y_sorted[i] {
                j += 1;
            }
            let g = (j - i + 1) as u64;
            n3 += g * (g - 1) / 2;
            i = j + 1;
        }
    }

    let tx = kendall_ties(&tie_group_sizes(xs));
    let ty = kendall_ties(&tie_group_sizes(ys));

    // Discordant pairs = swaps needed to sort y_sorted (counted by merge sort).
    let mut buf = y_sorted.clone();
    let mut tmp = Vec::new();
    let discordant = crate::kernels::count_inversions(&mut buf, &mut tmp);

    kendall_from_parts(n, n3, discordant, &tx, &ty)
}

/// Per-series tie aggregates feeding τ-b's denominator and the tie-adjusted
/// variance of S. Depending only on one side's tie-group sizes, they are
/// precomputable per series and reusable across every pairing. Public so
/// the [`crate::kernels`] order walk can produce them (and benches can
/// check them); construct via `kendall_ties`-style group aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KendallTies {
    /// Number of tied pairs: Σ t(t−1)/2.
    pub n_tied_pairs: u64,
    /// Σ t(t−1)(2t+5), the tie term of var(S).
    pub vt: f64,
    /// Σ t(t−1).
    pub sum_t2: f64,
    /// Σ t(t−1)(t−2).
    pub sum_t3: f64,
}

/// Aggregates tie-group sizes (from [`tie_group_sizes`]) into the sums τ-b
/// needs.
pub(crate) fn kendall_ties(groups: &[usize]) -> KendallTies {
    KendallTies {
        n_tied_pairs: groups
            .iter()
            .map(|&t| (t as u64) * (t as u64 - 1) / 2)
            .sum(),
        vt: groups
            .iter()
            .map(|&t| {
                let t = t as f64;
                t * (t - 1.0) * (2.0 * t + 5.0)
            })
            .sum(),
        sum_t2: groups.iter().map(|&t| (t as f64) * (t as f64 - 1.0)).sum(),
        sum_t3: groups
            .iter()
            .map(|&t| (t as f64) * (t as f64 - 1.0) * (t as f64 - 2.0))
            .sum(),
    }
}

/// Finishes τ-b from the pair-level counts (joint ties, discordant pairs)
/// and the two sides' precomputed tie aggregates. Shared by the
/// from-scratch path above and the profiled batch path, so both produce
/// bit-identical results by construction.
pub(crate) fn kendall_from_parts(
    n: usize,
    n3: u64,
    discordant: u64,
    tx: &KendallTies,
    ty: &KendallTies,
) -> CorrelationTest {
    let n_pairs = n as u64 * (n as u64 - 1) / 2;
    let (n1, n2) = (tx.n_tied_pairs, ty.n_tied_pairs);

    // S = concordant - discordant. With ties:
    // concordant + discordant = n_pairs - n1 - n2 + n3
    let total_comparable = n_pairs as i64 - n1 as i64 - n2 as i64 + n3 as i64;
    let s = total_comparable - 2 * discordant as i64;

    let denom = ((n_pairs - n1) as f64 * (n_pairs - n2) as f64).sqrt();
    if denom == 0.0 {
        return CorrelationTest::degenerate(CorrelationCoefficient::Kendall, n);
    }
    let tau = (s as f64 / denom).clamp(-1.0, 1.0);

    // Tie-adjusted variance of S.
    let nf = n as f64;
    let v0 = nf * (nf - 1.0) * (2.0 * nf + 5.0);
    let v1 = tx.sum_t2 * ty.sum_t2 / (2.0 * nf * (nf - 1.0));
    let v2 = tx.sum_t3 * ty.sum_t3 / (9.0 * nf * (nf - 1.0) * (nf - 2.0));
    let var_s = (v0 - tx.vt - ty.vt) / 18.0 + v1 + v2;
    if var_s <= 0.0 {
        return CorrelationTest::degenerate(CorrelationCoefficient::Kendall, n);
    }
    let z = s as f64 / var_s.sqrt();
    CorrelationTest {
        coefficient: CorrelationCoefficient::Kendall,
        value: tau,
        p_value: normal_two_sided_p(z),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 6.0, 8.0, 10.0];
        let r = pearson(&x, &y);
        close(r.value, 1.0, 1e-12);
        assert!(r.p_value < 1e-10, "p = {}", r.p_value);
        let y_neg: Vec<f64> = y.iter().map(|v| -v).collect();
        close(pearson(&x, &y_neg).value, -1.0, 1e-12);
    }

    #[test]
    fn pearson_reference_value() {
        // Hand-checked: r = 16/sqrt(17.5 * 70/3) = 0.7917947,
        // t = 2.5927 (df = 4), two-sided p = 0.060511 (numeric integration).
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0];
        let r = pearson(&x, &y);
        close(r.value, 0.791_794_7, 1e-6);
        close(r.p_value, 0.060_511, 1e-4);
        assert!(!r.significant(0.05));
        assert!(r.significant(0.10));
    }

    #[test]
    fn pearson_constant_series_degenerate() {
        let x = [1.0; 5];
        let y = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = pearson(&x, &y);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn pearson_too_few_pairs() {
        let r = pearson(&[1.0, 2.0], &[1.0, 2.0]);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.p_value, 1.0);
        assert_eq!(r.n, 2);
    }

    #[test]
    fn pearson_with_missing_values() {
        let x = [1.0, 2.0, f64::NAN, 4.0, 5.0, 6.0, 7.0];
        let y = [2.0, 4.0, 6.0, f64::NAN, 10.0, 12.0, 14.0];
        let r = pearson(&x, &y);
        close(r.value, 1.0, 1e-12);
        assert_eq!(r.n, 5);
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        // Exponential growth is perfectly monotone: rho = 1, r < 1.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y: Vec<f64> = x.iter().map(|v: &f64| v.exp()).collect();
        let rho = spearman(&x, &y);
        close(rho.value, 1.0, 1e-12);
        let r = pearson(&x, &y);
        assert!(r.value < 1.0);
    }

    #[test]
    fn spearman_reference_value() {
        // Hand-checked: rank differences d = (±1)^6, Σd² = 6, so
        // ρ = 1 − 6·6/(6·35) = 0.8285714.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0];
        let rho = spearman(&x, &y);
        close(rho.value, 0.828_571_4, 1e-6);
        // The t approximation differs slightly from R's exact test; accept
        // the approximate range.
        assert!(
            rho.p_value > 0.02 && rho.p_value < 0.10,
            "p={}",
            rho.p_value
        );
    }

    #[test]
    fn spearman_with_ties() {
        // Hand-checked: mid-ranks of x are (1, 2.5, 2.5, 4); Pearson over
        // ranks is 4.5/sqrt(4.5·5) = 0.9486833.
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let rho = spearman(&x, &y);
        close(rho.value, 0.948_683_3, 1e-6);
    }

    #[test]
    fn kendall_perfect_and_reversed() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [10.0, 20.0, 30.0, 40.0, 50.0];
        close(kendall(&x, &y).value, 1.0, 1e-12);
        let y_rev = [50.0, 40.0, 30.0, 20.0, 10.0];
        close(kendall(&x, &y_rev).value, -1.0, 1e-12);
    }

    #[test]
    fn kendall_reference_value() {
        // R: cor(c(1,2,3,4,5,6), c(2,1,4,3,7,5), method="kendall")
        //    = 0.6, p (exact) = 0.1361; normal approx p ~ 0.09
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0];
        let tau = kendall(&x, &y);
        close(tau.value, 0.6, 1e-12);
        assert!(tau.p_value > 0.05, "p={}", tau.p_value);
    }

    #[test]
    fn kendall_tau_b_with_ties() {
        // SciPy: kendalltau([1,2,2,3], [1,2,3,4]).statistic = 0.9128709
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let tau = kendall(&x, &y);
        close(tau.value, 0.912_870_9, 1e-6);
    }

    #[test]
    fn kendall_matches_naive_on_random_data() {
        // Pseudo-random (deterministic) data with ties; compare Knight's
        // algorithm against the O(n^2) definition.
        let n = 200;
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x.push(((state >> 33) % 17) as f64);
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            y.push(((state >> 33) % 11) as f64);
        }
        let fast = kendall(&x, &y).value;
        let naive = naive_tau_b(&x, &y);
        close(fast, naive, 1e-12);
    }

    fn naive_tau_b(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        let mut tx = 0i64;
        let mut ty = 0i64;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = x[i] - x[j];
                let dy = y[i] - y[j];
                if dx == 0.0 && dy == 0.0 {
                    continue;
                } else if dx == 0.0 {
                    tx += 1;
                } else if dy == 0.0 {
                    ty += 1;
                } else if dx * dy > 0.0 {
                    concordant += 1;
                } else {
                    discordant += 1;
                }
            }
        }
        let n0 = (n * (n - 1) / 2) as i64;
        let s = (concordant - discordant) as f64;
        // n1/n2 are total tied-in-x / tied-in-y pairs, *including* joint ties.
        let joint = n0 - concordant - discordant - tx - ty;
        let n1 = tx + joint;
        let n2 = ty + joint;
        s / (((n0 - n1) as f64) * ((n0 - n2) as f64)).sqrt()
    }

    #[test]
    fn kendall_all_tied_degenerate() {
        let tau = kendall(&[1.0; 5], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(tau.value, 0.0);
        assert_eq!(tau.p_value, 1.0);
    }

    #[test]
    fn large_sample_significance() {
        // A modest correlation over many points must be significant.
        let n = 500;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| i as f64 + ((i * 7919) % 101) as f64 * 5.0)
            .collect();
        for test in [pearson(&x, &y), spearman(&x, &y), kendall(&x, &y)] {
            assert!(test.value > 0.5, "{:?}", test);
            assert!(test.significant(0.05), "{:?}", test);
        }
    }

    #[test]
    fn coefficients_are_symmetric() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0];
        for f in [pearson, spearman, kendall] {
            let a = f(&x, &y);
            let b = f(&y, &x);
            close(a.value, b.value, 1e-12);
            close(a.p_value, b.p_value, 1e-12);
        }
    }

    #[test]
    fn r_to_p_is_zero_at_perfect_correlation() {
        for n in [3, 4, 10, 1000] {
            assert_eq!(r_to_p(1.0, n), 0.0, "r=1, n={n}");
            assert_eq!(r_to_p(-1.0, n), 0.0, "r=-1, n={n}");
        }
    }

    #[test]
    fn r_to_p_is_finite_arbitrarily_close_to_one() {
        // 1 − 1e-16 rounds to the largest f64 below 1 (1 − 2⁻⁵³); the t
        // statistic is enormous but must stay finite, and the p-value a
        // genuine number in [0, 1] — not NaN from Inf entering the beta
        // function.
        let r = 1.0 - 1e-16;
        assert!(r < 1.0, "test premise: r is representable below 1");
        for n in [3, 5, 50] {
            for sign in [1.0, -1.0] {
                let p = r_to_p(sign * r, n);
                assert!(p.is_finite(), "n={n} sign={sign}: p={p}");
                assert!((0.0..=1.0).contains(&p), "n={n} sign={sign}: p={p}");
            }
        }
        // With real degrees of freedom such an r is overwhelming evidence.
        assert!(r_to_p(r, 50) < 1e-10);
    }

    #[test]
    fn r_to_p_without_degrees_of_freedom_is_not_significant() {
        // n < 3 used to underflow `n - 2` (n ≤ 1) or assert df > 0 inside
        // the t distribution (n = 2); all must report p = 1 instead.
        for n in [0, 1, 2] {
            for r in [0.0, 0.5, 1.0, -1.0] {
                assert_eq!(r_to_p(r, n), 1.0, "r={r}, n={n}");
            }
        }
    }

    #[test]
    fn r_to_p_non_finite_r_is_not_significant() {
        assert_eq!(r_to_p(f64::NAN, 10), 1.0);
        assert_eq!(r_to_p(f64::INFINITY, 10), 1.0);
    }

    #[test]
    fn pearson_at_exact_linearity_is_significant() {
        // End-to-end: a perfectly linear relation whose moment square
        // roots are exact (sxx = 4, syy = 36/16) reaches r = ±1 exactly and
        // must come out maximally significant, not NaN.
        let x = [0.0, 0.0, 2.0, 2.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let up = pearson(&x, &y);
        assert_eq!(up.value, 1.0);
        assert_eq!(up.p_value, 0.0);
        let y_down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        let down = pearson(&x, &y_down);
        assert_eq!(down.value, -1.0);
        assert_eq!(down.p_value, 0.0);
    }
}
