//! Per-kernel benchmark of the `wtts_stats::kernels` layer against the
//! loops it replaced, frozen verbatim in this file as baselines:
//!
//! * **pearson_moments** — the batched multi-lag CCF moment fold
//!   (`dot_lags_batch`, four independent accumulator chains per sweep)
//!   against the pre-kernel per-lag serial fold from `ccf_cell_counted`.
//! * **rank_gather** — the full `rank_series` transform, whose hot lane is
//!   the small-domain counting sort (`rank_small_domain`: integral traffic
//!   values rank in O(n + range) with four scatter streams), against the
//!   old index sort whose every comparison chased two indices through the
//!   value array; the comparison-sort fallback, the branchless order filter
//!   and the gather-once tie-run walk are asserted bit-identical alongside.
//! * **kendall_inversions** — the inversion count (`count_inversions`,
//!   whose small-domain lane is a Fenwick prefix-count over value buckets
//!   plus a stable counting sort, and whose general lane is the
//!   insertion-base, skip-merge, ping-pong merge) against the old width-1
//!   bottom-up merge that copied back after every level.
//! * **ks_sup_scan** — the integer-gated KS sup-scan (`f64` gap evaluated
//!   only at weak records) against the classic two-divisions-per-step scan
//!   (`ks_sup_scan_reference`, which is that old loop, kept in the crate as
//!   the large-`n` fallback).
//! * **rank_gather_wide** / **kendall_inversions_wide** — the same two
//!   baselines on the shape the pipeline actually ranks: raw bytes/min
//!   device series, integral with a span far above `n`, which no counting
//!   lane takes. `rank_series` ranks them by stable radix sort
//!   (`rank_radix`), and the profiled Kendall count runs on the partner's
//!   integer rank keys (`count_inversions_keyed`, a Fenwick count over
//!   `[1, m]`) instead of its raw values.
//!
//! Every kernel is asserted bit-identical to its frozen baseline on the
//! bench inputs **before** any timing. Workloads run at the paper's two
//! natural window lengths: one day (1440 minute bins) and one week (10080).
//!
//! A run refreshes the committed baseline at `results/BENCH_kernels.json`
//! (median wall times and the per-kernel single-thread speedups, gated in
//! CI by `scripts/perf_gate.py` against `results/PERF_BUDGET.json`).
//!
//! `--smoke` asserts bit-identity on both windows without touching the
//! committed baseline, then times the two wide-span lanes against the
//! comparison paths they bypass — in this process, fastest of several
//! alternating runs — and writes the ratios to the scratch record
//! `target/perf/kernels_smoke.json`, which `scripts/perf_gate.py --only
//! kernels_smoke` gates (both used by `scripts/ci.sh`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use wtts_bench::perf::{self, alternating_samples, calibrate_reps, median};
use wtts_stats::correlation::KendallTies;
use wtts_stats::kernels::{
    count_inversions, count_inversions_keyed, dot_lags_batch, filter_order_into, gather_values,
    ks_sup_scan, ks_sup_scan_reference, mean_and_sxx, order_stats_gather, ranks_from_sorted_pairs,
    stable_value_sort, sxy_fold, sxy_fold2,
};
use wtts_stats::{cor_tests_profiled, rank_series, CorProfile, CorScratch};

/// The paper's two natural window lengths: one day and one week of minutes.
const WINDOWS: [usize; 2] = [1440, 10080];

/// Lag range of the batched CCF fold (the lag-search default is ±L around
/// zero; ±64 keeps the per-window work representative of one row).
const LAG_SPAN: i64 = 64;

// ---------------------------------------------------------------------------
// Frozen pre-kernel baselines (copied verbatim from the code they replaced)
// ---------------------------------------------------------------------------

/// Old `ccf_cell_counted` numerator: one serial product fold per lag.
fn dot_baseline(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut s = 0.0;
    for i in 0..n {
        s += x[i] * y[i];
    }
    s
}

/// Old per-lag loop body: slice the overlap for one lag, then fold.
fn lag_cells_baseline(a: &[f64], b: &[f64], lags: &[i64], out: &mut Vec<f64>) {
    let n = a.len();
    out.clear();
    for &lag in lags {
        let k = lag.unsigned_abs() as usize;
        out.push(if lag >= 0 {
            dot_baseline(&a[k..], &b[..n - k])
        } else {
            dot_baseline(&a[..n - k], &b[k..])
        });
    }
}

/// Old `rank::rank_series`: up-front finite scan, index sort with
/// value-chasing comparisons, then the tie walk re-indexing the value
/// array through the order. (The kernel path skips the scan when the
/// small-domain probe already certifies finiteness.)
fn rank_series_baseline(xs: &[f64]) -> (Vec<usize>, Vec<f64>, Vec<usize>) {
    assert!(
        xs.iter().all(|x| x.is_finite()),
        "mid_ranks requires finite inputs"
    );
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite values compare"));
    let mut ranks = vec![0.0; n];
    let mut ties = Vec::new();
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        if j > i {
            ties.push(j - i + 1);
        }
        i = j + 1;
    }
    (order, ranks, ties)
}

/// Old `corprofile::filter_order`: branchy push per surviving index.
fn filter_order_baseline(order: &[u32], pos: &[u32], out: &mut Vec<u32>) {
    out.clear();
    for &k in order {
        let g = pos[k as usize];
        if g != u32::MAX {
            out.push(g);
        }
    }
}

/// Old `corprofile::order_stats`: Option-driven walk that indexes the value
/// array through the sort order twice per comparison.
fn order_stats_baseline(
    sorted: &[u32],
    values: &[f64],
    mut ranks: Option<&mut Vec<f64>>,
    mut runs: Option<&mut Vec<(u32, u32)>>,
) -> KendallTies {
    let m = sorted.len();
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
    let mut i = 0;
    while i < m {
        let mut j = i;
        while j + 1 < m && values[sorted[j + 1] as usize] == values[sorted[i] as usize] {
            j += 1;
        }
        if let Some(ranks) = ranks.as_deref_mut() {
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &g in &sorted[i..=j] {
                ranks[g as usize] = avg;
            }
        }
        if j > i {
            let t = (j - i + 1) as u64;
            let tf = t as f64;
            ties.n_tied_pairs += t * (t - 1) / 2;
            ties.vt += tf * (tf - 1.0) * (2.0 * tf + 5.0);
            ties.sum_t2 += tf * (tf - 1.0);
            ties.sum_t3 += tf * (tf - 1.0) * (tf - 2.0);
            if let Some(runs) = runs.as_deref_mut() {
                runs.push((i as u32, (j - i + 1) as u32));
            }
        }
        i = j + 1;
    }
    ties
}

/// Old `correlation::merge_count`: width-1 bottom-up merge, copying the
/// merged span back from `tmp` after every merge.
fn merge_count_baseline(v: &mut [f64], tmp: &mut [f64]) -> u64 {
    let n = v.len();
    let mut inversions = 0u64;
    let mut width = 1;
    while width < n {
        let mut lo = 0;
        while lo + width < n {
            let mid = lo + width;
            let hi = (lo + 2 * width).min(n);
            inversions += merge_baseline(&v[lo..hi], mid - lo, &mut tmp[lo..hi]);
            v[lo..hi].copy_from_slice(&tmp[lo..hi]);
            lo += 2 * width;
        }
        width *= 2;
    }
    inversions
}

fn merge_baseline(src: &[f64], mid: usize, dst: &mut [f64]) -> u64 {
    let (left, right) = src.split_at(mid);
    let mut i = 0;
    let mut j = 0;
    let mut inv = 0u64;
    for slot in dst.iter_mut() {
        if i < left.len() && (j >= right.len() || left[i] <= right[j]) {
            *slot = left[i];
            i += 1;
        } else {
            inv += (left.len() - i) as u64;
            *slot = right[j];
            j += 1;
        }
    }
    inv
}

// ---------------------------------------------------------------------------
// Workloads (traffic-shaped: integral byte counts, bursty, tie-heavy)
// ---------------------------------------------------------------------------

/// One window of traffic-like values: mostly small integral background with
/// occasional integral bursts — ties abound, as in real per-minute byte
/// counts.
fn traffic_window(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.25) {
                (rng.gen::<f64>() * 400.0).floor()
            } else {
                (rng.gen::<f64>() * 6.0).floor()
            }
        })
        .collect()
}

/// One window of raw bytes/min device traffic: a fifth of the minutes idle
/// at zero, the rest log-uniform up to ~3·10⁸ bytes. Integral, with a span
/// far above `n` — no counting lane takes it — and ties among idle and
/// small minutes, like the device series Definition 4 ranks.
fn wide_window(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                0.0
            } else {
                3e8f64.powf(rng.gen::<f64>()).floor()
            }
        })
        .collect()
}

/// Deviations (value − mean) of one traffic window, the CCF fold's input.
fn deviations(n: usize, seed: u64) -> Vec<f64> {
    let vals = traffic_window(n, seed);
    let mean = vals.iter().sum::<f64>() / n as f64;
    vals.iter().map(|v| v - mean).collect()
}

struct RankWork {
    /// Stable sort permutation of the full compacted series.
    order: Vec<u32>,
    /// Compact index → pairwise-gathered position, `u32::MAX` when the
    /// other side is missing there (~10% of entries).
    pos: Vec<u32>,
    /// The pairwise-gathered values the filtered order points into.
    gathered: Vec<f64>,
}

/// The `gather_pairwise` shape the rank kernels run against: a per-series
/// sort order, a positions map with holes, and the gathered values.
fn rank_work(n: usize, seed: u64) -> RankWork {
    let vals = traffic_window(n, seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&p, &q| {
        vals[p as usize]
            .partial_cmp(&vals[q as usize])
            .expect("finite values compare")
    });
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
    let mut pos = vec![0u32; n];
    let mut gathered = Vec::with_capacity(n);
    for (k, slot) in pos.iter_mut().enumerate() {
        if rng.gen_bool(0.1) {
            *slot = u32::MAX;
        } else {
            *slot = gathered.len() as u32;
            gathered.push(vals[k]);
        }
    }
    RankWork {
        order,
        pos,
        gathered,
    }
}

/// A noisy monotone sequence in x-sorted order: the Kendall y-array of a
/// positively correlated pair, with enough disorder that the inversion
/// count is a real merge workload.
fn kendall_y(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| (i as f64 * 0.25 + rng.gen::<f64>() * n as f64 * 0.2).floor())
        .collect()
}

/// [`kendall_y`] at raw-byte scale: the same noisy monotone sequence with a
/// span far above `n`, so the value-domain Fenwick lane declines it.
fn kendall_y_wide(n: usize, seed: u64) -> Vec<f64> {
    kendall_y(n, seed)
        .iter()
        .map(|v| (v * 12_345.0 + 7.0).floor())
        .collect()
}

/// The partner-side integer rank keys the profiled Kendall count runs on:
/// `⌊mid-rank⌋` of each value, in the sequence's own order.
fn rank_keys(y: &[f64]) -> Vec<u32> {
    rank_series(y).ranks.iter().map(|&r| r as u32).collect()
}

/// Two ascending-sorted samples from shifted traffic distributions (the KS
/// scan's input; unequal lengths exercise both cursors).
fn ks_samples(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut a = traffic_window(n, seed);
    let mut b: Vec<f64> = traffic_window(n * 4 / 5, seed ^ 0xABCD)
        .iter()
        .map(|v| v * 1.1 + 1.0)
        .collect();
    a.sort_by(|p, q| p.partial_cmp(q).expect("finite values compare"));
    b.sort_by(|p, q| p.partial_cmp(q).expect("finite values compare"));
    (a, b)
}

fn lag_grid() -> Vec<i64> {
    (-LAG_SPAN..=LAG_SPAN).collect()
}

// ---------------------------------------------------------------------------
// Bit-identity (asserted on the bench inputs before any timing)
// ---------------------------------------------------------------------------

fn assert_ties_identical(a: &KendallTies, b: &KendallTies, what: &str) {
    assert_eq!(a.n_tied_pairs, b.n_tied_pairs, "{what}: tied pairs");
    assert_eq!(a.vt.to_bits(), b.vt.to_bits(), "{what}: vt");
    assert_eq!(a.sum_t2.to_bits(), b.sum_t2.to_bits(), "{what}: sum_t2");
    assert_eq!(a.sum_t3.to_bits(), b.sum_t3.to_bits(), "{what}: sum_t3");
}

/// Every kernel must reproduce its frozen baseline bit for bit on this
/// window size.
fn assert_bit_identical(n: usize) {
    // Kernel A: batched CCF moments, plus the fused pair fold.
    let (a, b) = (deviations(n, 11), deviations(n, 23));
    let lags = lag_grid();
    let (mut batch, mut per_lag) = (Vec::new(), Vec::new());
    dot_lags_batch(&a, &b, &lags, &mut batch);
    lag_cells_baseline(&a, &b, &lags, &mut per_lag);
    for (lag, (x, y)) in lags.iter().zip(batch.iter().zip(&per_lag)) {
        assert_eq!(x.to_bits(), y.to_bits(), "CCF cell at lag {lag}, n={n}");
    }
    let (sv, sr) = sxy_fold2(&a, &b, 0.5, -0.5, &b, &a, 1.5, 2.5);
    assert_eq!(sv.to_bits(), sxy_fold(&a, &b, 0.5, -0.5).to_bits());
    assert_eq!(sr.to_bits(), sxy_fold(&b, &a, 1.5, 2.5).to_bits());

    // Kernel B: the rank transform — the small-domain counting lane on the
    // integral traffic window, the comparison-sort fallback on a shifted
    // (non-integral) copy — plus the order filter + tie-run walk.
    let vals = traffic_window(n, 37);
    for vals in [
        vals.clone(),
        vals.iter().map(|v| v + 0.25).collect::<Vec<f64>>(),
        wide_window(n, 37),
    ] {
        let (order_old, ranks_rs_old, ties_old) = rank_series_baseline(&vals);
        let ranked = rank_series(&vals);
        let order_new: Vec<usize> = ranked.order.iter().map(|&i| i as usize).collect();
        assert_eq!(order_new, order_old, "sort permutation, n={n}");
        for (i, (x, y)) in ranked.ranks.iter().zip(&ranks_rs_old).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "series rank {i}, n={n}");
        }
        assert_eq!(ranked.ties, ties_old, "tie groups, n={n}");
        let (mut kv, mut ranks_kv, mut ties_kv) = (Vec::new(), Vec::new(), Vec::new());
        stable_value_sort(&vals, &mut kv);
        ranks_from_sorted_pairs(&kv, &mut ranks_kv, &mut ties_kv);
        let order_kv: Vec<usize> = kv.iter().map(|pair| pair.1 as usize).collect();
        assert_eq!(order_kv, order_old, "pair-sort permutation, n={n}");
        for (i, (x, y)) in ranks_kv.iter().zip(&ranks_rs_old).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "pair-sort rank {i}, n={n}");
        }
        assert_eq!(ties_kv, ties_old, "pair-sort tie groups, n={n}");
    }
    let work = rank_work(n, 37);
    let (mut f_new, mut f_old) = (Vec::new(), Vec::new());
    filter_order_into(&work.order, &work.pos, &mut f_new);
    filter_order_baseline(&work.order, &work.pos, &mut f_old);
    assert_eq!(f_new, f_old, "filtered order, n={n}");
    let (mut sv_buf, mut ranks_new, mut runs_new) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ranks_old, mut runs_old) = (Vec::new(), Vec::new());
    let ties_new = order_stats_gather(
        &f_new,
        &work.gathered,
        &mut sv_buf,
        Some(&mut ranks_new),
        Some(&mut runs_new),
    );
    let ties_old = order_stats_baseline(
        &f_old,
        &work.gathered,
        Some(&mut ranks_old),
        Some(&mut runs_old),
    );
    assert_eq!(ranks_new.len(), ranks_old.len());
    for (i, (x, y)) in ranks_new.iter().zip(&ranks_old).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "rank {i}, n={n}");
    }
    assert_eq!(runs_new, runs_old, "tie runs, n={n}");
    assert_ties_identical(&ties_new, &ties_old, "order stats");

    // Kernel C: inversion count (and both paths sort ascending) — the
    // integral y-array takes the Fenwick lane, a scaled (non-integral) copy
    // takes the general merge.
    let y = kendall_y(n, 53);
    for y in [
        y.clone(),
        y.iter().map(|v| v * 0.5 + 0.25).collect::<Vec<f64>>(),
    ] {
        let mut buf_new = y.clone();
        let mut buf_old = y.clone();
        let mut tmp_new = Vec::new();
        let mut tmp_old = vec![0.0; n];
        let inv_new = count_inversions(&mut buf_new, &mut tmp_new);
        let inv_old = merge_count_baseline(&mut buf_old, &mut tmp_old);
        assert_eq!(inv_new, inv_old, "inversion count, n={n}");
        for (x, y) in buf_new.iter().zip(&buf_old) {
            assert_eq!(x.to_bits(), y.to_bits(), "sorted output, n={n}");
        }
    }
    // The wide sequence counted on its rank keys.
    let y = kendall_y_wide(n, 53);
    let mut buf_old = y.clone();
    let inv_old = merge_count_baseline(&mut buf_old, &mut vec![0.0; n]);
    let inv_keyed = count_inversions_keyed(&rank_keys(&y), n + 1, &mut Vec::new());
    assert_eq!(inv_keyed, inv_old, "keyed inversion count, n={n}");

    // Kernel D: KS sup-scan.
    let (ka, kb) = ks_samples(n, 71);
    assert_eq!(
        ks_sup_scan(&ka, &kb).to_bits(),
        ks_sup_scan_reference(&ka, &kb).to_bits(),
        "KS D statistic, n={n}"
    );
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

struct KernelTimes {
    baseline_ms: f64,
    kernel_ms: f64,
}

impl KernelTimes {
    fn speedup(&self) -> f64 {
        self.baseline_ms / self.kernel_ms
    }
}

/// Times one kernel/baseline closure pair over a shared calibrated
/// repetition count (calibrated on the baseline, so both paths do the same
/// number of calls per sample): median of seven alternating samples each.
fn time_pair<K: FnMut(), B: FnMut()>(kernel: K, mut baseline: B) -> KernelTimes {
    let reps = calibrate_reps(&mut baseline, 20.0);
    let (base, kern) = alternating_samples(7, (reps, reps), baseline, kernel);
    KernelTimes {
        baseline_ms: median(base),
        kernel_ms: median(kern),
    }
}

fn time_pearson_moments(n: usize) -> KernelTimes {
    let (a, b) = (deviations(n, 11), deviations(n, 23));
    let lags = lag_grid();
    let mut out_new = Vec::new();
    let mut out_old = Vec::new();
    time_pair(
        || {
            dot_lags_batch(black_box(&a), black_box(&b), &lags, &mut out_new);
            black_box(&out_new);
        },
        || {
            lag_cells_baseline(black_box(&a), black_box(&b), &lags, &mut out_old);
            black_box(&out_old);
        },
    )
}

fn time_rank_gather(n: usize) -> KernelTimes {
    let vals = traffic_window(n, 37);
    time_pair(
        || {
            black_box(rank_series(black_box(&vals)));
        },
        || {
            black_box(rank_series_baseline(black_box(&vals)));
        },
    )
}

fn time_kendall_inversions(n: usize) -> KernelTimes {
    let y = kendall_y(n, 53);
    let mut buf_new = vec![0.0; n];
    let mut buf_old = vec![0.0; n];
    let mut tmp_new = Vec::new();
    let mut tmp_old = vec![0.0; n];
    time_pair(
        || {
            buf_new.copy_from_slice(&y);
            black_box(count_inversions(black_box(&mut buf_new), &mut tmp_new));
        },
        || {
            buf_old.copy_from_slice(&y);
            black_box(merge_count_baseline(black_box(&mut buf_old), &mut tmp_old));
        },
    )
}

fn time_rank_gather_wide(n: usize) -> KernelTimes {
    let vals = wide_window(n, 37);
    time_pair(
        || {
            black_box(rank_series(black_box(&vals)));
        },
        || {
            black_box(rank_series_baseline(black_box(&vals)));
        },
    )
}

/// The partner's rank keys are per-series work the profile caches, so only
/// the per-pair count is timed on either side.
fn time_kendall_inversions_wide(n: usize) -> KernelTimes {
    let y = kendall_y_wide(n, 53);
    let keys = rank_keys(&y);
    let mut tree = Vec::new();
    let mut buf_old = vec![0.0; n];
    let mut tmp_old = vec![0.0; n];
    time_pair(
        || {
            black_box(count_inversions_keyed(black_box(&keys), n + 1, &mut tree));
        },
        || {
            buf_old.copy_from_slice(&y);
            black_box(merge_count_baseline(black_box(&mut buf_old), &mut tmp_old));
        },
    )
}

fn time_ks_sup_scan(n: usize) -> KernelTimes {
    let (a, b) = ks_samples(n, 71);
    time_pair(
        || {
            black_box(ks_sup_scan(black_box(&a), black_box(&b)));
        },
        || {
            black_box(ks_sup_scan_reference(black_box(&a), black_box(&b)));
        },
    )
}

#[allow(clippy::type_complexity)]
const KERNELS: [(&str, fn(usize) -> KernelTimes); 6] = [
    ("pearson_moments", time_pearson_moments),
    ("rank_gather", time_rank_gather),
    ("kendall_inversions", time_kendall_inversions),
    ("ks_sup_scan", time_ks_sup_scan),
    ("rank_gather_wide", time_rank_gather_wide),
    ("kendall_inversions_wide", time_kendall_inversions_wide),
];

// ---------------------------------------------------------------------------
// Baseline writer, CI smoke
// ---------------------------------------------------------------------------

/// Verifies bit-identity at both windows, then times every kernel against
/// its frozen baseline and writes the JSON baseline the repo commits under
/// `results/`.
fn write_baseline() {
    for &n in &WINDOWS {
        assert_bit_identical(n);
    }
    let mut kernel_entries = Vec::new();
    for (name, timer) in KERNELS {
        let mut window_entries = Vec::new();
        let mut min_speedup = f64::INFINITY;
        for &n in &WINDOWS {
            let t = timer(n);
            min_speedup = min_speedup.min(t.speedup());
            window_entries.push(format!(
                "      \"{n}\": {{ \"baseline_ms\": {:.3}, \"kernel_ms\": {:.3}, \"speedup\": {:.2} }}",
                t.baseline_ms,
                t.kernel_ms,
                t.speedup()
            ));
            println!(
                "{name} @ {n}: baseline {:.3} ms, kernel {:.3} ms, speedup {:.2}x",
                t.baseline_ms,
                t.kernel_ms,
                t.speedup()
            );
        }
        kernel_entries.push(format!(
            "    \"{name}\": {{\n{},\n      \"speedup_min\": {min_speedup:.2}\n    }}",
            window_entries.join(",\n")
        ));
    }
    let available = perf::available_parallelism();
    let json = format!(
        "{{\n\"bench\": \"kernels\",\n\"baseline\": \"pre-kernel-layer loops frozen in benches/kernels.rs: per-lag serial CCF fold, Option-driven rank walk, width-1 merge with per-level copy-back, per-step f64 KS scan\",\n\"windows\": [{}, {}],\n\"lags\": {},\n\"available_parallelism\": {available},\n\"threads\": 1,\n\"kernels\": {{\n{}\n}},\n\"bit_identical\": true\n}}\n",
        WINDOWS[0],
        WINDOWS[1],
        2 * LAG_SPAN + 1,
        kernel_entries.join(",\n")
    );
    perf::write_record("results/BENCH_kernels.json", &json);
}

/// The comparison rank path `rank_series` falls back to: stable
/// `(value, index)` sort plus the sequential tie walk.
fn rank_by_comparison(xs: &[f64]) -> (Vec<u32>, Vec<f64>, Vec<usize>) {
    let mut kv = Vec::new();
    stable_value_sort(xs, &mut kv);
    let (mut ranks, mut ties) = (Vec::new(), Vec::new());
    ranks_from_sorted_pairs(&kv, &mut ranks, &mut ties);
    (kv.iter().map(|p| p.1).collect(), ranks, ties)
}

/// Kendall's y-refinement over raw `f64` values, as the profiled path ran
/// it before rank keys: stable sort inside each x-tie run, joint ties
/// counted from the equal-value runs.
fn refine_tie_runs_f64(y: &mut [f64], tie_runs: &[(u32, u32)]) -> u64 {
    let mut n3 = 0u64;
    for &(start, len) in tie_runs {
        let seg = &mut y[start as usize..(start + len) as usize];
        seg.sort_by(|p, q| p.partial_cmp(q).expect("finite values compare"));
        let mut i = 0;
        while i < seg.len() {
            let mut j = i + 1;
            while j < seg.len() && seg[j] == seg[i] {
                j += 1;
            }
            let g = (j - i) as u64;
            n3 += g * (g - 1) / 2;
            i = j;
        }
    }
    n3
}

/// One side of [`F64KendallPair`]: values, mid-ranks and their means.
struct PairSide {
    vals: Vec<f64>,
    ranks: Vec<f64>,
    mean: f64,
    rank_mean: f64,
}

impl PairSide {
    fn new(vals: &[f64]) -> PairSide {
        let ranks = rank_series(vals).ranks;
        PairSide {
            vals: vals.to_vec(),
            mean: mean_and_sxx(vals).0,
            rank_mean: mean_and_sxx(&ranks).0,
            ranks,
        }
    }
}

/// The equal-mask pair work of `cor_tests_profiled` with Kendall counted
/// on `f64` values: the fused Pearson/Spearman fold, then the partner's
/// values gathered along x's order, refined inside x-tie runs and
/// merge-counted (`count_inversions`, whose value-domain lane declines a
/// wide span).
struct F64KendallPair {
    x_order: Vec<u32>,
    x_runs: Vec<(u32, u32)>,
    x: PairSide,
    y: PairSide,
}

impl F64KendallPair {
    fn new(xs: &[f64], ys: &[f64]) -> F64KendallPair {
        let (x_order, _, _) = rank_by_comparison(xs);
        let mut x_runs = Vec::new();
        let mut i = 0;
        while i < xs.len() {
            let mut j = i + 1;
            while j < xs.len() && xs[x_order[j] as usize] == xs[x_order[i] as usize] {
                j += 1;
            }
            if j - i > 1 {
                x_runs.push((i as u32, (j - i) as u32));
            }
            i = j;
        }
        F64KendallPair {
            x_order,
            x_runs,
            x: PairSide::new(xs),
            y: PairSide::new(ys),
        }
    }

    /// `(sxy of values, sxy of ranks, joint ties, discordant pairs)`.
    fn run(&self, ybuf: &mut Vec<f64>, tmp: &mut Vec<f64>) -> (f64, f64, u64, u64) {
        let (x, y) = (&self.x, &self.y);
        let (sv, sr) = sxy_fold2(
            &x.vals,
            &y.vals,
            x.mean,
            y.mean,
            &x.ranks,
            &y.ranks,
            x.rank_mean,
            y.rank_mean,
        );
        gather_values(&self.x_order, &y.vals, ybuf);
        let n3 = refine_tie_runs_f64(ybuf, &self.x_runs);
        (sv, sr, n3, count_inversions(ybuf, tmp))
    }
}

/// Each side's fastest sample per call, in milliseconds: the
/// least-disturbed estimate of its own cost.
fn fastest_per_call(reps: (usize, usize), (ta, tb): (Vec<f64>, Vec<f64>)) -> (f64, f64) {
    let fastest = |t: Vec<f64>| t.into_iter().fold(f64::INFINITY, f64::min);
    (fastest(ta) / reps.0 as f64, fastest(tb) / reps.1 as f64)
}

/// CI smoke: bit-identity of every kernel against the frozen baselines at
/// both window lengths, then the in-run ratios of the wide-span lanes on a
/// four-week device-shaped pair, written to the scratch record the perf
/// gate reads. No baseline refresh.
fn smoke() {
    const SAMPLES: usize = 7;
    let start = Instant::now();
    for &n in &WINDOWS {
        assert_bit_identical(n);
    }
    println!(
        "kernels smoke: {} kernels x {} windows bit-identical to frozen baselines in {:.2?}",
        KERNELS.len(),
        WINDOWS.len(),
        start.elapsed(),
    );

    // A gateway-total-like x (busy, wide, few ties) against a device-like y
    // (idle fifth, wide bursts) over four weeks of minutes: the shape of a
    // Definition-4 pair on the paper's workload.
    let n = 4 * WINDOWS[1];
    let total = kendall_y_wide(n, 89);
    let device = wide_window(n, 97);

    let (order, ranks, ties) = rank_by_comparison(&device);
    let ranked = rank_series(&device);
    assert!(
        ranked.order == order && ranked.ranks == ranks && ranked.ties == ties,
        "rank_series must match the comparison path"
    );
    let mut comparison = || {
        black_box(rank_by_comparison(black_box(&device)));
    };
    let mut series = || {
        black_box(rank_series(black_box(&device)));
    };
    let reps = (
        calibrate_reps(&mut comparison, 10.0),
        calibrate_reps(&mut series, 10.0),
    );
    let (comparison_ms, radix_ms) =
        fastest_per_call(reps, alternating_samples(SAMPLES, reps, comparison, series));

    let f64_pair = F64KendallPair::new(&total, &device);
    let (a, b) = (CorProfile::new(&total), CorProfile::new(&device));
    let (mut ybuf, mut tmp) = (Vec::new(), Vec::new());
    let mut scratch = CorScratch::new();
    let (_, _, n3, discordant) = f64_pair.run(&mut ybuf, &mut tmp);
    let (_, _, k) = cor_tests_profiled(&a, &b, &mut scratch);
    assert_eq!(
        k.value.to_bits(),
        wtts_stats::kendall(&total, &device).value.to_bits(),
        "profiled Kendall must match from-scratch"
    );
    assert!(
        n3 > 0 && discordant > 0,
        "the pair must exercise both counts"
    );
    let mut f64_count = || {
        black_box(f64_pair.run(&mut ybuf, &mut tmp));
    };
    let mut profiled = || {
        black_box(cor_tests_profiled(
            black_box(&a),
            black_box(&b),
            &mut scratch,
        ));
    };
    let reps = (
        calibrate_reps(&mut f64_count, 10.0),
        calibrate_reps(&mut profiled, 10.0),
    );
    let (f64_ms, keyed_ms) = fastest_per_call(
        reps,
        alternating_samples(SAMPLES, reps, f64_count, profiled),
    );

    let rank_ratio = comparison_ms / radix_ms;
    let kendall_ratio = f64_ms / keyed_ms;
    println!(
        "wide lanes @ {n}: rank comparison {comparison_ms:.3} ms vs rank_series \
         {radix_ms:.3} ms ({rank_ratio:.2}x); f64 Kendall pair {f64_ms:.3} ms vs \
         cor_tests_profiled {keyed_ms:.3} ms ({kendall_ratio:.2}x), min of {SAMPLES}"
    );
    let json = format!(
        "{{\n\"bench\": \"kernels_smoke\",\n\"n\": {n},\n\"samples\": {SAMPLES},\n\"rank_comparison_min_ms\": {comparison_ms:.4},\n\"rank_series_min_ms\": {radix_ms:.4},\n\"rank_comparison_over_series\": {rank_ratio:.3},\n\"kendall_f64_pair_min_ms\": {f64_ms:.4},\n\"cor_tests_profiled_min_ms\": {keyed_ms:.4},\n\"kendall_f64_over_profiled\": {kendall_ratio:.3}\n}}\n"
    );
    perf::write_record("target/perf/kernels_smoke.json", &json);
}

fn main() {
    perf::dispatch(smoke, write_baseline);
}
