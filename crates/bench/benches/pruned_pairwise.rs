//! Benchmark of the sketch-pruned sparse correlation matrix against the
//! dense all-pairs engine, on synthetic gateway populations drawn from the
//! schedule-family generator (`wtts_gwsim::synth`).
//!
//! The dense path evaluates Definition 1 exactly for all n(n−1)/2 pairs —
//! quadratic however regular the fleet is. The pruned path first runs the
//! sketch cascade (degenerate → SAX MINDIST → moment bounds) and only
//! evaluates survivors, so its cost is quadratic in *cheap bound checks*
//! but near-linear in *exact evaluations* when most pairs are provably
//! below threshold, which is exactly the regime a real fleet at φ = 0.6
//! presents. The committed baseline (`results/BENCH_pruning.json`) records
//! both wall times and the evaluated-pair counts at 500 → 50k gateways, so
//! the scaling bend is visible in the data, not just claimed.
//!
//! All timings are single-threaded (`threads = Some(1)`): the reference box
//! exposes one core, and a fixed thread count keeps the committed numbers
//! comparable across machines.
//!
//! Dense wall time at 50k (~625 million exact evaluations) is hours, so the
//! baseline measures dense up to 10k and extrapolates 10k → 50k by the
//! exact ×25 pair-count ratio, labeled `dense_extrapolated` in the JSON.
//!
//! `--smoke` runs a 2k-gateway pass asserting prune rate ≥ 0.90 at φ = 0.6,
//! the conservation law `pairs_pruned + pairs_evaluated == pairs_total`
//! (from both `PruneStats` and the obs snapshot's `check_laws`) and
//! bit-identity against the dense matrix.

use std::hint::black_box;
use std::time::Instant;
use wtts_bench::perf;
use wtts_core::engine::{
    cor_matrix, cor_matrix_pruned, profile_series, sketch_series, CondensedMatrix, CorMatrixConfig,
    PruneConfig, PruneStats, SparseCorMatrix,
};
use wtts_core::obs::PipelineObs;
use wtts_gwsim::{synthetic_windows, SynthConfig};
use wtts_stats::CorProfile;

const PHI: f64 = 0.6;

fn population(n_gateways: usize) -> Vec<Vec<f64>> {
    synthetic_windows(&SynthConfig {
        n_gateways,
        ..SynthConfig::default()
    })
}

/// Single-thread matrix config: the committed numbers are one-core numbers.
fn matrix_config() -> CorMatrixConfig {
    CorMatrixConfig { threads: Some(1) }
}

fn prune_config() -> PruneConfig {
    PruneConfig {
        matrix: matrix_config(),
        ..PruneConfig::at_threshold(PHI)
    }
}

fn dense(profiles: &[CorProfile]) -> CondensedMatrix {
    cor_matrix(profiles, &matrix_config(), None)
}

fn pruned(
    profiles: &[CorProfile],
    sketches: &[wtts_stats::CorSketch],
) -> (SparseCorMatrix, PruneStats) {
    cor_matrix_pruned(profiles, sketches, &prune_config(), None)
}

/// Zero false dismissals, bit for bit: every dense entry ≥ φ must appear in
/// the sparse matrix with the identical f32, and every absent pair must be
/// below φ in the dense matrix too.
fn assert_bit_identical(sparse: &SparseCorMatrix, dense: &CondensedMatrix, n: usize) {
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dense.get(i, j);
            match sparse.get(i, j) {
                Some(s) => assert_eq!(
                    s.to_bits(),
                    d.to_bits(),
                    "survivor ({i},{j}) differs from dense"
                ),
                None => assert!(
                    (d as f64) < PHI,
                    "pair ({i},{j}) pruned but dense similarity {d} >= {PHI}"
                ),
            }
        }
    }
}

struct SizeRow {
    n: usize,
    pairs_total: u64,
    pairs_evaluated: u64,
    prune_rate: f64,
    dense_ms: f64,
    dense_extrapolated: bool,
    pruned_ms: f64,
    bit_identical: Option<bool>,
}

/// Verifies bit-identity where dense is measured, times both paths at every
/// size and writes the JSON baseline the repo commits under `results/`.
fn write_baseline() {
    let sizes = [500usize, 2_000, 10_000, 50_000];
    // Dense sample counts per size; 0 means extrapolate from the previous
    // measured size by the exact pair-count ratio.
    let dense_samples = [5usize, 3, 1, 0];
    let pruned_samples = [5usize, 3, 1, 1];

    let mut rows: Vec<SizeRow> = Vec::new();
    let mut speedup_10k = f64::NAN;
    for (k, &n) in sizes.iter().enumerate() {
        let windows = population(n);
        let profiles = profile_series(&windows, None);
        let sketches = sketch_series(&profiles, &prune_config().sketch, None);

        let (sparse, stats) = pruned(&profiles, &sketches);
        let pruned_ms = perf::median_ms(pruned_samples[k], || {
            pruned(black_box(&profiles), black_box(&sketches))
        });

        let (dense_ms, dense_extrapolated, bit_identical) = if dense_samples[k] > 0 {
            let reference = dense(&profiles);
            assert_bit_identical(&sparse, &reference, n);
            drop(reference);
            let t = perf::median_ms(dense_samples[k], || dense(black_box(&profiles)));
            (t, false, Some(true))
        } else {
            let prev = rows.last().expect("extrapolation needs a measured size");
            assert!(!prev.dense_extrapolated, "chained extrapolation");
            let ratio = (n * (n - 1)) as f64 / (prev.n * (prev.n - 1)) as f64;
            (prev.dense_ms * ratio, true, None)
        };

        assert!(stats.conserved(), "prune stats must balance at n = {n}");
        let row = SizeRow {
            n,
            pairs_total: stats.pairs_total,
            pairs_evaluated: stats.pairs_evaluated,
            prune_rate: stats.prune_rate(),
            dense_ms,
            dense_extrapolated,
            pruned_ms,
            bit_identical,
        };
        if n == 10_000 {
            speedup_10k = row.dense_ms / row.pruned_ms;
        }
        println!(
            "n = {n}: dense {:.1} ms{}, pruned {:.1} ms, {} of {} pairs evaluated (prune rate {:.3})",
            row.dense_ms,
            if dense_extrapolated { " (extrapolated)" } else { "" },
            row.pruned_ms,
            row.pairs_evaluated,
            row.pairs_total,
            row.prune_rate,
        );
        rows.push(row);
        drop(sparse);
    }

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"pairs_total\": {}, \"pairs_evaluated\": {}, \"prune_rate\": {:.4}, \"dense_ms\": {:.3}, \"dense_extrapolated\": {}, \"pruned_ms\": {:.3}, \"bit_identical\": {}}}",
                r.n,
                r.pairs_total,
                r.pairs_evaluated,
                r.prune_rate,
                r.dense_ms,
                r.dense_extrapolated,
                r.pruned_ms,
                r.bit_identical
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "null".into()),
            )
        })
        .collect();
    let available = perf::available_parallelism();
    let json = format!(
        "{{\n\"bench\": \"pruned_pairwise\",\n\"baseline\": \"dense cor_matrix: exact Definition-1 evaluation of all n(n-1)/2 pairs\",\n\"phi\": {PHI},\n\"series_len\": 56,\n\"families\": 32,\n\"threads\": 1,\n\"available_parallelism\": {available},\n\"sizes\": [\n{}\n],\n\"speedup_single_thread\": {:.2},\n\"bit_identical\": true\n}}\n",
        entries.join(",\n"),
        speedup_10k,
    );
    perf::write_record("results/BENCH_pruning.json", &json);
}

/// CI smoke: 2k gateways at φ = 0.6 with observability on — prune rate,
/// conservation (stats and obs laws) and bit-identity asserted.
fn smoke() {
    let n = 2_000;
    let windows = population(n);
    let start = Instant::now();

    let obs = PipelineObs::new();
    let profiles = profile_series(&windows, None);
    let sketches = sketch_series(&profiles, &prune_config().sketch, None);
    let (sparse, stats) = cor_matrix_pruned(&profiles, &sketches, &prune_config(), Some(&obs));

    assert!(stats.conserved(), "prune stats must balance");
    assert!(
        stats.prune_rate() >= 0.90,
        "prune rate {:.3} below 0.90 at phi = {PHI}",
        stats.prune_rate()
    );
    assert_eq!(sparse.evaluated_pairs() as u64, stats.pairs_evaluated);

    let snapshot = obs.snapshot();
    let failed = snapshot.check_laws();
    assert!(failed.is_empty(), "obs laws broken: {failed:?}");
    assert_eq!(snapshot.prune_pairs_total, stats.pairs_total);

    let reference = dense(&profiles);
    assert_bit_identical(&sparse, &reference, n);

    println!(
        "pruned_pairwise smoke: {} gateways, {} of {} pairs evaluated (prune rate {:.3}), bit-identical in {:.2?}",
        n,
        stats.pairs_evaluated,
        stats.pairs_total,
        stats.prune_rate(),
        start.elapsed(),
    );
}

fn main() {
    perf::dispatch(smoke, write_baseline);
}
