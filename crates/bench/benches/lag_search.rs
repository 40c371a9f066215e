//! Benchmark of the multi-scale lag-search engine against the naive
//! reference: for every `(pair, scale)`, re-aggregate both minute-level
//! series from scratch and run a dense [`wtts_stats::ccf`].
//!
//! The engine wins twice. First, aggregation is amortized per *series*
//! (one granularity pyramid each, folded to every scale) instead of per
//! *pair* — the naive path re-bins each series `n − 1` times per scale.
//! Second, with a reporting threshold `φ > 0` the segmented energy bound
//! dismisses most `(scale, lag)` cells before the O(bins) exact fold: the
//! fixture is bursty evening traffic with per-gateway phase shifts, so a
//! lag that misaligns the bursts collapses the Cauchy–Schwarz bound — the
//! regime home-gateway fleets actually present (cf. BENCH_pruning for the
//! pairwise analogue).
//!
//! All timings are single-threaded (`threads = Some(1)`): the reference box
//! exposes one core, and a fixed thread count keeps the committed numbers
//! comparable across machines. The committed baseline is
//! `results/BENCH_lagged.json`.
//!
//! `--smoke` runs a small grid asserting the conservation law
//! `pruned + evaluated == cells` (from both `LagPruneStats` and the obs
//! snapshot's `check_laws`), dense bit-identity against the naive
//! reference and zero false dismissals at φ.

use std::hint::black_box;
use std::time::Instant;
use wtts_bench::perf;
use wtts_core::lagsearch::{lag_search, LagCell, LagSearchConfig, LagSearchResult};
use wtts_core::obs::PipelineObs;
use wtts_stats::ccf;
use wtts_timeseries::{aggregate, Granularity, TimeSeries, MINUTES_PER_DAY, MINUTES_PER_WEEK};

const PHI: f64 = 0.85;
const WEEKS: u32 = 2;

/// A deterministic bursty fleet: every gateway concentrates its traffic in
/// a two-hour evening burst, phase-shifted by 75 minutes per gateway, over
/// small pseudo-random background with scattered reporting gaps. Integer
/// values keep the series on the pyramid fast path.
fn fleet(n: usize) -> Vec<TimeSeries> {
    (0..n)
        .map(|g| {
            let shift = (g * 75) % MINUTES_PER_DAY as usize;
            let minutes = (WEEKS * MINUTES_PER_WEEK) as usize;
            let v: Vec<f64> = (0..minutes)
                .map(|m| {
                    if (m * 31 + g * 7) % 509 == 5 {
                        f64::NAN
                    } else {
                        let phase =
                            (m + 14 * MINUTES_PER_DAY as usize - shift) % MINUTES_PER_DAY as usize;
                        let burst = if (1140..1260).contains(&phase) && (m + g) % 3 != 1 {
                            50_000
                        } else {
                            0
                        };
                        (burst + (m * 17 + g * 13) % 97) as f64
                    }
                })
                .collect();
            TimeSeries::per_minute(v)
        })
        .collect()
}

/// Single-thread engine config; `phi = 0` yields the dense grid.
fn config(phi: f64) -> LagSearchConfig {
    LagSearchConfig {
        scales: vec![
            Granularity::minutes(15),
            Granularity::minutes(30),
            Granularity::hours(1),
        ],
        max_lag_bins: 16,
        phi,
        // Default block width ~ the burst width at the finest scale, so a
        // misaligned burst lands in few blocks and the bound sees mostly
        // background energy on the other side.
        threads: Some(1),
        ..LagSearchConfig::default()
    }
}

/// The naive reference: per `(pair, scale)`, aggregate both minute-level
/// series from scratch and run the dense CCF.
fn naive_grid(series: &[TimeSeries], cfg: &LagSearchConfig) -> Vec<Vec<Vec<f64>>> {
    let mut grid = Vec::new();
    for i in 0..series.len() {
        for j in (i + 1)..series.len() {
            let mut row = Vec::new();
            for &g in &cfg.scales {
                let a = aggregate(&series[i], g, cfg.offset_minutes);
                let b = aggregate(&series[j], g, cfg.offset_minutes);
                row.push(
                    ccf(a.values(), b.values(), cfg.max_lag_bins)
                        .expect("the bursty fixture is never degenerate"),
                );
            }
            grid.push(row);
        }
    }
    grid
}

/// Zero false dismissals, bit for bit: every exact cell must equal the
/// naive reference bitwise, and every pruned cell must be `< φ` there.
fn assert_grid_matches(result: &LagSearchResult, reference: &[Vec<Vec<f64>>], phi: f64) {
    assert_eq!(result.grid.len(), reference.len());
    for (p, row) in reference.iter().enumerate() {
        for (c, cells_ref) in row.iter().enumerate() {
            let cells = result.grid[p][c]
                .cells
                .as_ref()
                .expect("the bursty fixture is never degenerate");
            assert_eq!(cells.len(), cells_ref.len());
            for (idx, (cell, &want)) in cells.iter().zip(cells_ref).enumerate() {
                match *cell {
                    LagCell::Exact { value, .. } => assert_eq!(
                        value.to_bits(),
                        want.to_bits(),
                        "pair {p} scale {c} idx {idx} differs from the naive reference"
                    ),
                    LagCell::Pruned => assert!(
                        want < phi,
                        "pair {p} scale {c} idx {idx} pruned but reference is {want} >= {phi}"
                    ),
                }
            }
        }
    }
}

struct SizeRow {
    n: usize,
    pairs: usize,
    cells_total: u64,
    cells_evaluated: u64,
    prune_rate: f64,
    naive_ms: f64,
    engine_ms: f64,
    engine_dense_ms: f64,
}

/// Verifies dense bit-identity and pruned zero-false-dismissal at every
/// size, times both paths and writes the JSON baseline the repo commits
/// under `results/`.
fn write_baseline() {
    let sizes = [8usize, 16, 24];
    let mut rows: Vec<SizeRow> = Vec::new();
    let mut speedup = f64::NAN;
    for &n in &sizes {
        let series = fleet(n);
        let reference = naive_grid(&series, &config(PHI));

        let dense = lag_search(&series, &config(0.0), None);
        assert_eq!(dense.stats.pruned(), 0, "phi = 0 must evaluate every cell");
        assert_grid_matches(&dense, &reference, f64::INFINITY);

        let pruned = lag_search(&series, &config(PHI), None);
        assert!(pruned.stats.conserved(), "cell books must balance");
        assert_grid_matches(&pruned, &reference, PHI);

        let naive_ms = perf::median_ms(3, || naive_grid(black_box(&series), &config(PHI)));
        let engine_ms = perf::median_ms(3, || lag_search(black_box(&series), &config(PHI), None));
        let engine_dense_ms =
            perf::median_ms(3, || lag_search(black_box(&series), &config(0.0), None));

        let row = SizeRow {
            n,
            pairs: pruned.pairs.len(),
            cells_total: pruned.stats.cells_total,
            cells_evaluated: pruned.stats.evaluated,
            prune_rate: pruned.stats.prune_rate(),
            naive_ms,
            engine_ms,
            engine_dense_ms,
        };
        if n == *sizes.last().expect("sizes nonempty") {
            speedup = row.naive_ms / row.engine_ms;
        }
        println!(
            "n = {n}: naive {:.1} ms, engine {:.1} ms (dense {:.1} ms), {} of {} cells evaluated (prune rate {:.3})",
            row.naive_ms,
            row.engine_ms,
            row.engine_dense_ms,
            row.cells_evaluated,
            row.cells_total,
            row.prune_rate,
        );
        rows.push(row);
    }

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"pairs\": {}, \"cells_total\": {}, \"cells_evaluated\": {}, \"prune_rate\": {:.4}, \"naive_ms\": {:.3}, \"engine_ms\": {:.3}, \"engine_dense_ms\": {:.3}, \"bit_identical\": true}}",
                r.n,
                r.pairs,
                r.cells_total,
                r.cells_evaluated,
                r.prune_rate,
                r.naive_ms,
                r.engine_ms,
                r.engine_dense_ms,
            )
        })
        .collect();
    let available = perf::available_parallelism();
    let json = format!(
        "{{\n\"bench\": \"lag_search\",\n\"baseline\": \"per (pair, scale): fresh aggregation of both series + dense ccf\",\n\"phi\": {PHI},\n\"weeks\": {WEEKS},\n\"scales_minutes\": [15, 30, 60],\n\"max_lag_bins\": 16,\n\"threads\": 1,\n\"available_parallelism\": {available},\n\"sizes\": [\n{}\n],\n\"speedup_single_thread\": {:.2},\n\"bit_identical\": true\n}}\n",
        entries.join(",\n"),
        speedup,
    );
    perf::write_record("results/BENCH_lagged.json", &json);
}

/// CI smoke: a small grid with observability on — conservation (stats and
/// obs laws), dense bit-identity, zero false dismissals at φ and a
/// non-trivial prune rate asserted.
fn smoke() {
    let series = fleet(8);
    let start = Instant::now();

    let obs = PipelineObs::new();
    let pruned = lag_search(&series, &config(PHI), Some(&obs));
    let reference = naive_grid(&series, &config(PHI));
    assert_grid_matches(&pruned, &reference, PHI);

    let dense = lag_search(&series, &config(0.0), None);
    assert_grid_matches(&dense, &reference, f64::INFINITY);

    let stats = pruned.stats;
    assert!(stats.conserved(), "cell books must balance");
    assert!(
        stats.prune_rate() > 0.3,
        "prune rate {:.3} too low for the bursty fixture at phi = {PHI}",
        stats.prune_rate()
    );

    let snapshot = obs.snapshot();
    let failed = snapshot.check_laws();
    assert!(failed.is_empty(), "obs laws broken: {failed:?}");
    assert_eq!(snapshot.lag_cells_total, stats.cells_total);

    println!(
        "lag_search smoke: {} series, {} of {} cells evaluated (prune rate {:.3}), bit-identical in {:.2?}",
        series.len(),
        stats.evaluated,
        stats.cells_total,
        stats.prune_rate(),
        start.elapsed(),
    );
}

fn main() {
    perf::dispatch(smoke, write_baseline);
}
