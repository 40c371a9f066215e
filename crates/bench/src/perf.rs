//! Shared machinery of the gated benches (`crates/bench/benches/`): wall
//! timers, the record writer, the `--smoke` dispatch in each bench's
//! `main`, and the chaos-channel report stream the two ingest benches feed.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wtts_core::ingest::IngestReport;
use wtts_gwsim::{gateway_reports_seeded, ChannelConfig, Fleet, FleetConfig, TaggedReport};

/// Wall time of one call, in milliseconds; the result passes through
/// [`black_box`] inside the timed span.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of a sample (the upper one of an even count).
pub fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// Median wall time of `samples` runs, in milliseconds.
pub fn median_ms<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    median((0..samples).map(|_| time_ms(&mut f)).collect())
}

/// Wall time of `reps` back-to-back calls, in milliseconds.
fn time_reps<F: FnMut()>(f: &mut F, reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Repetitions that stretch one timing sample of a closure to ~`target_ms`.
pub fn calibrate_reps<F: FnMut()>(mut f: F, target_ms: f64) -> usize {
    let start = Instant::now();
    let mut reps = 0usize;
    while start.elapsed().as_secs_f64() * 1e3 < target_ms {
        f();
        reps += 1;
    }
    reps.max(1)
}

/// `samples` timings of each of two closures, taken alternately so a load
/// swing on a shared machine hits both sides of a ratio alike: each sample
/// is the wall time of `reps.0` (`reps.1`) back-to-back calls, in
/// milliseconds. Callers reduce each side to a median or a minimum.
pub fn alternating_samples<A: FnMut(), B: FnMut()>(
    samples: usize,
    reps: (usize, usize),
    mut a: A,
    mut b: B,
) -> (Vec<f64>, Vec<f64>) {
    let (mut ta, mut tb) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for _ in 0..samples {
        ta.push(time_reps(&mut a, reps.0));
        tb.push(time_reps(&mut b, reps.1));
    }
    (ta, tb)
}

/// The machine's available parallelism (1 when unknown), recorded beside
/// every timing so numbers from a one-core box are read for what they are.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Writes a bench record and reports where. A relative `path` resolves
/// against the repository root, so callers pass the `file` of the record's
/// `results/PERF_BUDGET.json` entry: `results/BENCH_*.json` for a committed
/// record, `target/perf/*.json` for a smoke's scratch record. The
/// directory is created if missing.
///
/// # Panics
///
/// When the record cannot be written, naming the path: a record pass that
/// ended quietly without its record would leave `scripts/perf_gate.py`
/// gating the stale one.
pub fn write_record(path: impl AsRef<Path>, json: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    if let Err(e) = written {
        panic!("could not write record {}: {e}", path.display());
    }
    println!("record written to {}", path.display());
}

/// A gated bench's `main`: `--smoke` runs the CI smoke (assertions and at
/// most a scratch record), no flag the record pass.
pub fn dispatch(smoke: fn(), record: fn()) {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
    } else {
        record();
    }
}

/// One simulator report as the ingest tier receives it.
fn envelope(t: &TaggedReport) -> IngestReport {
    IngestReport {
        gateway: t.gateway as u64,
        device: t.device as u32,
        at: t.report.at,
        cum_in: t.report.cum_in,
        cum_out: t.report.cum_out,
    }
}

/// One simulated fleet week through a channel with everything wrong at once
/// (loss, duplication, reordering), so the ingest tier's degradation paths
/// are part of the hot loop. Gateway `id`'s channel is seeded with
/// `seed_salt + id`.
pub fn fleet_reports(n_gateways: usize, seed_salt: u64) -> Vec<IngestReport> {
    let channel = ChannelConfig {
        loss: 0.02,
        duplication: 0.01,
        reorder: 0.01,
    };
    let fleet = Fleet::new(FleetConfig {
        n_gateways,
        weeks: 1,
        ..FleetConfig::default()
    });
    fleet
        .iter()
        .flat_map(|gw| gateway_reports_seeded(&gw, channel, seed_salt + gw.id as u64))
        .map(|t| envelope(&t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_write_fails_loudly_when_parent_is_a_file() {
        let dir = std::env::temp_dir().join(format!("wtts-perf-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        let blocker = dir.join("results");
        std::fs::write(&blocker, "a file, not a directory").expect("write blocker");
        let target = blocker.join("BENCH_test.json");

        let err = std::panic::catch_unwind(|| write_record(&target, "{}\n"))
            .expect_err("writing under a regular file must panic");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains(&target.display().to_string()),
            "panic must name the path: {msg}"
        );

        // The same writer succeeds once the parent is a directory.
        std::fs::remove_file(&blocker).expect("remove blocker");
        write_record(&target, "{}\n");
        assert_eq!(std::fs::read_to_string(&target).expect("read"), "{}\n");
        std::fs::remove_dir_all(&dir).expect("remove test dir");
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}
