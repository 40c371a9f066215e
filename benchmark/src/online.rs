//! The online tier: the sharded ingest pipeline, plain and durable, and the
//! crash drill that kills a durable run and recovers it.

use crate::trace::Tracer;
use crate::workload::Inputs;
use std::path::Path;
use std::time::Instant;
use wtts_core::ingest::{IngestConfig, IngestPipeline, IngestSummary};
use wtts_core::{
    wal_disk_usage, Durability, DurableConfig, DurablePipeline, DurableRun, KillMode, KillPoint,
};

/// One ingest shard: with the producer that is the two threads a 2-core
/// machine has.
fn config() -> IngestConfig {
    IngestConfig {
        shards: 1,
        ..IngestConfig::default()
    }
}

/// Empties a durable directory, so a fresh pipeline does not pay for
/// deleting the previous pass's files inside a timed phase.
pub fn reset(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot clear {}: {e}", dir.display()),
    }
}

/// An uninterrupted durable run.
#[derive(Debug)]
pub struct DurableOutcome {
    pub secs: f64,
    pub summary: IngestSummary,
    pub state_digest: u64,
    pub durability: Durability,
    pub wal_disk_bytes: u64,
}

/// Plain in-memory ingest of the whole stream, timed.
pub fn plain(inputs: &Inputs) -> (f64, IngestSummary) {
    let started = Instant::now();
    let summary =
        IngestPipeline::new(config(), inputs.templates.clone()).run(inputs.stream.iter().copied());
    (started.elapsed().as_secs_f64(), summary)
}

fn completed(run: DurableRun) -> Option<(IngestSummary, u64, Durability)> {
    match run {
        DurableRun::Completed {
            summary,
            state_digest,
            durability,
        } => Some((*summary, state_digest, durability)),
        DurableRun::Killed => None,
    }
}

/// Durable ingest of the whole stream with the default `DurableConfig`
/// into the empty directory `dir`: pipeline creation and the run are timed.
pub fn durable(inputs: &Inputs, dir: &Path) -> DurableOutcome {
    let started = Instant::now();
    let mut pipeline =
        DurablePipeline::create(config(), inputs.templates.clone(), DurableConfig::new(dir))
            .expect("create a durable pipeline");
    let run = pipeline
        .run(inputs.stream.iter().copied(), None)
        .expect("durable ingest run");
    let secs = started.elapsed().as_secs_f64();
    let (summary, state_digest, durability) =
        completed(run).expect("no kill point was armed, so the run completes");
    DurableOutcome {
        secs,
        summary,
        state_digest,
        durability,
        wal_disk_bytes: wal_disk_usage(dir).expect("read the WAL directory"),
    }
}

/// A durable run killed part-way, then recovered and fed the full stream.
#[derive(Debug)]
pub struct DrillOutcome {
    pub killed: bool,
    pub recover_s: f64,
    pub resume_s: f64,
    /// `None` when the resumed run did not complete.
    pub resumed: Option<(IngestSummary, u64, Durability)>,
}

/// Kills a durable run in the empty directory `dir` with
/// [`KillMode::Abort`] after `inputs.kill_after` offered reports, recovers
/// it (with takeover) and resumes it on the full stream; already-durable
/// reports are skipped.
pub fn crash_drill(inputs: &Inputs, dir: &Path, t: &mut Tracer) -> DrillOutcome {
    let killed = t.span("drill.crash", |_| {
        let mut pipeline =
            DurablePipeline::create(config(), inputs.templates.clone(), DurableConfig::new(dir))
                .expect("create a durable pipeline");
        let kill = KillPoint {
            after_offered: inputs.kill_after,
            mode: KillMode::Abort,
        };
        let run = pipeline
            .run(inputs.stream.iter().copied(), Some(kill))
            .expect("durable ingest run");
        matches!(run, DurableRun::Killed)
    });
    let started = Instant::now();
    let mut pipeline = t.span("durable.recover", |_| {
        let mut durable = DurableConfig::new(dir);
        durable.takeover = true;
        DurablePipeline::recover(config(), inputs.templates.clone(), durable)
            .expect("recover the killed run")
    });
    let recovered = Instant::now();
    let run = t.span("durable.resume", |_| {
        pipeline
            .run(inputs.stream.iter().copied(), None)
            .expect("resumed durable run")
    });
    DrillOutcome {
        killed,
        recover_s: (recovered - started).as_secs_f64(),
        resume_s: recovered.elapsed().as_secs_f64(),
        resumed: completed(run),
    }
}
