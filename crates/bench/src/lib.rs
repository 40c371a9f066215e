//! Experiment harness and benchmark support for the `wtts` workspace.
//!
//! The `experiments` binary (`cargo run -p wtts-bench --release --bin
//! experiments -- <id>`) regenerates every table and figure of the paper on
//! the simulated fleet; this library holds the shared machinery so the
//! gated benches ([`perf`]) and integration tests can drive the same code.

pub mod data;
pub mod experiments;
pub mod perf;
pub mod report;
