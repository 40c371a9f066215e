//! `wtts-benchmark`: the end-to-end benchmark of the reports → analyses
//! pipeline, with a per-layer traced breakdown. See `benchmark/README.md`.
//!
//! ```text
//! wtts-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//! wtts-benchmark --smoke [--workload NAME] [--seed N] [--trace 0|1]
//! wtts-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! A run prints a detail line (workload, seed, digest, checks, metrics)
//! and, last, a result line with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. The exit code is 1 when a correctness check failed.

mod compare;
mod json;
mod offline;
mod online;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};

const USAGE: &str = "usage:
  wtts-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
  wtts-benchmark --smoke [--workload NAME] [--seed N] [--trace 0|1]
  wtts-benchmark compare A.jsonl B.jsonl
workloads: stream, paper, wide, long";

/// Run files (WAL directories, span files) go here, under the working
/// directory.
const WORK_DIR: &str = ".bench_work";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?.as_str();
        match flag.as_str() {
            "--workload" => {
                workload::workload(value, false).ok_or(format!("unknown workload {value:?}"))?;
                cli.workload = Some(value.to_string());
            }
            "--seed" => cli.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if cli.workload.is_none() && !cli.smoke {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

fn bench(cli: &Cli) -> i32 {
    let names: Vec<&str> = match &cli.workload {
        Some(name) => vec![name.as_str()],
        None => workload::NAMES.to_vec(),
    };
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        0.0
    } else {
        spec::spec().run_seconds as f64
    });
    let mut failed = 0;
    for name in names {
        let out = run::run(&run::Options {
            workload: workload::workload(name, cli.smoke).expect("validated workload"),
            seed: cli.seed,
            seconds,
            traced: cli.traced,
            smoke: cli.smoke,
            work_dir: PathBuf::from(WORK_DIR),
        });
        println!("{}", out.detail);
        println!("{}", out.result);
        failed += out.failed;
    }
    i32::from(failed > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
        _ => match parse(&args) {
            Ok(cli) => bench(&cli),
            Err(e) => {
                eprintln!("wtts-benchmark: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cli = parse(&args("--workload paper --seed 7 --seconds 15 --trace 1")).expect("valid");
        assert_eq!(cli.workload.as_deref(), Some("paper"));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (7, Some(15.0), true));
        assert!(parse(&args("--smoke")).is_ok_and(|c| c.smoke && c.workload.is_none()));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload paper --seed x",
            "--workload paper --trace 2",
            "--workload paper --seconds -1",
            "--workload paper --seed",
            "--workload paper --frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
