//! `wtts` — command-line front end for the analysis framework.
//!
//! Works on the simple CSV interchange format
//! `gateway,device,minute,bytes_in,bytes_out` (one row per reported
//! device-minute), which is also what `wtts simulate` emits — so the tool
//! closes the loop: simulate a fleet, or bring your own gateway export, and
//! run the paper's analyses on it.
//!
//! ```text
//! wtts simulate --gateways 4 --weeks 2 --out traces.csv
//! wtts analyze --input traces.csv
//! wtts motifs --input traces.csv --weeks 2
//! wtts maintenance --input traces.csv --duration 120
//! ```

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use wtts::core::background::{estimate_tau, remove_background};
use wtts::core::maintenance::WeeklyProfile;
use wtts::core::motif::{discover_motifs, MotifConfig};
use wtts::core::profile::GatewayProfile;
use wtts::gwsim::{write_traffic_csv, Fleet, FleetConfig};
use wtts::timeseries::{aggregate, daily_windows, Granularity, TimeSeries};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  wtts simulate --out FILE [--gateways N] [--weeks W] [--seed S]\n  \
wtts analyze --input FILE [--weeks W]\n  \
wtts motifs --input FILE [--weeks W] [--phi F]\n  \
wtts maintenance --input FILE [--duration MINUTES]\n\n\
CSV format: gateway,device,minute,bytes_in,bytes_out"
    );
    ExitCode::from(2)
}

/// Parsed command-line flags: `--key value` pairs after the subcommand.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--")?;
            let value = it.next()?;
            map.insert(key.to_string(), value.clone());
        }
        Some(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required flag --{key}"))
    }
}

/// Per-gateway device series loaded from the interchange CSV.
type LoadedFleet = BTreeMap<u64, Vec<TimeSeries>>;

/// Parses `gateway,device,minute,bytes_in,bytes_out` rows (header line
/// optional) into per-gateway, per-device overall-traffic series.
fn load_csv(reader: impl BufRead) -> Result<LoadedFleet, String> {
    // (gateway, device) -> (minute -> bytes).
    let mut sparse: BTreeMap<(u64, u64), Vec<(u32, f64)>> = BTreeMap::new();
    let mut max_minute = 0u32;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("read error at line {}: {e}", lineno + 1))?;
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line.starts_with("gateway")) {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 5 {
            return Err(format!(
                "line {}: expected 5 columns, got {}",
                lineno + 1,
                cols.len()
            ));
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64, String> {
            s.trim()
                .parse()
                .map_err(|_| format!("line {}: bad {what}: {s}", lineno + 1))
        };
        let gw = parse_u64(cols[0], "gateway id")?;
        let dev = parse_u64(cols[1], "device id")?;
        let minute: u32 = cols[2]
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad minute: {}", lineno + 1, cols[2]))?;
        let bytes_in: f64 = cols[3]
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad bytes_in: {}", lineno + 1, cols[3]))?;
        let bytes_out: f64 = cols[4]
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad bytes_out: {}", lineno + 1, cols[4]))?;
        max_minute = max_minute.max(minute);
        sparse
            .entry((gw, dev))
            .or_default()
            .push((minute, bytes_in.max(0.0) + bytes_out.max(0.0)));
    }
    if sparse.is_empty() {
        return Err("no data rows found".into());
    }
    let len = max_minute as usize + 1;
    let mut fleet: LoadedFleet = BTreeMap::new();
    for ((gw, _dev), samples) in sparse {
        let mut values = vec![f64::NAN; len];
        for (minute, bytes) in samples {
            let slot = &mut values[minute as usize];
            *slot = if slot.is_finite() {
                *slot + bytes
            } else {
                bytes
            };
        }
        fleet
            .entry(gw)
            .or_default()
            .push(TimeSeries::per_minute(values));
    }
    Ok(fleet)
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let out_path = flags.require("out")?;
    let n: usize = flags.get("gateways", 4)?;
    let weeks: u32 = flags.get("weeks", 2)?;
    let seed: u64 = flags.get("seed", FleetConfig::default().seed)?;
    let fleet = Fleet::new(FleetConfig {
        n_gateways: n,
        weeks,
        seed,
        ..FleetConfig::default()
    });
    let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    let mut w = BufWriter::new(file);
    for (i, gw) in fleet.iter().enumerate() {
        if i == 0 {
            write_traffic_csv(&gw, &mut w).map_err(|e| e.to_string())?;
        } else {
            // Skip the repeated header for subsequent gateways.
            let mut buf = Vec::new();
            write_traffic_csv(&gw, &mut buf).map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&buf);
            for line in text.lines().skip(1) {
                writeln!(w, "{line}").map_err(|e| e.to_string())?;
            }
        }
        eprintln!("simulated gateway {} ({} devices)", gw.id, gw.devices.len());
    }
    eprintln!("wrote {out_path}");
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    let input = flags.require("input")?;
    let weeks: u32 = flags.get("weeks", 2)?;
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let fleet = load_csv(BufReader::new(file))?;
    for (gw, devices) in &fleet {
        println!("== gateway {gw} ({} devices) ==", devices.len());
        match GatewayProfile::analyze(devices, weeks) {
            Some(profile) => print!("{}", profile.render()),
            None => println!("no observations"),
        }
        println!();
    }
    Ok(())
}

fn cmd_motifs(flags: &Flags) -> Result<(), String> {
    let input = flags.require("input")?;
    let weeks: u32 = flags.get("weeks", 2)?;
    let phi: f64 = flags.get("phi", 0.8)?;
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let fleet = load_csv(BufReader::new(file))?;

    let mut windows = Vec::new();
    let mut owners = Vec::new();
    for (gw, devices) in &fleet {
        let active: Vec<TimeSeries> = devices
            .iter()
            .map(|d| {
                let tau = estimate_tau(d).unwrap_or(f64::INFINITY);
                remove_background(d, tau)
            })
            .collect();
        let Some(total) = TimeSeries::sum_all(active.iter()) else {
            continue;
        };
        let binned = aggregate(&total, Granularity::hours(3), 0);
        for w in daily_windows(&binned, weeks, 0) {
            owners.push((*gw, w.label()));
            windows.push(w.series.into_values());
        }
    }
    let motifs = discover_motifs(
        &windows,
        &MotifConfig {
            phi,
            ..MotifConfig::default()
        },
    );
    println!(
        "{} motifs from {} daily windows across {} gateways (phi = {phi})",
        motifs.len(),
        windows.len(),
        fleet.len()
    );
    for (k, m) in motifs.iter().take(10).enumerate() {
        let members: Vec<String> = m
            .members
            .iter()
            .take(6)
            .map(|&i| format!("gw{}:{}", owners[i].0, owners[i].1))
            .collect();
        println!(
            "motif {:>2}: support {:>3}  e.g. {}{}",
            k + 1,
            m.support(),
            members.join(", "),
            if m.support() > 6 { ", ..." } else { "" }
        );
    }
    Ok(())
}

fn cmd_maintenance(flags: &Flags) -> Result<(), String> {
    let input = flags.require("input")?;
    let duration: u32 = flags.get("duration", 120)?;
    let file = File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    let fleet = load_csv(BufReader::new(file))?;
    for (gw, devices) in &fleet {
        let active: Vec<TimeSeries> = devices
            .iter()
            .map(|d| {
                let tau = estimate_tau(d).unwrap_or(f64::INFINITY);
                remove_background(d, tau)
            })
            .collect();
        let Some(total) = TimeSeries::sum_all(active.iter()) else {
            continue;
        };
        match WeeklyProfile::from_active_series(&total, 60).and_then(|p| p.recommend(duration)) {
            Some(w) => println!(
                "gateway {gw}: {} (expected {:.0} bytes, silent {:.0}%)",
                w.label(),
                w.expected_bytes,
                w.silent_share * 100.0
            ),
            None => println!("gateway {gw}: no window computable"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(flags) = Flags::parse(rest) else {
        return usage();
    };
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(&flags),
        "analyze" => cmd_analyze(&flags),
        "motifs" => cmd_motifs(&flags),
        "maintenance" => cmd_maintenance(&flags),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_parses() {
        let csv = "gateway,device,minute,bytes_in,bytes_out\n\
                   0,0,0,100,10\n\
                   0,0,1,200,20\n\
                   0,1,0,50,5\n\
                   1,0,3,999,99\n";
        let fleet = load_csv(csv.as_bytes()).unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[&0].len(), 2);
        // Device 0 of gateway 0: total traffic at minute 0 = 110.
        assert_eq!(fleet[&0][0].values()[0], 110.0);
        assert_eq!(fleet[&0][0].values()[1], 220.0);
        // Gateway 1 device covers up to minute 3, missing elsewhere.
        assert_eq!(fleet[&1][0].values()[3], 1098.0);
        assert!(fleet[&1][0].values()[0].is_nan());
    }

    #[test]
    fn csv_errors_are_reported() {
        assert!(load_csv("".as_bytes()).is_err());
        assert!(load_csv("1,2,3\n".as_bytes()).is_err());
        assert!(load_csv("a,b,c,d,e\n".as_bytes()).is_err());
        // A minute past u32::MAX is rejected, not wrapped to minute 5.
        let err = load_csv("0,0,4294967301,1,1\n".as_bytes()).unwrap_err();
        assert_eq!(err, "line 1: bad minute: 4294967301");
    }

    #[test]
    fn flags_parse_pairs() {
        let args: Vec<String> = ["--weeks", "3", "--input", "x.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.get::<u32>("weeks", 1).unwrap(), 3);
        assert_eq!(flags.require("input").unwrap(), "x.csv");
        assert!(flags.require("missing").is_err());
        assert_eq!(flags.get::<u32>("absent", 7).unwrap(), 7);
    }

    #[test]
    fn flags_reject_malformed() {
        let args: Vec<String> = ["--dangling"].iter().map(|s| s.to_string()).collect();
        assert!(Flags::parse(&args).is_none());
        let args: Vec<String> = ["positional"].iter().map(|s| s.to_string()).collect();
        assert!(Flags::parse(&args).is_none());
    }
}
