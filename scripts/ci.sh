#!/usr/bin/env bash
# CI gate: formatting, a determinism lint, lints and rustdoc (warnings
# denied), build, the full test suite, bench and example smokes
# (bit-identity, plus the conservation laws every snapshot checks in Rust
# with `check_laws`), the crash-recovery and fault-injection drills, and
# the unified perf-budget gate (scripts/perf_gate.py) over every committed
# bench baseline and the in-run ratios the durable and kernels smokes
# measure. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== determinism lint =="
# Core results must be a function of their inputs and seeds alone: no
# ambient randomness and no wall-clock time under crates/core/.
if grep -rnE 'thread_rng|SystemTime' crates/core/; then
    echo "thread_rng and SystemTime are forbidden under crates/core/" >&2
    exit 1
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
# Broken and private intra-doc links fail the build, so a deleted type
# cannot leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release =="
cargo build --release

# `default-members` in Cargo.toml makes plain `cargo test` cover the whole
# workspace (every crate's unit, integration and property tests).
echo "== cargo test =="
cargo test -q

echo "== ingest bench (smoke) =="
cargo bench -p wtts-bench --bench ingest -- --smoke

echo "== durable bench (smoke) =="
# Times plain and durable ingest on the same stream in this process and
# writes plain_over_durable to target/perf/durable_smoke.json.
cargo bench -p wtts-bench --bench durable -- --smoke
python3 scripts/perf_gate.py --only durable_smoke

# Each of the next three smokes asserts its obs snapshot's laws, the
# stages its scenario must enter and its prune-rate floor.
echo "== granularity_sweep bench (smoke) =="
cargo bench -p wtts-bench --bench granularity_sweep -- --smoke
python3 scripts/perf_gate.py --only granularity_sweep

echo "== pruned_pairwise bench (smoke) =="
cargo bench -p wtts-bench --bench pruned_pairwise -- --smoke
python3 scripts/perf_gate.py --only pruned_pairwise

echo "== lag_search bench (smoke) =="
cargo bench -p wtts-bench --bench lag_search -- --smoke
python3 scripts/perf_gate.py --only lag_search

echo "== kernels bench (smoke) =="
# Asserts every kernel bit-identical to its frozen baseline, then times the
# wide-span rank and Kendall lanes against the comparison paths they bypass
# in this process and writes the ratios to target/perf/kernels_smoke.json.
cargo bench -p wtts-bench --bench kernels -- --smoke
python3 scripts/perf_gate.py --only kernels_smoke
python3 scripts/perf_gate.py --only kernels

echo "== dominance bench (smoke) =="
cargo bench -p wtts-bench --bench dominance -- --smoke
python3 scripts/perf_gate.py --only dominance

echo "== pairwise_matrix bench (smoke) =="
# Asserts cor_matrix bit-identical to per-pair cor() on every pair at 50
# and 200 series.
cargo bench -p wtts-bench --bench pairwise_matrix -- --smoke
python3 scripts/perf_gate.py --only pairwise_matrix

echo "== perf budget (all recorded baselines) =="
python3 scripts/perf_gate.py

echo "== examples (smoke) =="
# fleet_ingest checks its ingest laws; the instrumented fleet report
# (`--metrics-json`) checks the obs laws of motif discovery on the
# sketch-pruned path, stationarity sweeps and the lag search.
cargo run --release --example quickstart >/dev/null
cargo run --release --example fleet_ingest >/dev/null
cargo run --release --example fleet_report -- 12 --metrics-json >/dev/null

echo "== crash-recovery smoke =="
scratch="$(mktemp -d /tmp/wtts_ci.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

# Kill the ingest dead (process abort, no unwinding) mid-stream...
set +e
cargo run --release --example fleet_ingest -- \
    --wal-dir "$scratch/wal" --snapshot-every 8000 --fsync --kill-after 30000 \
    >/dev/null 2>&1
kill_status=$?
set -e
if [ "$kill_status" -eq 0 ]; then
    echo "--kill-after should have aborted the process" >&2
    exit 1
fi

# ...check the stale single-writer lock fences a plain reopen, then
# recover with --takeover and finish, and run once uninterrupted.
set +e
cargo run --release --example fleet_ingest -- \
    --wal-dir "$scratch/wal" --snapshot-every 8000 --recover \
    >/dev/null 2>&1
stale_status=$?
set -e
if [ "$stale_status" -eq 0 ]; then
    echo "recovery without --takeover should refuse the stale lock" >&2
    exit 1
fi
cargo run --release --example fleet_ingest -- \
    --wal-dir "$scratch/wal" --snapshot-every 8000 --recover --takeover \
    --metrics-json "$scratch/recovered.json" >"$scratch/recovered.txt"
cargo run --release --example fleet_ingest -- \
    --wal-dir "$scratch/wal_clean" --metrics-json "$scratch/clean.json" >"$scratch/clean.txt"

# The recovered run must reproduce the uninterrupted run's state and every
# replay-invariant book; only durability bookkeeping may differ.
for key in 'state digest:' 'replay-invariant books:'; do
    recovered="$(grep "^$key" "$scratch/recovered.txt")"
    clean="$(grep "^$key" "$scratch/clean.txt")"
    if [ "$recovered" != "$clean" ]; then
        echo "recovered run diverged: '$recovered' vs '$clean'" >&2
        exit 1
    fi
done
clean_digest="$(grep '^state digest:' "$scratch/clean.txt")"

echo "== fault-injection smoke =="
# Kill the ingest mid-stream while a seeded I/O fault schedule (EIO, short
# writes, ENOSPC, lying fsync, torn renames) hammers the WAL layer...
set +e
cargo run --release --example fleet_ingest -- \
    --wal-dir "$scratch/wal_fault" --snapshot-every 8000 \
    --fault-seed 42 --fault-ops 12 --kill-after 60000 \
    >/dev/null 2>&1
fault_kill_status=$?
set -e
if [ "$fault_kill_status" -eq 0 ]; then
    echo "--kill-after should have aborted the faulted process" >&2
    exit 1
fi

# ...then recover under the same fault schedule. The outcome must be either
# a bit-identical finish or a typed, counted durability gap — never a
# silent divergence.
cargo run --release --example fleet_ingest -- \
    --wal-dir "$scratch/wal_fault" --snapshot-every 8000 \
    --fault-seed 42 --fault-ops 12 --recover --takeover \
    --metrics-json "$scratch/fault.json" >"$scratch/fault.txt"

if grep -q '^durability: durable' "$scratch/fault.txt"; then
    fault_digest="$(grep '^state digest:' "$scratch/fault.txt")"
    if [ "$fault_digest" != "$clean_digest" ]; then
        echo "durable faulted run diverged: '$fault_digest' vs '$clean_digest'" >&2
        exit 1
    fi
elif ! grep -q '^durability: DEGRADED' "$scratch/fault.txt"; then
    echo "faulted run reported neither durable nor a typed gap" >&2
    exit 1
fi

# Scenario checks: each drill ran as staged. (The runs checked their
# conservation laws themselves.)
PYTHONPATH=scripts python3 - "$scratch/recovered.json" "$scratch/clean.json" \
    "$scratch/fault.json" <<'PY'
import sys
from perf_gate import load_json

recovered, clean, fault = (load_json(path) for path in sys.argv[1:])
assert recovered["recoveries"] == 1, recovered["recoveries"]
assert recovered["wal_replayed"] > 0, "recovery replayed nothing"
assert clean["recoveries"] == 0 and clean["wal_replayed"] == 0, clean
for run in (recovered, clean):
    assert run["wal_records"] == run["offered"], "WAL must cover the stream"
assert fault["wal_io_retries"] >= 1, "the seeded schedule must exercise retries"
assert fault["lock_takeovers"] == 1, fault["lock_takeovers"]
assert fault["wal_io_gave_up"] == 0 or fault["durability_gap"] > 0, \
    "a give-up must surface as a counted gap"
print("drills ok:", recovered["wal_replayed"], "reports replayed,",
      fault["wal_io_retries"], "I/O retries,", fault["durability_gap"],
      "reports in the fault run's durability gap")
PY

echo "CI checks passed."
