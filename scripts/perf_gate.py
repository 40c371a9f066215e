#!/usr/bin/env python3
"""Unified performance-budget gate over bench records.

Every optimized subsystem records its measured baseline in a committed
``results/BENCH_*.json``; this script checks those records against the
floors in ``results/PERF_BUDGET.json`` so CI fails loudly when a change
ships a slower baseline (or drops the bit-identity bit) instead of three
copies of the same inline assert drifting apart in ``ci.sh``. Entries whose
``file`` lies under ``target/perf/`` gate scratch records that a bench
smoke writes on every run (an in-run ratio such as the durable smoke's
``plain_over_durable``), so run that smoke before gating them.

Usage:
    perf_gate.py [--budget results/PERF_BUDGET.json] [--only ENTRY]

With ``--only``, gates a single budget entry (used right after the
matching bench smoke in ci.sh); without it, gates every entry.

Budget entry schema (all fields except ``file`` optional):

    "file":    bench JSON path, relative to the repo root
    "bench":   expected value of the record's "bench" field
    "require": {dotted.path: exact-value} equality checks
    "floors":  {dotted.path: minimum} numeric >= checks
    "each":    {"path": dotted.path-to-array, "floors": {key: minimum}}
               per-element floors over an array of records
    "at_least": {"glob": "kernels.*.speedup_min", "min": M, "count": K}
               at least K of the glob-matched values must be >= M

Updating a floor is a reviewed change: re-run the bench, inspect the
regenerated BENCH file, and commit the new floor together with it (see
DESIGN.md section 15).
"""

import argparse
import json
import os
import sys


def reject_nonfinite(tok):
    raise ValueError(f"non-finite constant {tok} leaked into JSON")


def load_json(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=reject_nonfinite)


def resolve(record, dotted):
    """Walks a dotted path through dicts and lists; '*' fans out.

    Returns a list of (path, value) leaves so globbed paths report which
    concrete key violated the budget.
    """
    leaves = [("", record)]
    for part in dotted.split("."):
        widened = []
        for prefix, node in leaves:
            label = f"{prefix}.{part}" if prefix else part
            if part == "*":
                if isinstance(node, dict):
                    items = sorted(node.items())
                elif isinstance(node, list):
                    items = list(enumerate(node))
                else:
                    raise KeyError(f"{prefix or '<root>'} is not globbable")
                for key, value in items:
                    widened.append((f"{prefix}.{key}" if prefix else str(key), value))
            elif isinstance(node, dict):
                if part not in node:
                    raise KeyError(f"missing key {label}")
                widened.append((label, node[part]))
            elif isinstance(node, list):
                widened.append((label, node[int(part)]))
            else:
                raise KeyError(f"{prefix} is a leaf; cannot descend into {part}")
        leaves = widened
    return leaves


def resolve_one(record, dotted):
    leaves = resolve(record, dotted)
    if len(leaves) != 1:
        raise KeyError(f"path {dotted} is not a single leaf")
    return leaves[0][1]


def check_entry(name, spec, failures):
    path = spec["file"]
    if not os.path.exists(path):
        hint = " (run its bench smoke first)" if path.startswith("target/") else ""
        failures.append(f"{name}: bench record {path} is missing{hint}")
        return
    record = load_json(path)

    if "bench" in spec and record.get("bench") != spec["bench"]:
        failures.append(
            f"{name}: {path} records bench {record.get('bench')!r}, "
            f"expected {spec['bench']!r}"
        )
        return

    for dotted, expected in spec.get("require", {}).items():
        actual = resolve_one(record, dotted)
        if actual != expected:
            failures.append(f"{name}: {dotted} is {actual!r}, required {expected!r}")

    for dotted, floor in spec.get("floors", {}).items():
        actual = resolve_one(record, dotted)
        if not isinstance(actual, (int, float)) or actual < floor:
            failures.append(f"{name}: {dotted} = {actual!r} below floor {floor}")

    each = spec.get("each")
    if each:
        rows = resolve_one(record, each["path"])
        if not rows:
            failures.append(f"{name}: {each['path']} is empty")
        for idx, row in enumerate(rows):
            for key, floor in each["floors"].items():
                actual = row.get(key)
                if not isinstance(actual, (int, float)) or actual < floor:
                    failures.append(
                        f"{name}: {each['path']}[{idx}].{key} = {actual!r} "
                        f"below floor {floor}"
                    )

    at_least = spec.get("at_least")
    if at_least:
        leaves = resolve(record, at_least["glob"])
        passing = [(p, v) for p, v in leaves if isinstance(v, (int, float)) and v >= at_least["min"]]
        if len(passing) < at_least["count"]:
            detail = ", ".join(f"{p}={v}" for p, v in leaves)
            failures.append(
                f"{name}: only {len(passing)} of {len(leaves)} values at "
                f"{at_least['glob']} reach {at_least['min']} "
                f"(need {at_least['count']}): {detail}"
            )

    if not failures:
        summary = [f"{d}={resolve_one(record, d)}" for d in spec.get("floors", {})]
        print(f"perf gate ok: {name} ({'; '.join(summary) or 'requirements hold'})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", default="results/PERF_BUDGET.json")
    ap.add_argument("--only", default=None, help="gate a single budget entry")
    args = ap.parse_args()

    budget = load_json(args.budget)
    entries = budget["entries"]
    if args.only is not None:
        if args.only not in entries:
            sys.exit(f"perf gate: no budget entry named {args.only!r}")
        entries = {args.only: entries[args.only]}

    failures = []
    for name, spec in entries.items():
        entry_failures = []
        try:
            check_entry(name, spec, entry_failures)
        except (KeyError, ValueError, IndexError) as exc:
            entry_failures.append(f"{name}: {exc}")
        failures.extend(entry_failures)

    if failures:
        for line in failures:
            print(f"perf gate FAIL: {line}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
