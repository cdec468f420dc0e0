#!/usr/bin/env python3
"""Render a ``--profile-json`` artifact as a human-readable report.

Usage::

    python3 scripts/profile_report.py profile.json \\
        [--top N] [--chrome-trace trace.json] [--check]

Sections printed:

* top rules by host time (self / total split, fire and stall shares);
* the top-down (TMA) cycle-accounting table, per core;
* the last critical paths over the causal-edge log, when any were found.

``--chrome-trace`` additionally validates and summarizes the Chrome
trace-event artifact (open it at https://ui.perfetto.dev). ``--check``
turns the report into a smoke test: exits nonzero unless the profile's
invariants hold (TMA buckets non-empty and summing to the total; the
trace, when given, parses and carries events) — CI uses this.

stdlib-only on purpose: CI runs this with a bare python3.
"""

from __future__ import annotations

import argparse
import json
import sys

TMA_BUCKETS = (
    "retiring",
    "frontend_bound",
    "bad_speculation",
    "backend_core",
    "backend_memory",
)


def load(path: str) -> dict:
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def report_rules(sim: dict, top: int) -> None:
    rules = sim.get("rules", [])
    print(f"cycles: {sim.get('cycles')}  scheduler: {sim.get('scheduler')}")
    if not sim.get("profiling"):
        print("(profiling was off: host-time fields are zero)")
    ranked = sorted(rules, key=lambda r: r.get("total_ns", 0), reverse=True)[:top]
    if not ranked:
        return
    print(f"\ntop {len(ranked)} rules by host time:")
    print(
        f"{'rule':<24}{'self ms':>10}{'total ms':>10}"
        f"{'fired':>10}{'guard':>10}{'cm':>8}{'evals':>10}"
    )
    for r in ranked:
        print(
            f"{r.get('name', '?'):<24}"
            f"{r.get('body_ns', 0) / 1e6:>10.3f}"
            f"{r.get('total_ns', 0) / 1e6:>10.3f}"
            f"{r.get('fired', 0):>10}"
            f"{r.get('guard_stalls', 0):>10}"
            f"{r.get('cm_stalls', 0):>8}"
            f"{r.get('evals', 0):>10}"
        )


def report_tma(tma: list, require: bool) -> list[str]:
    errors = []
    if not tma:
        print("\n(no TMA data: profiling was off or the design has no cores)")
        return ["tma section empty"] if require else []
    print("\ntop-down cycle accounting (share of sampled cycles):")
    for row in tma:
        total = row.get("total", 0)
        parts = " ".join(
            f"{b.replace('_', '-')}: {100.0 * row.get(b, 0) / max(total, 1):5.1f}%"
            for b in TMA_BUCKETS
        )
        print(f"core {row.get('core')}: {parts}  (cycles {total})")
        if total <= 0:
            errors.append(f"core {row.get('core')}: empty TMA buckets")
        if sum(row.get(b, 0) for b in TMA_BUCKETS) != total:
            errors.append(f"core {row.get('core')}: TMA buckets do not sum to total")
    return errors


def report_paths(sim: dict) -> None:
    edges = sim.get("causal_edges", {})
    print(
        f"\ncausal edges: {edges.get('recorded', 0)} recorded, "
        f"{edges.get('dropped', 0)} dropped"
    )
    paths = sim.get("critical_paths", [])
    for p in paths[-5:]:
        chain = " -> ".join(p.get("rules", []))
        print(
            f"window [{p.get('window_start')}, {p.get('window_end')}]: "
            f"len {p.get('length')}: {chain}"
        )
    if not paths:
        print(
            "(no critical paths: the design uses neither the wakeup layer "
            "nor conflict matrices, so no causality edges exist)"
        )


def report_trace(path: str) -> list[str]:
    errors = []
    trace = load(path)
    events = trace.get("traceEvents", [])
    if not events:
        errors.append(f"{path}: no traceEvents")
    rules = sum(1 for e in events if e.get("cat") == "rule")
    insts = sum(1 for e in events if e.get("cat") == "inst")
    meta = sum(1 for e in events if e.get("ph") == "M")
    dropped = trace.get("otherData", {}).get("dropped_events", 0)
    print(
        f"\nchrome trace {path}: {len(events)} events "
        f"({rules} rule, {insts} inst, {meta} meta), {dropped} dropped"
    )
    print("open at https://ui.perfetto.dev (Open trace file)")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("profile", help="--profile-json artifact to render")
    ap.add_argument("--top", type=int, default=10, help="rules to list (default 10)")
    ap.add_argument("--chrome-trace", help="also validate/summarize this trace")
    ap.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless the profile invariants hold",
    )
    ap.add_argument(
        "--require-tma",
        action="store_true",
        help="with --check, also fail when the tma section is empty "
        "(core profiles only — kernel profiles have no cores)",
    )
    args = ap.parse_args()

    prof = load(args.profile)
    sim = prof.get("sim", prof)  # accept a bare Sim::profile_json too
    report_rules(sim, args.top)
    errors = report_tma(prof.get("tma", []), args.require_tma)
    report_paths(sim)
    if args.chrome_trace:
        errors += report_trace(args.chrome_trace)

    if args.check:
        for e in errors:
            print(f"profile-check FAIL: {e}", file=sys.stderr)
        if errors:
            return 1
        print("profile-check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
