#!/usr/bin/env python3
"""Runs two interleaved sets of untraced runs on one build and compares them.

    python3 benchmark/repeat.py [--runs K] [--workloads a,b] [--first-seed N]

Run it from the repository root. Both sets use the same K seeds; the runs
alternate A, B, A, B ... per seed and workload, so a slow spell of the host
lands on both sets. Per workload and end-to-end metric it prints each set's
median and quartiles (Python's statistics.quantiles, n=4, as the driver
uses), the spread (Q3-Q1 over the median), the gap between the two medians
in the metric's worse direction, and the bound from BENCHMARK.json.

Exits non-zero if a gap or a spread (setup_s excepted for the spread, as in
the driver's rule) exceeds its bound, if any unit failed, or if `attempted`
or `sim_cycles` differs between any two runs of a workload. This is the
tool behind the benchmark's acceptance criteria, and what a later change
uses to re-measure the baseline.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set (default 10)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--first-seed", type=int, default=1, help="seeds are first-seed .. first-seed+runs-1")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    results = {(s, n): [] for s in "AB" for n in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            for s in "AB":
                r = run_once(spec, name, seed)
                results[s, name].append(r)
                cps = r["metrics"]["sim_cps"]["value"]
                print(f"set {s} {name} seed {seed}: sim_cps {cps:.0f}, "
                      f"{r['attempted']} attempted, {r['failed']} failed", flush=True)

    bad = []
    for name in names:
        runs = results["A", name] + results["B", name]
        if any(r["failed"] or not r["correct"] for r in runs):
            bad.append(f"{name}: failed units")
        if len({r["attempted"] for r in runs}) != 1:
            bad.append(f"{name}: attempted differs between runs")
        if len({r["metrics"]["sim_cycles"]["value"] for r in runs}) != 1:
            bad.append(f"{name}: sim_cycles differs between runs")
        print(f"\n{name}")
        print(f"  {'metric':<12} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'gap':>8} {'bound':>7}")
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            medians = {}
            for s in "AB":
                values = [r["metrics"][metric]["value"] for r in results[s, name]]
                q1, med, q3 = quartiles(values)
                medians[s] = med
                spread = (q3 - q1) / med
                gap = ""
                if s == "B":
                    worse = medians["B"] - medians["A"] if m["better"] == "lower" \
                        else medians["A"] - medians["B"]
                    g = worse / medians["A"]
                    gap = f"{g:8.4f}"
                    if g > bound:
                        bad.append(f"{name}: {metric} gap {g:.4f} exceeds bound {bound}")
                print(f"  {metric:<12} {s:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.4f} {gap:>8} {bound:7.3f}")
                if metric != "setup_s" and spread > bound:
                    bad.append(f"{name}: {metric} spread {spread:.4f} of set {s} exceeds bound {bound}")
                low, high = med * 0.9, med * 1.1
                if metric == "sim_cps" and any(not low <= v <= high for v in values):
                    print(f"  note: a run's sim_cps lies more than a tenth from set {s}'s median")
    print()
    for b in bad:
        print("FAIL", b)
    if not bad:
        print("OK: both sets agree within the bounds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
