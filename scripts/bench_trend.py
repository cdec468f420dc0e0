#!/usr/bin/env python3
"""The one reader of the benchmark history: every BENCH_<pr>.json at the
repo root, in PR order. `benchmark/README.md` defines the metrics and
`BENCHMARK.json` their directions and bounds; this file holds no threshold
of its own.

    bench_trend.py               render the trajectory, workload by workload
    bench_trend.py --check       fail on an unexplained step in the history
    bench_trend.py --gate OUT..  fresh `--trace 1` runs (one stdout file per
                                 workload) against the newest history file

A history file holds `runs.{parent,change}[workload]` = the last stdout line
of one `--seed 1 --trace 1` run; optionally `end_to_end.{parent,change}
[workload]` = the last lines of alternating `--trace 0` runs; optionally
`moved` = {metric: why} for the exact counts the PR changed on purpose.

What is exact is gated everywhere: a deterministic simulator repeats it on
any host. Host timings are compared only where parent and change shared a
host, which is inside one history file.

stdlib-only on purpose: CI runs this with a bare python3.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import sys

# The exact counts: the metrics benchmark/README.md marks with a star. A
# change that only speeds the simulator leaves every one of them identical.
EXACT = (
    "sim.cycles", "sim.insts", "core.evals_per_cycle", "core.skip_ratio",
    "core.fire_ratio", "ooo.snap_kb", "ooo.ipc", "ooo.mispredict_pki",
    "ooo.rob_occ_avg", "mem.l1d_mpki", "mem.l2_mpki", "mem.dtlb_mpki",
    "bench.sample_ipc_err",
)  # fmt: skip

# The host-time layers that get a row in the rendered trajectory.
LAYERS = (
    "core.dispatch_ns", "core.sleep_ns", "core.wake_ns", "core.cm_probe_ns",
    "core.cell_scalar_ns", "core.abort_ns", "core.kernel_share",
    "ooo.rename_share", "mem.substrate_share", "isa.interp_mips", "ff.mips", "ff.handoff_ms",
    "span.profile_share", "span.ff_share", "span.detail_share",
)  # fmt: skip

SIDES = ("parent", "change")


def load(root: pathlib.Path) -> tuple[list[tuple[int, dict]], list[dict]]:
    """(every BENCH_<pr>.json as (pr, document) in PR order, BENCHMARK.json's
    end-to-end metrics)."""
    found = []
    for path in root.glob("BENCH_*.json"):
        if m := re.fullmatch(r"BENCH_(\d+)\.json", path.name):
            found.append((int(m.group(1)), json.loads(path.read_text())))
    if not found:
        sys.exit(f"no BENCH_<pr>.json under {root}")
    spec = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    return sorted(found, key=lambda f: f[0]), spec


def value(line: dict, metric: str):
    return line["metrics"].get(metric, {}).get("value")


def median(lines: list[dict], metric: str) -> float:
    return statistics.median(value(line, metric) for line in lines)


def unsound(line: dict) -> str | None:
    """Why a result line cannot be trusted, if it cannot."""
    if line.get("correct") is not True or line.get("failed") != 0:
        return f"correct={line.get('correct')} failed={line.get('failed')}"
    return None


def fmt(v: float) -> str:
    return f"{int(v):,}" if v == int(v) else f"{float(f'{v:.4g}'):,.10g}"


def step(before, after) -> str:
    if before is None or after is None:
        return "-"
    return f"{fmt(before)} -> {fmt(after)}" + (f" ({after / before:.2f}x)" if before else "")


def render(history, spec) -> None:
    docs = [doc for _, doc in history]
    e2e = [d.get("end_to_end") for d in docs]
    for w in docs[-1]["runs"]["change"]:
        rows = []
        for e in spec:
            cells = [step(*(s and median(s[side][w], e["name"]) for side in SIDES)) for s in e2e]
            rows.append((f"{e['name']} [{e['unit']}]", cells))
        for m in LAYERS:
            rows.append((m, [step(*(value(d["runs"][side][w], m) for side in SIDES)) for d in docs]))
        widths = [max(len(cells[i]) for _, cells in rows) for i in range(len(docs))]
        print(f"\n== {w}: parent -> change (change / parent) ==")
        print(" " * 24 + "  ".join(f"PR {pr}".ljust(n) for (pr, _), n in zip(history, widths)).rstrip())
        for name, cells in rows:
            print(f"{name:<24}" + "  ".join(c.ljust(n) for c, n in zip(cells, widths)).rstrip())
    print(
        "\nend-to-end rows: medians of the file's alternating untraced runs ('-': the file"
        "\nhas none); layer rows: one traced sample a side, so read them across PRs."
    )


def check(history, spec) -> list[str]:
    errors = []
    prev = None
    for pr, doc in history:
        name = f"BENCH_{pr}.json"
        runs, moved, e2e = doc["runs"], doc.get("moved", {}), doc.get("end_to_end")
        for w in runs["change"]:
            lines = [(f"runs.{s}", runs[s][w]) for s in SIDES]
            lines += [(f"end_to_end.{s}", line) for s in SIDES for line in (e2e[s][w] if e2e else ())]
            errors += [f"{name}: {where}.{w}: {why}" for where, line in lines if (why := unsound(line))]
            then = prev and prev[1]["runs"]["change"].get(w)
            for m in EXACT:
                was, now = (value(runs[s][w], m) for s in SIDES)
                if was != now and m not in moved:
                    errors.append(
                        f"{name}: {w}: {m} moved {was} -> {now} between parent and change, "
                        'and "moved" does not say why'
                    )
                if then and value(then, m) != was:
                    errors.append(
                        f"{name}: {w}: {m} = {was} in runs.parent, but BENCH_{prev[0]}.json "
                        f"runs.change (the same tree) has {value(then, m)}"
                    )
            for e in spec if e2e else ():
                was, now = (median(e2e[s][w], e["name"]) for s in SIDES)
                worse = (was - now if e["better"] == "higher" else now - was) / was
                if worse > e["bound"]:
                    errors.append(
                        f"{name}: {w}: {e['name']} median {fmt(was)} -> {fmt(now)} is "
                        f"{worse:.1%} worse; BENCHMARK.json allows {e['bound']:.1%}"
                    )
        prev = (pr, doc)
    return errors


def gate(history, outputs: list[str]) -> list[str]:
    pr, doc = history[-1]
    want = doc["runs"]["change"]
    errors, seen = [], set()
    for path in outputs:
        # A run's first stdout line starts with its workload; its last is the result.
        lines = pathlib.Path(path).read_text().strip().splitlines()
        w = lines[0].split()[0]
        if w not in want:
            errors.append(f"{path}: first line names no workload of BENCH_{pr}.json: {lines[0]!r}")
            continue
        seen.add(w)
        fresh = json.loads(lines[-1])
        if why := unsound(fresh):
            errors.append(f"{path}: {w}: {why}")
        errors += [
            f"{path}: {w}: {m} = {value(fresh, m)}, but BENCH_{pr}.json runs.change has {value(want[w], m)}"
            for m in EXACT
            if value(fresh, m) != value(want[w], m)
        ]
    return errors + [f"no fresh run of {w} given" for w in want if w not in seen]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--check", action="store_true", help="fail on an unexplained step")
    ap.add_argument("--gate", nargs="+", metavar="OUT", help="stdout files of fresh --trace 1 runs")
    ap.add_argument(
        "--dir",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="where BENCH_<pr>.json and BENCHMARK.json live (default: the repo root)",
    )
    args = ap.parse_args()
    history, spec = load(args.dir)
    if not args.check and not args.gate:
        render(history, spec)
        return 0
    errors = check(history, spec) if args.check else []
    errors += gate(history, args.gate) if args.gate else []
    for e in errors:
        print(f"bench-trend FAIL: {e}", file=sys.stderr)
    if errors:
        return 1
    files = ", ".join(f"BENCH_{pr}.json" for pr, _ in history)
    print(f"bench-trend OK: {files}" + (f"; gated {len(args.gate)} runs" if args.gate else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
