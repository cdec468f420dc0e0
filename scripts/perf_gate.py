#!/usr/bin/env python3
"""Merge scheduler bench artifacts into BENCH_4.json and gate regressions.

Inputs are the ``--bench-json`` artifacts written by four release binaries:

* ``cmd_kernel_bench``   -> ring-of-64 wakeup benchmark and the
                            fig17-shaped ``soc_wakeup`` microbench (both
                            fast vs reference)
* ``sampled_sim``        -> (optional, ``--sampled``) fast-forward +
                            interval-sampled suite: wall-clock speedup over
                            the full detailed runs and the worst-case IPC
                            estimation error
* ``fig17_vs_inorder``   -> (optional, ``--fig17``) full SoC suite run under
                            both scheduler modes, plus the fleet-pool
                            scale-out timing
* ``fleet``              -> (optional, ``--fleet``) work-stealing campaign
                            over a seed x config x workload grid; its
                            ``fleet_agg_cps`` is the aggregate-throughput
                            headline metric

The gate is *tiered*: every CI run gates the kernel benchmarks and the
sampled tier (cheap — minutes), while the full-fidelity fig17 sweep and
the fleet campaign run on a schedule or behind a PR label (see
``.github/workflows/ci.yml``). Omitting ``--fig17``/``--fleet`` skips
their floors and their baseline keys, and the tool prints which tier ran
so a log never silently looks like full coverage.

The merged BENCH_4.json records, per benchmark: simulated cycles, host
wall-clock ms, host cycles/second, and the fast/reference speedup ratios.

Gating (only with ``--baseline``) is host-neutral: raw cycles/second vary
with the runner, so the gate compares *speedup ratios* (same host, same
run, interleaved timing across modes) against committed floors and fails
on regressions. Architectural quantities (simulated cycles, total rule
firings, fleet unit counts) must match the baseline exactly — the
simulation is deterministic, so any drift is a functional bug, not noise.

The ratio gates:

* ``ring_speedup`` (the wakeup-layer workload) is gated against the
  committed baseline ratio (>20% regression fails).
* ``socw_fast_speedup`` (reference/fast on the fig17-shaped ``soc_wakeup``
  microbench: ~9 live rules, ~35 sleepers) is recorded but not floored;
  its simulated cycles and firings are exact keys.
* ``fig17_fast_speedup`` (reference/fast on the full suite) is gated
  against an absolute no-regression floor (0.85, leaving noise headroom
  below the ~1.0-1.2 true ratio). The suite-level ratio is structurally
  modest — the suite saturates the pipeline, so the cells that hot rules
  watch publish nearly every cycle and few guards can sleep (the
  attribution is in EXPERIMENTS.md).
* ``fig17_parallel_speedup`` (the fig17 suite run as a fleet: 1 worker vs
  min(host, 4) workers) is floored at 1.5 *only when the host exposes
  >= 4 threads* (``fig17_host_threads``); a 1- or 2-core runner cannot
  express the ratio, so there it only gets a sanity floor of 0.5 (the
  pool must at least not halve throughput through overhead).
* ``fleet_agg_cps`` (aggregate simulated cycles per host second across
  the campaign) gets a conservative absolute sanity floor — raw
  cycles/second are host-dependent, so the committed baseline value is
  informational while the floor only catches collapse (an order-of-
  magnitude loss from e.g. accidental re-simulation of resumed units).

Independent of any baseline, both scheduler modes must agree on the fig17
simulated cycle count within the run (the cycle checksum).

stdlib-only on purpose: CI runs this with a bare python3.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


# Deterministic architectural quantities: must match the baseline bit-for-bit.
EXACT_KEYS = (
    "ring_sim_cycles",
    "ring_fires",
    "socw_sim_cycles",
    "socw_fires",
    "fig17_sim_cycles_fast",
    "fig17_sim_cycles_reference",
    "fleet_sim_cycles_total",
    "fleet_units",
)

# The baseline-relative throughput ratio (>threshold regression fails).
GATED_RATIO = "ring_speedup"

# Absolute no-regression floor for the full-suite ratio: the fast
# scheduler may not be meaningfully slower than the reference loop on the
# real SoC. The true ratio sits at ~1.0-1.2 (see EXPERIMENTS.md) and a single
# suite pass on a shared runner carries ~5% timing noise even with
# interleaved min-of-2 timing, so the floor leaves headroom: it catches a
# real double-digit regression without flaking.
FIG17_FLOOR = 0.85

# Fleet-pool scale-out floor at >= 4 host threads; the sanity floor
# applies on smaller hosts (see the module docstring).
FLEET_SPEEDUP_FLOOR = 1.5
FLEET_SPEEDUP_SANITY = 0.5

# The sampled tier's reason to exist: fast-forward + interval sampling
# must beat the full detailed runs by at least this wall-clock ratio
# (same host, same run, so the ratio is host-neutral) ...
#
# The ratio is full-detailed seconds / sampled seconds, and two thirds of
# the sampled lane is interpreter, warm-state profiling and hand-off that
# a faster detailed model does not touch, so every PR that speeds the
# detailed model up *lowers* it with nothing regressing (ROADMAP item 1):
# 7.5 when the floor was set at 5.0 (PR 9); 5.3 after PR 13 (11.25 s /
# 2.13 s); about 3.5 after PR 17's occupancy masks (best lanes of eight
# runs 6.47 s / 1.85 s; the eight single-shot ratios read 2.99 to 4.2,
# median 3.4, in a session where the parent build read 3.3 to 6.2, median
# 4.4, against its own 5.0). Both lanes got faster and `sample_ipc_err`
# did not move. 2.5 restores roughly the headroom 5.0 had under 7.5.
# ISSUE 17 proposed 3.0 from its prototype's 3.77; the finished change's
# detailed lane is faster than the prototype's, and only six of those
# eight runs cleared 3.0. ROADMAP item 7 (interpreter speed) is what
# raises the ratio again; item 1(d) retires this gate.
FF_SPEEDUP_FLOOR = 2.5
# ... while the worst-case relative IPC estimation error across the
# sampled workloads stays within 2% of the full-fidelity runs. Both are
# measured by the `sampled_sim` binary; docs/CHECKPOINT.md records the
# calibration behind the numbers.
SAMPLE_IPC_ERR_CEIL = 0.02

# Aggregate-throughput collapse detector: simulated cycles per host
# second summed across the campaign. Release builds sustain millions of
# cycles/s per worker on any host this project supports, so 50k only
# trips on a structural failure, never on a slow runner.
FLEET_AGG_CPS_SANITY = 50_000.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kernel", required=True, help="cmd_kernel_bench --bench-json artifact")
    ap.add_argument(
        "--fig17",
        help="fig17_vs_inorder --bench-json artifact (full-fidelity tier; optional)",
    )
    ap.add_argument(
        "--sampled",
        help="sampled_sim --bench-json artifact (fast-forward/sampling tier; optional)",
    )
    ap.add_argument("--fleet", help="fleet --bench-json artifact (optional)")
    ap.add_argument("--out", required=True, help="merged BENCH_4.json to write")
    ap.add_argument("--baseline", help="committed BENCH_4.json to gate against")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="max allowed fractional regression of %s (default 0.20)" % GATED_RATIO,
    )
    args = ap.parse_args()

    merged = load(args.kernel)
    if args.fig17:
        merged.update(load(args.fig17))
    if args.sampled:
        merged.update(load(args.sampled))
    if args.fleet:
        merged.update(load(args.fleet))
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    tiers = ["kernel"] + [
        t for t, on in (("sampled", args.sampled), ("fig17", args.fig17), ("fleet", args.fleet)) if on
    ]
    print(f"tiers in this run: {', '.join(tiers)}")
    if not args.fig17:
        print(
            "tier note: full-fidelity fig17 sweep NOT run here "
            "(scheduled/labelled CI job covers it)"
        )

    errors = []
    warnings = []

    # Intra-run checksum: both scheduler modes must agree on the
    # simulated cycle count regardless of any baseline.
    if args.fig17:
        fast = merged.get("fig17_sim_cycles_fast")
        ref = merged.get("fig17_sim_cycles_reference")
        if fast != ref:
            errors.append(f"fig17 cycle checksum diverged: fast={fast} reference={ref}")

    # Absolute floors, baseline-independent: same host, same run,
    # interleaved across modes, so the ratios are noise-robust.
    floors = []
    # Ceilings: keys that must stay *at or below* the bound.
    ceilings = []

    if args.sampled:
        floors.append(
            (
                "ff_speedup",
                FF_SPEEDUP_FLOOR,
                "fast-forward + sampling no longer meaningfully beats full runs",
            )
        )
        ceilings.append(
            (
                "sample_ipc_err",
                SAMPLE_IPC_ERR_CEIL,
                "sampled IPC estimate drifted from the full-fidelity runs "
                "(warming or sample placement regressed)",
            )
        )

    if args.fig17:
        floors.append(
            (
                "fig17_fast_speedup",
                FIG17_FLOOR,
                "fast scheduler pays overhead on the real SoC",
            )
        )

        # Fleet-pool scale-out: only a >=4-thread host owes the real floor.
        host_threads = merged.get("fig17_host_threads", 0)
        fleet_floor = FLEET_SPEEDUP_FLOOR if host_threads >= 4 else FLEET_SPEEDUP_SANITY
        floors.append(
            (
                "fig17_parallel_speedup",
                fleet_floor,
                "fleet pool fails to scale the fig17 suite"
                if host_threads >= 4
                else "fleet pool overhead collapses throughput on a small host",
            )
        )
        print(
            f"fig17_host_threads: {host_threads:.0f} (fleet-speedup floor {fleet_floor:.2f})"
        )
        if host_threads < 4:
            warnings.append(
                f"host exposes only {host_threads:.0f} thread(s): "
                "fig17_parallel_speedup is gated by the DEGRADED sanity floor "
                f"({FLEET_SPEEDUP_SANITY:.2f}) instead of the real scale-out floor "
                f"({FLEET_SPEEDUP_FLOOR:.2f}); scale-out regressions are NOT "
                "caught by this run"
            )

    if args.fleet:
        floors.append(
            (
                "fleet_agg_cps",
                FLEET_AGG_CPS_SANITY,
                "aggregate campaign throughput collapsed",
            )
        )

    for key, floor, why in floors:
        got = merged.get(key)
        if got is None:
            errors.append(f"{key} missing from the bench artifacts")
            continue
        verdict = "OK" if got >= floor else "REGRESSION"
        print(f"{key}: run={got:.2f} floor={floor:.2f} -> {verdict}")
        if got < floor:
            errors.append(f"{key} below absolute floor: {got:.2f} < {floor:.2f} ({why})")

    for key, ceil, why in ceilings:
        got = merged.get(key)
        if got is None:
            errors.append(f"{key} missing from the bench artifacts")
            continue
        verdict = "OK" if got <= ceil else "REGRESSION"
        print(f"{key}: run={got:.4f} ceiling={ceil:.4f} -> {verdict}")
        if got > ceil:
            errors.append(f"{key} above ceiling: {got:.4f} > {ceil:.4f} ({why})")

    if args.baseline:
        base = load(args.baseline)
        # A baseline recorded on a small host never exercised the real
        # host-conditional floors; say so loudly on every gated run until
        # it is re-recorded on a >=4-thread machine.
        base_threads = base.get("fig17_host_threads", 0)
        base_fleet_threads = base.get("fleet_threads", 0)
        if base_threads and base_threads < 4:
            warnings.append(
                f"committed baseline {args.baseline} was recorded with "
                f"fig17_host_threads={base_threads:.0f} (fleet_threads="
                f"{base_fleet_threads:.0f}): its host-conditional floors ran "
                "in degraded sanity mode, so the committed "
                "fig17_parallel_speedup / fleet_agg_cps values do not "
                "demonstrate scale-out; re-record the baseline on a "
                ">=4-thread host to restore full gating"
            )
        for key in EXACT_KEYS:
            if key.startswith("fleet_") and not args.fleet:
                continue
            if key.startswith("fig17_") and not args.fig17:
                continue
            if merged.get(key) != base.get(key):
                errors.append(
                    f"{key}: run={merged.get(key)} baseline={base.get(key)} "
                    "(deterministic quantity drifted)"
                )
        got = merged.get(GATED_RATIO)
        want = base.get(GATED_RATIO)
        if got is None or want is None:
            errors.append(f"{GATED_RATIO} missing (run={got} baseline={want})")
        else:
            floor = (1.0 - args.threshold) * want
            verdict = "OK" if got >= floor else "REGRESSION"
            print(
                f"{GATED_RATIO}: run={got:.2f} baseline={want:.2f} "
                f"floor={floor:.2f} -> {verdict}"
            )
            if got < floor:
                errors.append(
                    f"{GATED_RATIO} regressed >{args.threshold:.0%}: "
                    f"{got:.2f} < {floor:.2f}"
                )

    for w in warnings:
        print(f"perf-gate WARNING: {w}", file=sys.stderr)
    for e in errors:
        print(f"perf-gate FAIL: {e}", file=sys.stderr)
    if errors:
        return 1
    print("perf-gate OK" + (" (with warnings)" if warnings else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
