//! Fast-forward + sampled simulation, measured against full-fidelity runs.
//!
//! For each (single-core) workload this binary runs the full detailed
//! simulation, then the fast-forward + interval-sampling pass
//! ([`riscy_bench::sampling`]), and prints the wall-clock speedup and the
//! IPC estimation error per workload plus a summary line (Σ full wall
//! time / Σ sampled wall time, worst-case relative IPC error). Neither is
//! gated here: the accuracy pin is the exact `bench.sample_ipc_err` of the
//! repo benchmark's `sampled_ff` workload, and the speed history is its
//! `sim_cps` (`python3 scripts/bench_trend.py`).
//!
//! ```text
//! sampled_sim [--scale test|ref] [--workloads a,b,...] [--samples N]
//!             [--warmup N] [--interval N]
//!             [--report sample_report.json] [--telemetry-json PATH]
//! ```
//!
//! `--report` writes the per-workload `sample_report.json` CI artifact
//! (full vs estimated IPC, every raw sample point). See
//! `docs/CHECKPOINT.md` §"Sampled simulation". `--telemetry-json` runs
//! the first workload once more with windowed kernel telemetry and
//! writes the time-series artifact (see `docs/OBSERVABILITY.md`
//! §telemetry).

use cmd_core::sched::SchedulerMode;
use riscy_bench::sampling::{
    compare_sampled, functional_profile, sample_report_json, SamplePlan, SampledWorkload,
};
use riscy_bench::{maybe_telemetry_run, path_arg, scale_from_args, write_artifact};
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_workloads::spec::spec_suite;

fn num_arg(flag: &str, default: u64) -> u64 {
    path_arg(flag).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} {v}: not a number"))
    })
}

fn main() {
    riscy_bench::accept_flags(
        &[
            "--scale",
            "--workloads",
            "--samples",
            "--warmup",
            "--interval",
            "--report",
            "--telemetry-json",
            "--telemetry-window",
            "--telemetry-windows",
        ],
        &[],
    );
    let scale = scale_from_args();
    let mut workloads = spec_suite(scale);
    if let Some(filter) = path_arg("--workloads") {
        let keep: Vec<&str> = filter.split(',').collect();
        workloads.retain(|w| keep.contains(&w.name));
        assert!(
            !workloads.is_empty(),
            "--workloads {filter}: nothing matched"
        );
    }
    let defaults = SamplePlan::default();
    let plan = SamplePlan {
        samples: num_arg("--samples", defaults.samples),
        warmup_insts: num_arg("--warmup", defaults.warmup_insts),
        interval_insts: num_arg("--interval", defaults.interval_insts),
        ..defaults
    };
    println!(
        "=== sampled simulation: {} samples x ({} warmup + {} measured) insts ===\n",
        plan.samples, plan.warmup_insts, plan.interval_insts
    );
    println!(
        "{:<14}{:>12}{:>10}{:>10}{:>9}{:>12}{:>12}{:>9}",
        "benchmark", "insts", "full-ipc", "est-ipc", "err", "full-s", "sampled-s", "speedup"
    );
    let cfg = CoreConfig::riscyoo_t_plus();
    let mem = mem_riscyoo_b();
    let mut entries: Vec<SampledWorkload> = Vec::new();
    for w in &workloads {
        // Sampling a workload shorter than a few multiples of the
        // detailed slices is dishonest (the "sample" IS the run); scout
        // functionally first and say so instead of reporting a fake
        // speedup.
        let profile = functional_profile(cfg, mem, &w.program, w.max_cycles.saturating_mul(8));
        let (b, e) = profile.sample_window();
        if e - b < plan.min_window_insts() {
            println!(
                "{:<14}{:>12}  skipped: sample window {} insts < {} needed by the plan",
                w.name,
                profile.total_insts,
                e - b,
                plan.min_window_insts()
            );
            continue;
        }
        let cmp = compare_sampled(cfg, mem, w.name, &w.program, w.max_cycles, &plan);
        println!(
            "{:<14}{:>12}{:>10.3}{:>10.3}{:>8.2}%{:>12.3}{:>12.3}{:>8.1}x",
            cmp.name,
            cmp.estimate.total_insts,
            cmp.full_ipc,
            cmp.est_ipc,
            100.0 * cmp.ipc_err(),
            cmp.full_wall_s,
            cmp.sampled_wall_s,
            cmp.speedup(),
        );
        entries.push(cmp);
    }
    assert!(
        !entries.is_empty(),
        "no workload was long enough to sample — pick longer workloads or a smaller plan"
    );
    let full_wall: f64 = entries.iter().map(|e| e.full_wall_s).sum();
    let sampled_wall: f64 = entries.iter().map(|e| e.sampled_wall_s).sum();
    let ff_speedup = if sampled_wall > 0.0 {
        full_wall / sampled_wall
    } else {
        0.0
    };
    let err_max = entries
        .iter()
        .map(SampledWorkload::ipc_err)
        .fold(0.0, f64::max);
    println!(
        "\nsampled_sim: ff_speedup {ff_speedup:.1}x ({full_wall:.2}s full vs {sampled_wall:.2}s sampled), worst IPC err {:.2}%",
        100.0 * err_max
    );

    if let Some(path) = path_arg("--report") {
        write_artifact(&path, &sample_report_json(&entries));
    }
    if let Some(w) = workloads.first() {
        maybe_telemetry_run(cfg, mem, 1, w, SchedulerMode::default());
    }
}
