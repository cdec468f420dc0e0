//! Regenerates paper Fig. 17: RiscyOO-C-, Rocket-10, and Rocket-120
//! normalized to RiscyOO-T+ (the out-of-order vs in-order comparison).

use cmd_core::sched::SchedulerMode;
use riscy_baseline::InOrderConfig;
use riscy_bench::fleet::{fleet_grid, run_fleet, FleetOpts, SocFleet};
use riscy_bench::{
    bench_json_path, geomean, maybe_profile_run, maybe_telemetry_run, metrics_json, results_json,
    run_inorder, run_ooo_with_scheduler, scale_from_args, scheduler_from_args, stats_json_path,
    write_artifact,
};
use riscy_ooo::config::{mem_riscyoo_b, mem_riscyoo_c_minus, CoreConfig};
use riscy_workloads::spec::{spec_suite, Scale, Workload};
use std::time::Instant;

const MODES: usize = 2;
const TIMED_MODES: [SchedulerMode; MODES] = [SchedulerMode::Fast, SchedulerMode::Reference];

/// Times the whole T+ suite under both schedulers, interleaved per
/// workload (each workload runs back-to-back under every mode, twice,
/// keeping the per-mode minimum) so host-frequency drift lands on all
/// modes equally instead of skewing the speedup ratios — single-rep
/// block-per-mode timing was worth ±10% on the ratio on a busy host.
/// Returns per-mode wall seconds and total ROI cycles in [`TIMED_MODES`]
/// order; the cycle totals double as the cross-scheduler determinism
/// checksum the perf gate verifies.
fn time_suite(scale: Scale) -> ([f64; MODES], [u64; MODES]) {
    const ROUNDS: usize = 2;
    let mut secs = [0.0f64; MODES];
    let mut cycles = [0u64; MODES];
    for w in spec_suite(scale) {
        let mut best = [f64::INFINITY; MODES];
        for round in 0..ROUNDS {
            for (k, &mode) in TIMED_MODES.iter().enumerate() {
                let t0 = Instant::now();
                let c =
                    run_ooo_with_scheduler(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), &w, mode)
                        .roi_cycles;
                best[k] = best[k].min(t0.elapsed().as_secs_f64());
                if round == 0 {
                    cycles[k] += c;
                }
            }
        }
        for (s, b) in secs.iter_mut().zip(best) {
            *s += b;
        }
    }
    (secs, cycles)
}

/// Wall seconds to run the whole T+ suite as a fleet of independent
/// units on `threads` workers (see `docs/PARALLELISM.md` §"Fleet
/// campaigns"). The 1-thread vs N-thread ratio is `fig17_parallel_speedup`:
/// host-thread scale-out, measured on the same suite the per-mode timings
/// above use.
fn time_fleet(scale: Scale, threads: usize) -> f64 {
    let suite = spec_suite(scale);
    let refs: Vec<&Workload> = suite.iter().collect();
    let units = fleet_grid(&[0], &["t+"], &refs);
    let harness = SocFleet {
        workloads: suite.clone(),
        sched: SchedulerMode::Fast,
        chaos: false,
    };
    let opts = FleetOpts {
        threads,
        ..FleetOpts::default()
    };
    run_fleet(units, &opts, |u, ctx| harness.run_unit(u, ctx)).wall_s
}

fn main() {
    let scale = scale_from_args();
    let mode = scheduler_from_args();
    println!("=== Fig. 17: normalized to RiscyOO-T+ (higher is better) ===");
    println!("(paper: T+ beats Rocket-120 by ~319% and Rocket-10 by ~53%)\n");
    println!(
        "{:<14}{:>14}{:>14}{:>14}",
        "benchmark", "RiscyOO-C-", "Rocket-10", "Rocket-120"
    );
    let (mut rc, mut r10, mut r120) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ts, mut cs, mut k10s, mut k120s) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for w in spec_suite(scale) {
        let t = run_ooo_with_scheduler(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), &w, mode);
        let c = run_ooo_with_scheduler(
            CoreConfig::riscyoo_t_plus(),
            mem_riscyoo_c_minus(),
            &w,
            mode,
        );
        let k10 = run_inorder(InOrderConfig::rocket(10), &w);
        let k120 = run_inorder(InOrderConfig::rocket(120), &w);
        let n = |x: u64| t.roi_cycles as f64 / x as f64;
        let (a, b, cc) = (n(c.roi_cycles), n(k10.roi_cycles), n(k120.roi_cycles));
        rc.push(a);
        r10.push(b);
        r120.push(cc);
        println!("{:<14}{:>14.3}{:>14.3}{:>14.3}", w.name, a, b, cc);
        ts.push(t);
        cs.push(c);
        k10s.push(k10);
        k120s.push(k120);
    }
    println!(
        "{:<14}{:>14.3}{:>14.3}{:>14.3}",
        "geo-mean",
        geomean(&rc),
        geomean(&r10),
        geomean(&r120)
    );
    if let Some(path) = stats_json_path() {
        let json = results_json(&[
            ("RiscyOO-T+", &ts),
            ("RiscyOO-C-", &cs),
            ("Rocket-10", &k10s),
            ("Rocket-120", &k120s),
        ]);
        write_artifact(&path, &json);
    }
    if let Some(path) = bench_json_path() {
        // Perf-gate artifact: the T+ suite timed under both schedulers.
        // SoC rules carry real wakeup policies (see `soc.rs`), so Fast
        // skips sleeping rules. The gate enforces exact cycle equality
        // between the two modes plus the reference/fast speedup floor
        // (`fig17_fast_speedup`).
        let ([fast_s, ref_s], [fast_cycles, ref_cycles]) = time_suite(scale);
        // Scale-out: the same suite as a fleet, 1 thread vs min(host, 4).
        // `fig17_host_threads` tells the gate whether the host can even
        // express a speedup (a 1-core CI runner cannot).
        let host = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(4);
        let fleet_1 = time_fleet(scale, 1);
        let fleet_n = if host > 1 {
            time_fleet(scale, host)
        } else {
            fleet_1
        };
        let json = metrics_json(&[
            ("fig17_sim_cycles_fast", fast_cycles as f64),
            ("fig17_sim_cycles_reference", ref_cycles as f64),
            ("fig17_fast_wall_ms", fast_s * 1e3),
            ("fig17_reference_wall_ms", ref_s * 1e3),
            ("fig17_fast_cps", fast_cycles as f64 / fast_s),
            ("fig17_reference_cps", ref_cycles as f64 / ref_s),
            ("fig17_fast_speedup", ref_s / fast_s),
            ("fig17_host_threads", host as f64),
            ("fig17_parallel_speedup", fleet_1 / fleet_n),
        ]);
        write_artifact(&path, &json);
    }
    if let Some(w) = spec_suite(scale).into_iter().next() {
        maybe_profile_run(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w, mode);
        maybe_telemetry_run(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w, mode);
    }
}
