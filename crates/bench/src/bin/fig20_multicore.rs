//! Regenerates paper Fig. 20: PARSEC proxies on TSO and WMM multicores
//! with 1, 2 and 4 threads, normalized to TSO with 1 thread.
//!
//! The paper's finding: "no discernible difference between the performance
//! of TSO and WMM"; TSO's speculative-load kills are ≤0.25 per 1K
//! instructions.

use cmd_core::sched::SchedulerMode;
use riscy_bench::{
    maybe_profile_run, maybe_telemetry_run, scale_from_args, scheduler_from_args, stats_json_path,
    trace_path, write_artifact,
};
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::SocSim;
use riscy_workloads::parsec::parsec_suite;
use riscy_workloads::spec::Workload;

fn run(model: MemModel, nthreads: usize, w: &Workload, mode: SchedulerMode) -> (u64, f64) {
    let mut sim = SocSim::new(
        CoreConfig::multicore(model),
        mem_riscyoo_b(),
        nthreads,
        &w.program,
    );
    sim.set_scheduler(mode);
    sim.run_to_completion(w.max_cycles * 4)
        .unwrap_or_else(|e| panic!("{} ({model:?}, {nthreads}t): {e}", w.name));
    let soc = sim.soc();
    let st = soc.cores[0].stats;
    let kills: u64 = soc.cores.iter().map(|c| c.lsq.evict_kills.read()).sum();
    let total_insts: u64 = soc.cores.iter().map(|c| c.stats.committed).sum();
    (
        st.roi_cycles,
        1000.0 * kills as f64 / total_insts.max(1) as f64,
    )
}

fn main() {
    riscy_bench::accept_flags(
        &[riscy_bench::FIG_VALUED, &["--scheduler", "--trace"]].concat(),
        riscy_bench::FIG_BARE,
    );
    let scale = scale_from_args();
    let mode = scheduler_from_args();
    println!("=== Fig. 20: TSO vs WMM multicore scaling ===");
    println!("(normalized to TSO-1; higher is better; paper: TSO ≈ WMM)\n");
    println!(
        "{:<14}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>12}",
        "benchmark", "tso-1", "wmm-1", "tso-2", "wmm-2", "tso-4", "wmm-4", "kills/Kinst"
    );
    for w1 in parsec_suite(scale, 1) {
        let (base, _) = run(MemModel::Tso, 1, &w1, mode);
        let mut cols = vec![1.0];
        let mut max_kills: f64 = 0.0;
        for n in [1, 2, 4] {
            for model in [MemModel::Tso, MemModel::Wmm] {
                if n == 1 && model == MemModel::Tso {
                    continue;
                }
                let w = parsec_suite(scale, n)
                    .into_iter()
                    .find(|w| w.name == w1.name)
                    .expect("same suite");
                let (cycles, kills) = run(model, n, &w, mode);
                cols.push(base as f64 / cycles as f64);
                max_kills = max_kills.max(kills);
            }
        }
        print!("{:<14}", w1.name);
        for c in &cols {
            print!("{c:>8.2}");
        }
        println!("{max_kills:>12.3}");
    }

    // Observability artifacts: one dedicated 2-thread TSO run of the first
    // PARSEC proxy, with the pipeline trace enabled if `--trace` asks for
    // it. (Tracing never changes cycle counts — see docs/OBSERVABILITY.md —
    // but the figure rows above stay untraced so the artifact run cannot
    // perturb them even in principle.)
    let stats_path = stats_json_path();
    let trace_out = trace_path();
    if stats_path.is_some() || trace_out.is_some() {
        let w = parsec_suite(scale, 2).remove(0);
        let mut sim = SocSim::new(
            CoreConfig::multicore(MemModel::Tso),
            mem_riscyoo_b(),
            2,
            &w.program,
        );
        sim.set_scheduler(mode);
        if trace_out.is_some() {
            sim.enable_pipe_trace();
        }
        sim.run_to_completion(w.max_cycles * 4)
            .unwrap_or_else(|e| panic!("{} (artifact run): {e}", w.name));
        if let Some(path) = &trace_out {
            write_artifact(path, &sim.pipe_trace());
        }
        if let Some(path) = &stats_path {
            write_artifact(path, &sim.stats_json());
        }
    }
    if let Some(w) = parsec_suite(scale, 2).into_iter().next() {
        maybe_profile_run(
            CoreConfig::multicore(MemModel::Tso),
            mem_riscyoo_b(),
            2,
            &w,
            mode,
        );
        maybe_telemetry_run(
            CoreConfig::multicore(MemModel::Tso),
            mem_riscyoo_b(),
            2,
            &w,
            mode,
        );
    }
}
