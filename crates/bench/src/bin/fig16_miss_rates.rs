//! Regenerates paper Fig. 16: L1 D TLB misses, L2 TLB misses, branch
//! mispredictions, L1 D misses, and L2 misses per thousand instructions on
//! RiscyOO-T+.

use cmd_core::sched::SchedulerMode;
use riscy_bench::{
    maybe_profile_run, maybe_telemetry_run, results_json, run_ooo, scale_from_args,
    stats_json_path, write_artifact,
};
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_workloads::spec::spec_suite;

fn main() {
    riscy_bench::accept_flags(riscy_bench::FIG_VALUED, riscy_bench::FIG_BARE);
    let scale = scale_from_args();
    println!("=== Fig. 16: misses per 1K instructions on RiscyOO-T+ ===\n");
    println!(
        "{:<14}{:>8}{:>8}{:>8}{:>8}{:>8}{:>10}",
        "benchmark", "DTLB", "L2TLB", "BrPred", "D$", "L2$", "IPC"
    );
    let mut runs = Vec::new();
    for w in spec_suite(scale) {
        let r = run_ooo(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), &w);
        println!(
            "{:<14}{:>8.1}{:>8.1}{:>8.1}{:>8.1}{:>8.1}{:>10.3}",
            r.name,
            r.dtlb_pki,
            r.l2tlb_pki,
            r.brpred_pki,
            r.dcache_pki,
            r.l2_pki,
            r.ipc()
        );
        runs.push(r);
    }
    if let Some(path) = stats_json_path() {
        write_artifact(&path, &results_json(&[("RiscyOO-T+", &runs)]));
    }
    println!(
        "\n(paper shape: mcf/astar/omnetpp TLB-heavy; libquantum D$/L2$-heavy;\n\
         \x20sjeng/gobmk mispredict-heavy; hmmer/h264ref low everywhere)"
    );
    if let Some(w) = spec_suite(scale).into_iter().next() {
        maybe_profile_run(
            CoreConfig::riscyoo_t_plus(),
            mem_riscyoo_b(),
            1,
            &w,
            SchedulerMode::default(),
        );
        maybe_telemetry_run(
            CoreConfig::riscyoo_t_plus(),
            mem_riscyoo_b(),
            1,
            &w,
            SchedulerMode::default(),
        );
    }
}
