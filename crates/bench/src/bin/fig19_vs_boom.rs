//! Regenerates paper Fig. 19: IPC of the BOOM proxy and RiscyOO-T+R+
//! (matched 80-entry ROBs and cache sizes).
//!
//! The paper's shape: similar harmonic-mean IPC, RiscyOO-T+R+ ahead on the
//! TLB-bound mcf, BOOM ahead on sjeng (better branch prediction there).

use cmd_core::sched::SchedulerMode;
use riscy_bench::{
    harmean, maybe_profile_run, maybe_telemetry_run, results_json, run_ooo, scale_from_args,
    stats_json_path, write_artifact,
};
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_workloads::spec::spec_suite;

/// The eight benchmarks BOOM reported (the paper omits gobmk, hmmer,
/// libquantum).
const BOOM_SET: [&str; 8] = [
    "bzip2",
    "gcc",
    "mcf",
    "sjeng",
    "h264ref",
    "omnetpp",
    "astar",
    "xalancbmk",
];

fn main() {
    riscy_bench::accept_flags(riscy_bench::FIG_VALUED, riscy_bench::FIG_BARE);
    let scale = scale_from_args();
    println!("=== Fig. 19: IPC of BOOM (proxy) and RiscyOO-T+R+ ===\n");
    println!("{:<14}{:>10}{:>14}", "benchmark", "BOOM", "RiscyOO-T+R+");
    let (mut boom_ipcs, mut riscy_ipcs) = (Vec::new(), Vec::new());
    let (mut booms, mut riscys) = (Vec::new(), Vec::new());
    for w in spec_suite(scale) {
        if !BOOM_SET.contains(&w.name) {
            continue;
        }
        let boom = run_ooo(CoreConfig::boom_proxy(), mem_riscyoo_b(), &w);
        let riscy = run_ooo(CoreConfig::riscyoo_t_plus_r_plus(), mem_riscyoo_b(), &w);
        boom_ipcs.push(boom.ipc());
        riscy_ipcs.push(riscy.ipc());
        println!("{:<14}{:>10.3}{:>14.3}", w.name, boom.ipc(), riscy.ipc());
        booms.push(boom);
        riscys.push(riscy);
    }
    println!(
        "{:<14}{:>10.3}{:>14.3}",
        "har-mean",
        harmean(&boom_ipcs),
        harmean(&riscy_ipcs)
    );
    if let Some(path) = stats_json_path() {
        let json = results_json(&[("BOOM", &booms), ("RiscyOO-T+R+", &riscys)]);
        write_artifact(&path, &json);
    }
    if let Some(w) = spec_suite(scale)
        .into_iter()
        .find(|w| BOOM_SET.contains(&w.name))
    {
        maybe_profile_run(
            CoreConfig::riscyoo_t_plus_r_plus(),
            mem_riscyoo_b(),
            1,
            &w,
            SchedulerMode::default(),
        );
        maybe_telemetry_run(
            CoreConfig::riscyoo_t_plus_r_plus(),
            mem_riscyoo_b(),
            1,
            &w,
            SchedulerMode::default(),
        );
    }
}
