//! Regenerates paper Fig. 18: commercial-ARM proxies (A57, Denver)
//! normalized to RiscyOO-T+.
//!
//! The proxies are wider OOO configurations standing in for silicon (see
//! DESIGN.md); the reproduction target is the *shape*: the wide cores win
//! on average, but RiscyOO-T+ catches up or wins on the TLB-bound
//! benchmarks (mcf, astar, omnetpp) thanks to its TLB optimizations.

use cmd_core::sched::SchedulerMode;
use riscy_bench::{
    geomean, maybe_profile_run, maybe_telemetry_run, results_json, run_ooo, scale_from_args,
    stats_json_path, write_artifact,
};
use riscy_ooo::config::{mem_arm_proxy, mem_riscyoo_b, CoreConfig};
use riscy_workloads::spec::spec_suite;

fn main() {
    riscy_bench::accept_flags(riscy_bench::FIG_VALUED, riscy_bench::FIG_BARE);
    let scale = scale_from_args();
    println!("=== Fig. 18: A57/Denver proxies normalized to RiscyOO-T+ ===");
    println!("(paper: A57 ≈ +34%, Denver ≈ +45% on average; T+ wins mcf/astar/omnetpp)\n");
    println!("{:<14}{:>12}{:>12}", "benchmark", "A57", "Denver");
    let (mut a57s, mut denvers) = (Vec::new(), Vec::new());
    let (mut ts, mut ars, mut drs) = (Vec::new(), Vec::new(), Vec::new());
    for w in spec_suite(scale) {
        let t = run_ooo(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), &w);
        let a57 = run_ooo(CoreConfig::a57_proxy(), mem_arm_proxy(), &w);
        let den = run_ooo(CoreConfig::denver_proxy(), mem_arm_proxy(), &w);
        let ra = t.roi_cycles as f64 / a57.roi_cycles as f64;
        let rd = t.roi_cycles as f64 / den.roi_cycles as f64;
        a57s.push(ra);
        denvers.push(rd);
        println!("{:<14}{:>12.3}{:>12.3}", w.name, ra, rd);
        ts.push(t);
        ars.push(a57);
        drs.push(den);
    }
    println!(
        "{:<14}{:>12.3}{:>12.3}",
        "geo-mean",
        geomean(&a57s),
        geomean(&denvers)
    );
    if let Some(path) = stats_json_path() {
        let json = results_json(&[("RiscyOO-T+", &ts), ("A57", &ars), ("Denver", &drs)]);
        write_artifact(&path, &json);
    }
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
