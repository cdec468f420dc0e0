//! Regenerates paper Fig. 17: RiscyOO-C-, Rocket-10, and Rocket-120
//! normalized to RiscyOO-T+ (the out-of-order vs in-order comparison).

use riscy_baseline::InOrderConfig;
use riscy_bench::{
    geomean, maybe_profile_run, maybe_telemetry_run, results_json, run_inorder,
    run_ooo_with_scheduler, scale_from_args, scheduler_from_args, stats_json_path, write_artifact,
};
use riscy_ooo::config::{mem_riscyoo_b, mem_riscyoo_c_minus, CoreConfig};
use riscy_workloads::spec::spec_suite;

fn main() {
    riscy_bench::accept_flags(
        &[riscy_bench::FIG_VALUED, &["--scheduler"]].concat(),
        riscy_bench::FIG_BARE,
    );
    let scale = scale_from_args();
    let mode = scheduler_from_args();
    // Parsed before the suite runs: a malformed flag fails in milliseconds.
    let stats_path = stats_json_path();
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
    if let Some(path) = stats_path {
        let json = results_json(&[
            ("RiscyOO-T+", &ts),
            ("RiscyOO-C-", &cs),
            ("Rocket-10", &k10s),
            ("Rocket-120", &k120s),
        ]);
        write_artifact(&path, &json);
    }
    if let Some(w) = spec_suite(scale).into_iter().next() {
        maybe_profile_run(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w, mode);
        maybe_telemetry_run(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w, mode);
    }
}
