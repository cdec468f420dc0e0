//! Regenerates paper Fig. 15: performance of RiscyOO-T+ normalized to
//! RiscyOO-B (the effect of the TLB microarchitecture optimizations).
//!
//! Pass `--ablate` to additionally decompose T+ into its two ingredients
//! (non-blocking miss handling vs the translation cache) — the ablation
//! DESIGN.md calls out.

use cmd_core::sched::SchedulerMode;
use riscy_bench::{
    geomean, maybe_profile_run, maybe_telemetry_run, results_json, run_ooo, scale_from_args,
    stats_json_path, write_artifact,
};
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, TlbConfig};
use riscy_workloads::spec::spec_suite;

fn main() {
    riscy_bench::accept_flags(
        riscy_bench::FIG_VALUED,
        &[riscy_bench::FIG_BARE, &["--ablate"]].concat(),
    );
    let scale = scale_from_args();
    let ablate = std::env::args().any(|a| a == "--ablate");
    let suite = spec_suite(scale);

    println!("=== Fig. 15: RiscyOO-T+ normalized to RiscyOO-B ===");
    println!("(higher is better; paper: geo-mean ≈ 1.29, astar ≈ 2.0)\n");
    let mut header = format!(
        "{:<14}{:>12}{:>12}{:>12}",
        "benchmark", "B cycles", "T+ cycles", "T+/B"
    );
    if ablate {
        header += &format!("{:>14}{:>14}", "nonblk only", "walk$ only");
    }
    println!("{header}");

    let nonblock_only = CoreConfig {
        tlb: TlbConfig {
            walk_cache_entries: 0,
            ..TlbConfig::nonblocking()
        },
        ..CoreConfig::riscyoo_b()
    };
    let walkcache_only = CoreConfig {
        tlb: TlbConfig {
            walk_cache_entries: 24,
            ..TlbConfig::blocking()
        },
        ..CoreConfig::riscyoo_b()
    };

    let mut ratios = Vec::new();
    let (mut bs, mut tps) = (Vec::new(), Vec::new());
    for w in &suite {
        let b = run_ooo(CoreConfig::riscyoo_b(), mem_riscyoo_b(), w);
        let t = run_ooo(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), w);
        let ratio = b.roi_cycles as f64 / t.roi_cycles as f64;
        ratios.push(ratio);
        let mut line = format!(
            "{:<14}{:>12}{:>12}{:>12.3}",
            w.name, b.roi_cycles, t.roi_cycles, ratio
        );
        if ablate {
            let nb = run_ooo(nonblock_only, mem_riscyoo_b(), w);
            let wc = run_ooo(walkcache_only, mem_riscyoo_b(), w);
            line += &format!(
                "{:>14.3}{:>14.3}",
                b.roi_cycles as f64 / nb.roi_cycles as f64,
                b.roi_cycles as f64 / wc.roi_cycles as f64
            );
        }
        println!("{line}");
        bs.push(b);
        tps.push(t);
    }
    println!(
        "{:<14}{:>12}{:>12}{:>12.3}",
        "geo-mean",
        "",
        "",
        geomean(&ratios)
    );
    if let Some(path) = stats_json_path() {
        let json = results_json(&[("RiscyOO-B", &bs), ("RiscyOO-T+", &tps)]);
        write_artifact(&path, &json);
    }
    if let Some(w) = suite.first() {
        maybe_profile_run(
            CoreConfig::riscyoo_t_plus(),
            mem_riscyoo_b(),
            1,
            w,
            SchedulerMode::default(),
        );
        maybe_telemetry_run(
            CoreConfig::riscyoo_t_plus(),
            mem_riscyoo_b(),
            1,
            w,
            SchedulerMode::default(),
        );
    }
}
