//! Regenerates paper Fig. 21: ASIC synthesis results (max frequency and
//! NAND2-equivalent gates) for RiscyOO-T+ and RiscyOO-T+R+, via the
//! calibrated analytic model in `riscy-synth`.

use riscy_bench::{metrics_json, stats_json_path, write_artifact};
use riscy_ooo::config::CoreConfig;
use riscy_synth::{fig21_table, synthesize};

fn main() {
    riscy_bench::accept_flags(riscy_bench::FIG_VALUED, riscy_bench::FIG_BARE);
    println!("=== Fig. 21: ASIC synthesis results (analytic model) ===\n");
    print!(
        "{}",
        fig21_table(&[
            ("RiscyOO-T+", CoreConfig::riscyoo_t_plus()),
            ("RiscyOO-T+R+", CoreConfig::riscyoo_t_plus_r_plus()),
        ])
    );
    println!("(paper: 1.1 GHz / 1.78 M and 1.0 GHz / 1.89 M)\n");

    println!("Logic breakdown of RiscyOO-T+ (NAND2-equivalents):");
    let r = synthesize(&CoreConfig::riscyoo_t_plus());
    for (name, g) in [
        ("branch predictors", r.bp_gates),
        ("ROB", r.rob_gates),
        ("issue queues", r.iq_gates),
        ("rename + spec mgr", r.rename_gates),
        ("PRF logic", r.prf_gates),
        ("LSQ + SB", r.lsq_gates),
        ("exec units", r.exec_gates),
        ("TLB control", r.tlb_gates),
        ("fixed control", r.fixed_gates),
    ] {
        println!("  {name:<20} {:>8.0} K", g / 1000.0);
    }
    println!("\nExtension sweep (beyond-paper): ROB size vs area/frequency:");
    for rob in [48, 64, 80, 96, 128] {
        let cfg = CoreConfig {
            rob_entries: rob,
            ..CoreConfig::riscyoo_t_plus()
        };
        let s = synthesize(&cfg);
        println!(
            "  ROB {rob:>3}: {:>5.2} GHz, {:>5.2} M gates",
            s.max_freq_ghz, s.nand2_gates_m
        );
    }
    if let Some(path) = stats_json_path() {
        let tr = synthesize(&CoreConfig::riscyoo_t_plus_r_plus());
        let json = metrics_json(&[
            ("t_plus_max_freq_ghz", r.max_freq_ghz),
            ("t_plus_nand2_gates_m", r.nand2_gates_m),
            ("t_plus_r_plus_max_freq_ghz", tr.max_freq_ghz),
            ("t_plus_r_plus_nand2_gates_m", tr.nand2_gates_m),
            ("t_plus_rob_gates", r.rob_gates),
            ("t_plus_iq_gates", r.iq_gates),
            ("t_plus_lsq_gates", r.lsq_gates),
            ("t_plus_tlb_gates", r.tlb_gates),
        ]);
        write_artifact(&path, &json);
    }
    // The profiling flags run the described configuration on one
    // representative workload (see docs/OBSERVABILITY.md).
    if let Some(w) = riscy_workloads::spec::spec_suite(riscy_bench::scale_from_args())
        .into_iter()
        .next()
    {
        riscy_bench::maybe_profile_run(
            CoreConfig::riscyoo_t_plus(),
            riscy_ooo::config::mem_riscyoo_b(),
            1,
            &w,
            cmd_core::sched::SchedulerMode::default(),
        );
        riscy_bench::maybe_telemetry_run(
            CoreConfig::riscyoo_t_plus(),
            riscy_ooo::config::mem_riscyoo_b(),
            1,
            &w,
            cmd_core::sched::SchedulerMode::default(),
        );
    }
}
