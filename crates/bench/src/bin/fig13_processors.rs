//! Regenerates paper Fig. 13: the comparison-processor table, as
//! instantiated by this reproduction (substitutions documented in
//! DESIGN.md).

use riscy_bench::{metrics_json, stats_json_path, write_artifact};
use riscy_ooo::config::CoreConfig;

fn main() {
    riscy_bench::accept_flags(riscy_bench::FIG_VALUED, riscy_bench::FIG_BARE);
    println!("=== Fig. 13: processors to compare against ===\n");
    let rows = [
        (
            "Rocket-10",
            "in-order substitute, 16KB L1 I/D, no L2, 10-cycle memory",
            "In-order",
        ),
        (
            "Rocket-120",
            "in-order substitute, 16KB L1 I/D, no L2, 120-cycle memory",
            "In-order",
        ),
        (
            "A57 (proxy)",
            "3-wide superscalar OOO proxy, 48KB L1 I, 2MB L2",
            "Commercial ARM",
        ),
        (
            "Denver (proxy)",
            "4-wide aggressive OOO proxy, large buffers, 2MB L2",
            "Commercial ARM",
        ),
        (
            "BOOM (proxy)",
            "2-wide OOO, 80-entry ROB, 32KB L1 I/D, 1MB L2, blocking TLBs",
            "Academic OOO",
        ),
    ];
    println!("{:<16} {:<62} Category", "Name", "Description");
    for (n, d, c) in rows {
        println!("{n:<16} {d:<62} {c}");
    }
    println!("\nProxy core parameters:");
    for (name, cfg) in [
        ("A57", CoreConfig::a57_proxy()),
        ("Denver", CoreConfig::denver_proxy()),
        ("BOOM", CoreConfig::boom_proxy()),
    ] {
        println!(
            "  {name:<8} width={} rob={} iq={} lq/sq={}/{} phys={}",
            cfg.width,
            cfg.rob_entries,
            cfg.iq_entries,
            cfg.lq_entries,
            cfg.sq_entries,
            cfg.phys_regs
        );
    }
    if let Some(path) = stats_json_path() {
        let mut metrics = Vec::new();
        let mut names = Vec::new();
        for (name, cfg) in [
            ("a57", CoreConfig::a57_proxy()),
            ("denver", CoreConfig::denver_proxy()),
            ("boom", CoreConfig::boom_proxy()),
        ] {
            names.push([
                format!("{name}_width"),
                format!("{name}_rob_entries"),
                format!("{name}_phys_regs"),
            ]);
            metrics.push([
                cfg.width as f64,
                cfg.rob_entries as f64,
                cfg.phys_regs as f64,
            ]);
        }
        let flat: Vec<(&str, f64)> = names
            .iter()
            .zip(&metrics)
            .flat_map(|(ns, vs)| ns.iter().map(String::as_str).zip(vs.iter().copied()))
            .collect();
        write_artifact(&path, &metrics_json(&flat));
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
