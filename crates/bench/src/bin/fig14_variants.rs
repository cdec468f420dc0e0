//! Regenerates paper Fig. 14: the RiscyOO variant table.

use riscy_bench::{metrics_json, stats_json_path, write_artifact};
use riscy_ooo::config::{mem_riscyoo_c_minus, CoreConfig};

fn main() {
    riscy_bench::accept_flags(riscy_bench::FIG_VALUED, riscy_bench::FIG_BARE);
    println!("=== Fig. 14: variants of the RiscyOO-B configuration ===\n");
    println!("{:<16} {:<18} Specifications", "Variant", "Difference");
    let c_minus = mem_riscyoo_c_minus();
    println!(
        "{:<16} {:<18} {}KB L1 I/D, {}KB L2",
        "RiscyOO-C-",
        "Smaller Caches",
        c_minus.l1d.size_bytes / 1024,
        c_minus.l2.size_bytes / 1024
    );
    let t = CoreConfig::riscyoo_t_plus();
    println!(
        "{:<16} {:<18} Non-blocking TLBs ({} L1D / {} L2 misses), {}-entry/level walk cache",
        "RiscyOO-T+",
        "Improved TLB",
        t.tlb.l1d_miss_slots,
        t.tlb.l2_miss_slots,
        t.tlb.walk_cache_entries
    );
    let tr = CoreConfig::riscyoo_t_plus_r_plus();
    println!(
        "{:<16} {:<18} RiscyOO-T+ with {}-entry ROB",
        "RiscyOO-T+R+", "Larger ROB", tr.rob_entries
    );
    if let Some(path) = stats_json_path() {
        let json = metrics_json(&[
            ("c_minus_l1d_bytes", c_minus.l1d.size_bytes as f64),
            ("c_minus_l2_bytes", c_minus.l2.size_bytes as f64),
            ("t_plus_l1d_miss_slots", t.tlb.l1d_miss_slots as f64),
            ("t_plus_l2_miss_slots", t.tlb.l2_miss_slots as f64),
            ("t_plus_walk_cache_entries", t.tlb.walk_cache_entries as f64),
            ("t_plus_r_plus_rob_entries", tr.rob_entries as f64),
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
