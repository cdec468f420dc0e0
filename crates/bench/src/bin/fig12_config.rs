//! Regenerates paper Fig. 12: the RiscyOO-B configuration table.

use riscy_bench::{metrics_json, stats_json_path, write_artifact};
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};

fn main() {
    riscy_bench::accept_flags(riscy_bench::FIG_VALUED, riscy_bench::FIG_BARE);
    let c = CoreConfig::riscyoo_b();
    let m = mem_riscyoo_b();
    println!("=== Fig. 12: RiscyOO-B configuration ===\n");
    println!(
        "Front-end    {}-wide superscalar fetch/decode/rename\n\
         \x20            {}-entry direct-mapped BTB\n\
         \x20            tournament branch predictor as in Alpha 21264\n\
         \x20            {}-entry return address stack",
        c.width, c.bp.btb_entries, c.bp.ras_entries
    );
    println!(
        "Execution    {}-entry ROB with {}-way insert/commit\n\
         \x20            Total {} pipelines: {} ALU, 1 MEM, 1 MUL/DIV\n\
         \x20            {}-entry IQ per pipeline",
        c.rob_entries,
        c.width,
        c.alu_pipes + 2,
        c.alu_pipes,
        c.iq_entries
    );
    println!(
        "Ld-St Unit   {}-entry LQ, {}-entry SQ, {}-entry SB (each 64B wide)",
        c.lq_entries, c.sq_entries, c.sb_entries
    );
    println!(
        "TLBs         Both L1 I and D are {}-entry, fully associative\n\
         \x20            L2 is {}-entry, {}-way associative",
        c.tlb.l1_entries, c.tlb.l2_entries, c.tlb.l2_ways
    );
    println!(
        "L1 Caches    Both I and D are {}KB, {}-way associative, max {} requests",
        m.l1d.size_bytes / 1024,
        m.l1d.ways,
        m.l1d.mshrs
    );
    println!(
        "L2 Cache     {}MB, {}-way, max {} requests, coherent with I and D",
        m.l2.size_bytes / (1024 * 1024),
        m.l2.ways,
        m.l2.max_trans
    );
    println!(
        "Memory       {}-cycle latency, max {} req (one line per {} cycles)",
        m.l2.dram.latency, m.l2.dram.max_outstanding, m.l2.dram.cycles_per_line
    );
    if let Some(path) = stats_json_path() {
        let json = metrics_json(&[
            ("width", c.width as f64),
            ("btb_entries", c.bp.btb_entries as f64),
            ("ras_entries", c.bp.ras_entries as f64),
            ("rob_entries", c.rob_entries as f64),
            ("alu_pipes", c.alu_pipes as f64),
            ("iq_entries", c.iq_entries as f64),
            ("lq_entries", c.lq_entries as f64),
            ("sq_entries", c.sq_entries as f64),
            ("sb_entries", c.sb_entries as f64),
            ("tlb_l1_entries", c.tlb.l1_entries as f64),
            ("tlb_l2_entries", c.tlb.l2_entries as f64),
            ("l1d_bytes", m.l1d.size_bytes as f64),
            ("l2_bytes", m.l2.size_bytes as f64),
            ("dram_latency", m.l2.dram.latency as f64),
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
            CoreConfig::riscyoo_b(),
            mem_riscyoo_b(),
            1,
            &w,
            cmd_core::sched::SchedulerMode::default(),
        );
        riscy_bench::maybe_telemetry_run(
            CoreConfig::riscyoo_b(),
            mem_riscyoo_b(),
            1,
            &w,
            cmd_core::sched::SchedulerMode::default(),
        );
    }
}
