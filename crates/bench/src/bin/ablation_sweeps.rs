//! Beyond-paper ablations promised in DESIGN.md: sweeps of the design
//! parameters the paper holds fixed — ROB size, store-buffer size, and
//! issue-queue size — on representative workloads. These are the
//! "architectural exploration" experiments the CMD methodology is supposed
//! to make cheap (paper §IV-D, §VII).

use riscy_bench::{metrics_json, run_ooo, scale_from_args, stats_json_path, write_artifact};
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_workloads::parsec::facesim;
use riscy_workloads::spec::{hmmer, mcf, Scale};

fn main() {
    riscy_bench::accept_flags(&["--scale", "--stats-json"], &[]);
    let scale = scale_from_args();
    let scale = if scale == Scale::Ref {
        Scale::Ref
    } else {
        Scale::Test
    };

    let mut sweep_metrics: Vec<(String, f64)> = Vec::new();

    println!("=== Ablation: ROB size (mcf = memory-bound, hmmer = compute-bound) ===\n");
    println!("{:<8}{:>14}{:>14}", "ROB", "mcf cycles", "hmmer cycles");
    for rob in [16, 32, 48, 64, 80, 128] {
        let cfg = CoreConfig {
            rob_entries: rob,
            phys_regs: 64 + rob,
            ..CoreConfig::riscyoo_t_plus()
        };
        let m = run_ooo(cfg, mem_riscyoo_b(), &mcf(scale));
        let h = run_ooo(cfg, mem_riscyoo_b(), &hmmer(scale));
        println!("{rob:<8}{:>14}{:>14}", m.roi_cycles, h.roi_cycles);
        sweep_metrics.push((format!("rob{rob}_mcf_cycles"), m.roi_cycles as f64));
        sweep_metrics.push((format!("rob{rob}_hmmer_cycles"), h.roi_cycles as f64));
    }
    println!("\n(expected: mcf keeps gaining — more in-flight misses; hmmer saturates early)");

    println!("\n=== Ablation: WMM store-buffer size (facesim = store-heavy sweeps) ===\n");
    println!("{:<8}{:>16}", "SB", "facesim cycles");
    for sb in [1, 2, 4, 8] {
        let cfg = CoreConfig {
            sb_entries: sb,
            mem_model: MemModel::Wmm,
            ..CoreConfig::riscyoo_t_plus()
        };
        let r = run_ooo(cfg, mem_riscyoo_b(), &facesim(scale, 1));
        println!("{sb:<8}{:>16}", r.roi_cycles);
        sweep_metrics.push((format!("sb{sb}_facesim_cycles"), r.roi_cycles as f64));
    }

    println!("\n=== Ablation: issue-queue size (mcf) ===\n");
    println!("{:<8}{:>14}", "IQ", "mcf cycles");
    for iq in [4, 8, 16, 32] {
        let cfg = CoreConfig {
            iq_entries: iq,
            ..CoreConfig::riscyoo_t_plus()
        };
        let r = run_ooo(cfg, mem_riscyoo_b(), &mcf(scale));
        println!("{iq:<8}{:>14}", r.roi_cycles);
        sweep_metrics.push((format!("iq{iq}_mcf_cycles"), r.roi_cycles as f64));
    }

    if let Some(path) = stats_json_path() {
        let flat: Vec<(&str, f64)> = sweep_metrics
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        write_artifact(&path, &metrics_json(&flat));
    }
}
