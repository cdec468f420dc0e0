//! `repro` — one driver over the paper's evaluation (§VI, Figs. 12–21)
//! and the campaign tools around it.
//!
//! ```text
//! repro <command> [flags]
//! ```
//!
//! [`COMMANDS`] is the whole interface: one row per command naming the
//! flags it takes a value for, the flags it takes bare, and the function
//! that runs it. [`Args::parse`] reads the rest of the command line once
//! against that row. No command, an unknown command or `--help` prints the
//! table; an unknown or malformed argument prints the command's flags;
//! both exit 2. The figures run uninstrumented: profiles, Chrome traces,
//! telemetry, pipeline traces and SoC stats snapshots all come from one
//! command, `observe` (see `docs/OBSERVABILITY.md`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;

use cmd_core::chaos::{FaultEngine, FaultPlan, FaultRecord};
use cmd_core::sim::SimError;
use cmd_core::telemetry::{DEFAULT_MAX_WINDOWS, DEFAULT_WINDOW};
use riscy_baseline::InOrderConfig;
use riscy_bench::fleet::{fleet_grid, run_fleet, watch_snapshot, FleetOpts, SocFleet};
use riscy_bench::sampling::{
    compare_sampled, functional_profile, sample_report_json, SamplePlan, SampledWorkload,
};
use riscy_bench::sweep::{sweep_report, Objective};
use riscy_bench::{
    geomean, harmean, metrics_json, results_json, run_inorder, run_ooo, run_ooo_with_scheduler,
    Args,
};
use riscy_litmus::{
    allowed_outcomes, bug_hunt_plan, chaos_plan_for, classic_suite, random_test, run_litmus,
    shrink_violation, write_bundle, Failure, LitmusTest, RunSpec,
};
use riscy_ooo::config::{
    mem_arm_proxy, mem_riscyoo_b, mem_riscyoo_c_minus, CoreConfig, MemModel, TlbConfig,
};
use riscy_ooo::soc::{RunError, SocSim};
use riscy_synth::{fig21_table, synthesize};
use riscy_workloads::parsec::{facesim, parsec_suite};
use riscy_workloads::spec::{hmmer, mcf, spec_suite, Scale, Workload};

/// A command's result: its exit status, or a usage error (exit 2).
type Outcome = Result<ExitCode, String>;

/// One row of the driver's table.
struct Command {
    name: &'static str,
    about: &'static str,
    valued: &'static [&'static str],
    bare: &'static [&'static str],
    run: fn(&Args) -> Outcome,
}

/// Every command `repro` runs, with the flags each accepts.
const COMMANDS: &[Command] = &[
    Command {
        name: "fig12",
        about: "Fig. 12: the RiscyOO-B configuration table",
        valued: &["--scale", "--stats-json"],
        bare: &[],
        run: fig12,
    },
    Command {
        name: "fig13",
        about: "Fig. 13: the comparison-processor table",
        valued: &["--scale", "--stats-json"],
        bare: &[],
        run: fig13,
    },
    Command {
        name: "fig14",
        about: "Fig. 14: the RiscyOO variant table",
        valued: &["--scale", "--stats-json"],
        bare: &[],
        run: fig14,
    },
    Command {
        name: "fig15",
        about: "Fig. 15: T+ normalized to B (--ablate splits T+ in two)",
        valued: &["--scale", "--stats-json"],
        bare: &["--ablate"],
        run: fig15,
    },
    Command {
        name: "fig16",
        about: "Fig. 16: misses per 1K instructions on T+",
        valued: &["--scale", "--stats-json"],
        bare: &[],
        run: fig16,
    },
    Command {
        name: "fig17",
        about: "Fig. 17: C-, Rocket-10 and Rocket-120 normalized to T+",
        valued: &["--scale", "--stats-json", "--scheduler"],
        bare: &[],
        run: fig17,
    },
    Command {
        name: "fig18",
        about: "Fig. 18: A57/Denver proxies normalized to T+",
        valued: &["--scale", "--stats-json"],
        bare: &[],
        run: fig18,
    },
    Command {
        name: "fig19",
        about: "Fig. 19: IPC of the BOOM proxy and T+R+",
        valued: &["--scale", "--stats-json"],
        bare: &[],
        run: fig19,
    },
    Command {
        name: "fig20",
        about: "Fig. 20: TSO vs WMM on 1, 2 and 4 cores",
        valued: &["--scale", "--scheduler"],
        bare: &[],
        run: fig20,
    },
    Command {
        name: "fig21",
        about: "Fig. 21: ASIC synthesis (analytic model)",
        valued: &["--scale", "--stats-json"],
        bare: &[],
        run: fig21,
    },
    Command {
        name: "ablation",
        about: "beyond-paper sweeps of ROB, store-buffer and IQ size",
        valued: &["--scale", "--stats-json"],
        bare: &[],
        run: ablation,
    },
    Command {
        name: "fleet",
        about: "seed x config x workload campaign on a thread pool",
        valued: &[
            "--seeds",
            "--configs",
            "--threads",
            "--scheduler",
            "--scale",
            "--workloads",
            "--stop-after",
            "--campaign-dir",
            "--checkpoint-every",
            "--abort-after-ckpts",
            "--report",
            "--heartbeat-every",
            "--unit-timeout",
            "--telemetry-window",
        ],
        bare: &["--chaos", "--telemetry"],
        run: fleet,
    },
    Command {
        name: "watch",
        about: "live status of a fleet campaign directory",
        valued: &["--campaign-dir"],
        bare: &["--once"],
        run: watch,
    },
    Command {
        name: "sweep",
        about: "Pareto report over a finished fleet campaign",
        valued: &["--campaign-dir", "--axes", "--out"],
        bare: &[],
        run: sweep,
    },
    Command {
        name: "sampled",
        about: "fast-forward + interval sampling vs full detail",
        valued: &[
            "--scale",
            "--workloads",
            "--samples",
            "--warmup",
            "--interval",
            "--report",
        ],
        bare: &[],
        run: sampled,
    },
    Command {
        name: "litmus",
        about: "TSO/WMM litmus campaign (exit 1 on a violation)",
        valued: &[
            "--model",
            "--cores",
            "--sched",
            "--seed",
            "--count",
            "--out-dir",
        ],
        bare: &["--chaos", "--classic-only", "--inject-evict-bug", "--json"],
        run: litmus,
    },
    Command {
        name: "chaos-smoke",
        about: "fault-injection reproducibility campaign (exit 1 on a failure)",
        valued: &[],
        bare: &[],
        run: chaos_smoke,
    },
    Command {
        name: "observe",
        about: "one instrumented SoC run: profile, traces, telemetry, stats",
        valued: &[
            "--workload",
            "--cores",
            "--scale",
            "--scheduler",
            "--chrome-trace",
            "--profile-json",
            "--telemetry-json",
            "--telemetry-window",
            "--trace",
            "--stats-json",
        ],
        bare: &["--profile"],
        run: observe,
    },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        if let Some(name) = argv.first().filter(|a| *a != "--help") {
            eprintln!("repro: unknown command `{name}`");
        }
        eprintln!("usage: repro <command> [flags]\n\ncommands:");
        for c in COMMANDS {
            eprintln!("  {:<12} {}", c.name, c.about);
        }
        return ExitCode::from(2);
    };
    Args::parse(&argv[1..], cmd.valued, cmd.bare)
        .and_then(|args| (cmd.run)(&args))
        .unwrap_or_else(|e| {
            let valued = cmd.valued.iter().map(|f| format!(" [{f} V]"));
            let bare = cmd.bare.iter().map(|f| format!(" [{f}]"));
            let flags: String = valued.chain(bare).collect();
            eprintln!("repro {}: {e}", cmd.name);
            eprintln!("usage: repro {}{flags}", cmd.name);
            ExitCode::from(2)
        })
}

/// Writes an artifact file requested on the command line.
///
/// # Panics
///
/// Panics when the file cannot be written — the operator asked for the
/// artifact, so a silent miss would be worse than an abort.
fn write_artifact(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// The value of a flag the command cannot run without.
fn required<'a>(args: &'a Args, flag: &str) -> Result<&'a str, String> {
    args.value(flag)
        .ok_or_else(|| format!("{flag} is required"))
}

/// `--campaign-dir`, which must name an existing campaign directory.
fn campaign_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(required(args, "--campaign-dir")?);
    if dir.is_dir() {
        Ok(dir)
    } else {
        Err(format!(
            "--campaign-dir: `{}` is not a directory",
            dir.display()
        ))
    }
}

/// `suite`'s names, as an accepted set in an error message.
fn names(suite: &[Workload]) -> String {
    let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
    names.join("|")
}

/// `suite` narrowed to the comma-separated names of `--workloads`, if
/// given, in suite order; a name the suite does not carry is refused.
fn select_workloads(suite: Vec<Workload>, args: &Args) -> Result<Vec<Workload>, String> {
    let Some(filter) = args.value("--workloads") else {
        return Ok(suite);
    };
    let keep: Vec<&str> = filter.split(',').collect();
    if let Some(bad) = keep.iter().find(|k| !suite.iter().any(|w| w.name == **k)) {
        return Err(format!(
            "--workloads: unknown workload `{bad}` ({})",
            names(&suite)
        ));
    }
    Ok(suite
        .into_iter()
        .filter(|w| keep.contains(&w.name))
        .collect())
}

// ---------------------------------------------------------------------------
// Figures 12–21 and the ablation sweeps
// ---------------------------------------------------------------------------

/// Fig. 12: the RiscyOO-B configuration table.
fn fig12(args: &Args) -> Outcome {
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
    if let Some(path) = args.value("--stats-json") {
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
        write_artifact(path, &json);
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 13: the comparison-processor table, as instantiated by this
/// reproduction (substitutions documented in DESIGN.md).
fn fig13(args: &Args) -> Outcome {
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
    let proxies = [
        ("A57", "a57", CoreConfig::a57_proxy()),
        ("Denver", "denver", CoreConfig::denver_proxy()),
        ("BOOM", "boom", CoreConfig::boom_proxy()),
    ];
    for (name, _, cfg) in &proxies {
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
    if let Some(path) = args.value("--stats-json") {
        let metrics: Vec<(String, f64)> = proxies
            .iter()
            .flat_map(|(_, key, cfg)| {
                [
                    (format!("{key}_width"), cfg.width as f64),
                    (format!("{key}_rob_entries"), cfg.rob_entries as f64),
                    (format!("{key}_phys_regs"), cfg.phys_regs as f64),
                ]
            })
            .collect();
        let flat: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        write_artifact(path, &metrics_json(&flat));
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 14: the RiscyOO variant table.
fn fig14(args: &Args) -> Outcome {
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
    if let Some(path) = args.value("--stats-json") {
        let json = metrics_json(&[
            ("c_minus_l1d_bytes", c_minus.l1d.size_bytes as f64),
            ("c_minus_l2_bytes", c_minus.l2.size_bytes as f64),
            ("t_plus_l1d_miss_slots", t.tlb.l1d_miss_slots as f64),
            ("t_plus_l2_miss_slots", t.tlb.l2_miss_slots as f64),
            ("t_plus_walk_cache_entries", t.tlb.walk_cache_entries as f64),
            ("t_plus_r_plus_rob_entries", tr.rob_entries as f64),
        ]);
        write_artifact(path, &json);
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 15: RiscyOO-T+ normalized to RiscyOO-B (the effect of the TLB
/// optimizations). `--ablate` additionally decomposes T+ into its two
/// ingredients (non-blocking miss handling vs the translation cache) — the
/// ablation DESIGN.md calls out.
fn fig15(args: &Args) -> Outcome {
    let ablate = args.flag("--ablate");
    let suite = spec_suite(args.scale());

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
    if let Some(path) = args.value("--stats-json") {
        let json = results_json(&[("RiscyOO-B", &bs), ("RiscyOO-T+", &tps)]);
        write_artifact(path, &json);
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 16: L1 D TLB misses, L2 TLB misses, branch mispredictions, L1 D
/// misses and L2 misses per thousand instructions on RiscyOO-T+.
fn fig16(args: &Args) -> Outcome {
    println!("=== Fig. 16: misses per 1K instructions on RiscyOO-T+ ===\n");
    println!(
        "{:<14}{:>8}{:>8}{:>8}{:>8}{:>8}{:>10}",
        "benchmark", "DTLB", "L2TLB", "BrPred", "D$", "L2$", "IPC"
    );
    let mut runs = Vec::new();
    for w in spec_suite(args.scale()) {
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
    if let Some(path) = args.value("--stats-json") {
        write_artifact(path, &results_json(&[("RiscyOO-T+", &runs)]));
    }
    println!(
        "\n(paper shape: mcf/astar/omnetpp TLB-heavy; libquantum D$/L2$-heavy;\n\
         \x20sjeng/gobmk mispredict-heavy; hmmer/h264ref low everywhere)"
    );
    Ok(ExitCode::SUCCESS)
}

/// Fig. 17: RiscyOO-C-, Rocket-10 and Rocket-120 normalized to RiscyOO-T+
/// (the out-of-order vs in-order comparison).
fn fig17(args: &Args) -> Outcome {
    let mode = args.scheduler();
    println!("=== Fig. 17: normalized to RiscyOO-T+ (higher is better) ===");
    println!("(paper: T+ beats Rocket-120 by ~319% and Rocket-10 by ~53%)\n");
    println!(
        "{:<14}{:>14}{:>14}{:>14}",
        "benchmark", "RiscyOO-C-", "Rocket-10", "Rocket-120"
    );
    let (mut rc, mut r10, mut r120) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ts, mut cs, mut k10s, mut k120s) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for w in spec_suite(args.scale()) {
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
    if let Some(path) = args.value("--stats-json") {
        let json = results_json(&[
            ("RiscyOO-T+", &ts),
            ("RiscyOO-C-", &cs),
            ("Rocket-10", &k10s),
            ("Rocket-120", &k120s),
        ]);
        write_artifact(path, &json);
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 18: commercial-ARM proxies (A57, Denver) normalized to RiscyOO-T+.
/// The proxies are wider OOO configurations standing in for silicon (see
/// DESIGN.md); the target is the *shape*: the wide cores win on average,
/// but T+ catches up or wins on the TLB-bound mcf, astar and omnetpp.
fn fig18(args: &Args) -> Outcome {
    println!("=== Fig. 18: A57/Denver proxies normalized to RiscyOO-T+ ===");
    println!("(paper: A57 ≈ +34%, Denver ≈ +45% on average; T+ wins mcf/astar/omnetpp)\n");
    println!("{:<14}{:>12}{:>12}", "benchmark", "A57", "Denver");
    let (mut a57s, mut denvers) = (Vec::new(), Vec::new());
    let (mut ts, mut ars, mut drs) = (Vec::new(), Vec::new(), Vec::new());
    for w in spec_suite(args.scale()) {
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
    if let Some(path) = args.value("--stats-json") {
        let json = results_json(&[("RiscyOO-T+", &ts), ("A57", &ars), ("Denver", &drs)]);
        write_artifact(path, &json);
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 19: IPC of the BOOM proxy and RiscyOO-T+R+ (matched 80-entry ROBs
/// and cache sizes). The paper's shape: similar harmonic-mean IPC, T+R+
/// ahead on the TLB-bound mcf, BOOM ahead on sjeng.
fn fig19(args: &Args) -> Outcome {
    // The eight benchmarks BOOM reported (the paper omits gobmk, hmmer,
    // libquantum).
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
    println!("=== Fig. 19: IPC of BOOM (proxy) and RiscyOO-T+R+ ===\n");
    println!("{:<14}{:>10}{:>14}", "benchmark", "BOOM", "RiscyOO-T+R+");
    let (mut boom_ipcs, mut riscy_ipcs) = (Vec::new(), Vec::new());
    let (mut booms, mut riscys) = (Vec::new(), Vec::new());
    for w in spec_suite(args.scale()) {
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
    if let Some(path) = args.value("--stats-json") {
        let json = results_json(&[("BOOM", &booms), ("RiscyOO-T+R+", &riscys)]);
        write_artifact(path, &json);
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 20: PARSEC proxies on TSO and WMM multicores with 1, 2 and 4
/// threads, normalized to TSO with 1 thread. The paper's finding: "no
/// discernible difference between the performance of TSO and WMM"; TSO's
/// speculative-load kills are ≤0.25 per 1K instructions. The per-run SoC
/// stats and pipeline trace of one such run come from `observe --cores 2`.
fn fig20(args: &Args) -> Outcome {
    let (scale, mode) = (args.scale(), args.scheduler());
    // (ROI cycles of core 0, eviction kills per 1K instructions).
    let run = |model: MemModel, nthreads: usize, w: &Workload| -> (u64, f64) {
        let mut sim = SocSim::new(
            CoreConfig::multicore(model),
            mem_riscyoo_b(),
            nthreads,
            &w.program,
        );
        sim.set_scheduler(mode);
        sim.run_to_completion(w.max_cycles * 4)
            .unwrap_or_else(|e| panic!("{} ({model:?}, {nthreads}t): {e}", w.name));
        let soc = sim.soc();
        let kills: u64 = soc.cores.iter().map(|c| c.lsq.evict_kills.read()).sum();
        let total_insts: u64 = soc.cores.iter().map(|c| c.stats.committed).sum();
        (
            soc.cores[0].stats.roi_cycles,
            1000.0 * kills as f64 / total_insts.max(1) as f64,
        )
    };
    println!("=== Fig. 20: TSO vs WMM multicore scaling ===");
    println!("(normalized to TSO-1; higher is better; paper: TSO ≈ WMM)\n");
    println!(
        "{:<14}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>12}",
        "benchmark", "tso-1", "wmm-1", "tso-2", "wmm-2", "tso-4", "wmm-4", "kills/Kinst"
    );
    for w1 in parsec_suite(scale, 1) {
        let (base, _) = run(MemModel::Tso, 1, &w1);
        let mut cols = vec![1.0];
        let mut max_kills: f64 = 0.0;
        for n in [1, 2, 4] {
            for model in [MemModel::Tso, MemModel::Wmm] {
                if n == 1 && model == MemModel::Tso {
                    continue;
                }
                let w = parsec_suite(scale, n)
                    .into_iter()
                    .find(|w| w.name == w1.name)
                    .expect("same suite");
                let (cycles, kills) = run(model, n, &w);
                cols.push(base as f64 / cycles as f64);
                max_kills = max_kills.max(kills);
            }
        }
        print!("{:<14}", w1.name);
        for c in &cols {
            print!("{c:>8.2}");
        }
        println!("{max_kills:>12.3}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 21: ASIC synthesis results (max frequency and NAND2-equivalent
/// gates) for RiscyOO-T+ and RiscyOO-T+R+, via the calibrated analytic
/// model in `riscy-synth`.
fn fig21(args: &Args) -> Outcome {
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
    if let Some(path) = args.value("--stats-json") {
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
        write_artifact(path, &json);
    }
    Ok(ExitCode::SUCCESS)
}

/// Beyond-paper ablations promised in DESIGN.md: sweeps of the design
/// parameters the paper holds fixed — ROB size, store-buffer size and
/// issue-queue size — on representative workloads, the "architectural
/// exploration" the CMD methodology is supposed to make cheap (paper
/// §IV-D, §VII).
fn ablation(args: &Args) -> Outcome {
    let scale = args.scale();
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

    if let Some(path) = args.value("--stats-json") {
        let flat: Vec<(&str, f64)> = sweep_metrics
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        write_artifact(path, &metrics_json(&flat));
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Campaigns: fleet, watch, sweep, sampled
// ---------------------------------------------------------------------------

/// A seed × config × workload grid on a thread pool
/// ([`riscy_bench::fleet`]), reporting aggregate simulation throughput.
///
/// With `--campaign-dir`, finished units persist as `unit_<id>.json` and a
/// rerun of the same grid resumes instead of recomputing; the `--report`
/// bytes are identical either way (`docs/PARALLELISM.md` §"Fleet
/// campaigns"). `--checkpoint-every N` also snapshots each in-flight unit
/// every N simulated cycles, so a killed campaign resumes *mid-unit*
/// (`docs/CHECKPOINT.md`); `--stop-after N` and `--abort-after-ckpts N`
/// are the CI hooks that simulate such kills. `--heartbeat-every N`
/// streams progress into `heartbeats.ndjson` (read by `watch`),
/// `--unit-timeout S` leaves a wait-graph bundle behind a hung unit, and
/// `--telemetry` writes each unit's windowed time series.
fn fleet(args: &Args) -> Outcome {
    let sched = args.scheduler();
    let seeds: u64 = args.num("--seeds")?.unwrap_or(2);
    let configs: Vec<&str> = args
        .value("--configs")
        .unwrap_or("t+,c-")
        .split(',')
        .collect();
    for label in &configs {
        SocFleet::config_for(label).map_err(|e| format!("--configs: {e}"))?;
    }
    let threads = match args.num("--threads")? {
        Some(n) => n,
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let chaos = args.flag("--chaos");
    let window = args.num("--telemetry-window")?.unwrap_or(DEFAULT_WINDOW);
    let opts = FleetOpts {
        threads,
        campaign_dir: args.value("--campaign-dir").map(PathBuf::from),
        stop_after: args.num("--stop-after")?,
        checkpoint_every: args.num("--checkpoint-every")?,
        abort_after_ckpts: args.num("--abort-after-ckpts")?,
        heartbeat_every: args.num("--heartbeat-every")?,
        unit_timeout: args.num("--unit-timeout")?,
        telemetry: args
            .flag("--telemetry")
            .then_some((window, DEFAULT_MAX_WINDOWS)),
    };
    let workloads = select_workloads(spec_suite(args.scale()), args)?;

    let seed_list: Vec<u64> = (0..seeds).collect();
    let workload_refs: Vec<&Workload> = workloads.iter().collect();
    let units = fleet_grid(&seed_list, &configs, &workload_refs);
    println!(
        "fleet: {} units ({} seeds x {} configs x {} workloads), {} threads, sched {sched:?}{}",
        units.len(),
        seeds,
        configs.len(),
        workloads.len(),
        threads,
        if chaos { ", chaos on" } else { "" },
    );

    let harness = SocFleet {
        workloads,
        sched,
        chaos,
    };
    let report = run_fleet(units, &opts, |u, ctx| harness.run_unit(u, ctx));

    println!(
        "\n{:<4} {:>6} {:<4} {:<14} {:>12} {:>12} {:>5}",
        "id", "seed", "cfg", "workload", "cycles", "insts", "ok"
    );
    for r in &report.records {
        println!(
            "{:<4} {:>6} {:<4} {:<14} {:>12} {:>12} {:>5}{}",
            r.unit.id,
            r.unit.seed,
            r.unit.config,
            r.unit.workload,
            r.stats.cycles,
            r.stats.insts,
            r.stats.exit_ok,
            if r.resumed { "  (resumed)" } else { "" },
        );
    }
    println!(
        "\nfleet: {} units done ({} resumed), {:.2}s wall{}",
        report.records.len(),
        report.records.iter().filter(|r| r.resumed).count(),
        report.wall_s,
        if report.stopped_early {
            " [stopped early]"
        } else {
            ""
        },
    );
    println!(
        "fleet: {:.0} simulated cycles executed, aggregate {:.0} cycles/s",
        report.fresh_cycles() as f64,
        report.agg_cps(),
    );

    if let Some(path) = args.value("--report") {
        write_artifact(path, &report.deterministic_json());
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders the live status of a fleet campaign directory every second
/// (`--once`: a single snapshot, for scripting).
fn watch(args: &Args) -> Outcome {
    let dir = campaign_dir(args)?;
    loop {
        print!("{}", watch_snapshot(&dir));
        if args.flag("--once") {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
        println!();
    }
}

/// Folds a finished fleet campaign into a Pareto report over configuration
/// axes ([`riscy_bench::sweep`]). Without `--axes` the objectives default
/// to maximizing `ipc` and minimizing every `axis.*` metric the campaign
/// carries. The report goes to stdout or `--out`; its bytes depend only on
/// the campaign's unit files, never on how the campaign was executed.
/// Render it with `scripts/sweep_report.py`.
fn sweep(args: &Args) -> Outcome {
    let dir = campaign_dir(args)?;
    let objectives = match args.value("--axes") {
        Some(spec) => Objective::parse_spec(spec).map_err(|e| format!("--axes: {e}"))?,
        None => Vec::new(),
    };
    let json = sweep_report(&dir, &objectives);
    match args.value("--out") {
        Some(path) => write_artifact(path, &json),
        None => println!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Fast-forward + sampled simulation ([`riscy_bench::sampling`]) measured
/// against full-detail runs: wall-clock speedup and IPC estimation error
/// per single-core workload, plus a summary line. Neither is gated here:
/// the accuracy pin is the repo benchmark's exact `bench.sample_ipc_err`
/// (`sampled_ff` workload). `--report` writes the per-workload
/// `sample_report.json` (`docs/CHECKPOINT.md` §"Sampled simulation").
fn sampled(args: &Args) -> Outcome {
    let workloads = select_workloads(spec_suite(args.scale()), args)?;
    let defaults = SamplePlan::default();
    let plan = SamplePlan {
        samples: args.num("--samples")?.unwrap_or(defaults.samples),
        warmup_insts: args.num("--warmup")?.unwrap_or(defaults.warmup_insts),
        interval_insts: args.num("--interval")?.unwrap_or(defaults.interval_insts),
        ..defaults
    };
    println!(
        "=== sampled simulation: {} samples x ({} warmup + {} measured) insts ===\n",
        plan.samples, plan.warmup_insts, plan.interval_insts
    );
    println!(
        "{:<14}{:>12}{:>10}{:>10}{:>9}{:>12}{:>12}{:>9}",
        "benchmark", "insts", "full-ipc", "est-ipc", "err", "full-s", "sampled-s", "speedup"
    );
    let cfg = CoreConfig::riscyoo_t_plus();
    let mem = mem_riscyoo_b();
    let mut entries: Vec<SampledWorkload> = Vec::new();
    for w in &workloads {
        // Sampling a workload shorter than a few multiples of the
        // detailed slices is dishonest (the "sample" IS the run); scout
        // functionally first and say so instead of reporting a fake
        // speedup.
        let profile = functional_profile(cfg, mem, &w.program, w.max_cycles.saturating_mul(8));
        let (b, e) = profile.sample_window();
        if e - b < plan.min_window_insts() {
            println!(
                "{:<14}{:>12}  skipped: sample window {} insts < {} needed by the plan",
                w.name,
                profile.total_insts,
                e - b,
                plan.min_window_insts()
            );
            continue;
        }
        let cmp = compare_sampled(cfg, mem, w.name, &w.program, w.max_cycles, &plan);
        println!(
            "{:<14}{:>12}{:>10.3}{:>10.3}{:>8.2}%{:>12.3}{:>12.3}{:>8.1}x",
            cmp.name,
            cmp.estimate.total_insts,
            cmp.full_ipc,
            cmp.est_ipc,
            100.0 * cmp.ipc_err(),
            cmp.full_wall_s,
            cmp.sampled_wall_s,
            cmp.speedup(),
        );
        entries.push(cmp);
    }
    assert!(
        !entries.is_empty(),
        "no workload was long enough to sample — pick longer workloads or a smaller plan"
    );
    let full_wall: f64 = entries.iter().map(|e| e.full_wall_s).sum();
    let sampled_wall: f64 = entries.iter().map(|e| e.sampled_wall_s).sum();
    let ff_speedup = if sampled_wall > 0.0 {
        full_wall / sampled_wall
    } else {
        0.0
    };
    let err_max = entries
        .iter()
        .map(SampledWorkload::ipc_err)
        .fold(0.0, f64::max);
    println!(
        "\nsampled_sim: ff_speedup {ff_speedup:.1}x ({full_wall:.2}s full vs {sampled_wall:.2}s sampled), worst IPC err {:.2}%",
        100.0 * err_max
    );

    if let Some(path) = args.value("--report") {
        write_artifact(path, &sample_report_json(&entries));
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Verification campaigns: litmus, chaos-smoke
// ---------------------------------------------------------------------------

/// Runs the classic litmus suite and a stream of seeded random tests on
/// the multi-core SoC, checks every completed run against the axiomatic
/// model's allowed set, and on any escape shrinks the violation and writes
/// a self-contained failure bundle under `--out-dir` (litmus source, repro
/// line, Konata + Chrome traces, stats, wait-graph).
///
/// `--inject-evict-bug` disables the TSO `cacheEvict` load kill (the
/// documented verification backdoor) and swaps the chaos generator for the
/// [`riscy_litmus::bug_hunt_plan`] family: expect a forbidden `MP` outcome
/// within a few hundred seeds, shrunk and bundled like any other violation.
///
/// Exit status 1 if any run observed a forbidden outcome or hung *without*
/// chaos (a liveness failure). Hangs under chaos are counted but
/// inconclusive — a fault plan may legitimately push a run past its budget.
fn litmus(args: &Args) -> Outcome {
    let models = match args.value("--model").unwrap_or("both") {
        "tso" => vec![MemModel::Tso],
        "wmm" => vec![MemModel::Wmm],
        "both" => vec![MemModel::Tso, MemModel::Wmm],
        m => return Err(format!("--model: unknown model `{m}` (tso|wmm|both)")),
    };
    let cores: usize = args.num("--cores")?.unwrap_or(2);
    if cores == 0 {
        return Err("--cores: must be at least 1".to_string());
    }
    let base_seed: u64 = args.num("--seed")?.unwrap_or(0);
    let count: u64 = args.num("--count")?.unwrap_or(100);
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("target/litmus-failures"));
    let chaos = args.flag("--chaos");
    let inject_evict_bug = args.flag("--inject-evict-bug");

    // Each campaign entry pairs a test with the chaos seed for its run.
    // Undisturbed runs are deterministic, so the classic suite runs once;
    // under chaos (or the injected bug) `--count` controls how many seeded
    // iterations cycle through the suite — each pass perturbs the same
    // shapes differently, which is what hunting needs.
    let mut campaign: Vec<(LitmusTest, u64)> = Vec::new();
    let suite = classic_suite();
    if inject_evict_bug {
        // The injected bug is a missing stale-load kill; MP is the
        // canonical shape that exposes it, so the hunt spends every seed
        // there instead of diluting across the suite.
        let mp = suite
            .iter()
            .find(|t| t.name == "MP")
            .expect("MP in suite")
            .clone();
        for i in 0..count {
            campaign.push((mp.clone(), base_seed.wrapping_add(i)));
        }
    } else if chaos {
        for i in 0..count.max(suite.len() as u64) {
            let seed = base_seed.wrapping_add(i);
            campaign.push((suite[(i as usize) % suite.len()].clone(), seed));
        }
    } else {
        for t in &suite {
            campaign.push((t.clone(), 0));
        }
    }
    if !args.flag("--classic-only") && !inject_evict_bug {
        for i in 0..count {
            let seed = base_seed.wrapping_add(i);
            campaign.push((random_test(seed), seed));
        }
    }

    let (mut runs, mut passed, mut violations) = (0u64, 0u64, 0u64);
    let (mut fatal_hangs, mut inconclusive_hangs, mut skipped) = (0u64, 0u64, 0u64);
    fn bundle(dir: PathBuf, test: &LitmusTest, spec: &RunSpec, failure: &Failure) {
        match write_bundle(&dir, test, spec, failure) {
            Ok(p) => eprintln!("  bundle: {}", p.display()),
            Err(e) => eprintln!("  bundle write failed: {e}"),
        }
    }
    for (test, seed) in &campaign {
        if test.threads.len() > cores {
            skipped += 1;
            continue;
        }
        let stem = test.name.replace(['/', ' '], "_");
        for &model in &models {
            runs += 1;
            let allowed = allowed_outcomes(test, model);
            let mut spec = RunSpec::new(model, cores);
            spec.sched = args.scheduler();
            spec.evict_kill = !inject_evict_bug;
            if inject_evict_bug {
                spec.chaos = bug_hunt_plan(*seed);
            } else if chaos {
                spec.chaos = chaos_plan_for(*seed, cores);
            }
            match run_litmus(test, &spec) {
                riscy_litmus::RunResult::Completed { outcome, .. } => {
                    if allowed.contains(&outcome) {
                        passed += 1;
                        continue;
                    }
                    violations += 1;
                    eprintln!(
                        "VIOLATION {} under {model:?}: observed {outcome}",
                        test.name
                    );
                    let shrunk = shrink_violation(test, &spec, &outcome);
                    eprintln!(
                        "  shrunk to {} threads / {} ops; repro: {}",
                        shrunk.test.threads.len(),
                        shrunk.test.num_ops(),
                        shrunk.spec.describe()
                    );
                    let dir = out_dir.join(format!("{stem}-{model:?}-seed{seed}"));
                    let failure = Failure::Violation {
                        observed: outcome,
                        shrunk,
                    };
                    bundle(dir, test, &spec, &failure);
                }
                riscy_litmus::RunResult::Hung { reason, wait_graph } => {
                    if chaos || inject_evict_bug {
                        // A fault plan may stall a run past its budget;
                        // that is noise, not a liveness verdict.
                        inconclusive_hangs += 1;
                        continue;
                    }
                    fatal_hangs += 1;
                    eprintln!("HANG {} under {model:?}: {reason}", test.name);
                    let dir = out_dir.join(format!("{stem}-{model:?}-hang"));
                    bundle(dir, test, &spec, &Failure::Hang { reason, wait_graph });
                }
            }
        }
    }

    if args.flag("--json") {
        println!(
            "{{\"runs\": {runs}, \"passed\": {passed}, \"violations\": {violations}, \"fatal_hangs\": {fatal_hangs}, \"inconclusive_hangs\": {inconclusive_hangs}, \"skipped_tests\": {skipped}}}"
        );
    } else {
        println!(
            "litmus campaign: {runs} runs, {passed} passed, {violations} violations, {fatal_hangs} fatal hangs, {inconclusive_hangs} inconclusive hangs, {skipped} tests skipped (need more cores)"
        );
    }
    Ok(if violations + fatal_hangs > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Fault-injection smoke campaign on the OoO SoC: runs `mcf` (test scale)
/// under a seeded [`FaultPlan`] combining forced guard stalls on issue
/// rules, transient aborts of the ALU rules (the one fault that rolls back
/// cells a rule wrote), fetch-PC bit flips and dropped interconnect
/// messages, then reruns every seed and checks that
///
/// * every outcome is a structured `Ok`/[`RunError`] — a panic anywhere is
///   a robustness bug — that classifies into a known bucket (`completed`,
///   `budget-exhausted`, `deadlock`, `reg-conflict`, `cycle-limit`);
/// * the rerun's fault log and outcome are identical to the first run's;
/// * every fault kind was exercised.
///
/// Prints a per-fault-kind injection tally and an outcome histogram, so a
/// plan change that silently stops exercising a kind shows up in the
/// output. Exit status 1 on any failure.
fn chaos_smoke(_: &Args) -> Outcome {
    const BUDGET: u64 = 400_000;
    const SEEDS: u64 = 6;

    // `None` means the outcome is *outside* the taxonomy: under fault
    // injection the SoC may fail, but only in ways the error model names.
    // An unclassifiable error (e.g. a cosim divergence report) means a
    // fault corrupted architectural state in a way the structured errors
    // were supposed to rule out.
    fn classify(outcome: &Result<u64, RunError>) -> Option<&'static str> {
        match outcome {
            Ok(_) => Some("completed"),
            Err(RunError::Budget { .. }) => Some("budget-exhausted"),
            Err(RunError::Sim(SimError::Deadlock { .. })) => Some("deadlock"),
            Err(RunError::Sim(SimError::RegConflict { .. })) => Some("reg-conflict"),
            Err(RunError::Sim(SimError::CycleLimit { .. })) => Some("cycle-limit"),
            Err(_) => None,
        }
    }

    fn campaign(seed: u64) -> (String, Option<&'static str>, Vec<FaultRecord>) {
        let w = mcf(Scale::Test);
        let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
        let plan = FaultPlan::new(seed)
            .guard_stall("c0.issue*", 0.002)
            .rule_abort("c0.alu*", 0.01)
            .bit_flip("c0.fetch_pc", 0.0002)
            .msg_drop("mem.p2c", 0.01)
            .msg_drop("mem.c2p_req", 0.01);
        let engine = FaultEngine::new(plan);
        sim.attach_chaos(&engine);
        let result = sim.run_to_completion(BUDGET);
        let class = classify(&result);
        let outcome = match result {
            Ok(cycles) => format!("completed in {cycles} cycles"),
            Err(e) => format!("structured error: {e}"),
        };
        (outcome, class, engine.log())
    }

    let mut failures = 0u32;
    let mut all_kinds = BTreeSet::new();
    let mut tally: BTreeMap<String, u64> = BTreeMap::new();
    let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
    for seed in 0..SEEDS {
        let (out_a, class_a, log_a) = campaign(seed);
        let (out_b, _, log_b) = campaign(seed);
        let kinds: BTreeSet<_> = log_a.iter().map(|r| r.kind.to_string()).collect();
        all_kinds.extend(kinds.iter().cloned());
        for r in &log_a {
            *tally.entry(r.kind.to_string()).or_default() += 1;
        }
        match class_a {
            Some(class) => {
                *outcomes.entry(class).or_default() += 1;
                println!(
                    "seed {seed}: [{class}] {out_a} | {} faults injected ({})",
                    log_a.len(),
                    kinds.into_iter().collect::<Vec<_>>().join(", "),
                );
            }
            None => {
                println!("seed {seed}: FAIL: unclassifiable outcome: {out_a}");
                failures += 1;
            }
        }
        if log_a != log_b {
            println!(
                "  FAIL: rerun fault log diverged ({} vs {})",
                log_a.len(),
                log_b.len()
            );
            failures += 1;
        }
        if out_a != out_b {
            println!("  FAIL: rerun outcome diverged: {out_b}");
            failures += 1;
        }
        if log_a.is_empty() {
            println!("  FAIL: campaign injected nothing");
            failures += 1;
        }
    }
    for kind in ["guard-stall", "rule-abort", "bit-flip", "msg-drop"] {
        if !all_kinds.contains(kind) {
            println!("FAIL: campaign never exercised {kind}");
            failures += 1;
        }
    }
    println!("\nper-fault injection tally ({SEEDS} seeds):");
    for (kind, n) in &tally {
        println!("  {kind:<14} {n:>8}");
    }
    println!("outcome histogram:");
    for (class, n) in &outcomes {
        println!("  {class:<18} {n:>4}");
    }
    if failures > 0 {
        println!("chaos smoke: {failures} failure(s)");
        return Ok(ExitCode::FAILURE);
    }
    println!("chaos smoke: all {SEEDS} seeds reproducible, zero panics");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// The one instrumented run
// ---------------------------------------------------------------------------

/// Runs `--workload` once on the out-of-order SoC with every requested
/// observer attached (see `docs/OBSERVABILITY.md`) and writes the
/// artifacts: `--profile` prints the per-rule host-time report and the
/// top-down table, `--profile-json` and `--chrome-trace` write the causal
/// profile and a Perfetto-loadable trace, `--telemetry-json` the windowed
/// time series, `--trace` the Konata/O3PipeView pipeline trace and
/// `--stats-json` the SoC stats snapshot. One core is RiscyOO-T+ on the B
/// memory system, running a SPEC or PARSEC proxy; more are
/// `CoreConfig::multicore(Tso)` on the same memory system (the fig20
/// machine), running a PARSEC proxy. Observers never change a cycle, so
/// the figures themselves run without them.
fn observe(args: &Args) -> Outcome {
    let cores: usize = args.num("--cores")?.unwrap_or(1);
    if cores == 0 {
        return Err("--cores: must be at least 1".to_string());
    }
    let name = required(args, "--workload")?;
    // The SPEC proxies are single-threaded; the PARSEC proxies are built
    // for `cores` threads.
    let spec = if cores == 1 {
        spec_suite(args.scale())
    } else {
        Vec::new()
    };
    let suite: Vec<Workload> = spec
        .into_iter()
        .chain(parsec_suite(args.scale(), cores))
        .collect();
    let w = suite.iter().find(|w| w.name == name).ok_or_else(|| {
        format!(
            "--workload: no workload `{name}` on {cores} core(s) ({})",
            names(&suite)
        )
    })?;
    let window = args.num("--telemetry-window")?.unwrap_or(DEFAULT_WINDOW);
    let chrome_path = args.value("--chrome-trace");
    let profile_path = args.value("--profile-json");
    let telemetry_path = args.value("--telemetry-json");
    let trace_path = args.value("--trace");
    let stats_path = args.value("--stats-json");
    let profile = args.flag("--profile") || chrome_path.is_some() || profile_path.is_some();
    if !profile && telemetry_path.is_none() && trace_path.is_none() && stats_path.is_none() {
        return Err(
            "nothing to observe: give --profile, --chrome-trace, --profile-json, \
                    --telemetry-json, --trace or --stats-json"
                .to_string(),
        );
    }

    let cfg = if cores == 1 {
        CoreConfig::riscyoo_t_plus()
    } else {
        CoreConfig::multicore(MemModel::Tso)
    };
    let mut sim = SocSim::new(cfg, mem_riscyoo_b(), cores, &w.program);
    sim.set_scheduler(args.scheduler());
    if profile {
        sim.enable_profiling();
    }
    if chrome_path.is_some() {
        sim.enable_chrome_trace();
    }
    if telemetry_path.is_some() {
        sim.enable_telemetry(window, DEFAULT_MAX_WINDOWS);
    }
    if trace_path.is_some() {
        sim.enable_pipe_trace();
    }
    sim.run_to_completion(w.max_cycles.saturating_mul(4))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));

    if profile {
        println!("\n=== causal profile: {} ===", w.name);
        print!("{}", sim.report());
        print!("{}", sim.tma_table());
    }
    if let Some(path) = profile_path {
        write_artifact(path, &sim.profile_json());
    }
    if let Some((path, json)) = chrome_path.zip(sim.chrome_trace_json()) {
        write_artifact(path, &json);
    }
    if let Some(path) = telemetry_path {
        write_artifact(path, &sim.telemetry_json());
    }
    if let Some(path) = trace_path {
        write_artifact(path, &sim.pipe_trace());
    }
    if let Some(path) = stats_path {
        write_artifact(path, &sim.stats_json());
    }
    Ok(ExitCode::SUCCESS)
}
