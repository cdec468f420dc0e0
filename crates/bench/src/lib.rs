//! # riscy-bench — harnesses regenerating the paper's evaluation
//!
//! One binary per table/figure of §VI (see DESIGN.md's experiment index):
//! `fig12_config` … `fig21_synthesis`. Each prints the same rows/series
//! the paper reports. Absolute numbers differ (this substrate is a
//! simulator, the paper's was an FPGA + silicon comparators); the *shape* —
//! who wins, by roughly what factor, where the crossovers fall — is the
//! reproduction target.
//!
//! Pass `--scale ref` for benchmark-sized runs (the default `test` scale
//! keeps CI fast).

use cmd_core::prof::ChromeTrace;
use cmd_core::sched::SchedulerMode;
use cmd_core::trace::Tracer;
use riscy_baseline::{InOrderConfig, InOrderSim};
use riscy_mem::system::MemConfig;
use riscy_ooo::config::CoreConfig;
use riscy_ooo::soc::SocSim;
use riscy_workloads::spec::{Scale, Workload};
use std::cell::RefCell;
use std::rc::Rc;

pub mod fleet;
pub mod sampling;
pub mod sweep;

/// Measured result of one benchmark run on one configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Cycles inside the region of interest.
    pub roi_cycles: u64,
    /// Instructions committed inside the region of interest.
    pub roi_insts: u64,
    /// Misses/events per 1 K ROI instructions, for Fig. 16.
    pub dtlb_pki: f64,
    /// L2 TLB misses (page walks) per 1 K instructions.
    pub l2tlb_pki: f64,
    /// Branch mispredictions per 1 K instructions.
    pub brpred_pki: f64,
    /// L1 D misses per 1 K instructions.
    pub dcache_pki: f64,
    /// L2 misses per 1 K instructions.
    pub l2_pki: f64,
}

impl RunResult {
    /// Instructions per cycle in the ROI.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.roi_cycles == 0 {
            0.0
        } else {
            self.roi_insts as f64 / self.roi_cycles as f64
        }
    }

    /// The paper's performance metric: 1 / cycle count.
    #[must_use]
    pub fn perf(&self) -> f64 {
        if self.roi_cycles == 0 {
            0.0
        } else {
            1.0 / self.roi_cycles as f64
        }
    }
}

/// Runs one workload on the out-of-order core.
///
/// # Panics
///
/// Panics if the workload fails to complete (a simulator bug).
#[must_use]
pub fn run_ooo(cfg: CoreConfig, mem: MemConfig, w: &Workload) -> RunResult {
    run_ooo_with_scheduler(cfg, mem, w, SchedulerMode::default())
}

/// Runs one workload on the out-of-order core under an explicit rule
/// scheduler (see `docs/SCHEDULING.md`). Both modes are cycle-identical by
/// construction; the choice only affects host throughput.
///
/// # Panics
///
/// Panics if the workload fails to complete (a simulator bug).
#[must_use]
pub fn run_ooo_with_scheduler(
    cfg: CoreConfig,
    mem: MemConfig,
    w: &Workload,
    mode: SchedulerMode,
) -> RunResult {
    let mut sim = SocSim::new(cfg, mem, 1, &w.program);
    sim.set_scheduler(mode);
    sim.run_to_completion(w.max_cycles)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let soc = sim.soc();
    let st = soc.cores[0].stats;
    let insts = st.roi_insts.max(1);
    let pki = |x: u64| 1000.0 * x as f64 / insts as f64;
    RunResult {
        name: w.name,
        roi_cycles: st.roi_cycles,
        roi_insts: st.roi_insts,
        dtlb_pki: pki(st.dtlb_misses),
        l2tlb_pki: pki(soc.cores[0].tlb.walks),
        brpred_pki: pki(st.mispredicts),
        dcache_pki: pki(soc.mem.dcache_ref(0).stats.misses),
        l2_pki: pki(soc.mem.l2.stats.misses),
    }
}

/// Runs one workload on the in-order baseline.
///
/// # Panics
///
/// Panics if the workload fails to complete.
#[must_use]
pub fn run_inorder(cfg: InOrderConfig, w: &Workload) -> RunResult {
    let mut sim = InOrderSim::new(cfg, &w.program);
    sim.run(w.max_cycles * 4)
        .unwrap_or_else(|c| panic!("{}: stuck after {c} cycles", w.name));
    let st = sim.stats;
    let insts = st.roi_insts.max(1);
    RunResult {
        name: w.name,
        roi_cycles: st.roi_cycles,
        roi_insts: st.roi_insts,
        dtlb_pki: 0.0,
        l2tlb_pki: 0.0,
        brpred_pki: 1000.0 * st.mispredicts as f64 / insts as f64,
        dcache_pki: 0.0,
        l2_pki: 0.0,
    }
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Harmonic mean.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn harmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// Parses a workload scale as the CLIs spell it: `test` (CI-sized, the
/// default) or `ref` (benchmark-sized).
///
/// # Errors
///
/// Any other name is an error naming the two valid values — a typo that
/// silently ran the `test` scale would invalidate whatever sweep the
/// operator was running.
pub fn parse_scale(name: &str) -> Result<Scale, String> {
    match name {
        "test" => Ok(Scale::Test),
        "ref" => Ok(Scale::Ref),
        other => Err(format!("unknown scale `{other}` (test|ref)")),
    }
}

/// Parses `--scale test|ref` (default: `test`) through [`parse_scale`].
///
/// # Panics
///
/// Panics with [`parse_scale`]'s message on an unrecognized name.
#[must_use]
pub fn scale_from_args() -> Scale {
    path_arg("--scale").map_or(Scale::Test, |name| {
        parse_scale(&name).unwrap_or_else(|e| panic!("--scale: {e}"))
    })
}

/// The value following `flag` in `args`: `Ok(None)` when the flag is
/// absent, an error naming the flag when it is the last argument — a
/// requested artifact that is silently not written is worse than an abort.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let missing = || format!("{flag}: expected a value");
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).cloned().ok_or_else(missing))
        .transpose()
}

/// The flags every `fig*` binary takes a value for: the scale, the stats
/// snapshot, and what [`profile_opts`] and [`telemetry_opts`] read.
pub const FIG_VALUED: &[&str] = &[
    "--scale",
    "--stats-json",
    "--chrome-trace",
    "--profile-json",
    "--telemetry-json",
    "--telemetry-window",
    "--telemetry-windows",
];

/// The flags every `fig*` binary takes without a value.
pub const FIG_BARE: &[&str] = &["--profile"];

/// The first argument in `args` (program name excluded) that is neither one
/// of `valued` (whose following argument is its value and is skipped), nor
/// one of `bare`. `--flag=value` is not a spelling these CLIs read, so it is
/// reported like any other unknown argument.
fn unknown_arg<'a>(args: &'a [String], valued: &[&str], bare: &[&str]) -> Option<&'a str> {
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg) {
            rest.next();
        } else if !bare.contains(&arg) {
            return Some(arg);
        }
    }
    None
}

/// Refuses a command line carrying anything but the flags this binary
/// accepts: exits with status 2 naming the first unknown argument. Every
/// `main` that reads its flags through [`path_arg`] calls this first — the
/// readers below look flags up by name, so without it a misspelt flag
/// (`--schedular reference`, `--scheduler=reference`) would silently run
/// the default instead.
pub fn accept_flags(valued: &[&str], bare: &[&str]) {
    let mut args = std::env::args();
    let prog = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    if let Some(arg) = unknown_arg(&args, valued, bare) {
        let accepted = [valued, bare].concat().join(" ");
        eprintln!("{prog}: unknown argument `{arg}` (accepted: {accepted})");
        std::process::exit(2);
    }
}

/// The value following `flag` on the command line, if present.
///
/// # Panics
///
/// Panics naming the flag when it is given last, with no value.
#[must_use]
pub fn path_arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    flag_value(&args, flag).unwrap_or_else(|e| panic!("{e}"))
}

/// The integer following `flag` on the command line, or `default`.
///
/// # Panics
///
/// Panics when the value is present but not a number — a silently ignored
/// typo would invalidate whatever sweep the operator was running.
#[must_use]
pub fn u64_arg(flag: &str, default: u64) -> u64 {
    path_arg(flag).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} {v}: expected an integer"))
    })
}

/// Parses `--stats-json <path>`: where the binary should dump its
/// machine-readable stats snapshot (see `docs/OBSERVABILITY.md`).
#[must_use]
pub fn stats_json_path() -> Option<String> {
    path_arg("--stats-json")
}

/// Parses `--trace <path>`: where to dump a Konata/O3PipeView pipeline
/// trace.
#[must_use]
pub fn trace_path() -> Option<String> {
    path_arg("--trace")
}

/// Parses a scheduler name as the CLIs spell it: `reference` (the
/// one-rule-at-a-time oracle, for cross-checking) or `fast` (the kernel
/// default, [`SchedulerMode::Fast`]).
///
/// # Errors
///
/// Any other name — a typo, or a mode that no longer exists — is an error
/// naming the two valid values: a silently ignored or aliased name would
/// invalidate whatever comparison the operator was running.
pub fn parse_scheduler(name: &str) -> Result<SchedulerMode, String> {
    match name {
        "reference" => Ok(SchedulerMode::Reference),
        "fast" => Ok(SchedulerMode::Fast),
        other => Err(format!("unknown scheduler `{other}` (reference|fast)")),
    }
}

/// Parses `--scheduler reference|fast` (default: `fast`) through
/// [`parse_scheduler`].
///
/// # Panics
///
/// Panics with [`parse_scheduler`]'s message on an unrecognized name.
#[must_use]
pub fn scheduler_from_args() -> SchedulerMode {
    path_arg("--scheduler").map_or(SchedulerMode::Fast, |name| {
        parse_scheduler(&name).unwrap_or_else(|e| panic!("--scheduler: {e}"))
    })
}

/// The causal-profiler flags shared by every `fig*` binary (see
/// `docs/OBSERVABILITY.md`): `--profile` prints the per-rule host-time
/// report and the top-down table, `--chrome-trace <path>` writes a
/// Perfetto-loadable Chrome trace, `--profile-json <path>` writes the
/// machine-readable profile.
#[derive(Debug, Clone, Default)]
pub struct ProfileOpts {
    /// Print the host-time report and top-down table to stdout.
    pub profile: bool,
    /// Where to write the Chrome trace-event JSON, if requested.
    pub chrome_trace: Option<String>,
    /// Where to write the machine-readable profile JSON, if requested.
    pub profile_json: Option<String>,
}

impl ProfileOpts {
    /// Whether any profiling output was requested.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.profile || self.chrome_trace.is_some() || self.profile_json.is_some()
    }
}

/// Parses the profiling flags from the command line.
#[must_use]
pub fn profile_opts() -> ProfileOpts {
    ProfileOpts {
        profile: std::env::args().any(|a| a == "--profile"),
        chrome_trace: path_arg("--chrome-trace"),
        profile_json: path_arg("--profile-json"),
    }
}

/// Instruction spans exported per core to the Chrome trace before the
/// exporter starts dropping (keeps artifact size bounded).
const SPAN_CAP: usize = 100_000;

/// When any profiling flag is present, runs `w` once more on the
/// out-of-order SoC with the causal profiler, top-down accounting, and
/// instruction spans enabled; prints the rule host-time report and the
/// TMA table, and writes whatever artifacts were requested. A no-op
/// without profiling flags, so `fig*` binaries call it unconditionally on
/// one representative workload.
///
/// # Panics
///
/// Panics if the workload fails to complete or an artifact cannot be
/// written.
pub fn maybe_profile_run(
    cfg: CoreConfig,
    mem: MemConfig,
    num_cores: usize,
    w: &Workload,
    mode: SchedulerMode,
) {
    let opts = profile_opts();
    if !opts.enabled() {
        return;
    }
    let mut sim = SocSim::new(cfg, mem, num_cores, &w.program);
    sim.set_scheduler(mode);
    sim.enable_profiling();
    let chrome = opts.chrome_trace.as_ref().map(|_| {
        sim.enable_inst_spans(SPAN_CAP);
        let t: Rc<RefCell<ChromeTrace>> = Rc::new(RefCell::new(ChromeTrace::new()));
        sim.set_tracer(Tracer::new(t.clone()));
        t
    });
    // 4x the workload's own budget: multicore profiled runs (fig20) need
    // the same slack the figure rows give themselves.
    sim.run_to_completion(w.max_cycles.saturating_mul(4))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    println!("\n=== causal profile: {} ===", w.name);
    print!("{}", sim.report());
    print!("{}", sim.tma_table());
    if let Some(path) = &opts.profile_json {
        write_artifact(path, &sim.profile_json());
    }
    if let Some((path, tr)) = opts.chrome_trace.as_ref().zip(chrome) {
        let mut t = tr.borrow_mut();
        for (core, spans, _dropped) in sim.instruction_spans() {
            let tid = u32::try_from(core).expect("core id fits u32");
            t.set_inst_track(tid, &format!("core{core}"));
            for s in spans {
                t.add_span(tid, s.mnemonic, s.fetch, s.retire, s.pc, s.seq);
            }
        }
        write_artifact(path, &t.finish_json());
    }
}

/// The telemetry flags shared by every `fig*` binary and `sampled_sim`
/// (see `docs/OBSERVABILITY.md` §telemetry): `--telemetry-json <path>`
/// requests the windowed time-series artifact, `--telemetry-window <N>`
/// sets the sampling period in cycles, `--telemetry-windows <N>` bounds
/// the ring.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOpts {
    /// Where to write the time-series JSON, if requested.
    pub telemetry_json: Option<String>,
    /// Sampling period in cycles.
    pub window: u64,
    /// Ring capacity in windows.
    pub max_windows: usize,
}

/// Parses the telemetry flags from the command line.
///
/// # Panics
///
/// Panics when a window flag carries a non-numeric value.
#[must_use]
pub fn telemetry_opts() -> TelemetryOpts {
    TelemetryOpts {
        telemetry_json: path_arg("--telemetry-json"),
        window: u64_arg("--telemetry-window", cmd_core::telemetry::DEFAULT_WINDOW),
        max_windows: usize::try_from(u64_arg(
            "--telemetry-windows",
            cmd_core::telemetry::DEFAULT_MAX_WINDOWS as u64,
        ))
        .expect("--telemetry-windows fits usize"),
    }
}

/// When `--telemetry-json` is present, runs `w` once more on the
/// out-of-order SoC with windowed telemetry enabled and writes the
/// time-series artifact. A no-op without the flag, so `fig*` binaries
/// call it unconditionally on one representative workload — the figure
/// rows themselves stay uninstrumented (and telemetry would not change
/// them anyway, see the zero-perturbation contract in
/// `docs/OBSERVABILITY.md`).
///
/// # Panics
///
/// Panics if the workload fails to complete or the artifact cannot be
/// written.
pub fn maybe_telemetry_run(
    cfg: CoreConfig,
    mem: MemConfig,
    num_cores: usize,
    w: &Workload,
    mode: SchedulerMode,
) {
    let opts = telemetry_opts();
    let Some(path) = &opts.telemetry_json else {
        return;
    };
    let mut sim = SocSim::new(cfg, mem, num_cores, &w.program);
    sim.set_scheduler(mode);
    sim.enable_telemetry(opts.window, opts.max_windows);
    sim.run_to_completion(w.max_cycles.saturating_mul(4))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    write_artifact(path, &sim.telemetry_json());
}

/// Writes an artifact file requested on the command line.
///
/// # Panics
///
/// Panics when the file cannot be written — the operator asked for the
/// artifact, so a silent miss would be worse than an abort.
pub fn write_artifact(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Serializes per-configuration [`RunResult`] sets as a stats-JSON
/// document: a top-level `ipc` (geometric mean over every run), plus one
/// object per configuration with its per-benchmark metrics.
#[must_use]
pub fn results_json(configs: &[(&str, &[RunResult])]) -> String {
    use cmd_core::trace::json::JsonWriter;
    let ipcs: Vec<f64> = configs
        .iter()
        .flat_map(|(_, rs)| rs.iter().map(RunResult::ipc))
        .filter(|x| *x > 0.0)
        .collect();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_f64("ipc", if ipcs.is_empty() { 0.0 } else { geomean(&ipcs) });
    w.schema_version();
    w.key("configs");
    w.begin_array();
    for (label, runs) in configs {
        w.begin_object();
        w.field_str("label", label);
        w.key("runs");
        w.begin_array();
        for r in *runs {
            w.begin_object();
            w.field_str("name", r.name);
            w.field_f64("ipc", r.ipc());
            w.field_u64("roi_cycles", r.roi_cycles);
            w.field_u64("roi_insts", r.roi_insts);
            w.field_f64("dtlb_pki", r.dtlb_pki);
            w.field_f64("l2tlb_pki", r.l2tlb_pki);
            w.field_f64("brpred_pki", r.brpred_pki);
            w.field_f64("dcache_pki", r.dcache_pki);
            w.field_f64("l2_pki", r.l2_pki);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Serializes flat scalar metrics as a JSON object — the stats-JSON shape
/// of table-style binaries that run no simulation.
#[must_use]
pub fn metrics_json(metrics: &[(&str, f64)]) -> String {
    use cmd_core::trace::json::JsonWriter;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.schema_version();
    for (k, v) in metrics {
        w.field_f64(k, *v);
    }
    w.end_object();
    w.finish()
}

/// Prints a normalized-performance table: one row per benchmark, one
/// column per configuration, last row the geometric mean.
pub fn print_normalized_table(
    title: &str,
    baseline_label: &str,
    results: &[(&str, Vec<RunResult>)],
    baseline: &[RunResult],
) {
    println!("\n=== {title} ===");
    println!("(performance = 1/cycles, normalized to {baseline_label}; higher is better)\n");
    print!("{:<14}", "benchmark");
    for (label, _) in results {
        print!("{label:>14}");
    }
    println!();
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); results.len()];
    for (bi, base) in baseline.iter().enumerate() {
        print!("{:<14}", base.name);
        for (ci, (_, rs)) in results.iter().enumerate() {
            let r = rs[bi].perf() / base.perf();
            ratios[ci].push(r);
            print!("{r:>14.3}");
        }
        println!();
    }
    print!("{:<14}", "geo-mean");
    for column in &ratios {
        print!("{:>14.3}", geomean(column));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_names_are_reference_and_fast_only() {
        assert_eq!(parse_scheduler("reference"), Ok(SchedulerMode::Reference));
        assert_eq!(parse_scheduler("fast"), Ok(SchedulerMode::Fast));
        // A removed mode and a typo are both refused, naming what is valid.
        for bad in ["compiled", "parallel", "fats", ""] {
            let err = parse_scheduler(bad).expect_err(bad);
            assert!(err.contains("reference|fast"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn scale_names_are_test_and_ref_only() {
        assert_eq!(parse_scale("test"), Ok(Scale::Test));
        assert_eq!(parse_scale("ref"), Ok(Scale::Ref));
        for bad in ["reff", "Ref", ""] {
            let err = parse_scale(bad).expect_err(bad);
            assert!(err.contains("test|ref"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn a_flag_given_last_without_a_value_is_refused() {
        let args: Vec<String> = ["fig17", "--scale", "ref", "--stats-json"]
            .map(String::from)
            .to_vec();
        assert_eq!(flag_value(&args, "--scale"), Ok(Some("ref".to_string())));
        assert_eq!(flag_value(&args, "--trace"), Ok(None));
        let err = flag_value(&args, "--stats-json").expect_err("trailing flag");
        assert!(err.contains("--stats-json"), "{err}");
    }

    #[test]
    fn an_unknown_argument_is_found_and_values_are_not_mistaken_for_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let valued = [FIG_VALUED, &["--scheduler"]].concat();
        let ok = args(&["--scale", "test", "--profile", "--scheduler", "reference"]);
        assert_eq!(unknown_arg(&ok, &valued, FIG_BARE), None);
        // A value is skipped even when it looks like a flag nobody knows.
        let odd = args(&["--stats-json", "--weird-name.json"]);
        assert_eq!(unknown_arg(&odd, &valued, FIG_BARE), None);
        for (bad, culprit) in [
            (args(&["--schedular", "reference"]), "--schedular"),
            (args(&["--scheduler=reference"]), "--scheduler=reference"),
            (args(&["--sclae", "ref"]), "--sclae"),
            (args(&["--scale", "test", "stray"]), "stray"),
            (args(&["--profile", "on"]), "on"),
        ] {
            assert_eq!(unknown_arg(&bad, &valued, FIG_BARE), Some(culprit));
        }
    }

    #[test]
    fn means() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((harmean(&[1.0, 1.0]) - 1.0).abs() < 1e-9);
        assert!((harmean(&[2.0, 6.0]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn results_json_has_top_level_ipc() {
        let r = RunResult {
            name: "mcf",
            roi_cycles: 200,
            roi_insts: 100,
            dtlb_pki: 1.0,
            l2tlb_pki: 0.5,
            brpred_pki: 2.0,
            dcache_pki: 3.0,
            l2_pki: 0.25,
        };
        let json = results_json(&[("T+", &[r])]);
        assert!(json.starts_with("{\"ipc\":0.5,"), "{json}");
        assert!(json.contains("\"schema_version\":1"), "{json}");
        assert!(json.contains("\"label\":\"T+\""), "{json}");
        assert!(json.contains("\"roi_cycles\":200"), "{json}");
    }

    #[test]
    fn metrics_json_is_flat() {
        let json = metrics_json(&[("rob_entries", 64.0), ("width", 2.0)]);
        assert_eq!(
            json,
            "{\"schema_version\":1,\"rob_entries\":64,\"width\":2}"
        );
    }
}
