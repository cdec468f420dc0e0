//! # riscy-bench — harnesses regenerating the paper's evaluation
//!
//! One binary, `repro`, with one command per table/figure of §VI (see
//! DESIGN.md's experiment index) — `repro fig12` … `repro fig21` — plus
//! the campaign tools (`fleet`, `watch`, `sweep`, `sampled`, `litmus`,
//! `chaos-smoke`) and the one instrumented run, `repro observe`. Each
//! figure prints the same rows/series the paper reports. Absolute numbers
//! differ (this substrate is a simulator, the paper's was an FPGA +
//! silicon comparators); the *shape* — who wins, by roughly what factor,
//! where the crossovers fall — is the reproduction target.
//!
//! Every command line is parsed once, by [`Args::parse`], against the
//! flags its command accepts. Pass `--scale ref` for benchmark-sized runs
//! (the default `test` scale keeps CI fast).

use cmd_core::sched::SchedulerMode;
use riscy_baseline::{InOrderConfig, InOrderSim};
use riscy_mem::system::MemConfig;
use riscy_ooo::config::CoreConfig;
use riscy_ooo::soc::SocSim;
use riscy_workloads::spec::{Scale, Workload};
use std::str::FromStr;

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

/// One command's arguments, parsed once against the flags that command
/// accepts: `valued` flags take the following argument as their value,
/// `bare` flags take none. [`Args::parse`] is the only reader of a command
/// line in this crate, so every command refuses the same mistakes the
/// same way.
#[derive(Debug)]
pub struct Args {
    values: Vec<(&'static str, String)>,
    bare: Vec<&'static str>,
    scale: Scale,
    scheduler: SchedulerMode,
}

impl Args {
    /// Parses `args` (command name excluded).
    ///
    /// # Errors
    ///
    /// An error naming the culprit for an argument that is neither in
    /// `valued` nor in `bare` (`--flag=value` is not a spelling these
    /// commands read, so it is unknown too), a valued flag given last, a
    /// flag given twice, and a `--scale` or `--scheduler`/`--sched` value
    /// [`parse_scale`] or [`parse_scheduler`] refuses. Without this, a
    /// misspelt flag (`--schedular reference`) would silently run the
    /// default instead.
    pub fn parse(
        args: &[String],
        valued: &[&'static str],
        bare: &[&'static str],
    ) -> Result<Args, String> {
        let mut out = Args {
            values: Vec::new(),
            bare: Vec::new(),
            scale: Scale::Test,
            scheduler: SchedulerMode::Fast,
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let given = |flag: &str| out.value(flag).is_some() || out.flag(flag);
            if let Some(&flag) = valued.iter().find(|f| **f == arg) {
                if given(flag) {
                    return Err(format!("{flag}: given twice"));
                }
                let value = rest
                    .next()
                    .ok_or_else(|| format!("{flag}: expected a value"))?;
                let named = |e: String| format!("{flag}: {e}");
                match flag {
                    "--scale" => out.scale = parse_scale(value).map_err(named)?,
                    "--scheduler" | "--sched" => {
                        out.scheduler = parse_scheduler(value).map_err(named)?;
                    }
                    _ => {}
                }
                out.values.push((flag, value.clone()));
            } else if let Some(&flag) = bare.iter().find(|f| **f == arg) {
                if given(flag) {
                    return Err(format!("{flag}: given twice"));
                }
                out.bare.push(flag);
            } else {
                return Err(format!("unknown argument `{arg}`"));
            }
        }
        Ok(out)
    }

    /// Whether the bare flag `name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.bare.contains(&name)
    }

    /// The value given for `name`, if the flag was given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(flag, _)| *flag == name)
            .map(|(_, v)| v.as_str())
    }

    /// The number given for `name`, if the flag was given.
    ///
    /// # Errors
    ///
    /// An error naming the flag when the value does not parse as a `T` —
    /// a silently ignored typo would invalidate whatever sweep the
    /// operator was running.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name}: `{v}` is not a number"))
            })
            .transpose()
    }

    /// The `--scale` given (default: `test`).
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The `--scheduler` (or `--sched`) given (default: `fast`).
    #[must_use]
    pub fn scheduler(&self) -> SchedulerMode {
        self.scheduler
    }
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
/// of the table-style commands that run no simulation.
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

    const VALUED: &[&str] = &["--scale", "--stats-json", "--scheduler", "--seeds"];
    const BARE: &[&str] = &["--ablate"];

    fn parse(a: &[&str]) -> Result<Args, String> {
        let a: Vec<String> = a.iter().map(|s| s.to_string()).collect();
        Args::parse(&a, VALUED, BARE)
    }

    #[test]
    fn a_flag_given_last_without_a_value_is_refused() {
        let args = parse(&["--scale", "ref", "--stats-json", "s.json"]).expect("well formed");
        assert_eq!(args.value("--stats-json"), Some("s.json"));
        assert_eq!(args.scale(), Scale::Ref);
        assert_eq!(args.value("--scheduler"), None);
        let err = parse(&["--scale", "ref", "--stats-json"]).expect_err("trailing flag");
        assert!(err.contains("--stats-json"), "{err}");
    }

    #[test]
    fn an_unknown_argument_is_found_and_values_are_not_mistaken_for_flags() {
        let ok = parse(&["--scale", "test", "--ablate", "--scheduler", "reference"]).expect("ok");
        assert!(ok.flag("--ablate"));
        assert_eq!(ok.scheduler(), SchedulerMode::Reference);
        // A value is taken verbatim even when it looks like a flag.
        let odd = parse(&["--stats-json", "--weird-name.json"]).expect("odd");
        assert_eq!(odd.value("--stats-json"), Some("--weird-name.json"));
        for (bad, culprit) in [
            (&["--schedular", "reference"][..], "--schedular"),
            (&["--scheduler=reference"], "--scheduler=reference"),
            (&["--sclae", "ref"], "--sclae"),
            (&["--scale", "test", "stray"], "stray"),
            (&["--ablate", "on"], "on"),
            (&["--scale", "reff"], "reff"),
            (&["--scheduler", "compiled"], "compiled"),
            (&["--scale", "test", "--scale", "ref"], "--scale"),
        ] {
            let err = parse(bad).expect_err(culprit);
            assert!(err.contains(culprit), "{err}");
        }
    }

    #[test]
    fn a_malformed_number_names_its_flag() {
        let args = parse(&["--seeds", "x"]).expect("syntax is fine");
        let err = args.num::<u64>("--seeds").expect_err("not a number");
        assert!(err.contains("--seeds") && err.contains('x'), "{err}");
        let args = parse(&["--seeds", "3"]).expect("ok");
        assert_eq!(args.num::<u64>("--seeds"), Ok(Some(3)));
        assert_eq!(args.num::<u64>("--scale"), Ok(None));
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
