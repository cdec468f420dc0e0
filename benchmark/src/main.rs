//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! riscy-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) makes one warm-up pass and a fixed number
//! of timed passes and prints the end-to-end metrics; the traced run
//! (`--trace 1`) makes one pass each plain, with spans, with the profiler
//! and with telemetry, runs the isolated probes, and prints the per-layer
//! metrics. The last line of standard output is the result object; a
//! detail record goes to `benchmark/out/`. See README.md.

mod host;
mod layers;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use cmd_core::trace::json::JsonWriter;
use host::{HostReport, HostWatch};
use layers::{ratio, Group, RuleTotals};
use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use run::{reference_outputs, run_unit, Counts, Mode, Observe, UnitRun};
use spans::Spans;
use stats::{sum_of_unit_minima, summarize, Summary};
use std::process::ExitCode;
use workloads::{Kind, Unit, Workload, LIBQUANTUM_FULL_IPC};

/// Where detail records and spans go, relative to the working directory
/// (the repository root).
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} {v}: expected a whole number"))
        })
    };
    let names = workloads::ALL.map(Workload::name).join("|");
    let name = value("--workload")?.ok_or(format!("--workload <{names}> is required"))?;
    let workload =
        Workload::from_name(name).ok_or(format!("--workload {name}: expected one of {names}"))?;
    let seconds = number("--seconds", 20)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1 to 60"));
    }
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 0)?,
        seconds,
        trace,
    })
}

/// Counts attempted and failed units and says why a unit failed.
struct Checker {
    /// Outputs the golden interpreter gives each unit's program.
    reference: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn new(units: &[Unit]) -> Self {
        Checker {
            reference: units.iter().map(reference_outputs).collect(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// A unit fails on a run error, on exit codes that differ from the
    /// golden interpreter's, and on a cycle count, instruction count or
    /// sampled `est_ipc` that differs from its golden.
    fn check(&mut self, pass: &str, units: &[Unit], runs: &[UnitRun]) {
        for (i, (unit, run)) in units.iter().zip(runs).enumerate() {
            self.attempted += 1;
            let (cycles, insts) = (run.counts.cycles, run.counts.insts);
            let g = unit.golden;
            let why = if let Some(e) = &run.error {
                Some(e.clone())
            } else if self.reference[i].is_some_and(|r| r != run.outputs) {
                Some("exit codes differ from the golden interpreter's".to_string())
            } else if (cycles, insts) != (g.cycles, g.insts) {
                Some(format!(
                    "{cycles} cycles / {insts} instructions, golden {} / {}",
                    g.cycles, g.insts
                ))
            } else if unit.kind == Kind::Sampled && run.outputs != g.est_ipc_bits {
                Some(format!(
                    "est_ipc {} differs from the golden {}",
                    f64::from_bits(run.outputs),
                    f64::from_bits(g.est_ipc_bits)
                ))
            } else {
                None
            };
            if let Some(why) = why {
                self.failed += 1;
                self.notes.push(format!("{pass}: {}: {why}", unit.name));
            }
        }
    }
}

fn run_pass(units: &[Unit], mode: Mode, sp: &mut Spans) -> Vec<UnitRun> {
    units.iter().map(|u| run_unit(u, mode, sp)).collect()
}

fn total_counts(runs: &[UnitRun]) -> Counts {
    let mut c = Counts::default();
    runs.iter().for_each(|r| c.add(&r.counts));
    c
}

fn pass_seconds(runs: &[UnitRun]) -> f64 {
    runs.iter().map(|r| r.total_s()).sum()
}

/// Seconds of every stretch of detailed simulation in a pass.
fn detail_pieces(runs: &[UnitRun]) -> Vec<f64> {
    runs.iter().flat_map(|r| r.detail_s.clone()).collect()
}

/// Median over the stretches of detailed simulation of `observed ÷ plain`,
/// where a stretch's plain time is its best over the `plain` passes. One
/// pass per observer is all the traced run affords; the median of the
/// per-stretch ratios shrugs off a burst that hits one stretch of one pass.
fn piecewise_ratio(observed: &[UnitRun], plain: &[&[UnitRun]]) -> f64 {
    let plain: Vec<Vec<f64>> = plain.iter().map(|p| detail_pieces(p)).collect();
    let ratios: Vec<f64> = detail_pieces(observed)
        .iter()
        .enumerate()
        .map(|(i, o)| o / plain.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    summarize(&ratios).median
}

/// What a run hands to the printer.
struct Outcome {
    values: Values,
    /// Seconds of each whole timed pass.
    pass_s: Vec<f64>,
    /// Per unit: its name and its seconds over the passes.
    unit_s: Vec<(&'static str, Summary)>,
    spans: Option<Spans>,
    /// What the host did during the passes (the probes are left out: the
    /// fleet probe waits on a worker thread).
    host: HostReport,
}

/// `--trace 0`: one untimed warm-up pass, then `passes` timed passes with
/// a reference-loop sample between them.
fn untraced(args: &Args, units: &[Unit], checker: &mut Checker) -> Outcome {
    let mut host = HostWatch::start();
    let warm = run_pass(units, Mode::PLAIN, &mut Spans::off());
    checker.check("warm-up", units, &warm);
    let counts = total_counts(&warm);
    let (mut total_s, mut setup_s, mut parts_s) = (Vec::new(), Vec::new(), Vec::new());
    for p in 0..args.workload.passes(args.seconds) {
        host.sample();
        let runs = run_pass(units, Mode::PLAIN, &mut Spans::off());
        checker.check(&format!("pass {p}"), units, &runs);
        total_s.push(runs.iter().map(|r| r.total_s()).collect::<Vec<_>>());
        setup_s.push(runs.iter().map(|r| r.setup_s).collect::<Vec<_>>());
        parts_s.push(
            runs.iter()
                .flat_map(|r| r.parts_s.clone())
                .collect::<Vec<_>>(),
        );
    }
    host.sample();
    let host = host.finish();
    // Host-normalised seconds: see `host.rs`.
    let t = sum_of_unit_minima(&parts_s) / host.factor;
    let mut values = Values::default();
    values.set("sim_cps", counts.cycles as f64 / t);
    values.set("commit_kips", counts.insts as f64 / t / 1e3);
    values.set("sim_cycles", counts.cycles as f64);
    values.set("setup_s", sum_of_unit_minima(&setup_s) / host.factor);
    values.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    Outcome {
        values,
        pass_s: total_s.iter().map(|p| p.iter().sum()).collect(),
        unit_s: units
            .iter()
            .enumerate()
            .map(|(u, unit)| {
                let xs: Vec<f64> = total_s.iter().map(|p| p[u]).collect();
                (unit.name, summarize(&xs))
            })
            .collect(),
        spans: None,
        host,
    }
}

/// `--trace 1`: a warm-up pass, then one pass each untraced, with spans,
/// with the profiler and with telemetry, then the isolated probes.
fn traced(units: &[Unit], checker: &mut Checker) -> Outcome {
    let mut host = HostWatch::start();
    let mut pass = |name: &str, mode: Mode, sp: &mut Spans| {
        let runs = run_pass(units, mode, sp);
        checker.check(name, units, &runs);
        host.sample();
        runs
    };
    // The warm-up goes through the public `sampled_run`, every later pass
    // through the benchmark's mirror of it; the checker holds them equal.
    pass("warm-up", Mode::PLAIN, &mut Spans::off());
    // Same code path as the span pass, recorder off: the two differ by the
    // spans alone.
    let quiet = pass("untraced", Mode::traced(Observe::Plain), &mut Spans::off());
    let mut sp = Spans::on();
    let spanned = pass("spans", Mode::traced(Observe::Plain), &mut sp);
    let profiled = pass(
        "profiled",
        Mode::traced(Observe::Profiled),
        &mut Spans::off(),
    );
    let telemetry = pass(
        "telemetry",
        Mode::traced(Observe::Telemetry),
        &mut Spans::off(),
    );
    let host = host.finish();

    let mut v = Values::default();
    let counts = total_counts(&spanned);
    v.set("sim.cycles", counts.cycles as f64);
    v.set("sim.insts", counts.insts as f64);

    v.set("core.dispatch_ns", probes::dispatch_ns());
    v.set("core.sleep_ns", probes::sleep_ns());
    v.set("core.wake_ns", probes::wake_ns());
    v.set("core.cm_probe_ns", probes::cm_probe_ns());
    v.set("core.cell_scalar_ns", probes::cell_scalar_ns());
    v.set("core.cell_slot_ns", probes::cell_slot_ns());
    v.set("core.cell_vec_ns", probes::cell_vec_ns());
    v.set("core.abort_ns", probes::abort_ns());
    v.set("core.fifo_ns", probes::fifo_ns());

    let mut rules = RuleTotals::default();
    for r in &profiled {
        rules.add(&r.rules.expect("profiled passes carry rule totals"));
    }
    let profiled_ns = detail_pieces(&profiled).iter().sum::<f64>() * 1e9;
    v.set(
        "core.kernel_share",
        1.0 - rules.body_ns() as f64 / profiled_ns,
    );
    v.set(
        "core.evals_per_cycle",
        ratio(rules.evals, counts.detail_cycles),
    );
    v.set("core.skip_ratio", rules.skip_ratio());
    v.set("core.fire_ratio", rules.fire_ratio());

    v.set("ooo.front_share", rules.share(Group::Front));
    v.set("ooo.rename_share", rules.share(Group::Rename));
    v.set("ooo.issue_share", rules.share(Group::Issue));
    v.set("ooo.exec_share", rules.share(Group::Exec));
    v.set("ooo.lsq_share", rules.share(Group::Lsq));
    v.set("ooo.commit_share", rules.share(Group::Commit));
    v.set("ooo.build_ms", probes::build_ms(1));
    v.set("ooo.build4_ms", probes::build_ms(4));
    let (save_mbps, restore_mbps, snap_kb) = probes::snapshot();
    v.set("ooo.snap_save_mbps", save_mbps);
    v.set("ooo.snap_restore_mbps", restore_mbps);
    v.set("ooo.snap_kb", snap_kb);
    let (ff_mips, handoff_ms) = probes::fast_forward();
    v.set("ff.mips", ff_mips);
    v.set("ff.handoff_ms", handoff_ms);
    let pki = |n: u64| 1e3 * ratio(n, counts.committed);
    v.set("ooo.ipc", ratio(counts.committed, counts.detail_cycles));
    v.set("ooo.mispredict_pki", pki(counts.mispredicts));
    v.set(
        "ooo.rob_occ_avg",
        ratio(counts.rob_occ_sum, counts.occ_cycles),
    );

    v.set("mem.substrate_share", rules.share(Group::Substrate));
    v.set("mem.tick_idle_ns", probes::mem_tick_idle_ns());
    v.set("mem.hit_ns", probes::mem_hit_ns());
    v.set("mem.miss_ns", probes::mem_miss_ns());
    v.set("mem.l1d_mpki", pki(counts.l1d_misses));
    v.set("mem.l2_mpki", pki(counts.l2_misses));
    v.set("mem.dtlb_mpki", pki(counts.dtlb_misses));

    v.set("isa.interp_mips", probes::interp_mips());
    v.set("baseline.cps", probes::baseline_cps());
    v.set("workloads.gen_ms", probes::gen_ms());
    // 0 on workloads that do not sample.
    let ipc_err = units
        .iter()
        .zip(&quiet)
        .filter(|(u, _)| u.kind == Kind::Sampled)
        .map(|(_, r)| (f64::from_bits(r.outputs) - LIBQUANTUM_FULL_IPC).abs() / LIBQUANTUM_FULL_IPC)
        .fold(0.0, f64::max);
    v.set("bench.sample_ipc_err", ipc_err);
    v.set("bench.fleet_overhead_ratio", probes::fleet_overhead_ratio());

    let s = sp.spans();
    v.set("span.gen_share", spans::share(s, &["workloads.gen"]));
    v.set("span.build_share", spans::share(s, &["ooo.build"]));
    v.set("span.run_share", spans::share(s, &["ooo.run"]));
    v.set("span.stats_share", spans::share(s, &["ooo.stats"]));
    v.set("span.profile_share", spans::share(s, &["bench.profile"]));
    v.set("span.ff_share", spans::share(s, &["ff.run"]));
    v.set("span.handoff_share", spans::share(s, &["ff.handoff"]));
    v.set("span.detail_share", spans::share(s, &["ooo.detail"]));
    v.set(
        "span.snap_share",
        spans::share(s, &["ooo.snap_save", "ooo.snap_restore"]),
    );

    // The span pass is as good as plain for the observers' baseline.
    let plain: [&[UnitRun]; 2] = [&quiet, &spanned];
    v.set("obs.prof_on_ratio", piecewise_ratio(&profiled, &plain));
    v.set(
        "obs.telemetry_on_ratio",
        piecewise_ratio(&telemetry, &plain),
    );
    v.set("trace.overhead_ratio", piecewise_ratio(&spanned, &[&quiet]));
    Outcome {
        values: v,
        pass_s: vec![pass_seconds(&quiet)],
        unit_s: units
            .iter()
            .zip(&quiet)
            .map(|(u, r)| (u.name, summarize(&[r.total_s()])))
            .collect(),
        spans: Some(sp),
        host,
    }
}

fn write_summary(w: &mut JsonWriter, s: &Summary) {
    w.begin_object();
    w.field_u64("n", s.n as u64);
    w.field_f64("min", s.min);
    w.field_f64("q1", s.q1);
    w.field_f64("median", s.median);
    w.field_f64("q3", s.q3);
    w.field_f64("max", s.max);
    w.end_object();
}

fn write_metrics(w: &mut JsonWriter, metrics: &[Metric]) {
    w.begin_object();
    for m in metrics {
        w.key(m.name);
        w.begin_object();
        w.field_f64("value", m.value);
        w.field_str("unit", m.unit);
        w.end_object();
    }
    w.end_object();
}

/// The detail record: everything the result line leaves out.
fn detail_json(
    args: &Args,
    checker: &Checker,
    host: &HostReport,
    pass_s: &[f64],
    unit_s: &[(&'static str, Summary)],
    metrics: &[Metric],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", args.workload.name());
    w.field_u64("seed", args.seed);
    w.field_u64("seconds", args.seconds);
    w.field_u64("trace", u64::from(args.trace));
    w.field_u64("timed_passes", pass_s.len() as u64);
    w.field_u64("attempted", checker.attempted);
    w.field_u64("failed", checker.failed);
    w.key("disturbed");
    w.boolean(host.disturbed);
    w.key("host");
    w.begin_object();
    w.field_u64("nproc", host::nproc() as u64);
    w.field_f64("ref_ns", host.ref_ns);
    w.field_f64("ref_spread", host.ref_spread);
    w.field_f64("factor", host.factor);
    w.field_f64("cpu_share", host.cpu_share);
    w.end_object();
    w.key("pass_s");
    write_summary(&mut w, &summarize(pass_s));
    w.key("units");
    w.begin_array();
    for (name, s) in unit_s {
        w.begin_object();
        w.field_str("name", name);
        w.key("seconds");
        write_summary(&mut w, s);
        w.end_object();
    }
    w.end_array();
    w.key("metrics");
    write_metrics(&mut w, metrics);
    w.key("failures");
    w.begin_array();
    for n in &checker.notes {
        w.string(n);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn run(args: &Args) -> Result<(), String> {
    let units = args.workload.units(args.seed);
    let mut checker = Checker::new(&units);
    let Outcome {
        mut values,
        pass_s,
        unit_s,
        spans,
        host,
    } = if args.trace {
        traced(&units, &mut checker)
    } else {
        untraced(args, &units, &mut checker)
    };
    if args.trace {
        values.set("host.nproc", host::nproc() as f64);
        values.set("host.ref_ns", host.ref_ns);
        values.set("host.ref_spread", host.ref_spread);
        values.set("host.cpu_share", host.cpu_share);
    }
    let metrics = values.in_order_of(if args.trace { PER_LAYER } else { END_TO_END });

    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let detail = detail_json(args, &checker, &host, &pass_s, &unit_s, &metrics);
    std::fs::write(format!("{stem}.json"), detail).map_err(|e| format!("{stem}.json: {e}"))?;
    if let Some(sp) = &spans {
        let path = format!("{stem}-spans.json");
        std::fs::write(&path, sp.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }

    println!(
        "{} seed {} trace {}: {} timed passes, {} units attempted, {} failed{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        pass_s.len(),
        checker.attempted,
        checker.failed,
        if host.disturbed { ", disturbed" } else { "" }
    );
    for n in &checker.notes {
        println!("FAILED {n}");
    }
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.boolean(checker.failed == 0);
    w.field_u64("attempted", checker.attempted);
    w.field_u64("failed", checker.failed);
    w.key("metrics");
    write_metrics(&mut w, &metrics);
    w.end_object();
    println!("{}", w.finish());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("riscy-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmd_core::sched::SchedulerMode;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn arguments_follow_the_contract() {
        let a = parse_args(&args(&[
            "--workload",
            "spec_stall",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SpecStall, 7, 10, true)
        );
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "spec_hot", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "spec_hot", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--workload", "spec_hot", "--seed"])).is_err());
    }

    /// Every workload reproduces its golden counts, and the interpreter
    /// agrees with every detailed unit's exit codes.
    #[test]
    fn every_workload_matches_its_goldens() {
        for w in workloads::ALL {
            let units = w.units(5);
            let mut checker = Checker::new(&units);
            let runs = run_pass(&units, Mode::PLAIN, &mut Spans::off());
            checker.check("test", &units, &runs);
            assert_eq!(checker.notes, Vec::<String>::new(), "{}", w.name());
            assert_eq!(checker.attempted, units.len() as u64);
        }
    }

    /// A wrong count is a failed unit, not a panic and not a pass.
    #[test]
    fn a_wrong_count_fails_the_unit() {
        let units = Workload::SpecHot.units(0);
        let mut checker = Checker::new(&units[..1]);
        let mut run = run_unit(&units[0], Mode::PLAIN, &mut Spans::off());
        checker.check("ok", &units[..1], std::slice::from_ref(&run));
        assert_eq!((checker.attempted, checker.failed), (1, 0));
        run.counts.cycles += 1;
        checker.check("bad", &units[..1], std::slice::from_ref(&run));
        assert_eq!((checker.attempted, checker.failed), (2, 1));
        run.counts.cycles -= 1;
        run.outputs ^= 1;
        checker.check("bad", &units[..1], std::slice::from_ref(&run));
        assert_eq!(checker.failed, 2);
        run.outputs ^= 1;
        run.error = Some("budget".to_string());
        checker.check("bad", &units[..1], std::slice::from_ref(&run));
        assert_eq!((checker.attempted, checker.failed), (4, 3));
    }

    /// The reference scheduler simulates `spec_hot` cycle for cycle like
    /// the default one.
    #[test]
    fn reference_scheduler_equals_fast_on_spec_hot() {
        let units = Workload::SpecHot.units(0);
        let reference = Mode {
            scheduler: SchedulerMode::Reference,
            ..Mode::PLAIN
        };
        let fast = run_pass(&units, Mode::PLAIN, &mut Spans::off());
        let oracle = run_pass(&units, reference, &mut Spans::off());
        for (f, o) in fast.iter().zip(&oracle) {
            assert_eq!((f.counts, f.outputs), (o.counts, o.outputs));
        }
        assert_eq!(total_counts(&fast).cycles, 185_472);
    }

    /// The benchmark's mirror of `sampled_run` measures the same slices,
    /// with and without observers, and its spans cover the pass.
    #[test]
    fn sampled_mirror_agrees_with_the_public_function() {
        let units = Workload::SampledFf.units(0);
        let public = run_pass(&units, Mode::PLAIN, &mut Spans::off());
        let mut sp = Spans::on();
        let mirror = run_pass(&units, Mode::traced(Observe::Profiled), &mut sp);
        assert_eq!(public[0].error, None);
        assert_eq!(
            (
                public[0].counts.cycles,
                public[0].counts.insts,
                public[0].outputs
            ),
            (
                mirror[0].counts.cycles,
                mirror[0].counts.insts,
                mirror[0].outputs
            )
        );
        assert!(mirror[0].rules.is_some_and(|r| r.evals > 0));
        let s = sp.spans();
        assert_eq!(
            spans::self_times_ns(s).iter().sum::<u64>(),
            spans::pass_ns(s)
        );
        let ff = spans::share(s, &["ff.run", "ff.handoff", "bench.profile"]);
        assert!(ff > 0.3, "fast-forward share {ff}");
    }
}
