//! Running one unit once: generate, build, run, read out — timed, checked
//! and (in the traced run) wrapped in spans.

use crate::layers::RuleTotals;
use crate::spans::Spans;
use crate::workloads::{Kind, Unit};
use cmd_core::sched::SchedulerMode;
use cmd_core::telemetry::{DEFAULT_MAX_WINDOWS, DEFAULT_WINDOW};
use riscy_bench::sampling::{
    functional_profile, sampled_run, FunctionalProfile, SamplePlan, SamplePoint,
};
use riscy_isa::asm::Program;
use riscy_isa::interp::Machine;
use riscy_mem::system::MemConfig;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_ooo::ff::FastForward;
use riscy_ooo::soc::SocSim;
use std::hint::black_box;
use std::time::Instant;

/// Detailed cycles the sampled unit simulates before its snapshot round
/// trip, so the snapshot holds a pipeline in flight, not a fresh handoff.
const SNAP_WARM_CYCLES: u64 = 2_000;

/// Which observer a pass turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    Plain,
    /// `enable_profiling()`: rule-group shares and exact evaluation counts.
    Profiled,
    /// `enable_telemetry()` with the default window.
    Telemetry,
}

/// How a pass runs its units.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub observe: Observe,
    pub scheduler: SchedulerMode,
    /// Run the sampled unit through [`sampled_slices`], the benchmark's
    /// mirror of `riscy_bench::sampling::sampled_run`, which can put spans
    /// and observers on the slices. Plain passes call the public function.
    pub mirror: bool,
}

impl Mode {
    /// An untraced, unobserved pass under the default `Fast` scheduler.
    pub const PLAIN: Mode = Mode {
        observe: Observe::Plain,
        scheduler: SchedulerMode::Fast,
        mirror: false,
    };

    /// A traced pass: spans or an observer on every simulation.
    pub fn traced(observe: Observe) -> Mode {
        Mode {
            observe,
            mirror: true,
            ..Mode::PLAIN
        }
    }
}

/// Simulated-hardware counters of a unit (exact; they repeat run to run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Detailed cycles simulated (for the sampled unit: the measured
    /// intervals and the snapshot stage, which is all the public
    /// `sampled_run` reports).
    pub cycles: u64,
    /// Every detailed cycle, slice warm-up included (0 where the public
    /// `sampled_run` hides it).
    pub detail_cycles: u64,
    /// Program instructions accounted for: committed in detail, or
    /// fast-forwarded, each counted once.
    pub insts: u64,
    /// Instructions committed in detail (the denominator of the `*_pki`
    /// metrics; equals `insts` for detailed units).
    pub committed: u64,
    pub mispredicts: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub dtlb_misses: u64,
    pub rob_occ_sum: u64,
    pub occ_cycles: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.detail_cycles += o.detail_cycles;
        self.insts += o.insts;
        self.committed += o.committed;
        self.mispredicts += o.mispredicts;
        self.l1d_misses += o.l1d_misses;
        self.l2_misses += o.l2_misses;
        self.dtlb_misses += o.dtlb_misses;
        self.rob_occ_sum += o.rob_occ_sum;
        self.occ_cycles += o.occ_cycles;
    }

    /// The counters of a finished (or paused) simulation.
    fn of(sim: &SocSim) -> Counts {
        let soc = sim.soc();
        let mut c = Counts {
            cycles: sim.cycles(),
            detail_cycles: sim.cycles(),
            l2_misses: soc.mem.l2.stats.misses,
            ..Counts::default()
        };
        for core in &soc.cores {
            let s = &core.stats;
            c.committed += s.committed;
            c.mispredicts += s.mispredicts;
            c.dtlb_misses += s.dtlb_misses;
            c.rob_occ_sum += s.rob_occ_sum;
            c.occ_cycles += s.occ_cycles;
            c.l1d_misses += soc.mem.dcache_ref(core.id).stats.misses;
        }
        c.insts = c.committed;
        c
    }
}

/// What one execution of a unit produced.
#[derive(Debug, Clone, Default)]
pub struct UnitRun {
    pub counts: Counts,
    /// The unit's outputs folded into one word: the cores' exit codes for
    /// a detailed unit, the bits of `est_ipc` for the sampled unit.
    pub outputs: u64,
    /// Seconds of program generation plus every `SocSim::new` /
    /// `FastForward::new` the benchmark itself calls.
    pub setup_s: f64,
    /// Seconds of the whole unit (generate + build + run + read-out), split
    /// into the parts the estimator takes minima of: the unit itself, or
    /// the sampled unit's three stages (scout, slices, snapshot round trip).
    pub parts_s: Vec<f64>,
    /// Seconds of each stretch of detailed simulation: the run of a
    /// detailed unit, every slice of the sampled unit (mirror only).
    pub detail_s: Vec<f64>,
    pub rules: Option<RuleTotals>,
    /// Why the unit failed, if it did.
    pub error: Option<String>,
}

impl UnitRun {
    /// Seconds of the whole unit.
    pub fn total_s(&self) -> f64 {
        self.parts_s.iter().sum()
    }
}

fn fold(outputs: impl IntoIterator<Item = u64>) -> u64 {
    outputs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The exit codes the golden interpreter gives `unit`'s program, folded
/// like [`UnitRun::outputs`]: the reference a detailed unit's outputs are
/// checked against. `None` for the sampled unit, which never runs its
/// program to the end in detail.
pub fn reference_outputs(unit: &Unit) -> Option<u64> {
    let Kind::Soc { cores } = unit.kind else {
        return None;
    };
    let w = (unit.gen)();
    let mut m = Machine::with_program(cores, &w.program);
    m.run(w.max_cycles.saturating_mul(8)).ok()?;
    Some(fold(
        (0..cores).map(|h| m.hart(h).halted.unwrap_or(u64::MAX)),
    ))
}

fn observe(sim: &mut SocSim, mode: Mode) {
    sim.set_scheduler(mode.scheduler);
    match mode.observe {
        Observe::Plain => {}
        Observe::Profiled => sim.enable_profiling(),
        Observe::Telemetry => sim.enable_telemetry(DEFAULT_WINDOW, DEFAULT_MAX_WINDOWS),
    }
}

/// Runs `unit` once.
pub fn run_unit(unit: &Unit, mode: Mode, sp: &mut Spans) -> UnitRun {
    sp.enter("unit");
    let t0 = Instant::now();
    let mut run = match unit.kind {
        Kind::Soc { cores } => run_soc(unit, cores, mode, sp),
        Kind::Sampled => run_sampled(unit, mode, sp),
    };
    if run.parts_s.is_empty() {
        run.parts_s.push(t0.elapsed().as_secs_f64());
    }
    sp.exit();
    run
}

fn run_soc(unit: &Unit, cores: usize, mode: Mode, sp: &mut Spans) -> UnitRun {
    let t0 = Instant::now();
    let w = sp.scope("workloads.gen", unit.gen);
    let mut sim = sp.scope("ooo.build", || {
        let mut sim = SocSim::new(unit.cfg, mem_riscyoo_b(), cores, &w.program);
        observe(&mut sim, mode);
        sim
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let t_run = Instant::now();
    // Four times the workload's own budget, as fig20 gives its 4-core rows.
    let result = sp.scope("ooo.run", || {
        sim.run_to_completion(w.max_cycles.saturating_mul(4))
    });
    let detail_s = vec![t_run.elapsed().as_secs_f64()];
    let (counts, outputs, rules) = sp.scope("ooo.stats", || {
        // `stats_json` is the read-out a user of the simulator pays for.
        black_box(sim.stats_json());
        let outputs = fold(sim.exit_codes().into_iter().map(|c| c.unwrap_or(u64::MAX)));
        let rules = (mode.observe == Observe::Profiled)
            .then(|| RuleTotals::from_profile_json(&sim.profile_json()));
        (Counts::of(&sim), outputs, rules)
    });
    UnitRun {
        counts,
        outputs,
        setup_s,
        detail_s,
        rules,
        error: result.err().map(|e| e.to_string()),
        ..UnitRun::default()
    }
}

fn run_sampled(unit: &Unit, mode: Mode, sp: &mut Spans) -> UnitRun {
    let (cfg, mem) = (unit.cfg, mem_riscyoo_b());
    let plan = SamplePlan::default();
    let t0 = Instant::now();
    let w = sp.scope("workloads.gen", unit.gen);
    let mut run = UnitRun {
        setup_s: t0.elapsed().as_secs_f64(),
        ..UnitRun::default()
    };
    let profile = sp.scope("bench.profile", || {
        functional_profile(cfg, mem, &w.program, w.max_cycles.saturating_mul(8))
    });
    let scouted_s = t0.elapsed().as_secs_f64();
    let points = if mode.mirror {
        sampled_slices(cfg, mem, &w.program, &plan, &profile, mode, sp, &mut run)
    } else {
        sampled_run(cfg, mem, &w.program, &plan, &profile).points
    };
    let (insts, cycles) = points
        .iter()
        .fold((0, 0), |(i, c), p| (i + p.insts, c + p.cycles));
    let est_ipc = if cycles == 0 {
        0.0
    } else {
        insts as f64 / cycles as f64
    };
    run.outputs = est_ipc.to_bits();
    run.counts.cycles = cycles + SNAP_WARM_CYCLES;
    run.counts.insts = profile.total_insts;
    if points.len() as u64 != plan.samples {
        run.error = Some(format!(
            "{} of {} slices measured",
            points.len(),
            plan.samples
        ));
    }
    let sliced_s = t0.elapsed().as_secs_f64();
    if let Err(e) = snapshot_round_trip(cfg, mem, &w.program, &plan, &profile, sp, &mut run) {
        run.error = Some(e);
    }
    let snapped_s = t0.elapsed().as_secs_f64();
    run.parts_s = vec![scouted_s, sliced_s - scouted_s, snapped_s - sliced_s];
    run
}

/// Where `sampled_run` puts its first slice.
fn first_sample_point(plan: &SamplePlan, profile: &FunctionalProfile) -> u64 {
    let (begin, end) = profile.sample_window();
    begin + (end.saturating_sub(begin) / (plan.samples + 1)).max(1)
}

/// The benchmark's mirror of `riscy_bench::sampling::sampled_run`: the
/// same slices, with a span around every fast-forward leg, handoff and
/// detailed slice, and `mode`'s observer on every slice. The traced run
/// fails the unit if this and the public function disagree on `est_ipc`.
#[allow(clippy::too_many_arguments)]
fn sampled_slices(
    cfg: CoreConfig,
    mem: MemConfig,
    program: &Program,
    plan: &SamplePlan,
    profile: &FunctionalProfile,
    mode: Mode,
    sp: &mut Spans,
    run: &mut UnitRun,
) -> Vec<SamplePoint> {
    let t0 = Instant::now();
    let mut ff = sp.scope("ooo.build", || FastForward::new(cfg, mem, 1, program));
    run.setup_s += t0.elapsed().as_secs_f64();
    let (begin, end) = profile.sample_window();
    let period = first_sample_point(plan, profile) - begin;
    let mut points = Vec::new();
    let mut executed = 0u64;
    let mut rules = RuleTotals::default();
    let committed = |s: &SocSim| s.soc().cores[0].stats.committed;
    for k in 1..=plan.samples {
        let target = begin + k * period;
        if target >= end {
            break;
        }
        if target <= executed {
            continue;
        }
        executed += sp.scope("ff.run", || ff.run(target - executed));
        if ff.halted() {
            break;
        }
        let mut sim = sp.scope("ff.handoff", || ff.handoff());
        observe(&mut sim, mode);
        let t_detail = Instant::now();
        let point = sp.scope("ooo.detail", || {
            let stop_at = plan.warmup_insts + plan.interval_insts;
            let mut budget = plan.max_cycles_per_sample;
            while committed(&sim) < plan.warmup_insts && !sim.soc().all_exited() && budget > 0 {
                sim.cycle();
                budget -= 1;
            }
            let (c0, i0) = (sim.cycles(), committed(&sim));
            while committed(&sim) < stop_at && !sim.soc().all_exited() && budget > 0 {
                sim.cycle();
                budget -= 1;
            }
            let (insts, cycles) = (committed(&sim) - i0, sim.cycles() - c0);
            (insts > 0 && cycles > 0 && budget > 0).then_some(SamplePoint {
                start_inst: target,
                insts,
                cycles,
            })
        });
        run.detail_s.push(t_detail.elapsed().as_secs_f64());
        points.extend(point);
        let slice = Counts::of(&sim);
        run.counts.add(&Counts {
            cycles: 0,
            insts: 0,
            ..slice
        });
        if mode.observe == Observe::Profiled {
            rules.add(&RuleTotals::from_profile_json(&sim.profile_json()));
        }
    }
    if mode.observe == Observe::Profiled {
        run.rules = Some(rules);
    }
    points
}

/// Fast-forwards to the first sample point, hands off, simulates
/// [`SNAP_WARM_CYCLES`] in detail, then saves the simulation and restores
/// it into a freshly built one. The restored simulation must save to the
/// same bytes.
fn snapshot_round_trip(
    cfg: CoreConfig,
    mem: MemConfig,
    program: &Program,
    plan: &SamplePlan,
    profile: &FunctionalProfile,
    sp: &mut Spans,
    run: &mut UnitRun,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut ff = sp.scope("ooo.build", || FastForward::new(cfg, mem, 1, program));
    run.setup_s += t0.elapsed().as_secs_f64();
    sp.scope("ff.run", || ff.run(first_sample_point(plan, profile)));
    let mut sim = sp.scope("ff.handoff", || ff.handoff());
    sp.scope("ooo.detail", || {
        for _ in 0..SNAP_WARM_CYCLES {
            sim.cycle();
        }
    });
    let bytes = sp
        .scope("ooo.snap_save", || sim.save_snapshot())
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let mut fresh = sp.scope("ooo.build", || SocSim::new(cfg, mem, 1, program));
    run.setup_s += t1.elapsed().as_secs_f64();
    sp.scope("ooo.snap_restore", || fresh.restore_snapshot(&bytes))
        .map_err(|e| e.to_string())?;
    let again = fresh.save_snapshot().map_err(|e| e.to_string())?;
    if again != bytes {
        return Err("restored snapshot saves to different bytes".to_string());
    }
    Ok(())
}
