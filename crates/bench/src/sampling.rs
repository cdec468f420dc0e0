//! # Interval sampling — detailed-slice IPC estimates over fast-forward
//!
//! SMARTS/SimPoint-style systematic sampling (see `docs/CHECKPOINT.md`
//! §"Sampled simulation"): instead of simulating a workload's every cycle
//! in the detailed out-of-order model, fast-forward through it with the
//! [`riscy_ooo::ff`] functional warmer and drop into detailed simulation
//! only at `n` evenly spaced points. Each detailed slice runs a short
//! *warmup* (drains the cold-start transient the functional warmer cannot
//! capture: in-flight miss timing, queue occupancies) and then a measured
//! *interval*; the whole-run IPC estimate is the pooled
//! `Σ interval insts / Σ interval cycles`.
//!
//! Sample points are placed inside the workload's region of interest
//! (the functional scout pass reads the ROI MMIO markers exactly), and
//! the estimate is compared against the full run's ROI IPC — the metric
//! every other harness in this crate reports — so the error metric
//! ([`SampledWorkload::ipc_err`]; `bench.sample_ipc_err` in the repo
//! benchmark) is apples-to-apples and excludes the one-time S-mode setup
//! phase that sampling rightly skips. The speed win comes from the
//! interpreter retiring instructions orders of magnitude faster than the
//! rule-driven detailed model.

use std::time::Instant;

use cmd_core::trace::json::JsonWriter;
use riscy_isa::asm::Program;
use riscy_mem::system::MemConfig;
use riscy_ooo::config::CoreConfig;
use riscy_ooo::ff::FastForward;
use riscy_ooo::soc::SocSim;

/// Shape of a sampled estimate: how many intervals, and how much detailed
/// warmup/measurement each one gets.
#[derive(Debug, Clone, Copy)]
pub struct SamplePlan {
    /// Evenly spaced measurement intervals across the run.
    pub samples: u64,
    /// Committed instructions of (unmeasured) detailed warmup per
    /// interval.
    pub warmup_insts: u64,
    /// Committed instructions measured per interval.
    pub interval_insts: u64,
    /// Detailed-cycle budget per interval (warmup + measurement); a slice
    /// that exhausts it is dropped rather than trusted.
    pub max_cycles_per_sample: u64,
}

impl Default for SamplePlan {
    /// 10 × (6k warmup + 3k measured): on the spec suite this keeps the
    /// IPC error under 1 % while the detailed slices stay a small
    /// fraction of the run (see `docs/CHECKPOINT.md` for the
    /// calibration).
    fn default() -> Self {
        SamplePlan {
            samples: 10,
            warmup_insts: 6_000,
            interval_insts: 3_000,
            max_cycles_per_sample: 400_000,
        }
    }
}

impl SamplePlan {
    /// The shortest sample-window span (in instructions) this plan can
    /// sample honestly: the detailed slices must stay a minority of the
    /// window or "sampling" degenerates into a shuffled full run whose
    /// speedup and error are both meaningless. Callers skip (and say so
    /// — never silently) workloads below this.
    #[must_use]
    pub fn min_window_insts(&self) -> u64 {
        4 * self.samples * (self.warmup_insts + self.interval_insts)
    }
}

/// One measured detailed slice.
#[derive(Debug, Clone, Copy)]
pub struct SamplePoint {
    /// Functionally executed instructions when the slice began.
    pub start_inst: u64,
    /// Instructions committed inside the measured interval.
    pub insts: u64,
    /// Cycles the measured interval took.
    pub cycles: u64,
}

impl SamplePoint {
    /// The slice's instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }
}

/// A sampled whole-run estimate.
#[derive(Debug, Clone)]
pub struct SampleEstimate {
    /// Instructions the workload executes functionally (per hart).
    pub total_insts: u64,
    /// The measured slices (fewer than planned when the program halts
    /// early or a slice blows its cycle budget).
    pub points: Vec<SamplePoint>,
    /// Instructions covered by fast-forward rather than detail.
    pub ff_insts: u64,
}

impl SampleEstimate {
    /// The pooled IPC estimate: `Σ insts / Σ cycles` over every slice.
    #[must_use]
    pub fn est_ipc(&self) -> f64 {
        let insts: u64 = self.points.iter().map(|p| p.insts).sum();
        let cycles: u64 = self.points.iter().map(|p| p.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            insts as f64 / cycles as f64
        }
    }
}

/// What the functional scout pass learned about a workload: how many
/// instructions it executes and where its region of interest lies
/// (instruction-count window, exact — the interpreter records the ROI
/// MMIO markers' `instret`).
#[derive(Debug, Clone, Copy)]
pub struct FunctionalProfile {
    /// Instructions executed to completion (per hart).
    pub total_insts: u64,
    /// `[begin, end)` ROI window in executed-instruction counts, when the
    /// workload raised ROI markers.
    pub roi: Option<(u64, u64)>,
}

impl FunctionalProfile {
    /// The window sample points are placed in: the ROI when the workload
    /// declares one, else the whole run.
    #[must_use]
    pub fn sample_window(&self) -> (u64, u64) {
        self.roi.unwrap_or((0, self.total_insts))
    }
}

/// Scouts a single-core workload functionally (capped at `cap`
/// instructions): total length plus the ROI window that places sample
/// points.
#[must_use]
pub fn functional_profile(
    cfg: CoreConfig,
    mem: MemConfig,
    program: &Program,
    cap: u64,
) -> FunctionalProfile {
    let mut ff = FastForward::new(cfg, mem, 1, program);
    let mut total = 0u64;
    let mut roi_begin = None;
    while total < cap {
        let step = ff.run((cap - total).min(4_096));
        total += step;
        if roi_begin.is_none() {
            roi_begin = ff.machine().hart(0).roi_start;
        }
        if step == 0 {
            break;
        }
    }
    let roi_len = ff.machine().hart(0).roi_insts;
    FunctionalProfile {
        total_insts: total,
        roi: roi_begin.filter(|_| roi_len > 0).map(|b| (b, b + roi_len)),
    }
}

/// Runs the sampled estimate: one fast-forward session advanced
/// incrementally, with a detailed handoff at each of the plan's sample
/// points, spread evenly across `profile`'s sample window (the ROI when
/// one exists — the same region whose IPC the full-run comparison uses).
/// Single-core workloads only (the detailed slices read core 0).
#[must_use]
pub fn sampled_run(
    cfg: CoreConfig,
    mem: MemConfig,
    program: &Program,
    plan: &SamplePlan,
    profile: &FunctionalProfile,
) -> SampleEstimate {
    let mut ff = FastForward::new(cfg, mem, 1, program);
    let mut points = Vec::new();
    let mut executed = 0u64;
    let (begin, end) = profile.sample_window();
    // samples+1 periods put the points strictly inside the window: no
    // slice starts exactly at the cold boundary or right at the end.
    let period = ((end.saturating_sub(begin)) / (plan.samples + 1)).max(1);
    for k in 1..=plan.samples {
        let target = begin + k * period;
        if target >= end {
            break;
        }
        if target <= executed {
            continue;
        }
        executed += ff.run(target - executed);
        if ff.halted() {
            break;
        }
        let mut sim = ff.handoff();
        let committed = |s: &SocSim| s.soc().cores[0].stats.committed;
        let measure_at = plan.warmup_insts;
        let stop_at = plan.warmup_insts + plan.interval_insts;
        let mut budget = plan.max_cycles_per_sample;
        while committed(&sim) < measure_at && !sim.soc().all_exited() && budget > 0 {
            sim.cycle();
            budget -= 1;
        }
        let (c0, i0) = (sim.cycles(), committed(&sim));
        while committed(&sim) < stop_at && !sim.soc().all_exited() && budget > 0 {
            sim.cycle();
            budget -= 1;
        }
        let (insts, cycles) = (committed(&sim) - i0, sim.cycles() - c0);
        if insts > 0 && cycles > 0 && budget > 0 {
            points.push(SamplePoint {
                start_inst: target,
                insts,
                cycles,
            });
        }
    }
    SampleEstimate {
        total_insts: profile.total_insts,
        points,
        ff_insts: executed,
    }
}

/// One workload's sampled-vs-full comparison, as measured by
/// [`compare_sampled`] (and serialized into `sample_report.json`).
#[derive(Debug, Clone)]
pub struct SampledWorkload {
    /// Workload name.
    pub name: String,
    /// Whole-run IPC of the full detailed simulation.
    pub full_ipc: f64,
    /// Host seconds the full detailed run took.
    pub full_wall_s: f64,
    /// The sampled estimate.
    pub estimate: SampleEstimate,
    /// The sampled estimate's pooled IPC.
    pub est_ipc: f64,
    /// Host seconds the sampled pass took (functional count pass
    /// included).
    pub sampled_wall_s: f64,
}

impl SampledWorkload {
    /// Relative IPC error of the estimate against the full run.
    #[must_use]
    pub fn ipc_err(&self) -> f64 {
        if self.full_ipc == 0.0 {
            0.0
        } else {
            (self.est_ipc - self.full_ipc).abs() / self.full_ipc
        }
    }

    /// Wall-clock speedup of the sampled pass over the full run.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.sampled_wall_s > 0.0 {
            self.full_wall_s / self.sampled_wall_s
        } else {
            0.0
        }
    }
}

/// Runs one single-core workload both ways — full detailed simulation and
/// fast-forward + sampling — and returns the comparison.
///
/// # Panics
///
/// Panics when the full detailed run fails to complete (a simulator bug:
/// the workload is expected to fit its own cycle budget).
#[must_use]
pub fn compare_sampled(
    cfg: CoreConfig,
    mem: MemConfig,
    name: &str,
    program: &Program,
    max_cycles: u64,
    plan: &SamplePlan,
) -> SampledWorkload {
    let t0 = Instant::now();
    let mut sim = SocSim::new(cfg, mem, 1, program);
    sim.run_to_completion(max_cycles)
        .unwrap_or_else(|e| panic!("{name}: full run failed: {e}"));
    let full_wall_s = t0.elapsed().as_secs_f64();
    // The full-run reference IPC is the ROI IPC when the workload raises
    // ROI markers (the metric every other harness in this crate reports);
    // the sample points live inside the same window, so the comparison is
    // apples-to-apples. Marker-less workloads fall back to whole-run IPC.
    let st = sim.soc().cores[0].stats;
    let full_ipc = if st.roi_cycles > 0 {
        st.roi_insts as f64 / st.roi_cycles as f64
    } else {
        st.committed as f64 / sim.cycles() as f64
    };

    let t1 = Instant::now();
    let profile = functional_profile(cfg, mem, program, max_cycles.saturating_mul(8));
    let estimate = sampled_run(cfg, mem, program, plan, &profile);
    let sampled_wall_s = t1.elapsed().as_secs_f64();
    let est_ipc = estimate.est_ipc();
    SampledWorkload {
        name: name.to_string(),
        full_ipc,
        full_wall_s,
        estimate,
        est_ipc,
        sampled_wall_s,
    }
}

/// Serializes a set of per-workload comparisons as the
/// `sample_report.json` CI artifact: per-workload IPCs, errors, and raw
/// sample points, plus the aggregate `ff_speedup` /
/// `sample_ipc_err_max`.
#[must_use]
pub fn sample_report_json(entries: &[SampledWorkload]) -> String {
    let full_wall: f64 = entries.iter().map(|e| e.full_wall_s).sum();
    let sampled_wall: f64 = entries.iter().map(|e| e.sampled_wall_s).sum();
    let speedup = if sampled_wall > 0.0 {
        full_wall / sampled_wall
    } else {
        0.0
    };
    let err_max = entries
        .iter()
        .map(SampledWorkload::ipc_err)
        .fold(0.0, f64::max);
    let err_mean = if entries.is_empty() {
        0.0
    } else {
        entries.iter().map(SampledWorkload::ipc_err).sum::<f64>() / entries.len() as f64
    };
    let mut w = JsonWriter::new();
    w.begin_object();
    w.schema_version();
    w.field_f64("ff_speedup", speedup);
    w.field_f64("sample_ipc_err_max", err_max);
    w.field_f64("sample_ipc_err_mean", err_mean);
    w.key("workloads");
    w.begin_array();
    for e in entries {
        w.begin_object();
        w.field_str("name", &e.name);
        w.field_u64("total_insts", e.estimate.total_insts);
        w.field_u64("ff_insts", e.estimate.ff_insts);
        w.field_f64("full_ipc", e.full_ipc);
        w.field_f64("est_ipc", e.est_ipc);
        w.field_f64("ipc_err", e.ipc_err());
        w.field_f64("full_wall_s", e.full_wall_s);
        w.field_f64("sampled_wall_s", e.sampled_wall_s);
        w.field_f64("speedup", e.speedup());
        w.key("samples");
        w.begin_array();
        for p in &e.estimate.points {
            w.begin_object();
            w.field_u64("start_inst", p.start_inst);
            w.field_u64("insts", p.insts);
            w.field_u64("cycles", p.cycles);
            w.field_f64("ipc", p.ipc());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::asm::Assembler;
    use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
    use riscy_isa::reg::Gpr;
    use riscy_ooo::config::mem_riscyoo_b;

    /// A steady-state loop long enough to place several samples.
    fn steady_prog(iters: i64) -> Program {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::s(1), iters);
        a.li(Gpr::s(2), 0);
        a.label("loop");
        a.addi(Gpr::s(2), Gpr::s(2), 3);
        a.addi(Gpr::s(1), Gpr::s(1), -1);
        a.bnez(Gpr::s(1), "loop");
        a.li(Gpr::t(6), MMIO_EXIT as i64);
        a.li(Gpr::t(5), 1);
        a.sd(Gpr::t(5), 0, Gpr::t(6));
        a.label("hang");
        a.j("hang");
        a.assemble()
    }

    #[test]
    fn functional_scout_sees_the_whole_loop() {
        let prog = steady_prog(1_000);
        let p = functional_profile(
            riscy_ooo::config::CoreConfig::riscyoo_t_plus(),
            mem_riscyoo_b(),
            &prog,
            1_000_000,
        );
        // 3 insts per iteration plus prologue/exit; no ROI markers.
        assert!(p.total_insts > 3_000 && p.total_insts < 3_100, "{p:?}");
        assert!(p.roi.is_none());
        assert_eq!(p.sample_window(), (0, p.total_insts));
    }

    #[test]
    fn sampled_estimate_tracks_the_full_run() {
        let cfg = riscy_ooo::config::CoreConfig::riscyoo_t_plus();
        let mem = mem_riscyoo_b();
        let prog = steady_prog(4_000);
        let plan = SamplePlan {
            samples: 4,
            warmup_insts: 500,
            interval_insts: 1_000,
            max_cycles_per_sample: 100_000,
        };
        let cmp = compare_sampled(cfg, mem, "steady", &prog, 2_000_000, &plan);
        assert!(!cmp.estimate.points.is_empty());
        assert!(cmp.full_ipc > 0.0);
        // A steady loop has one phase: the estimate should be close. The
        // exact accuracy pin is the repo benchmark's `bench.sample_ipc_err`;
        // this debug-build unit test allows a loose 10%.
        assert!(
            cmp.ipc_err() < 0.10,
            "est {} vs full {}",
            cmp.est_ipc,
            cmp.full_ipc
        );
    }
}
