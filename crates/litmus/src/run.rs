//! Runs a compiled litmus test on the real multi-core [`SocSim`] and
//! extracts the observed outcome.
//!
//! A run is fully described by a [`RunSpec`]: memory model, core count,
//! scheduler mode, chaos plan, the `evict_kill` verification backdoor, and
//! a cycle budget. The same spec always reproduces the same outcome —
//! chaos decisions are stateless hashes of the plan seed, so a violation's
//! spec *is* its reproducer.
//!
//! Chaos plans built by [`chaos_plan_for`] stick to perturbations that are
//! *semantics-preserving*: `msg_delay` (queues stay FIFO — a delayed head
//! blocks younger entries, so protocol order is never violated),
//! `msg_dup` (receivers drop duplicate responses), and low-rate
//! `guard_stall`s on core rules. Message *drops* and bit flips are
//! deliberately excluded — those wedge the protocol and would turn every
//! campaign into a deadlock hunt.

use cmd_core::chaos::{FaultEngine, FaultPlan};
use cmd_core::rng::SplitMix64;
use cmd_core::sched::SchedulerMode;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::SocSim;

use crate::compile::{compile, loc_addr, unpack_obs};
use crate::model::Outcome;
use crate::test::LitmusTest;

/// Everything needed to reproduce one litmus run bit-for-bit.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Memory consistency model under test.
    pub model: MemModel,
    /// Cores in the SoC (must be ≥ the test's thread count).
    pub cores: usize,
    /// Scheduler mode (both must agree; [`SchedulerMode::Fast`] default).
    pub sched: SchedulerMode,
    /// Chaos plan (empty plan = undisturbed run).
    pub chaos: FaultPlan,
    /// The TSO `cacheEvict` load-kill repair. `false` injects the
    /// deliberate ordering bug the harness must catch (see
    /// [`riscy_ooo::config::CoreConfig::evict_kill`]).
    pub evict_kill: bool,
    /// Cycle budget before the run is declared hung.
    pub max_cycles: u64,
}

impl RunSpec {
    /// A default spec: fast scheduler, no chaos, repair on.
    #[must_use]
    pub fn new(model: MemModel, cores: usize) -> Self {
        RunSpec {
            model,
            cores,
            sched: SchedulerMode::Fast,
            chaos: FaultPlan::new(0),
            evict_kill: true,
            max_cycles: 200_000,
        }
    }

    /// One-line human-readable form (bundled into repro files).
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "model={:?} cores={} sched={:?} evict_kill={} max_cycles={} chaos={}",
            self.model,
            self.cores,
            self.sched,
            self.evict_kill,
            self.max_cycles,
            self.chaos.to_repro_string(),
        )
    }
}

/// Outcome of one litmus run.
#[derive(Debug, Clone)]
pub enum RunResult {
    /// All harts exited and memory quiesced.
    Completed {
        /// The observed outcome.
        outcome: Outcome,
        /// Cycles to completion.
        cycles: u64,
    },
    /// The run exceeded its budget, deadlocked, or never drained.
    Hung {
        /// Human-readable failure description.
        reason: String,
        /// The scheduler watchdog's wait-graph at the point of failure.
        wait_graph: String,
    },
}

impl RunResult {
    /// The completed outcome, if any.
    #[must_use]
    pub fn outcome(&self) -> Option<&Outcome> {
        match self {
            RunResult::Completed { outcome, .. } => Some(outcome),
            RunResult::Hung { .. } => None,
        }
    }
}

/// Traces captured from an instrumented run, for failure bundles.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Konata pipeline trace.
    pub konata: String,
    /// Chrome `trace.json` with per-instruction spans.
    pub chrome: String,
    /// `stats_json` snapshot (includes per-site chaos counts).
    pub stats: String,
}

/// Runs `test` under `spec` and classifies the result.
#[must_use]
pub fn run_litmus(test: &LitmusTest, spec: &RunSpec) -> RunResult {
    run_inner(test, spec, false).0
}

/// Like [`run_litmus`], with pipeline/Chrome tracing enabled so a failure
/// can be bundled. Tracing perturbs nothing: the scheduler and chaos
/// decisions are identical with and without it.
#[must_use]
pub fn run_litmus_traced(test: &LitmusTest, spec: &RunSpec) -> (RunResult, TraceBundle) {
    let (res, traces) = run_inner(test, spec, true);
    (res, traces.expect("tracing was enabled"))
}

/// Extra cycles granted after the last hart exits for stores still in
/// flight (LSQ/SB/mesi traffic) to drain before memory is inspected.
const DRAIN_BUDGET: u64 = 50_000;

fn run_inner(test: &LitmusTest, spec: &RunSpec, traced: bool) -> (RunResult, Option<TraceBundle>) {
    assert!(
        spec.cores >= test.threads.len(),
        "{} threads need at least that many cores (got {})",
        test.threads.len(),
        spec.cores
    );
    let program = compile(test);
    let mut cfg = CoreConfig::multicore(spec.model);
    cfg.evict_kill = spec.evict_kill;
    let mut sim = SocSim::new(cfg, mem_riscyoo_b(), spec.cores, &program);
    sim.set_scheduler(spec.sched);
    if !spec.chaos.is_empty() {
        let engine = FaultEngine::new(spec.chaos.clone());
        sim.attach_chaos(&engine);
    }
    if traced {
        sim.enable_pipe_trace();
        sim.enable_chrome_trace();
    }

    let res = match sim.run_to_completion(spec.max_cycles) {
        Ok(cycles) => {
            if sim.drain_memory(DRAIN_BUDGET) {
                let outcome = extract_outcome(&sim, test);
                RunResult::Completed { outcome, cycles }
            } else {
                RunResult::Hung {
                    reason: "post-exit memory drain did not quiesce".into(),
                    wait_graph: sim.wait_graph().to_string(),
                }
            }
        }
        Err(e) => RunResult::Hung {
            reason: e.to_string(),
            wait_graph: sim.wait_graph().to_string(),
        },
    };

    let traces = sim.chrome_trace_json().map(|chrome| TraceBundle {
        konata: sim.pipe_trace(),
        chrome,
        stats: sim.stats_json(),
    });
    (res, traces)
}

fn extract_outcome(sim: &SocSim, test: &LitmusTest) -> Outcome {
    let codes = sim.exit_codes();
    let obs = (0..test.threads.len())
        .map(|t| {
            let code = codes[t].expect("hart exited (run_to_completion returned Ok)");
            unpack_obs(code, test.num_obs(t))
        })
        .collect();
    let finals = (0..test.num_locs() as u8)
        .map(|l| sim.soc().mem.peek_coherent(loc_addr(l), 8) as u8)
        .collect();
    Outcome { obs, finals }
}

/// Builds a seeded chaos plan for litmus campaigns.
///
/// The plan perturbs timing on the L1↔L2 links (`msg_delay` with seeded
/// extra latency, `msg_dup` on requests and grants) and stalls a rotating
/// subset of per-core LSQ/SB rules at low rates — enough to push runs into
/// rare interleavings without wedging the protocol.
#[must_use]
pub fn chaos_plan_for(seed: u64, cores: usize) -> FaultPlan {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xc8a5_11f5_11f5_c8a5);
    // Request delays are the load-bearing perturbation: a load miss whose
    // upward request is held back samples memory *later*, after other
    // cores' store drains — grants/fills delayed downward only deliver
    // staler data, which every model already allows. The delay range must
    // comfortably exceed a two-store drain sequence (~60–100 cycles).
    let mut plan = FaultPlan::new(seed)
        .msg_delay(
            "mem.c2p_req",
            0.05 + 0.25 * frac(&mut rng),
            10 + rng.below(150),
        )
        .msg_delay("mem.p2c", 0.02 + 0.10 * frac(&mut rng), 2 + rng.below(40));
    if rng.chance(0.5) {
        plan = plan.msg_delay("mem.c2p_msg", 0.05 * frac(&mut rng), 1 + rng.below(16));
    }
    if rng.chance(0.5) {
        plan = plan.msg_dup("mem.c2p_req", 0.10 * frac(&mut rng));
    }
    if rng.chance(0.3) {
        plan = plan.msg_dup("mem.p2c", 0.05 * frac(&mut rng));
    }
    for c in 0..cores {
        if rng.chance(0.4) {
            let rule = *rng.pick(&["issueLd", "deqSt", "sbIssue", "respLd"]);
            plan = plan.guard_stall(format!("c{c}.{rule}"), 0.002 + 0.02 * frac(&mut rng));
        }
    }
    plan
}

/// Builds a seeded chaos plan specialised for hunting *ordering* bugs.
///
/// Unlike [`chaos_plan_for`]'s broad mix, this family carries exactly the
/// two perturbations that empirically matter for load-sampling inversions,
/// with ranges centred on a measured sweet spot:
///
/// * a long `mem.c2p_req` head delay (~100–140 cycles at ~20%) holds a
///   load's upward request at the L1 long enough for an L1 MSHR retry to
///   *reorder* two loads' requests at the L2 (the L1 serves its request
///   room per-line, so a re-requested older load re-enters the global
///   request order behind a younger one), and
/// * a moderate `mem.p2c` delay (~30–70 cycles at ~12–27%) bunches a grant
///   with the invalidation chasing it, so the granted line dies before the
///   waiting load samples it and the load must re-request — sampling
///   *after* a remote store drain it should have been ordered before.
///
/// With the TSO `cacheEvict` load kill disabled
/// ([`RunSpec::evict_kill`] = false) this yields forbidden MP outcomes at
/// roughly a 0.5–1% rate per seed — high enough for a bounded seed scan to
/// find one deterministically — while producing no protocol hangs, since
/// FIFO delays are semantics-preserving.
#[must_use]
pub fn bug_hunt_plan(seed: u64) -> FaultPlan {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x06b9_4a55);
    let r1 = 0.18 + 0.15 * frac(&mut rng);
    let d1 = 100 + rng.below(40);
    let r2 = 0.12 + 0.15 * frac(&mut rng);
    let d2 = 30 + rng.below(40);
    FaultPlan::new(seed)
        .msg_delay("mem.c2p_req", r1, d1)
        .msg_delay("mem.p2c", r2, d2)
}

fn frac(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plans_are_deterministic_and_replayable() {
        for seed in 0..50 {
            let a = chaos_plan_for(seed, 4);
            let b = chaos_plan_for(seed, 4);
            assert_eq!(a.to_repro_string(), b.to_repro_string());
            let reparsed = FaultPlan::parse(&a.to_repro_string()).unwrap();
            assert_eq!(reparsed.to_repro_string(), a.to_repro_string());
        }
    }

    #[test]
    fn spec_describe_embeds_the_chaos_repro_line() {
        let mut spec = RunSpec::new(MemModel::Tso, 2);
        spec.chaos = FaultPlan::new(7).msg_delay("mem.p2c", 0.5, 3);
        let d = spec.describe();
        assert!(d.contains("seed=7;msg_delay:mem.p2c:0.5:3"), "{d}");
    }
}
