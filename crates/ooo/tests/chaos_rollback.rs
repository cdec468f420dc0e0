//! Lost arbitrations against the golden interpreter: a chaos `rule_abort`
//! runs a rule's body and then rolls back everything it wrote, as if the
//! rule had lost its arbitration for the cycle. The design must treat that
//! as an ordinary stall.
//!
//! The ALU pipes are where this bites: `aluExec` hands its result to
//! `aluWb` through a one-entry latch, which `aluWb` empties earlier in the
//! same cycle — unless `aluWb` was aborted, and then `aluExec` must wait
//! instead of overwriting the latch. With lock-step cosim on, a dropped
//! result shows up as a mismatch or a deadlock; the run must instead reach
//! the golden interpreter's exit code under both schedulers. A mispredicted
//! branch resolved in an aborted `aluExec` also rolls back the fetch-queue
//! clears and the rename and speculation restores, which is the kernel's
//! rollback of collection cells under real traffic.
//!
//! The memory-facing rules reach the caches and TLBs only through their
//! core's boundary cells, so an aborted one puts back the response it
//! popped and withdraws the request it queued.

use cmd_core::chaos::{FaultEngine, FaultKind, FaultPlan};
use cmd_core::sched::SchedulerMode;
use riscy_isa::interp::Machine;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_ooo::soc::SocSim;
use riscy_workloads::spec::{self, Scale, Workload};

/// Runs `w` with cosim under `rule_abort(pattern, 0.05)` in both scheduler
/// modes; each run must reach `want` and abort at least one rule whose
/// name starts with `site`.
fn survives(w: &Workload, want: Option<u64>, pattern: &str, site: &str) {
    for mode in [SchedulerMode::Reference, SchedulerMode::Fast] {
        let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
        sim.set_scheduler(mode);
        sim.soc_mut().enable_cosim(&w.program);
        let engine = FaultEngine::new(FaultPlan::new(1).rule_abort(pattern, 0.05));
        sim.attach_chaos(&engine);
        sim.run_to_completion(w.max_cycles * 4)
            .unwrap_or_else(|e| panic!("{pattern} {mode:?}: {e}"));
        assert_eq!(sim.exit_codes(), vec![want], "{pattern} {mode:?}");
        let aborted = engine
            .log()
            .iter()
            .filter(|r| r.kind == FaultKind::RuleAbort && r.site.starts_with(site))
            .count();
        assert!(
            aborted > 0,
            "{pattern} {mode:?}: no {site} abort was injected"
        );
    }
}

/// mcf and the exit code the golden interpreter reaches on it.
fn mcf() -> (Workload, Option<u64>) {
    let w = spec::mcf(Scale::Test);
    let mut golden = Machine::with_program(1, &w.program);
    golden
        .run(w.max_cycles * 8)
        .expect("the interpreter completes");
    let want = golden.hart(0).halted;
    assert!(want.is_some());
    (w, want)
}

#[test]
fn alu_rules_survive_lost_arbitrations_under_cosim() {
    let (w, want) = mcf();
    survives(&w, want, "c0.alu*", "c0.aluWb");
}

/// One test per memory-facing rule, so that they run in parallel.
macro_rules! memory_rules {
    ($($test:ident: $rule:literal,)*) => {$(
        #[test]
        fn $test() {
            let (w, want) = mcf();
            survives(&w, want, $rule, $rule);
        }
    )*};
}

memory_rules! {
    resp_ld_survives_lost_arbitrations_under_cosim: "c0.respLd",
    resp_st_survives_lost_arbitrations_under_cosim: "c0.respSt",
    fetch_resp_survives_lost_arbitrations_under_cosim: "c0.fetchResp",
    cache_evict_survives_lost_arbitrations_under_cosim: "c0.cacheEvict",
    issue_ld_survives_lost_arbitrations_under_cosim: "c0.issueLd",
    sb_issue_survives_lost_arbitrations_under_cosim: "c0.sbIssue",
    deq_st_survives_lost_arbitrations_under_cosim: "c0.deqSt",
    update_lsq_survives_lost_arbitrations_under_cosim: "c0.updateLsq",
    fetch_survives_lost_arbitrations_under_cosim: "c0.fetch",
}
