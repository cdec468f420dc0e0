//! SoC-level scheduler equivalence (see `docs/SCHEDULING.md`): a full
//! RiscyOO run under [`SchedulerMode::Fast`] must be observably identical to
//! the one-rule-at-a-time reference oracle — same cycle count, same
//! [`CoreStats`], same exit codes, same rule-table totals, same trace event
//! stream — on single-core and 2-core SoCs, with and without an active chaos
//! [`FaultPlan`].
//!
//! Every core rule sleeps on the cells its stalling path read
//! (`Wakeup::Inferred`), its core's boundary cells to the memory system
//! included — see `MemPort` in `soc.rs` — and `run_to_completion` jumps
//! over the cycles in which all of them sleep. A boundary cell the
//! substrate fails to update or a wrong horizon shows up here as a cycle
//! divergence, so these tests pin down the sleep/wake layer on a
//! design with tens of rules per core. The SoC registers no
//! conflict-matrix module (its modules order through EHR ports), so the
//! conflict probe is covered by the kernel-level soups in
//! `crates/core/tests/sched_equivalence.rs`, not here. Rules sleep in
//! traced runs too, so comparing the trace streams checks every cached
//! stall reason a sleeper reports against the reference's fresh one; the
//! untraced tests below exercise the loop's unobserved instantiation and
//! the clock jump.

use std::cell::RefCell;
use std::rc::Rc;

use cmd_core::chaos::{FaultEngine, FaultPlan, FaultRecord};
use cmd_core::rng::SplitMix64;
use cmd_core::sched::SchedulerMode;
use cmd_core::sim::{RuleStats, SimError};
use cmd_core::trace::{Tracer, VecSink};
use riscy_isa::asm::{Assembler, Program};
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_mem::system::MemConfig;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::{CoreStats, RunError, SocSim};

const BUDGET: u64 = 2_000_000;

/// A load/store/branch-heavy loop: touches the D$, the store buffer, and
/// the branch predictor so most rules fire and most counters move.
fn busy_prog(iters: i64) -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    let buf = (DRAM_BASE + 0x1_0000) as i64;
    a.li(Gpr::s(0), buf);
    a.li(Gpr::s(1), iters);
    a.li(Gpr::s(2), 0);
    a.label("loop");
    a.andi(Gpr::t(0), Gpr::s(1), 63);
    a.slli(Gpr::t(0), Gpr::t(0), 3);
    a.add(Gpr::t(0), Gpr::t(0), Gpr::s(0));
    a.ld(Gpr::t(1), 0, Gpr::t(0));
    a.add(Gpr::s(2), Gpr::s(2), Gpr::t(1));
    a.sd(Gpr::s(1), 0, Gpr::t(0));
    a.addi(Gpr::s(1), Gpr::s(1), -1);
    a.bnez(Gpr::s(1), "loop");
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.li(Gpr::t(5), 7);
    a.sd(Gpr::t(5), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

/// An AMO-counter loop with a per-hart exit, so it terminates on any
/// number of cores while keeping the L2 busy with coherence traffic.
fn multicore_prog(iters: i64) -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    let ctr = (DRAM_BASE + 0x2_0000) as i64;
    a.li(Gpr::t(0), ctr);
    a.li(Gpr::t(1), iters);
    a.label("loop");
    a.li(Gpr::t(2), 1);
    a.amoadd_d(Gpr::ZERO, Gpr::t(2), Gpr::t(0));
    a.addi(Gpr::t(1), Gpr::t(1), -1);
    a.bnez(Gpr::t(1), "loop");
    a.csrr(Gpr::t(3), riscy_isa::csr::addr::MHARTID);
    a.slli(Gpr::t(3), Gpr::t(3), 3);
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.add(Gpr::t(6), Gpr::t(6), Gpr::t(3));
    a.li(Gpr::t(5), 1);
    a.sd(Gpr::t(5), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

/// Everything observable about one SoC run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<u64, RunError>,
    cycles: u64,
    stats: Vec<CoreStats>,
    exited: Vec<Option<u64>>,
    totals: RuleStats,
    trace: Vec<String>,
    faults: Vec<FaultRecord>,
}

/// The chaos plan of the chaos cases: stalls and aborts on core 0's rules,
/// bit flips in its fetch PC and dropped memory responses.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .guard_stall("c0.issue*", 0.002)
        .rule_abort("c0.alu*", 0.001)
        .bit_flip("c0.fetch_pc", 0.0002)
        .msg_drop("mem.p2c", 0.005)
        .rule_abort("c0.resp*", 0.001)
        .rule_abort("c0.fetchResp", 0.001)
        .rule_abort("c0.updateLsq", 0.001)
}

/// The same faults with every abort drawn before the bit flips and
/// dropped messages, which reshuffles those draws.
fn aborts_first_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .guard_stall("c0.issue*", 0.002)
        .rule_abort("c0.alu*", 0.001)
        .rule_abort("c0.resp*", 0.001)
        .rule_abort("c0.fetchResp", 0.001)
        .rule_abort("c0.updateLsq", 0.001)
        .bit_flip("c0.fetch_pc", 0.0002)
        .msg_drop("mem.p2c", 0.005)
}

fn run_soc(
    prog: &Program,
    num_cores: usize,
    mode: SchedulerMode,
    chaos: Option<FaultPlan>,
    traced: bool,
) -> Outcome {
    let cfg = if num_cores > 1 {
        CoreConfig::multicore(MemModel::Tso)
    } else {
        CoreConfig::riscyoo_t_plus()
    };
    let mut sim = SocSim::new(cfg, mem_riscyoo_b(), num_cores, prog);
    sim.set_scheduler(mode);
    let sink = Rc::new(RefCell::new(VecSink::default()));
    if traced {
        sim.set_tracer(Tracer::new(sink.clone()));
    }
    let engine = chaos.map(|plan| {
        let e = FaultEngine::new(plan);
        sim.attach_chaos(&e);
        e
    });
    let result = sim.run_to_completion(BUDGET);
    let trace = sink.borrow().rendered();
    Outcome {
        result,
        cycles: sim.cycles(),
        stats: sim.soc().cores.iter().map(|c| c.stats).collect(),
        exited: sim.exit_codes(),
        totals: sim.rule_totals(),
        trace,
        faults: engine.map_or_else(Vec::new, |e| e.log()),
    }
}

/// Runs `prog` under both schedulers, asserts they agree on everything,
/// and returns the reference run.
fn assert_equivalent(
    prog: &Program,
    num_cores: usize,
    chaos: Option<FaultPlan>,
    traced: bool,
) -> Outcome {
    let reference = run_soc(
        prog,
        num_cores,
        SchedulerMode::Reference,
        chaos.clone(),
        traced,
    );
    let fast = run_soc(prog, num_cores, SchedulerMode::Fast, chaos, traced);
    assert_eq!(fast.result, reference.result, "run outcome diverged");
    assert_eq!(fast.cycles, reference.cycles, "cycle count diverged");
    assert_eq!(fast.stats, reference.stats, "CoreStats diverged");
    assert_eq!(fast.exited, reference.exited, "exit codes diverged");
    assert_eq!(fast.faults, reference.faults, "chaos fault log diverged");
    assert_eq!(fast.totals, reference.totals, "rule-table totals diverged");
    assert_eq!(fast.trace, reference.trace, "trace event stream diverged");
    reference
}

#[test]
fn single_core_soc_matches_reference() {
    assert_equivalent(&busy_prog(80), 1, None, true);
}

#[test]
fn two_core_soc_matches_reference() {
    assert_equivalent(&multicore_prog(16), 2, None, true);
}

#[test]
fn soc_matches_reference_under_chaos() {
    for seed in 0..3 {
        assert_equivalent(&busy_prog(60), 1, Some(chaos_plan(seed)), true);
    }
}

/// Stores its exit code and jumps over 4 KiB of padding: the exit store
/// commits while `fetch` waits on the I-cache misses of the cold code
/// behind it.
fn exit_ahead_of_cold_code() -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.li(Gpr::t(5), 7);
    a.sd(Gpr::t(5), 0, Gpr::t(6));
    a.j("hang");
    for _ in 0..1024 {
        a.nop();
    }
    a.label("hang");
    a.j("hang");
    a.assemble()
}

/// A core exits while its `fetch` sleeps on fetches in flight. The
/// reference's `fetch` reports "core exited" in the exit cycle, after the
/// commit rule stored the code; the fast one must too, so the store has to
/// wake it. It does because the exit code is a cell: were it plain state,
/// the sleeper would report its cached reason and the traces would differ.
#[test]
fn a_core_exits_while_its_fetch_sleeps() {
    let reference = assert_equivalent(&exit_ahead_of_cold_code(), 1, None, true);
    let last = reference.trace.last().expect("a traced run");
    assert!(
        last.ends_with("guard-stalled c0.fetch: core exited"),
        "{last}"
    );
}

/// No tracer attached: the sleep layer is active and the loop runs its
/// unobserved instantiation — the configuration users and the benchmark
/// actually run in.
#[test]
fn untraced_soc_matches_reference() {
    assert_equivalent(&busy_prog(80), 1, None, false);
    assert_equivalent(&multicore_prog(16), 2, None, false);
}

/// Chaos without a tracer: verdict draws must line up per rule per cycle
/// even while rules sleep (Fast keeps sleeping through Stall verdicts).
#[test]
fn untraced_soc_matches_reference_under_chaos() {
    for seed in 0..3 {
        assert_equivalent(&busy_prog(60), 1, Some(chaos_plan(seed)), false);
    }
}

/// With the aborts drawn first, an untraced run deadlocks on a dropped
/// `mem.p2c` message. Both schedulers must report the same deadlock: the
/// same cycle and the same wait graph, in which a sleeping rule an abort
/// hit names its guard's reason again from the next cycle on.
#[test]
fn untraced_soc_deadlocks_alike_under_chaos() {
    let deadlocks = (0..3)
        .filter(|&seed| {
            let reference =
                assert_equivalent(&busy_prog(60), 1, Some(aborts_first_plan(seed)), false);
            matches!(
                reference.result,
                Err(RunError::Sim(SimError::Deadlock { .. }))
            )
        })
        .count();
    assert!(deadlocks > 0, "no chaos run deadlocked");
}

/// T+ with two D TLB miss slots: `updateLsq` stalls on "dtlb miss slots
/// full" behind a hit-under-miss.
fn two_dtlb_miss_slots() -> (CoreConfig, MemConfig) {
    let mut cfg = CoreConfig::riscyoo_t_plus();
    cfg.tlb.l1d_miss_slots = 2;
    (cfg, mem_riscyoo_b())
}

/// T+ with one L1 I MSHR: `fetch` stalls on "icache full" after an I TLB
/// hit.
fn one_icache_mshr() -> (CoreConfig, MemConfig) {
    let mut mem = mem_riscyoo_b();
    mem.l1i.mshrs = 1;
    (CoreConfig::riscyoo_t_plus(), mem)
}

/// The two stalls that decide on a TLB peek, which no default
/// configuration reaches: both schedulers must agree on them, the TLB
/// counters in the stats JSON included.
#[test]
fn tlb_peek_stalls_match_reference() {
    use riscy_workloads::spec::{self, Scale};

    let w = spec::hmmer(Scale::Test);
    for (cfg, mem) in [two_dtlb_miss_slots(), one_icache_mshr()] {
        let run = |mode| {
            let mut sim = SocSim::new(cfg, mem, 1, &w.program);
            sim.set_scheduler(mode);
            let result = sim.run_to_completion(w.max_cycles);
            (result, sim.stats_json(), sim.report())
        };
        assert_eq!(run(SchedulerMode::Fast), run(SchedulerMode::Reference));
    }
}

/// A stalled rule has no effect: a `fetch` stalled on "icache full" or an
/// `updateLsq` stalled on "dtlb miss slots full" leaves its TLB alone, so
/// on such a cycle that TLB's lookup count moves only if the substrate's
/// TLB tick looked it up. The tick touches the I TLB only for a parked I
/// miss, and the D TLB only when an L2 TLB lookup is due (the walker idle
/// and no `l2_ready_at` reached, at the cycle's start) or a D response is
/// delivered, which the stalled `updateLsq` would have consumed.
#[test]
fn a_stalled_rule_leaves_the_tlb_alone() {
    use cmd_core::sim::WaitCause;
    use riscy_workloads::spec::{self, Scale};

    let w = spec::mcf(Scale::Test);
    let (cfg, _) = two_dtlb_miss_slots();
    let (_, mem) = one_icache_mshr();
    let mut sim = SocSim::new(cfg, mem, 1, &w.program);
    sim.set_scheduler(SchedulerMode::Reference);
    let lookups = |sim: &SocSim| {
        let tlb = &sim.soc().cores[0].tlb;
        (
            tlb.itlb.hits + tlb.itlb.misses,
            tlb.dtlb.hits + tlb.dtlb.misses,
        )
    };
    let stalled_on = |sim: &SocSim, rule: &str, reason: &'static str| {
        sim.wait_graph()
            .waits
            .iter()
            .any(|w| w.rule == rule && w.cause == WaitCause::Guard(reason))
    };
    let (mut fetch_checked, mut lsq_checked) = (0, 0);
    for _ in 0..20_000 {
        let now = sim.soc().now();
        let tlb = &sim.soc().cores[0].tlb;
        let (i_quiet, d_quiet) = (!tlb.i_miss_pending(), tlb.next_event(now) > now);
        let (i_before, d_before) = lookups(&sim);
        sim.cycle();
        let (i_after, d_after) = lookups(&sim);
        if i_quiet && stalled_on(&sim, "c0.fetch", "icache full") {
            assert_eq!(i_after, i_before, "cycle {}: I TLB looked up", sim.cycles());
            fetch_checked += 1;
        }
        if d_quiet && stalled_on(&sim, "c0.updateLsq", "dtlb miss slots full") {
            assert_eq!(d_after, d_before, "cycle {}: D TLB looked up", sim.cycles());
            lsq_checked += 1;
        }
    }
    assert!(
        fetch_checked > 0 && lsq_checked > 0,
        "checked {fetch_checked} fetch and {lsq_checked} updateLsq stalls"
    );
}

/// `run_to_completion` jumps over stretches in which every core rule
/// sleeps on the memory system; a plain `cycle()` loop steps through them.
/// Both must end in the same place: the same stats JSON, the same
/// scheduling report (the per-rule counts the `kernel_fingerprint` goldens
/// hash) and the same snapshot bytes, rule statistics and watchdog state
/// included.
#[test]
fn jumping_the_clock_matches_stepping_it() {
    use riscy_workloads::parsec;
    use riscy_workloads::spec::{self, Scale};

    for (w, (cfg, mem), cores) in [
        (spec::gcc(Scale::Test), CoreConfig::riscyoo_t_plus(), 1),
        (spec::mcf(Scale::Test), CoreConfig::riscyoo_t_plus(), 1),
        (
            parsec::blackscholes(Scale::Test, 2),
            CoreConfig::multicore(MemModel::Tso),
            2,
        ),
        // `mdExec` sleeps on its countdown's end, which a jump must not
        // cross: the mul/div-heavy workloads.
        (spec::sjeng(Scale::Test), CoreConfig::riscyoo_t_plus(), 1),
        (
            parsec::swaptions(Scale::Test, 4),
            CoreConfig::multicore(MemModel::Tso),
            4,
        ),
    ]
    .map(|(w, cfg, cores)| (w, (cfg, mem_riscyoo_b()), cores))
    .into_iter()
    .chain([
        // The stalls that decide on a TLB peek: a jump follows a cycle in
        // which no core rule fired, so no TLB miss waits for its busy cell.
        (spec::hmmer(Scale::Test), two_dtlb_miss_slots(), 1),
        (spec::hmmer(Scale::Test), one_icache_mshr(), 1),
    ]) {
        let build = || SocSim::new(cfg, mem, cores, &w.program);
        let mut jumped = build();
        jumped
            .run_to_completion(w.max_cycles)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut stepped = build();
        while !stepped.soc().all_exited() {
            stepped.cycle();
        }
        assert_eq!(jumped.cycles(), stepped.cycles(), "{}", w.name);
        assert_eq!(jumped.stats_json(), stepped.stats_json(), "{}", w.name);
        assert_eq!(jumped.report(), stepped.report(), "{}", w.name);
        let bytes = |sim: &mut SocSim| sim.save_snapshot().expect("no observers");
        assert!(
            bytes(&mut jumped) == bytes(&mut stepped),
            "{}: snapshot bytes differ",
            w.name
        );
    }
}

/// A random loop of loads to a cold and a hot region and stores to the hot
/// one: enough misses to fill the L1 D request room while stores wait to
/// drain, which is where a rule asleep on a full cache must see the
/// requests the other rules queued in the cycle before.
fn random_loop(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut a = Assembler::new(DRAM_BASE);
    a.li(Gpr::s(0), (DRAM_BASE + 0x10_0000) as i64);
    a.li(Gpr::s(1), (DRAM_BASE + 0x8000) as i64);
    a.li(Gpr::s(2), 40);
    a.label("loop");
    for _ in 0..rng.range_usize(4, 16) {
        let t = Gpr::t(rng.below(6) as u8);
        match rng.below(3) {
            0 => a.ld(t, (64 * rng.below(32)) as i32, Gpr::s(0)),
            1 => a.ld(t, (8 * rng.below(8)) as i32, Gpr::s(1)),
            _ => a.sd(Gpr::s(2), (8 * rng.below(64)) as i32, Gpr::s(1)),
        }
    }
    a.addi(Gpr::s(0), Gpr::s(0), -2048);
    a.addi(Gpr::s(2), Gpr::s(2), -1);
    a.bnez(Gpr::s(2), "loop");
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.li(Gpr::t(5), 7);
    a.sd(Gpr::t(5), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

/// A rule asleep on "dcache full" read the request queue the other rules
/// filled and the credit the substrate left: it must wake when the
/// substrate drains the queue even if the tick leaves the credit where it
/// was, under TSO and WMM alike.
#[test]
fn random_memory_loops_match_reference() {
    for seed in 360..380 {
        let prog = random_loop(seed);
        for model in [MemModel::Tso, MemModel::Wmm] {
            let run = |mode| {
                let cfg = CoreConfig::multicore(model);
                let mut sim = SocSim::new(cfg, mem_riscyoo_b(), 1, &prog);
                sim.set_scheduler(mode);
                let result = sim.run_to_completion(BUDGET);
                (result, sim.stats_json(), sim.report())
            };
            assert_eq!(
                run(SchedulerMode::Fast),
                run(SchedulerMode::Reference),
                "seed {seed} {model:?}"
            );
        }
    }
}
