//! SoC-level scheduler equivalence (see `docs/SCHEDULING.md`): a full
//! RiscyOO run under [`SchedulerMode::Fast`] must be observably identical to
//! the one-rule-at-a-time reference oracle — same cycle count, same
//! [`CoreStats`], same exit codes, same scheduler counters, same trace event
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
//! `crates/core/tests/sched_equivalence.rs`, not here. Traced runs
//! re-evaluate every rule every cycle (exact stall reasons); the untraced
//! tests below exercise sleeping and the loop's unobserved instantiation.

use std::cell::RefCell;
use std::rc::Rc;

use cmd_core::chaos::{FaultEngine, FaultPlan, FaultRecord};
use cmd_core::rng::SplitMix64;
use cmd_core::sched::SchedulerMode;
use cmd_core::trace::{Tracer, VecSink};
use riscy_isa::asm::{Assembler, Program};
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
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
    counters: Vec<(String, u64)>,
    trace: Vec<String>,
    faults: Vec<FaultRecord>,
}

fn run_soc(
    prog: &Program,
    num_cores: usize,
    mode: SchedulerMode,
    chaos_seed: Option<u64>,
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
    let engine = chaos_seed.map(|seed| {
        let plan = FaultPlan::new(seed)
            .guard_stall("c0.issue*", 0.002)
            .rule_abort("c0.alu*", 0.001)
            .bit_flip("c0.fetch_pc", 0.0002)
            .msg_drop("mem.p2c", 0.005)
            .rule_abort("c0.resp*", 0.001)
            .rule_abort("c0.fetchResp", 0.001)
            .rule_abort("c0.updateLsq", 0.001);
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
        exited: sim.soc().devices.exited.clone(),
        counters: sim.counters().snapshot(),
        trace,
        faults: engine.map_or_else(Vec::new, |e| e.log()),
    }
}

fn assert_equivalent(prog: &Program, num_cores: usize, chaos_seed: Option<u64>, traced: bool) {
    let reference = run_soc(
        prog,
        num_cores,
        SchedulerMode::Reference,
        chaos_seed,
        traced,
    );
    let fast = run_soc(prog, num_cores, SchedulerMode::Fast, chaos_seed, traced);
    assert_eq!(fast.result, reference.result, "run outcome diverged");
    assert_eq!(fast.cycles, reference.cycles, "cycle count diverged");
    assert_eq!(fast.stats, reference.stats, "CoreStats diverged");
    assert_eq!(fast.exited, reference.exited, "exit codes diverged");
    assert_eq!(fast.faults, reference.faults, "chaos fault log diverged");
    assert_eq!(fast.counters, reference.counters, "counters diverged");
    assert_eq!(fast.trace, reference.trace, "trace event stream diverged");
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
        assert_equivalent(&busy_prog(60), 1, Some(seed), true);
    }
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
        assert_equivalent(&busy_prog(60), 1, Some(seed), false);
    }
}

/// `run_to_completion` jumps over stretches in which every core rule
/// sleeps on the memory system; a plain `cycle()` loop steps through them.
/// Both must end in the same place: the same stats JSON, the same
/// scheduling report (the per-rule counts the `kernel_fingerprint` goldens
/// hash) and the same snapshot bytes, kernel counters and watchdog state
/// included.
#[test]
fn jumping_the_clock_matches_stepping_it() {
    use riscy_workloads::parsec;
    use riscy_workloads::spec::{self, Scale};

    for (w, cfg, cores) in [
        (spec::gcc(Scale::Test), CoreConfig::riscyoo_t_plus(), 1),
        (spec::mcf(Scale::Test), CoreConfig::riscyoo_t_plus(), 1),
        (
            parsec::blackscholes(Scale::Test, 2),
            CoreConfig::multicore(MemModel::Tso),
            2,
        ),
    ] {
        let build = || SocSim::new(cfg, mem_riscyoo_b(), cores, &w.program);
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
