//! Causal-profiler integration tests (see docs/OBSERVABILITY.md):
//!
//! * enabling the profiler (host-time attribution + causal log + TMA)
//!   never changes cycle counts, architectural statistics, or scheduler
//!   rule-table totals — on one core and on a 2-core SoC, under both schedulers;
//! * a tracer leaves every rule's evaluation and sleep counts alone;
//! * the top-down buckets partition the sampled cycles exactly;
//! * the machine-readable profile carries the documented keys.

use std::cell::RefCell;
use std::rc::Rc;

use cmd_core::sched::SchedulerMode;
use cmd_core::sim::RuleStats;
use cmd_core::trace::{TraceEvent, TraceSink, Tracer};
use riscy_isa::asm::Assembler;
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::SocSim;

/// The load/store/branch-heavy program of the tracing identity tests:
/// touches the D$, the store buffer, and the branch predictor so most of
/// the counters move.
fn busy_prog(iters: i64) -> riscy_isa::asm::Program {
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

/// An AMO-counter loop with a per-hart exit, terminating on any number of
/// cores.
fn multicore_prog(iters: i64) -> riscy_isa::asm::Program {
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

/// Everything observable a run produces that profiling must not change.
type Fingerprint = (u64, Vec<riscy_ooo::soc::CoreStats>, RuleStats);

fn run_fingerprint(
    cfg: CoreConfig,
    num_cores: usize,
    prog: &riscy_isa::asm::Program,
    mode: SchedulerMode,
    profiled: bool,
) -> Fingerprint {
    let mut sim = SocSim::new(cfg, mem_riscyoo_b(), num_cores, prog);
    sim.set_scheduler(mode);
    if profiled {
        sim.enable_profiling();
        sim.enable_chrome_trace();
    }
    let cycles = sim.run_to_completion(3_000_000).unwrap();
    let stats: Vec<_> = sim.soc().cores.iter().map(|c| c.stats).collect();
    (cycles, stats, sim.rule_totals())
}

#[test]
fn profiling_is_identity_preserving_single_core() {
    let prog = busy_prog(300);
    for mode in [SchedulerMode::Fast, SchedulerMode::Reference] {
        let plain = run_fingerprint(CoreConfig::riscyoo_t_plus(), 1, &prog, mode, false);
        let prof = run_fingerprint(CoreConfig::riscyoo_t_plus(), 1, &prog, mode, true);
        assert_eq!(plain.0, prof.0, "{mode:?}: profiling changed cycle count");
        assert_eq!(plain.1, prof.1, "{mode:?}: profiling changed a statistic");
        assert_eq!(plain.2, prof.2, "{mode:?}: profiling changed a counter");
    }
}

#[test]
fn profiling_is_identity_preserving_multicore() {
    let prog = multicore_prog(64);
    let cfg = CoreConfig::multicore(MemModel::Tso);
    for mode in [SchedulerMode::Fast, SchedulerMode::Reference] {
        let plain = run_fingerprint(cfg, 2, &prog, mode, false);
        let prof = run_fingerprint(cfg, 2, &prog, mode, true);
        assert_eq!(plain.0, prof.0, "{mode:?}: profiling changed cycle count");
        assert_eq!(plain.1, prof.1, "{mode:?}: profiling changed a statistic");
        assert_eq!(plain.2, prof.2, "{mode:?}: profiling changed a counter");
    }
}

/// Each rule's `(name, evals, skipped)` in a profile JSON.
fn evals_and_skips(json: &str) -> Vec<(String, u64, u64)> {
    let field = |rule: &str, key: &str| -> u64 {
        let key = format!("\"{key}\":");
        let at = rule.find(&key).expect("a profiled rule field") + key.len();
        let digits = rule[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse().ok()).expect("a count")
    };
    json.split("{\"name\":")
        .skip(1)
        .map(|rule| {
            let name = rule.split('"').nth(1).expect("a rule name");
            (
                name.to_string(),
                field(rule, "evals"),
                field(rule, "skipped"),
            )
        })
        .collect()
}

/// A trace sink that only counts.
#[derive(Default)]
struct Count(u64);

impl TraceSink for Count {
    fn event(&mut self, _: u64, _: &TraceEvent<'_>) {
        self.0 += 1;
    }
}

/// A tracer changes what the kernel reports, never what it evaluates: a
/// profiled run with one attached evaluates and skips every rule exactly as
/// often as a profiled run without, and its rules do sleep.
#[test]
fn a_tracer_leaves_evaluations_and_skips_alone() {
    let prog = busy_prog(300);
    let run = |traced: bool| {
        let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
        sim.enable_profiling();
        let sink = Rc::new(RefCell::new(Count::default()));
        if traced {
            sim.set_tracer(Tracer::new(sink.clone()));
        }
        sim.run_to_completion(3_000_000).unwrap();
        assert_eq!(traced, sink.borrow().0 > 0);
        evals_and_skips(&sim.profile_json())
    };
    let plain = run(false);
    assert!(plain.iter().any(|r| r.2 > 0), "no rule slept: {plain:?}");
    assert_eq!(run(true), plain);
}

#[test]
fn tma_buckets_partition_the_sampled_cycles() {
    let prog = busy_prog(200);
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.enable_profiling();
    let cycles = sim.run_to_completion(2_000_000).unwrap();
    let buckets = sim.tma_buckets();
    assert_eq!(buckets.len(), 1);
    let b = buckets[0].expect("profiling was enabled");
    // The substrate samples once per cycle, so the five buckets partition
    // the run's cycles exactly.
    assert_eq!(b.total(), cycles, "buckets must sum to total core cycles");
    assert_eq!(b.total(), sim.soc().cores[0].stats.occ_cycles);
    // The busy loop commits thousands of instructions: retiring cycles and
    // at least one stalled class must both be present.
    assert!(b.retiring > 0, "no retiring cycles: {b:?}");
    assert!(
        b.total() > b.retiring,
        "IPC 1.0+ every cycle is implausible"
    );
    let table = sim.tma_table();
    assert!(table.contains("core 0:"), "{table}");
    assert!(table.contains("retiring"), "{table}");
}

#[test]
fn tma_is_off_without_profiling() {
    let prog = busy_prog(50);
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.run_to_completion(2_000_000).unwrap();
    assert_eq!(sim.tma_buckets(), vec![None]);
    assert_eq!(sim.tma_table(), "");
}

#[test]
fn profile_json_has_documented_keys() {
    let prog = multicore_prog(32);
    let mut sim = SocSim::new(
        CoreConfig::multicore(MemModel::Tso),
        mem_riscyoo_b(),
        2,
        &prog,
    );
    sim.enable_profiling();
    sim.run_to_completion(3_000_000).unwrap();
    let json = sim.profile_json();
    for key in [
        "\"schema_version\":1",
        "\"sim\":{",
        "\"rules\":[",
        "\"body_ns\":",
        "\"total_ns\":",
        "\"causal_edges\":",
        "\"tma\":[",
        "\"retiring\":",
        "\"frontend_bound\":",
        "\"bad_speculation\":",
        "\"backend_core\":",
        "\"backend_memory\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // One TMA object per core.
    assert_eq!(json.matches("\"core\":").count(), 2, "{json}");
    let opens = json.matches('{').count() + json.matches('[').count();
    let closes = json.matches('}').count() + json.matches(']').count();
    assert_eq!(opens, closes, "{json}");
}

#[test]
fn stats_json_carries_schema_version() {
    let prog = busy_prog(50);
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.run_to_completion(2_000_000).unwrap();
    assert!(
        sim.stats_json().starts_with("{\"schema_version\":1,"),
        "{}",
        sim.stats_json()
    );
}
