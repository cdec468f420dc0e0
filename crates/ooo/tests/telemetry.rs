//! Windowed-telemetry integration tests (see docs/OBSERVABILITY.md
//! §telemetry):
//!
//! * enabling telemetry never changes cycle counts, architectural
//!   statistics, or rule-table totals — under both scheduler modes;
//! * the sampled windows actually track the run (committed instructions
//!   accumulate across windows, the ring stays bounded);
//! * a snapshot taken mid-window round-trips the in-flight telemetry
//!   state: continuing the restored SoC produces byte-identical
//!   `telemetry_json` output to the uninterrupted run;
//! * telemetry composes with TMA profiling (the tap contributes the
//!   per-core bucket columns).

use cmd_core::sched::SchedulerMode;
use cmd_core::sim::RuleStats;
use riscy_isa::asm::Assembler;
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_ooo::soc::SocSim;

/// The load/store/branch-heavy loop of the tracing identity tests.
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

/// Everything observable a run produces that telemetry must not change.
type Fingerprint = (u64, Vec<riscy_ooo::soc::CoreStats>, RuleStats);

fn run_fingerprint(
    prog: &riscy_isa::asm::Program,
    mode: SchedulerMode,
    telemetry: bool,
) -> Fingerprint {
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, prog);
    sim.set_scheduler(mode);
    if telemetry {
        sim.enable_telemetry(500, 64);
    }
    let cycles = sim.run_to_completion(3_000_000).unwrap();
    let stats: Vec<_> = sim.soc().cores.iter().map(|c| c.stats).collect();
    (cycles, stats, sim.rule_totals())
}

#[test]
fn telemetry_is_identity_preserving_under_all_scheduler_modes() {
    let prog = busy_prog(300);
    for mode in [SchedulerMode::Reference, SchedulerMode::Fast] {
        let plain = run_fingerprint(&prog, mode, false);
        let tele = run_fingerprint(&prog, mode, true);
        assert_eq!(plain.0, tele.0, "{mode:?}: telemetry changed cycle count");
        assert_eq!(plain.1, tele.1, "{mode:?}: telemetry changed a statistic");
        assert_eq!(plain.2, tele.2, "{mode:?}: telemetry changed a counter");
    }
}

#[test]
fn windows_track_the_run_and_the_ring_stays_bounded() {
    let prog = busy_prog(400);
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.enable_telemetry(200, 4);
    sim.run_to_completion(3_000_000).unwrap();
    let tel = sim.telemetry().expect("telemetry was enabled");
    assert!(tel.windows_taken() > 4, "the run spans several windows");
    assert!(tel.windows().count() <= 4, "the ring must stay bounded");
    assert!(tel.windows_dropped() > 0);
    // The SoC tap contributes per-core columns; the kernel contributes
    // its rule-table totals.
    let cols = tel.columns();
    assert!(cols.iter().any(|c| c == "c0.committed"), "{cols:?}");
    assert!(cols.iter().any(|c| c == "sim.rules_fired"), "{cols:?}");
    // Committed-instruction deltas are non-negative and sum to less than
    // the total (the ring only keeps the tail of the run).
    let committed_idx = cols.iter().position(|c| c == "c0.committed").unwrap();
    let ring_committed: u64 = tel.windows().map(|w| w.deltas[committed_idx]).sum();
    assert!(ring_committed > 0);
    assert!(ring_committed <= sim.soc().cores[0].stats.committed);
    let json = sim.telemetry_json();
    assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
    assert!(json.contains("\"window_cycles\":200"), "{json}");
}

#[test]
fn telemetry_json_is_empty_when_disabled() {
    let prog = busy_prog(20);
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.run_to_completion(2_000_000).unwrap();
    assert!(sim.telemetry().is_none());
    let json = sim.telemetry_json();
    assert!(json.contains("\"windows\":[]"), "{json}");
}

#[test]
fn snapshot_roundtrip_preserves_in_flight_windows() {
    let prog = busy_prog(400);
    // The uninterrupted reference run.
    let mut full = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    full.enable_telemetry(300, 8);
    full.run_to_completion(3_000_000).unwrap();
    let want = full.telemetry_json();

    // Save mid-run — deliberately between window boundaries — and resume
    // in a fresh SoC.
    let mut first = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    first.enable_telemetry(300, 8);
    assert!(matches!(
        first.run_to_completion(1_150),
        Err(riscy_ooo::soc::RunError::Budget { .. })
    ));
    let bytes = first.save_snapshot().unwrap();

    let mut second = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    second.enable_telemetry(300, 8);
    second.restore_snapshot(&bytes).unwrap();
    second.run_to_completion(3_000_000).unwrap();
    assert_eq!(
        second.telemetry_json(),
        want,
        "telemetry diverged across a mid-window snapshot boundary"
    );
}

#[test]
fn restore_refuses_mismatched_telemetry_enablement() {
    let prog = busy_prog(100);
    let mut with_tel = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    with_tel.enable_telemetry(300, 8);
    let _ = with_tel.run_to_completion(1_000);
    let bytes = with_tel.save_snapshot().unwrap();

    // Snapshot carries telemetry, restore side has none.
    let mut plain = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    assert!(plain.restore_snapshot(&bytes).is_err());

    // And the mirror image.
    let mut plain2 = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    let _ = plain2.run_to_completion(1_000);
    let bytes2 = plain2.save_snapshot().unwrap();
    let mut with_tel2 = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    with_tel2.enable_telemetry(300, 8);
    assert!(with_tel2.restore_snapshot(&bytes2).is_err());
}

#[test]
fn telemetry_composes_with_tma_profiling() {
    let prog = busy_prog(200);
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.enable_profiling();
    sim.enable_telemetry(500, 16);
    sim.run_to_completion(3_000_000).unwrap();
    let tel = sim.telemetry().expect("telemetry was enabled");
    let cols = tel.columns();
    assert!(cols.iter().any(|c| c == "c0.tma.retiring"), "{cols:?}");
    assert!(
        cols.iter().any(|c| c == "c0.tma.backend_memory"),
        "{cols:?}"
    );
}
