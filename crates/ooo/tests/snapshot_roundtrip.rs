//! Checkpoint round-trip determinism (see `docs/CHECKPOINT.md`): saving a
//! mid-run snapshot and resuming it in a freshly built [`SocSim`] must be
//! observably identical to the uninterrupted run — same cycle count, same
//! [`CoreStats`], same exit codes, same scheduler counters, and (the
//! strongest form) byte-identical final snapshots — under every
//! [`SchedulerMode`]. Malformed snapshots (version skew, truncation, wrong
//! configuration, corrupt bytes) must surface structured [`SnapError`]s,
//! never panics; attached observers (tracer, pipe trace, profiler, chaos)
//! must refuse to snapshot.

use cmd_core::chaos::{FaultEngine, FaultPlan};
use cmd_core::sched::SchedulerMode;
use cmd_core::sim::SimError;
use cmd_core::snap::SnapError;
use riscy_isa::asm::{Assembler, Program};
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::{CoreStats, SocSim};

const BUDGET: u64 = 2_000_000;
/// Cycle at which the mid-run snapshot is taken (inside the main loop:
/// ROB/IQ/LSQ/caches all hold live state).
const SNAP_AT: u64 = 2_000;

/// A load/store/branch-heavy loop (same shape as the scheduler-equivalence
/// suite): touches the D$, the store buffer, and the branch predictor so a
/// mid-run snapshot captures non-trivial state in every module.
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

/// An AMO loop with per-hart exits for the multicore round-trip.
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

fn build(prog: &Program, num_cores: usize, mode: SchedulerMode) -> SocSim {
    let cfg = if num_cores > 1 {
        CoreConfig::multicore(MemModel::Tso)
    } else {
        CoreConfig::riscyoo_t_plus()
    };
    let mut sim = SocSim::new(cfg, mem_riscyoo_b(), num_cores, prog);
    sim.set_scheduler(mode);
    sim
}

/// Everything observable about a finished run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    stats: Vec<CoreStats>,
    exited: Vec<Option<u64>>,
    counters: Vec<(String, u64)>,
    /// The final snapshot: byte-equality here subsumes equality of every
    /// serialized register, cache line, and kernel statistic.
    final_snap: Vec<u8>,
}

fn finish(mut sim: SocSim) -> Outcome {
    sim.run_to_completion(BUDGET).expect("run completes");
    let final_snap = sim.save_snapshot().expect("final snapshot");
    Outcome {
        cycles: sim.cycles(),
        stats: sim.soc().cores.iter().map(|c| c.stats).collect(),
        exited: sim.soc().devices.exited.clone(),
        counters: sim.counters().snapshot(),
        final_snap,
    }
}

/// Runs to `SNAP_AT`, snapshots, and returns (snapshot, uninterrupted
/// outcome); the caller resumes the snapshot in a fresh sim and compares.
fn snap_and_finish(prog: &Program, num_cores: usize, mode: SchedulerMode) -> (Vec<u8>, Outcome) {
    let mut sim = build(prog, num_cores, mode);
    for _ in 0..SNAP_AT {
        sim.cycle();
    }
    assert!(
        !sim.soc().devices.exited.iter().all(Option::is_some),
        "snapshot point must be mid-run; shorten SNAP_AT or lengthen the program"
    );
    let snap = sim.save_snapshot().expect("mid-run snapshot");
    (snap, finish(sim))
}

fn assert_roundtrip(prog: &Program, num_cores: usize, mode: SchedulerMode) {
    let (snap, uninterrupted) = snap_and_finish(prog, num_cores, mode);
    let mut resumed = build(prog, num_cores, mode);
    resumed.restore_snapshot(&snap).expect("restore");
    assert_eq!(
        resumed.cycles(),
        SNAP_AT,
        "{mode:?}: restored cycle counter"
    );
    let resumed = finish(resumed);
    assert_eq!(
        resumed, uninterrupted,
        "{mode:?}: resumed run diverged from the uninterrupted run"
    );
}

#[test]
fn roundtrip_reference() {
    assert_roundtrip(&busy_prog(300), 1, SchedulerMode::Reference);
}

#[test]
fn roundtrip_fast() {
    assert_roundtrip(&busy_prog(300), 1, SchedulerMode::Fast);
}

#[test]
fn roundtrip_two_cores() {
    assert_roundtrip(&multicore_prog(400), 2, SchedulerMode::Fast);
}

/// A snapshot restored under a *different* scheduler mode still produces
/// the observably-identical run: scheduling is observation-invariant, so a
/// checkpoint is portable across modes (the fleet runner relies on this).
#[test]
fn roundtrip_across_modes() {
    let prog = busy_prog(300);
    for (saved_under, resumed_under) in [
        (SchedulerMode::Reference, SchedulerMode::Fast),
        (SchedulerMode::Fast, SchedulerMode::Reference),
    ] {
        let (snap, uninterrupted) = snap_and_finish(&prog, 1, saved_under);
        let mut resumed = build(&prog, 1, resumed_under);
        resumed.restore_snapshot(&snap).expect("restore");
        assert_eq!(
            finish(resumed),
            uninterrupted,
            "{saved_under:?} -> {resumed_under:?}: cross-mode resume diverged"
        );
    }
}

/// Saving the same state twice yields identical bytes, and a
/// save→restore→save cycle is byte-stable — the property the CI smoke job
/// checksums.
#[test]
fn snapshot_bytes_are_stable() {
    let prog = busy_prog(300);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..SNAP_AT {
        sim.cycle();
    }
    let a = sim.save_snapshot().expect("first save");
    let b = sim.save_snapshot().expect("second save");
    assert_eq!(a, b, "re-saving unchanged state must be byte-identical");
    let mut fresh = build(&prog, 1, SchedulerMode::Fast);
    fresh.restore_snapshot(&a).expect("restore");
    let c = fresh.save_snapshot().expect("save after restore");
    assert_eq!(a, c, "save→restore→save must be byte-identical");
}

#[test]
fn version_skew_is_a_structured_error() {
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..200 {
        sim.cycle();
    }
    let mut snap = sim.save_snapshot().expect("snapshot");
    // The u32 after the magic is the format version. Skew it both ways: a
    // future format, and v2 — the last format whose speculation snapshots
    // owned a `Vec` RAT and a `VecDeque` free list where v3 has an inline
    // map and a ring head, so a v2 body must never reach the v3 reader.
    let current = u32::from_le_bytes(snap[4..8].try_into().unwrap());
    assert_eq!(current, 3, "layout changes bump SOC_SNAP_VERSION");
    for skewed in [current + 1, 2] {
        snap[4..8].copy_from_slice(&skewed.to_le_bytes());
        let mut fresh = build(&prog, 1, SchedulerMode::Fast);
        match fresh.restore_snapshot(&snap) {
            Err(SimError::Snapshot(SnapError::VersionMismatch { found, expected })) => {
                assert_eq!(found, skewed);
                assert_eq!(expected, riscy_ooo::soc::SOC_SNAP_VERSION);
            }
            other => panic!("expected a version mismatch, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_a_structured_error() {
    let prog = busy_prog(100);
    let mut fresh = build(&prog, 1, SchedulerMode::Fast);
    let garbage = b"not a snapshot at all, sorry".to_vec();
    assert_eq!(
        fresh.restore_snapshot(&garbage),
        Err(SimError::Snapshot(SnapError::BadMagic))
    );
}

/// Truncating a valid snapshot at any prefix length must produce a
/// structured error, never a panic.
#[test]
fn truncated_snapshots_are_structured_errors() {
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..200 {
        sim.cycle();
    }
    let snap = sim.save_snapshot().expect("snapshot");
    for cut in [0, 3, 7, snap.len() / 4, snap.len() / 2, snap.len() - 1] {
        let mut fresh = build(&prog, 1, SchedulerMode::Fast);
        let err = fresh
            .restore_snapshot(&snap[..cut])
            .expect_err("truncated snapshot must be refused");
        assert!(
            matches!(err, SimError::Snapshot(_)),
            "cut at {cut}: expected a snapshot error, got {err:?}"
        );
    }
}

/// Trailing garbage after a valid snapshot is refused (it would mean the
/// reader and writer disagree about the format).
#[test]
fn trailing_bytes_are_refused() {
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..200 {
        sim.cycle();
    }
    let mut snap = sim.save_snapshot().expect("snapshot");
    snap.push(0);
    let mut fresh = build(&prog, 1, SchedulerMode::Fast);
    assert!(matches!(
        fresh.restore_snapshot(&snap),
        Err(SimError::Snapshot(SnapError::Corrupt(_)))
    ));
}

/// A snapshot of one configuration must be refused by a design built with
/// another (different core config here; the digest also covers memory
/// geometry and core count).
#[test]
fn config_mismatch_is_a_structured_error() {
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..200 {
        sim.cycle();
    }
    let snap = sim.save_snapshot().expect("snapshot");
    let mut other = SocSim::new(
        CoreConfig::multicore(MemModel::Tso),
        mem_riscyoo_b(),
        1,
        &prog,
    );
    assert!(matches!(
        other.restore_snapshot(&snap),
        Err(SimError::Snapshot(SnapError::Mismatch(_)))
    ));
}

/// The checked-in golden fixture: a snapshot header from format version 0.
/// A build must keep refusing stale formats with a structured version
/// error for as long as the format lives — this fixture never gets
/// regenerated.
#[test]
fn stale_golden_fixture_is_refused() {
    let stale = include_bytes!("fixtures/stale-v0.snap");
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    match sim.restore_snapshot(stale) {
        Err(SimError::Snapshot(SnapError::VersionMismatch { found, expected })) => {
            assert_eq!(found, 0);
            assert_eq!(expected, riscy_ooo::soc::SOC_SNAP_VERSION);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

/// Observers carry side state the codec does not serialize: snapshotting
/// with any attached is refused up front.
#[test]
fn observers_refuse_snapshots() {
    let prog = busy_prog(100);

    let mut traced = build(&prog, 1, SchedulerMode::Fast);
    traced.enable_pipe_trace();
    assert!(matches!(
        traced.save_snapshot(),
        Err(SimError::Snapshot(SnapError::Unsupported(_)))
    ));

    let mut profiled = build(&prog, 1, SchedulerMode::Fast);
    profiled.enable_profiling();
    assert!(matches!(
        profiled.save_snapshot(),
        Err(SimError::Snapshot(SnapError::Unsupported(_)))
    ));

    let mut chaotic = build(&prog, 1, SchedulerMode::Fast);
    let engine = FaultEngine::new(FaultPlan::new(1).guard_stall("c0.issue*", 0.01));
    chaotic.attach_chaos(&engine);
    assert!(matches!(
        chaotic.save_snapshot(),
        Err(SimError::Snapshot(SnapError::Unsupported(_)))
    ));
}
