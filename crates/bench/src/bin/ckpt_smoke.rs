//! CI checkpoint smoke: proves snapshots are deterministic, fast.
//!
//! For each of the two scheduler modes (`reference`, `fast`) this binary:
//!
//! 1. runs a workload to a mid-run cycle and saves a snapshot;
//! 2. restores it into a *fresh* process-local simulation, runs both the
//!    original and the restored simulation to completion, and demands
//!    bit-identical final snapshots (which subsumes every serialized
//!    architectural and microarchitectural field) plus equal cycle
//!    counts and exit codes;
//! 3. checksums the mid-run snapshot bytes.
//!
//! Because both modes are cycle-identical by construction, the
//! mid-run snapshot bytes must be **the same across modes** — the final
//! cross-mode checksum comparison is the strongest single assertion in
//! the CI tier (see `docs/CHECKPOINT.md` §"CI: the `ckpt-smoke` tier").
//!
//! Prints one `PASS` line per mode and exits non-zero on any mismatch.

use cmd_core::sched::SchedulerMode;
use riscy_isa::asm::{Assembler, Program};
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_ooo::soc::{RunError, SocSim};

/// Cycle at which the mid-run snapshot is taken.
const SNAP_AT: u64 = 3_000;
/// Overall cycle budget per run.
const BUDGET: u64 = 2_000_000;

/// A loop with stores, loads, and data-dependent branches: enough
/// in-flight microarchitectural state (ROB, LSQ, store buffer, caches)
/// that a shallow snapshot would be caught immediately.
fn smoke_prog() -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(Gpr::s(1), 4_000);
    a.li(Gpr::s(2), 0);
    a.li(Gpr::s(3), DRAM_BASE as i64 + 0x10000);
    a.label("loop");
    a.sd(Gpr::s(2), 0, Gpr::s(3));
    a.ld(Gpr::s(4), 0, Gpr::s(3));
    a.addi(Gpr::s(2), Gpr::s(2), 5);
    a.addi(Gpr::s(3), Gpr::s(3), 8);
    a.andi(Gpr::s(5), Gpr::s(2), 0xff);
    a.bnez(Gpr::s(5), "skip");
    a.addi(Gpr::s(2), Gpr::s(2), 1);
    a.label("skip");
    a.addi(Gpr::s(1), Gpr::s(1), -1);
    a.bnez(Gpr::s(1), "loop");
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.li(Gpr::t(5), 7);
    a.sd(Gpr::t(5), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

/// FNV-1a, the checksum printed per mode and compared across modes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn new_sim(prog: &Program, mode: SchedulerMode) -> SocSim {
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, prog);
    sim.set_scheduler(mode);
    sim
}

fn run_to_end(sim: &mut SocSim, what: &str) {
    sim.run_to_completion(BUDGET)
        .unwrap_or_else(|e| panic!("ckpt_smoke: {what} did not complete: {e}"));
}

fn main() {
    let prog = smoke_prog();
    let modes = [SchedulerMode::Reference, SchedulerMode::Fast];
    println!("=== ckpt-smoke: snapshot round-trip determinism ===\n");
    let mut checksums = Vec::new();
    let mut ok = true;
    for mode in modes {
        // Original run: snapshot mid-flight, then continue to completion.
        let mut a = new_sim(&prog, mode);
        match a.run_to_completion(SNAP_AT) {
            Err(RunError::Budget { .. }) => {}
            other => panic!("ckpt_smoke: expected to stop mid-run at {SNAP_AT}, got {other:?}"),
        }
        let snap = a
            .save_snapshot()
            .unwrap_or_else(|e| panic!("ckpt_smoke: save failed under {mode:?}: {e}"));
        run_to_end(&mut a, "original");
        let a_final = a.save_snapshot().expect("final snapshot (original)");

        // Restored run: a fresh SoC resumes from the snapshot.
        let mut b = new_sim(&prog, mode);
        b.restore_snapshot(&snap)
            .unwrap_or_else(|e| panic!("ckpt_smoke: restore failed under {mode:?}: {e}"));
        run_to_end(&mut b, "restored");
        let b_final = b.save_snapshot().expect("final snapshot (restored)");

        let sum = fnv1a(&snap);
        let bit_identical = a_final == b_final;
        let cycles_equal = a.cycles() == b.cycles();
        let exits_equal = a.exit_codes() == b.exit_codes();
        let pass = bit_identical && cycles_equal && exits_equal;
        ok &= pass;
        println!(
            "{} {mode:?}: snapshot {} B, fnv1a {sum:016x}, resumed run {} @ {} cycles",
            if pass { "PASS" } else { "FAIL" },
            snap.len(),
            if bit_identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            b.cycles(),
        );
        checksums.push(sum);
    }
    // Both modes simulate the same cycles, so the mid-run snapshot
    // bytes — and therefore the checksums — must agree across modes.
    let checksums_equal = checksums.windows(2).all(|w| w[0] == w[1]);
    if checksums_equal {
        println!(
            "\nPASS cross-mode: all {} checksums identical",
            checksums.len()
        );
    } else {
        println!("\nFAIL cross-mode: checksums diverged: {checksums:016x?}");
    }
    ok &= checksums_equal;

    if !ok {
        std::process::exit(1);
    }
}
