//! PARSEC proxy workloads (multithreaded, paper Fig. 20).
//!
//! The paper runs seven PARSEC benchmarks with simlarge inputs on a
//! quad-core, comparing TSO and WMM scaling at 1/2/4 threads. What that
//! experiment exercises is sharing pattern + synchronization + store-buffer
//! behavior, so each proxy reproduces its namesake's *parallel structure*:
//!
//! | proxy | structure |
//! |---|---|
//! | blackscholes | embarrassingly parallel compute (mul/div heavy) |
//! | swaptions | independent Monte-Carlo per thread |
//! | streamcluster | shared read-only streaming + barriers per round |
//! | fluidanimate | region updates with fine-grained locks |
//! | facesim | memory-heavy data-parallel updates |
//! | ferret | pipeline parallelism over shared counters |
//! | freqmine | concurrent counter-table updates (AMO heavy) |
//!
//! Every hart runs the same binary; work is partitioned by `mhartid`.
//! Hart 0 brackets the parallel phase with ROI markers — the paper's
//! `parsec_roi_begin`/`parsec_roi_end`.

use riscy_isa::asm::Assembler;
use riscy_isa::csr::addr as csr;
use riscy_isa::mem::DRAM_BASE;
use riscy_isa::reg::Gpr;

use crate::runtime::{
    build_page_tables, emit_barrier, emit_enter_supervisor, emit_exit_hart, emit_lock_acquire,
    emit_lock_release, emit_roi_begin, emit_roi_end, PAGED_VA_BASE, RW,
};
use crate::spec::{Scale, Workload};

/// Shared synchronization block (DRAM, identity-mapped by the gigapage).
const SYNC_BASE: i64 = (DRAM_BASE + 0x20_0000) as i64;
const BAR_COUNTER: i64 = SYNC_BASE;
const BAR_SENSE: i64 = SYNC_BASE + 64;
const LOCK0: i64 = SYNC_BASE + 128;
const SHARED0: i64 = SYNC_BASE + 192;

/// The seven PARSEC proxies for `nthreads` harts.
#[must_use]
pub fn parsec_suite(scale: Scale, nthreads: usize) -> Vec<Workload> {
    vec![
        blackscholes(scale, nthreads),
        facesim(scale, nthreads),
        ferret(scale, nthreads),
        fluidanimate(scale, nthreads),
        freqmine(scale, nthreads),
        swaptions(scale, nthreads),
        streamcluster(scale, nthreads),
    ]
}

fn factor(scale: Scale) -> i64 {
    match scale {
        Scale::Test => 1,
        Scale::Ref => 4,
    }
}

/// Prologue: paging on, registers set up, all harts at a barrier, hart 0
/// opens the ROI.
///
/// Register conventions inside proxies: `s4` barrier counter addr, `s5`
/// sense addr, `s6` lock addr, `s7` shared addr, `s8` hart id, `s10` local
/// sense, `s0` result accumulator.
fn prologue(n_pages: usize, nthreads: usize) -> (Assembler, crate::runtime::Paging) {
    let paging = build_page_tables(n_pages, RW);
    let mut a = Assembler::new(DRAM_BASE);
    emit_enter_supervisor(&mut a, paging.root_ppn, "sv_main");
    a.li(Gpr::s(4), BAR_COUNTER);
    a.li(Gpr::s(5), BAR_SENSE);
    a.li(Gpr::s(6), LOCK0);
    a.li(Gpr::s(7), SHARED0);
    a.csrr(Gpr::s(8), csr::MHARTID);
    a.li(Gpr::s(10), 0);
    a.li(Gpr::s(0), 0);
    emit_barrier(
        &mut a,
        Gpr::s(4),
        Gpr::s(5),
        Gpr::s(10),
        nthreads as i64,
        "start",
    );
    // Only hart 0 writes the ROI markers.
    a.bnez(Gpr::s(8), "no_roi_begin");
    emit_roi_begin(&mut a);
    a.label("no_roi_begin");
    (a, paging)
}

/// Epilogue: closing barrier, hart 0 ends the ROI, per-hart exit.
fn epilogue(
    mut a: Assembler,
    paging: crate::runtime::Paging,
    nthreads: usize,
    name: &'static str,
    scale: Scale,
) -> Workload {
    emit_barrier(
        &mut a,
        Gpr::s(4),
        Gpr::s(5),
        Gpr::s(10),
        nthreads as i64,
        "end",
    );
    a.bnez(Gpr::s(8), "no_roi_end");
    emit_roi_end(&mut a);
    a.label("no_roi_end");
    emit_exit_hart(&mut a, Gpr::s(0), "exit");
    let mut prog = a.assemble();
    for (pa, b) in paging.segments {
        prog.add_data(pa, b);
    }
    Workload {
        name,
        program: prog,
        max_cycles: 30_000_000 * factor(scale) as u64,
    }
}

/// blackscholes: independent fixed-point option pricing per thread.
#[must_use]
pub fn blackscholes(scale: Scale, nthreads: usize) -> Workload {
    let (mut a, paging) = prologue(16, nthreads);
    a.li(Gpr::s(2), 400 * factor(scale) / nthreads as i64);
    a.li(Gpr::s(1), 17);
    a.add(Gpr::s(1), Gpr::s(1), Gpr::s(8)); // per-thread seed
    a.label("opt");
    // Fixed-point pricing-ish kernel: mul/div chains.
    a.li(Gpr::t(0), 98765);
    a.mul(Gpr::t(1), Gpr::s(1), Gpr::t(0));
    a.li(Gpr::t(2), 321);
    a.div(Gpr::t(1), Gpr::t(1), Gpr::t(2));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(1));
    a.addi(Gpr::s(1), Gpr::s(1), 7);
    a.addi(Gpr::s(2), Gpr::s(2), -1);
    a.bnez(Gpr::s(2), "opt");
    epilogue(a, paging, nthreads, "blackscholes", scale)
}

/// swaptions: per-thread LCG Monte-Carlo, zero sharing.
#[must_use]
pub fn swaptions(scale: Scale, nthreads: usize) -> Workload {
    let (mut a, paging) = prologue(16, nthreads);
    a.li(Gpr::s(2), 1500 * factor(scale) / nthreads as i64);
    a.li(Gpr::s(1), 0xbeef);
    a.add(Gpr::s(1), Gpr::s(1), Gpr::s(8));
    a.label("mc");
    a.li(Gpr::t(0), 1_103_515_245);
    a.mul(Gpr::s(1), Gpr::s(1), Gpr::t(0));
    a.addi(Gpr::s(1), Gpr::s(1), 1234);
    a.srli(Gpr::t(1), Gpr::s(1), 33);
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(1));
    a.addi(Gpr::s(2), Gpr::s(2), -1);
    a.bnez(Gpr::s(2), "mc");
    epilogue(a, paging, nthreads, "swaptions", scale)
}

/// streamcluster: rounds of shared read-only streaming with a barrier per
/// round.
#[must_use]
pub fn streamcluster(scale: Scale, nthreads: usize) -> Workload {
    let pages = 256; // 1 MiB shared points array
    let (mut a, paging) = prologue(pages, nthreads);
    let rounds = 4 * factor(scale);
    a.li(Gpr::s(3), rounds);
    a.label("round");
    // The array is divided among the threads (fixed total work).
    let chunk_bytes = (pages as i64 * 4096) / nthreads as i64;
    a.li(Gpr::t(2), chunk_bytes);
    a.mul(Gpr::t(3), Gpr::s(8), Gpr::t(2));
    a.li(Gpr::s(1), PAGED_VA_BASE as i64);
    a.add(Gpr::s(1), Gpr::s(1), Gpr::t(3));
    a.li(Gpr::s(2), chunk_bytes / 64);
    a.label("pts");
    a.ld(Gpr::t(0), 0, Gpr::s(1));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(0));
    a.addi(Gpr::s(1), Gpr::s(1), 64);
    a.addi(Gpr::s(2), Gpr::s(2), -1);
    a.bnez(Gpr::s(2), "pts");
    a.addi(Gpr::s(3), Gpr::s(3), -1);
    emit_barrier(
        &mut a,
        Gpr::s(4),
        Gpr::s(5),
        Gpr::s(10),
        nthreads as i64,
        "round",
    );
    a.bnez(Gpr::s(3), "round");
    epilogue(a, paging, nthreads, "streamcluster", scale)
}

/// fluidanimate: per-thread region updates, lock-protected boundary cells.
#[must_use]
pub fn fluidanimate(scale: Scale, nthreads: usize) -> Workload {
    let pages = 64;
    let (mut a, paging) = prologue(pages, nthreads);
    a.li(Gpr::s(2), 160 * factor(scale) / nthreads as i64);
    // Private region: hart * 16 KiB.
    a.li(Gpr::t(0), 16 * 1024);
    a.mul(Gpr::t(1), Gpr::s(8), Gpr::t(0));
    a.li(Gpr::s(1), PAGED_VA_BASE as i64);
    a.add(Gpr::s(1), Gpr::s(1), Gpr::t(1));
    a.label("cell");
    // Update a strip of private cells with neighbor coupling: the bulk of
    // each region update is lock-free (as in the real benchmark).
    for k in 0..48 {
        a.ld(Gpr::t(0), 8 * k, Gpr::s(1));
        a.ld(Gpr::t(2), 8 * (k + 1), Gpr::s(1));
        a.add(Gpr::t(0), Gpr::t(0), Gpr::t(2));
        a.addi(Gpr::t(0), Gpr::t(0), 1);
        a.sd(Gpr::t(0), 8 * k, Gpr::s(1));
    }
    // Boundary cell shared under a lock.
    emit_lock_acquire(&mut a, Gpr::s(6), "cell");
    a.ld(Gpr::t(2), 0, Gpr::s(7));
    a.addi(Gpr::t(2), Gpr::t(2), 1);
    a.sd(Gpr::t(2), 0, Gpr::s(7));
    emit_lock_release(&mut a, Gpr::s(6));
    a.addi(Gpr::s(2), Gpr::s(2), -1);
    a.bnez(Gpr::s(2), "cell");
    epilogue(a, paging, nthreads, "fluidanimate", scale)
}

/// facesim: memory-heavy data-parallel sweeps over a private 1 MiB strip.
#[must_use]
pub fn facesim(scale: Scale, nthreads: usize) -> Workload {
    let pages = 1024; // 4 MiB total
    let (mut a, paging) = prologue(pages, nthreads);
    a.li(Gpr::s(3), 2 * factor(scale)); // sweeps
    a.label("sweep");
    let strip = (pages as i64 * 4096) / nthreads as i64;
    a.li(Gpr::t(0), strip);
    a.mul(Gpr::t(1), Gpr::s(8), Gpr::t(0));
    a.li(Gpr::s(1), PAGED_VA_BASE as i64);
    a.add(Gpr::s(1), Gpr::s(1), Gpr::t(1));
    a.li(Gpr::s(2), strip / 256);
    a.label("node");
    a.ld(Gpr::t(0), 0, Gpr::s(1));
    a.ld(Gpr::t(3), 64, Gpr::s(1));
    a.slli(Gpr::t(2), Gpr::t(0), 1);
    a.add(Gpr::t(0), Gpr::t(0), Gpr::t(2));
    a.add(Gpr::t(0), Gpr::t(0), Gpr::t(3));
    a.sd(Gpr::t(0), 0, Gpr::s(1));
    a.addi(Gpr::s(1), Gpr::s(1), 256);
    a.addi(Gpr::s(2), Gpr::s(2), -1);
    a.bnez(Gpr::s(2), "node");
    a.addi(Gpr::s(3), Gpr::s(3), -1);
    a.bnez(Gpr::s(3), "sweep");
    epilogue(a, paging, nthreads, "facesim", scale)
}

/// ferret: pipeline parallelism — work tokens flow through per-stage
/// published counters; each hart is one stage.
#[must_use]
pub fn ferret(scale: Scale, nthreads: usize) -> Workload {
    let (mut a, paging) = prologue(16, nthreads);
    let items = 120 * factor(scale);
    // The conceptual pipeline has 4 stages of work per item; with n harts,
    // each hart runs 4/n of them, so the total work is constant and
    // pipelining yields speedup (as in the real benchmark).
    let units = (4 / nthreads).max(1);
    a.li(Gpr::s(2), items);
    a.label("item");
    // stage counter address = SHARED0 + 64*hart
    a.slli(Gpr::t(0), Gpr::s(8), 6);
    a.add(Gpr::t(1), Gpr::s(7), Gpr::t(0));
    a.beqz(Gpr::s(8), "produce");
    // Consumer: wait until the upstream count exceeds ours.
    a.label("wait_in");
    a.addi(Gpr::t(2), Gpr::t(1), -64);
    a.ld(Gpr::t(3), 0, Gpr::t(2)); // upstream count
    a.ld(Gpr::t(4), 0, Gpr::t(1)); // own count
    a.bgeu(Gpr::t(4), Gpr::t(3), "wait_in");
    a.label("produce");
    // "Process" the token: this hart's share of the stage units.
    a.li(Gpr::t(5), 37);
    for _ in 0..units {
        a.mul(Gpr::s(0), Gpr::s(0), Gpr::t(5));
        a.addi(Gpr::s(0), Gpr::s(0), 1);
        a.mul(Gpr::s(3), Gpr::s(0), Gpr::t(5));
        a.xor(Gpr::s(0), Gpr::s(0), Gpr::s(3));
        a.muldiv(
            riscy_isa::inst::MulDivOp::Div,
            Gpr::s(3),
            Gpr::s(3),
            Gpr::t(5),
        );
        a.add(Gpr::s(0), Gpr::s(0), Gpr::s(3));
    }
    // Publish: increment own count.
    a.fence();
    a.li(Gpr::t(5), 1);
    a.amoadd_d(Gpr::ZERO, Gpr::t(5), Gpr::t(1));
    a.li(Gpr::t(5), 37);
    a.addi(Gpr::s(2), Gpr::s(2), -1);
    a.bnez(Gpr::s(2), "item");
    epilogue(a, paging, nthreads, "ferret", scale)
}

/// freqmine: concurrent frequency-counter updates with AMOs over a shared
/// table.
#[must_use]
pub fn freqmine(scale: Scale, nthreads: usize) -> Workload {
    let pages = 32;
    let (mut a, paging) = prologue(pages, nthreads);
    a.li(Gpr::s(2), 800 * factor(scale) / nthreads as i64);
    a.li(Gpr::s(1), 0xf5ee);
    a.add(Gpr::s(1), Gpr::s(1), Gpr::s(8));
    a.li(Gpr::s(3), PAGED_VA_BASE as i64);
    a.label("txn");
    a.li(Gpr::t(0), 1_103_515_245);
    a.mul(Gpr::s(1), Gpr::s(1), Gpr::t(0));
    a.addi(Gpr::s(1), Gpr::s(1), 1234);
    // Bucket = (x >> 8) & 0x1fff8 (8-byte aligned inside the table).
    a.srli(Gpr::t(1), Gpr::s(1), 8);
    a.li(Gpr::t(2), 0x1_fff8);
    a.and(Gpr::t(1), Gpr::t(1), Gpr::t(2));
    a.add(Gpr::t(1), Gpr::t(1), Gpr::s(3));
    a.li(Gpr::t(3), 1);
    a.amoadd_d(Gpr::t(4), Gpr::t(3), Gpr::t(1));
    a.add(Gpr::s(0), Gpr::s(0), Gpr::t(4));
    a.addi(Gpr::s(2), Gpr::s(2), -1);
    a.bnez(Gpr::s(2), "txn");
    epilogue(a, paging, nthreads, "freqmine", scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::interp::Machine;

    #[test]
    fn all_proxies_run_on_golden_model_at_each_thread_count() {
        let counts: &[usize] = if cfg!(debug_assertions) {
            &[2]
        } else {
            &[1, 2, 4]
        };
        for &n in counts {
            for w in parsec_suite(Scale::Test, n) {
                let mut m = Machine::with_program(n, &w.program);
                m.run(80_000_000)
                    .unwrap_or_else(|s| panic!("{} ({n} threads) stuck at {s}", w.name));
                assert!(m.all_halted(), "{} ({n} threads)", w.name);
                assert!(
                    m.hart(0).roi_insts > 100,
                    "{} ({n} threads) ROI: {}",
                    w.name,
                    m.hart(0).roi_insts
                );
            }
        }
    }

    #[test]
    fn fluidanimate_lock_counts_are_exact() {
        let n = 2;
        let w = fluidanimate(Scale::Test, n);
        let mut m = Machine::with_program(n, &w.program);
        m.run(80_000_000).expect("halts");
        // 320 total iterations (divided among harts) increment the shared
        // boundary cell under the lock.
        let shared = m.mem().read_u64(SHARED0 as u64);
        assert_eq!(shared, 160);
    }
}
