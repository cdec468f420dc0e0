//! Interpreter-driven fast-forward with functional warming.
//!
//! Detailed simulation of a whole workload is expensive; most of it is
//! initialization and steady-state repetition that contributes nothing to
//! the measured statistics. This module executes the *architectural*
//! program on the [`riscy_isa::interp::Machine`] interpreter — orders of
//! magnitude faster than the rule-by-rule SoC — while functionally warming
//! the microarchitectural predictors and recording the cache/TLB working
//! set, then hands off into a detailed [`SocSim`] whose architectural
//! state continues exactly where the interpreter stopped:
//!
//! * **Architectural state** — GPRs (through the reset identity rename
//!   mapping), PC, privilege mode, the full CSR file, physical memory, and
//!   console/exit device state are transplanted verbatim.
//! * **Predictors** — a standalone BTB / tournament / RAS trio (the same
//!   types the detailed core uses) is trained on the committed control
//!   flow and cloned into the core at handoff.
//! * **Caches** — the most-recently-touched I/D line working set is
//!   replayed into the cache hierarchy in recency order through
//!   [`riscy_mem::system::MemSystem::warm_line`], which installs lines in S state without
//!   ever evicting, so warming cannot violate inclusion or coherence.
//! * **TLBs** — recently-touched I/D pages are re-walked against the
//!   current page tables at handoff and filled into the L1/L2 TLBs.
//!
//! Warming is *heuristic* (an approximation of the state the detailed run
//! would have built), but the handoff is *deterministic*: the same program
//! fast-forwarded by the same instruction count always produces the same
//! SoC state, so sampled runs are exactly reproducible. Loads/stores whose
//! translation faults architecturally are skipped by the warmer — the trap
//! itself is still executed by the interpreter.
//!
//! See `docs/CHECKPOINT.md` for how fast-forward composes with snapshots
//! and interval sampling.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use riscy_isa::asm::Program;
use riscy_isa::csr::Priv;
use riscy_isa::inst::Instr;
use riscy_isa::interp::{Machine, StepOutcome, Touched};
use riscy_isa::mem::FrameHasher;
use riscy_isa::vm::{self, Access};
use riscy_mem::msg::line_of;
use riscy_mem::system::MemConfig;

use crate::config::CoreConfig;
use crate::frontend::{call_ret_kind, Btb, CallRet, Ras, Tournament};
use crate::soc::SocSim;
use crate::types::PhysReg;

/// Page-granular address (Sv39 4 KiB leaf pages).
fn page_of(va: u64) -> u64 {
    va & !0xfff
}

/// A bounded recency set: tracks the last-touch order of up to `cap` keys.
/// Iteration order (oldest first) is fully determined by the touch
/// sequence, so warming replay is deterministic.
#[derive(Debug)]
struct RecencySet {
    seq: u64,
    cap: usize,
    last: HashMap<u64, u64, BuildHasherDefault<FrameHasher>>,
    /// The key touched last. Touching it again changes no key's order
    /// relative to another's, which is all `oldest_first` reads.
    newest: Option<u64>,
}

impl RecencySet {
    fn new(cap: usize) -> Self {
        RecencySet {
            seq: 0,
            cap: cap.max(1),
            last: HashMap::default(),
            newest: None,
        }
    }

    fn touch(&mut self, key: u64) {
        if self.newest == Some(key) {
            return;
        }
        self.newest = Some(key);
        self.seq += 1;
        self.last.insert(key, self.seq);
        // Amortized pruning: drop the oldest half once 2x over capacity.
        if self.last.len() >= self.cap * 2 {
            let mut seqs: Vec<u64> = self.last.values().copied().collect();
            seqs.sort_unstable();
            let cutoff = seqs[seqs.len() - self.cap];
            self.last.retain(|_, s| *s >= cutoff);
        }
    }

    /// Keys ordered oldest touch first (so replaying installs leaves the
    /// most recently touched key most recent in the target's LRU too),
    /// truncated to the `cap` most recent.
    fn oldest_first(&self) -> Vec<u64> {
        let mut v: Vec<(u64, u64)> = self.last.iter().map(|(k, s)| (*s, *k)).collect();
        v.sort_unstable();
        if v.len() > self.cap {
            let skip = v.len() - self.cap;
            v.drain(..skip);
        }
        v.into_iter().map(|(_, k)| k).collect()
    }
}

/// Per-hart warming state accumulated during the functional pass.
#[derive(Debug)]
struct WarmState {
    btb: Btb,
    tour: Tournament,
    ras: Ras,
    ilines: RecencySet,
    dlines: RecencySet,
    ipages: RecencySet,
    dpages: RecencySet,
}

/// Counters describing what a fast-forward pass did (for reports and the
/// `repro sampled` bench artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FfReport {
    /// Instructions executed functionally, summed over harts.
    pub insts: u64,
    /// Conditional branches used to train the tournament predictor.
    pub branches_trained: u64,
    /// Cache lines installed at the last handoff.
    pub lines_warmed: u64,
    /// TLB entries filled at the last handoff.
    pub tlb_filled: u64,
}

/// An architectural fast-forward session: owns the interpreter machine and
/// the per-hart warming state, and can hand off into a detailed [`SocSim`]
/// any number of times (each handoff builds a fresh simulation).
#[derive(Debug)]
pub struct FastForward {
    cfg: CoreConfig,
    mem_cfg: MemConfig,
    num_cores: usize,
    program: Program,
    machine: Machine,
    warm: Vec<WarmState>,
    report: FfReport,
}

impl FastForward {
    /// Creates a session at the program entry point (no instructions
    /// executed yet).
    #[must_use]
    pub fn new(cfg: CoreConfig, mem_cfg: MemConfig, num_cores: usize, program: &Program) -> Self {
        // Track a little more than the hierarchy can hold: `warm_line`
        // stops inserting once the free ways run out, and the slack lets
        // the replay keep filling L2 after L1 is full.
        let l1d_lines = mem_cfg.l1d.size_bytes / 64;
        let l1i_lines = mem_cfg.l1i.size_bytes / 64;
        let l2_lines = mem_cfg.l2.size_bytes / 64;
        let warm = (0..num_cores)
            .map(|_| WarmState {
                btb: Btb::new(cfg.bp.btb_entries),
                tour: Tournament::new(cfg.bp),
                ras: Ras::new(cfg.bp.ras_entries),
                ilines: RecencySet::new(l1i_lines + l2_lines),
                dlines: RecencySet::new(l1d_lines + l2_lines),
                ipages: RecencySet::new(cfg.tlb.l1_entries + cfg.tlb.l2_entries),
                dpages: RecencySet::new(cfg.tlb.l1_entries + cfg.tlb.l2_entries),
            })
            .collect();
        FastForward {
            cfg,
            mem_cfg,
            num_cores,
            program: program.clone(),
            machine: Machine::with_program(num_cores, program),
            warm,
            report: FfReport::default(),
        }
    }

    /// The interpreter machine (architectural state so far).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn report(&self) -> FfReport {
        self.report
    }

    /// Whether every hart has halted (the program finished during the
    /// functional pass; there is nothing left to hand off).
    #[must_use]
    pub fn halted(&self) -> bool {
        self.machine.all_halted()
    }

    /// Records what hart `hart`'s last step touched: the I line and page
    /// whenever the fetch translated, the D line and page whenever the data
    /// address translated to memory (not MMIO), trapping steps included.
    fn warm(&mut self, hart: usize, pc: u64, touched: Touched) {
        let w = &mut self.warm[hart];
        if let Some(pa) = touched.fetch_pa {
            w.ilines.touch(line_of(pa));
            w.ipages.touch(page_of(pc));
        }
        if let Some((va, pa)) = touched.data {
            if !riscy_isa::mem::is_mmio(pa) {
                w.dlines.touch(line_of(pa));
                w.dpages.touch(page_of(va));
            }
        }
    }

    /// Trains the standalone predictors on one committed instruction.
    fn train(&mut self, hart: usize, pc: u64, instr: &Instr, next_pc: u64) {
        let w = &mut self.warm[hart];
        match *instr {
            Instr::Branch { .. } => {
                let taken = next_pc != pc.wrapping_add(4);
                // Same discipline as the detailed core's execute-time
                // training: train against the history the predictor had,
                // then advance the history with the actual direction.
                let snap = w.tour.snapshot();
                w.tour.train(pc, snap, taken);
                w.tour.restore(snap, taken);
                if taken {
                    w.btb.update(pc, next_pc);
                } else {
                    w.btb.invalidate(pc);
                }
                self.report.branches_trained += 1;
            }
            Instr::Jal { .. } if call_ret_kind(instr) == CallRet::Call => {
                w.ras.push(pc.wrapping_add(4));
            }
            Instr::Jalr { .. } => match call_ret_kind(instr) {
                CallRet::Ret => {
                    let _ = w.ras.pop();
                }
                CallRet::Call => {
                    w.ras.push(pc.wrapping_add(4));
                    w.btb.update(pc, next_pc);
                }
                CallRet::Other => w.btb.update(pc, next_pc),
            },
            _ => {}
        }
    }

    /// Executes up to `insts_per_hart` further instructions on every
    /// still-running hart, round-robin one instruction at a time (the
    /// deterministic functional interleaving). Returns the number of
    /// instructions actually executed (less when harts halt).
    pub fn run(&mut self, insts_per_hart: u64) -> u64 {
        let mut executed = 0;
        for _ in 0..insts_per_hart {
            let mut progress = false;
            for hart in 0..self.num_cores {
                if self.machine.hart(hart).halted.is_some() {
                    continue;
                }
                let pc = self.machine.hart(hart).pc;
                let outcome = self.machine.step(hart);
                let touched = self.machine.touched();
                self.warm(hart, pc, touched);
                match outcome {
                    StepOutcome::Retired(c) => {
                        if let Some(i) = &touched.instr {
                            self.train(hart, pc, i, c.next_pc);
                        }
                        executed += 1;
                        progress = true;
                    }
                    StepOutcome::Halted(_) => {
                        executed += 1;
                        progress = true;
                    }
                    StepOutcome::AlreadyHalted => {}
                }
            }
            if !progress {
                break;
            }
        }
        self.report.insts += executed;
        executed
    }

    /// Builds a detailed [`SocSim`] continuing from the current
    /// architectural state, with warmed predictors, caches, and TLBs.
    ///
    /// The returned simulation starts at cycle 0 with an empty pipeline;
    /// its committed-instruction counters measure the detailed region
    /// only. Harts that already halted hand off as exited cores.
    #[must_use]
    pub fn handoff(&mut self) -> SocSim {
        let mut sim = SocSim::new(self.cfg, self.mem_cfg, self.num_cores, &self.program);
        let mut lines_warmed = 0;
        let mut tlb_filled = 0;
        {
            let soc = sim.soc_mut();
            // Physical memory: the interpreter's image replaces the
            // program loader's (all caches are still empty, so there is
            // no stale cached copy to worry about).
            soc.mem.mem = self.machine.mem().clone();
            for hart in 0..self.num_cores {
                let h = self.machine.hart(hart);
                let w = &self.warm[hart];
                let core = &mut soc.cores[hart];
                // Architectural registers through the reset identity
                // mapping (arch i -> phys i; see `RenameTable::new`).
                for i in 1..32u16 {
                    core.prf.write(PhysReg(i), h.regs[i as usize]);
                }
                core.fetch_pc.write(h.pc);
                core.csr = h.csrs.clone();
                core.priv_mode = h.priv_mode;
                // An ROI left open functionally stays open in detail
                // (measured from the handoff point).
                if h.roi_start.is_some() {
                    core.roi_start = Some((0, 0));
                }
                // Predictors: the trained trio drops in verbatim.
                core.btb = w.btb.clone();
                core.tour = w.tour.clone();
                core.ras = w.ras.clone();
                soc.devices.exited[hart] = h.halted;
                // TLBs: re-walk the recent pages against the live page
                // tables (never trusting stale cached translations).
                if h.priv_mode != Priv::M && vm::satp_sv39_enabled(h.csrs.satp) {
                    let root = vm::satp_root_ppn(h.csrs.satp);
                    let mem = &soc.mem.mem;
                    let walk = |va: u64, access: Access| {
                        vm::walk_sv39(root, va, access, h.priv_mode, |pa| mem.read_u64(pa)).ok()
                    };
                    let mut fills: Vec<(u64, riscy_isa::vm::Translation, bool)> = Vec::new();
                    for va in w.ipages.oldest_first() {
                        if let Some(t) = walk(va, Access::Fetch) {
                            fills.push((va, t, true));
                        }
                    }
                    for va in w.dpages.oldest_first() {
                        if let Some(t) = walk(va, Access::Load) {
                            fills.push((va, t, false));
                        }
                    }
                    for (va, t, is_fetch) in &fills {
                        if *is_fetch {
                            core.tlb.itlb.fill(*va, t);
                        } else {
                            core.tlb.dtlb.fill(*va, t);
                        }
                        core.tlb.l2.fill(*va, t);
                        tlb_filled += 1;
                    }
                }
            }
            soc.devices.console = self.machine.console().to_vec();
            // Caches last (the TLB walks above read `soc.mem.mem`
            // directly, not through the hierarchy). Oldest line first, so
            // the target LRU ends up with the most recent line youngest.
            // Only the youngest L1-capacity lines get L1 copies; older
            // lines of the recency window warm the L2 level alone — in a
            // real run they would long since have been evicted from the
            // tiny L1s but still occupy the L2, and warming them through
            // the L1 would exhaust its free ways and silently stop the
            // L2 fill a few hundred lines in.
            let l1i_lines = self.mem_cfg.l1i.size_bytes / 64;
            let l1d_lines = self.mem_cfg.l1d.size_bytes / 64;
            for hart in 0..self.num_cores {
                let w = &self.warm[hart];
                for (set, l1_cap, icache) in
                    [(&w.ilines, l1i_lines, true), (&w.dlines, l1d_lines, false)]
                {
                    let lines = set.oldest_first();
                    let l1_from = lines.len().saturating_sub(l1_cap);
                    for (i, &line) in lines.iter().enumerate() {
                        let warmed = if i >= l1_from {
                            soc.mem.warm_line(line, hart, icache)
                        } else {
                            soc.mem.warm_line_l2(line, hart, icache)
                        };
                        if warmed {
                            lines_warmed += 1;
                        }
                    }
                }
            }
        }
        self.report.lines_warmed = lines_warmed;
        self.report.tlb_filled = tlb_filled;
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::mem_riscyoo_b;
    use riscy_isa::asm::Assembler;
    use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
    use riscy_isa::reg::Gpr;

    /// A two-phase program: a summing loop, then exit with the total.
    fn sum_prog(iters: i64) -> Program {
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

    /// Fast-forwarding partway and finishing in detail produces the same
    /// architectural result (exit code, memory effects) as a pure
    /// detailed run — the correctness contract of the handoff.
    #[test]
    fn handoff_preserves_architecture() {
        let prog = sum_prog(100);
        let cfg = CoreConfig::riscyoo_t_plus();

        let mut detailed = SocSim::new(cfg, mem_riscyoo_b(), 1, &prog);
        detailed.run_to_completion(2_000_000).expect("full run");
        assert_eq!(detailed.soc().devices.exited[0], Some(7));

        let mut ff = FastForward::new(cfg, mem_riscyoo_b(), 1, &prog);
        let ran = ff.run(250);
        assert_eq!(ran, 250, "program is long enough");
        assert!(!ff.halted());
        let mut sim = ff.handoff();
        sim.run_to_completion(2_000_000).expect("detailed tail");
        assert_eq!(sim.soc().devices.exited[0], Some(7));
        assert!(
            sim.soc().cores[0].stats.committed > 0,
            "detailed region committed instructions"
        );
    }

    /// The handoff is deterministic: two sessions fast-forwarded by the
    /// same count produce byte-identical snapshots and identical detailed
    /// continuations.
    #[test]
    fn handoff_is_deterministic() {
        let prog = sum_prog(100);
        let cfg = CoreConfig::riscyoo_t_plus();
        let run = || {
            let mut ff = FastForward::new(cfg, mem_riscyoo_b(), 1, &prog);
            ff.run(300);
            let mut sim = ff.handoff();
            let snap = sim.save_snapshot().expect("snapshot of handoff state");
            sim.run_to_completion(2_000_000).expect("tail");
            (snap, sim.cycles(), sim.soc().cores[0].stats)
        };
        assert_eq!(run(), run());
    }

    /// Warming is populated: after a loop over a buffer, the handoff
    /// installs cache lines and trains branches.
    #[test]
    fn warming_observes_the_working_set() {
        let prog = sum_prog(200);
        let cfg = CoreConfig::riscyoo_t_plus();
        let mut ff = FastForward::new(cfg, mem_riscyoo_b(), 1, &prog);
        ff.run(1_000);
        let _sim = ff.handoff();
        let r = ff.report();
        assert!(r.branches_trained > 100, "loop branches trained: {r:?}");
        assert!(r.lines_warmed > 8, "I+D working set warmed: {r:?}");
    }

    /// Fast-forwarding past the end simply halts; handoff of a finished
    /// machine yields an already-exited SoC.
    #[test]
    fn halting_during_fast_forward() {
        let prog = sum_prog(10);
        let cfg = CoreConfig::riscyoo_t_plus();
        let mut ff = FastForward::new(cfg, mem_riscyoo_b(), 1, &prog);
        ff.run(1_000_000);
        assert!(ff.halted());
        let sim = ff.handoff();
        assert_eq!(sim.soc().devices.exited[0], Some(7));
    }
}
