//! # riscy-baseline — an in-order RV64IMA core (Rocket substitute)
//!
//! The paper compares RiscyOO against Rocket, an in-order core (Fig. 13),
//! at two memory latencies (Rocket-10 and Rocket-120, Fig. 17). This crate
//! provides that comparison point: a 5-stage-style in-order core with a
//! blocking data path, modeled *functional-first*: instruction semantics
//! come from the golden interpreter while timing is charged through the
//! same cache/TLB substrate the OOO core uses.
//!
//! The key property the paper relies on — an in-order pipeline cannot hide
//! memory latency — is modeled exactly: every load miss stalls the core
//! until the response returns.
//!
//! # Examples
//!
//! ```
//! use riscy_isa::asm::Assembler;
//! use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
//! use riscy_isa::reg::Gpr;
//! use riscy_baseline::{InOrderConfig, InOrderSim};
//!
//! let mut a = Assembler::new(DRAM_BASE);
//! a.li(Gpr::a(0), 5);
//! a.li(Gpr::t(0), MMIO_EXIT as i64);
//! a.sd(Gpr::a(0), 0, Gpr::t(0));
//! let prog = a.assemble();
//! let mut sim = InOrderSim::new(InOrderConfig::rocket(120), &prog);
//! let cycles = sim.run(100_000).expect("halts");
//! assert!(cycles > 0);
//! ```

use riscy_isa::asm::Program;
use riscy_isa::inst::{decode, Instr};
use riscy_isa::interp::{Machine, StepOutcome};
use riscy_isa::mem::{is_mmio, SparseMem};
use riscy_isa::vm::Access;
use riscy_mem::msg::{line_of, CoreReq, CoreResp};
use riscy_mem::system::{MemConfig, MemSystem};
use riscy_ooo::config::{mem_rocket, TlbConfig};
use riscy_ooo::tlbport::TlbHier;

/// Configuration of the in-order baseline.
#[derive(Debug, Clone, Copy)]
pub struct InOrderConfig {
    /// Memory system (Rocket-10 / Rocket-120 differ here).
    pub mem: MemConfig,
    /// TLBs (blocking, like Rocket's).
    pub tlb: TlbConfig,
    /// Branch misprediction penalty in cycles (short in-order pipeline).
    pub mispredict_penalty: u64,
    /// Multiply latency.
    pub mul_latency: u64,
    /// Divide latency.
    pub div_latency: u64,
}

impl InOrderConfig {
    /// The Rocket configuration of paper Fig. 13: 16 KB L1 I/D, no L2,
    /// configurable memory latency (10 or 120 cycles).
    #[must_use]
    pub fn rocket(mem_latency: u64) -> Self {
        InOrderConfig {
            mem: mem_rocket(mem_latency),
            tlb: TlbConfig::blocking(),
            mispredict_penalty: 3,
            mul_latency: 4,
            div_latency: 33,
        }
    }
}

/// Per-run statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct InOrderStats {
    /// Instructions retired.
    pub committed: u64,
    /// Cycles executed.
    pub cycles: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Cycles in the region of interest.
    pub roi_cycles: u64,
    /// Instructions in the region of interest.
    pub roi_insts: u64,
}

/// A simple bimodal predictor with a BTB for the in-order front end.
#[derive(Debug)]
struct SimplePredictor {
    bimodal: Vec<u8>,
    btb: Vec<Option<(u64, u64)>>,
}

impl SimplePredictor {
    fn new() -> Self {
        SimplePredictor {
            bimodal: vec![1; 1024],
            btb: vec![None; 256],
        }
    }

    fn predict(&self, pc: u64, i: &Instr) -> u64 {
        match i {
            Instr::Jal { offset, .. } => pc.wrapping_add(*offset as i64 as u64),
            Instr::Branch { offset, .. } => {
                let idx = ((pc >> 2) as usize) & 1023;
                if self.bimodal[idx] >= 2 {
                    pc.wrapping_add(*offset as i64 as u64)
                } else {
                    pc + 4
                }
            }
            Instr::Jalr { .. } => {
                let idx = ((pc >> 2) as usize) & 255;
                match self.btb[idx] {
                    Some((tag, t)) if tag == pc => t,
                    _ => pc + 4,
                }
            }
            _ => pc + 4,
        }
    }

    fn train(&mut self, pc: u64, i: &Instr, actual: u64) {
        match i {
            Instr::Branch { .. } => {
                let idx = ((pc >> 2) as usize) & 1023;
                let taken = actual != pc + 4;
                if taken {
                    self.bimodal[idx] = (self.bimodal[idx] + 1).min(3);
                } else {
                    self.bimodal[idx] = self.bimodal[idx].saturating_sub(1);
                }
            }
            Instr::Jalr { .. } => {
                let idx = ((pc >> 2) as usize) & 255;
                self.btb[idx] = Some((pc, actual));
            }
            _ => {}
        }
    }
}

/// What the core is stalled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    None,
    /// Ready again at this cycle (fixed-latency stalls).
    Until(u64),
    /// Waiting for an I-cache line.
    Fetch,
    /// Waiting for a D-cache load.
    Load,
    /// Waiting for a TLB fill.
    Tlb,
}

/// The in-order core simulation.
pub struct InOrderSim {
    cfg: InOrderConfig,
    /// Architectural state and memory (functional-first).
    pub machine: Machine,
    mem: MemSystem,
    tlb: TlbHier,
    pred: SimplePredictor,
    stall: Stall,
    /// Outstanding (fire-and-forget) stores in the cache.
    store_credit: u32,
    last_store_line: Option<u64>,
    fetched_lines: std::collections::HashSet<u64>,
    next_tlb_id: u64,
    pending_va: u64,
    pending_access: Access,
    roi_start: Option<(u64, u64)>,
    /// Statistics.
    pub stats: InOrderStats,
}

impl InOrderSim {
    /// Builds the core with `program` loaded.
    #[must_use]
    pub fn new(cfg: InOrderConfig, program: &Program) -> Self {
        let machine = Machine::with_program(1, program);
        let mut timing_mem = SparseMem::new();
        program.load(&mut timing_mem);
        InOrderSim {
            cfg,
            machine,
            mem: MemSystem::new(cfg.mem, 1, timing_mem),
            tlb: TlbHier::new(0, cfg.tlb),
            pred: SimplePredictor::new(),
            stall: Stall::None,
            store_credit: 0,
            last_store_line: None,
            fetched_lines: std::collections::HashSet::new(),
            next_tlb_id: 1,
            pending_va: 0,
            pending_access: Access::Load,
            roi_start: None,
            stats: InOrderStats::default(),
        }
    }

    /// Whether the program has exited.
    #[must_use]
    pub fn exited(&self) -> Option<u64> {
        self.machine.hart(0).halted
    }

    /// Runs until exit or the cycle budget.
    ///
    /// # Errors
    ///
    /// Returns the executed-cycle count when the budget is exhausted.
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, u64> {
        for _ in 0..max_cycles {
            if self.exited().is_some() {
                return Ok(self.stats.cycles);
            }
            self.cycle();
        }
        if self.exited().is_some() {
            Ok(self.stats.cycles)
        } else {
            Err(self.stats.cycles)
        }
    }

    /// ROI statistics `(cycles, instructions)`.
    #[must_use]
    pub fn roi(&self) -> (u64, u64) {
        (self.stats.roi_cycles, self.stats.roi_insts)
    }

    fn translate(&mut self, va: u64, access: Access) -> Option<u64> {
        let h = self.machine.hart(0);
        let (satp, pm) = (h.csrs.satp, h.priv_mode);
        let res = match access {
            Access::Fetch => self.tlb.lookup_i(va, satp, pm),
            _ => self.tlb.lookup_d(va, access, satp, pm),
        };
        match res {
            Some(Ok(pa)) => Some(pa),
            Some(Err(_)) => Some(va), // faults are architectural
            None => {
                let now = self.mem.now();
                let id = self.next_tlb_id;
                self.next_tlb_id += 1;
                match access {
                    Access::Fetch => self.tlb.request_i(now, id, va, pm),
                    _ => {
                        if self.tlb.can_park_d() {
                            self.tlb.request_d(now, id, va, access, pm);
                        }
                    }
                }
                None
            }
        }
    }

    /// One cycle.
    #[allow(clippy::too_many_lines)]
    pub fn cycle(&mut self) {
        // Substrate tick.
        for req in self.tlb.drain_walker_reqs() {
            self.mem.push_walker_req(req);
        }
        while let Some(r) = self.mem.pop_walker_resp(0) {
            self.tlb.push_walker_resp(r);
        }
        let satp = self.machine.hart(0).csrs.satp;
        let now = self.mem.now();
        self.tlb.tick(now, satp);
        while self.tlb.pop_d_resp().is_some() {}
        self.mem.tick();
        self.stats.cycles += 1;
        if self.roi_start.is_some() {
            self.stats.roi_cycles += 1;
        }

        // Drain cache responses.
        let now = self.mem.now();
        let mut got_load = false;
        let mut got_fetch = false;
        while let Some(r) = self.mem.dcache(0).pop_resp(now) {
            match r {
                CoreResp::Ld { .. } | CoreResp::Atomic { .. } => got_load = true,
                CoreResp::St { .. } => {
                    if let Some(line) = self.last_store_line.take() {
                        self.mem
                            .dcache(0)
                            .write_data(line, &[0u8; 64], &[false; 64]);
                    }
                    self.store_credit = self.store_credit.saturating_sub(1);
                }
            }
        }
        while let Some(r) = self.mem.icache(0).pop_resp(now) {
            if matches!(r, CoreResp::Ld { .. }) {
                got_fetch = true;
            }
        }

        // Resolve stalls.
        match self.stall {
            Stall::Until(t) if now < t => return,
            Stall::Until(_) => self.stall = Stall::None,
            Stall::Fetch => {
                if got_fetch {
                    self.stall = Stall::None;
                } else {
                    return;
                }
            }
            Stall::Load => {
                if got_load {
                    self.stall = Stall::None;
                } else {
                    return;
                }
            }
            Stall::Tlb => {
                let (va, access) = (self.pending_va, self.pending_access);
                if self.translate(va, access).is_some() {
                    self.stall = Stall::None;
                } else {
                    return;
                }
            }
            Stall::None => {}
        }

        // Fetch timing: I TLB + I cache at line granularity.
        let pc = self.machine.hart(0).pc;
        let Some(fetch_pa) = self.translate(pc, Access::Fetch) else {
            self.pending_va = pc;
            self.pending_access = Access::Fetch;
            self.stall = Stall::Tlb;
            return;
        };
        let fline = line_of(fetch_pa);
        if !self.fetched_lines.contains(&fline) {
            if self.mem.icache(0).can_accept() {
                let _ = self.mem.icache(0).request(CoreReq::Ld {
                    tag: 0,
                    addr: fline,
                    bytes: 8,
                });
                // The bounded set only prevents duplicate requests; the I$
                // array provides the real hit/miss behavior over time.
                if self.fetched_lines.len() > 256 {
                    self.fetched_lines.clear();
                }
                self.fetched_lines.insert(fline);
                self.stall = Stall::Fetch;
            }
            return;
        }

        // Peek the instruction for timing classification.
        let word = self.machine.mem().read_le(fetch_pa, 4) as u32;
        let instr = decode(word).ok();

        // Data-access timing before the architectural step.
        let mut issued_load = false;
        if let Some(i) = &instr {
            if let Some((va, is_load)) = self.data_address(i) {
                let access = if is_load { Access::Load } else { Access::Store };
                let Some(pa) = self.translate(va, access) else {
                    self.pending_va = va;
                    self.pending_access = access;
                    self.stall = Stall::Tlb;
                    return;
                };
                if !is_mmio(pa) {
                    if i.is_mem_read() {
                        if !self.mem.dcache(0).can_accept() {
                            return;
                        }
                        let _ = self.mem.dcache(0).request(CoreReq::Ld {
                            tag: 1,
                            addr: pa & !7,
                            bytes: 8,
                        });
                        issued_load = true;
                    } else {
                        // Store: fire-and-forget with one outstanding slot.
                        if self.store_credit >= 1
                            || self.last_store_line.is_some()
                            || !self.mem.dcache(0).can_accept()
                        {
                            return;
                        }
                        let _ = self.mem.dcache(0).request(CoreReq::St {
                            sb_idx: 0,
                            line: line_of(pa),
                        });
                        self.last_store_line = Some(line_of(pa));
                        self.store_credit += 1;
                    }
                }
            }
        }

        // Architectural step (the golden interpreter *is* the datapath).
        let before_pc = pc;
        let out = self.machine.step(0);
        self.stats.committed += 1;
        if self.roi_start.is_some() {
            self.stats.roi_insts += 1;
        }
        if issued_load {
            self.stall = Stall::Load;
        }
        // ROI tracking via the hart's counters.
        let h = self.machine.hart(0);
        if h.roi_start.is_some() && self.roi_start.is_none() {
            self.roi_start = Some((self.stats.cycles, self.stats.committed));
        } else if h.roi_start.is_none() && self.roi_start.is_some() {
            self.roi_start = None;
        }

        // Control-flow timing.
        if let (Some(i), StepOutcome::Retired(cm)) = (&instr, &out) {
            if i.is_branch_or_jump() {
                let predicted = self.pred.predict(before_pc, i);
                if predicted != cm.next_pc {
                    self.stats.mispredicts += 1;
                    self.stall = Stall::Until(self.mem.now() + self.cfg.mispredict_penalty);
                }
                self.pred.train(before_pc, i, cm.next_pc);
            }
            if let Instr::MulDiv { op, .. } = i {
                use riscy_isa::inst::MulDivOp::{Mul, Mulh, Mulhsu, Mulhu};
                let lat = match op {
                    Mul | Mulh | Mulhsu | Mulhu => self.cfg.mul_latency,
                    _ => self.cfg.div_latency,
                };
                self.stall = Stall::Until(self.mem.now() + lat);
            }
        }
    }

    fn data_address(&self, i: &Instr) -> Option<(u64, bool)> {
        let h = self.machine.hart(0);
        match *i {
            Instr::Load { rs1, offset, .. } => {
                Some((h.reg(rs1).wrapping_add(offset as i64 as u64), true))
            }
            Instr::Store { rs1, offset, .. } => {
                Some((h.reg(rs1).wrapping_add(offset as i64 as u64), false))
            }
            Instr::Lr { rs1, .. } | Instr::Amo { rs1, .. } => Some((h.reg(rs1), true)),
            Instr::Sc { rs1, .. } => Some((h.reg(rs1), false)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::asm::Assembler;
    use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
    use riscy_isa::reg::Gpr;

    fn sum_program(n: i64) -> Program {
        let mut a = Assembler::new(DRAM_BASE);
        let (t0, t1) = (Gpr::t(0), Gpr::t(1));
        a.li(t0, n);
        a.li(t1, 0);
        a.label("loop");
        a.add(t1, t1, t0);
        a.addi(t0, t0, -1);
        a.bnez(t0, "loop");
        a.li(Gpr::t(6), MMIO_EXIT as i64);
        a.sd(t1, 0, Gpr::t(6));
        a.assemble()
    }

    #[test]
    fn computes_correctly() {
        let mut sim = InOrderSim::new(InOrderConfig::rocket(10), &sum_program(100));
        sim.run(200_000).expect("halts");
        assert_eq!(sim.exited(), Some(5050));
    }

    fn chase() -> Program {
        let mut a = Assembler::new(DRAM_BASE);
        let base = (DRAM_BASE + 0x100000) as i64;
        let n = 512i64;
        a.li(Gpr::t(0), base);
        a.li(Gpr::t(1), 0);
        a.label("init");
        a.addi(Gpr::t(2), Gpr::t(0), 0);
        a.li(Gpr::t(3), 4096);
        a.add(Gpr::t(2), Gpr::t(2), Gpr::t(3));
        a.sd(Gpr::t(2), 0, Gpr::t(0));
        a.mv(Gpr::t(0), Gpr::t(2));
        a.addi(Gpr::t(1), Gpr::t(1), 1);
        a.li(Gpr::t(4), n);
        a.bne(Gpr::t(1), Gpr::t(4), "init");
        a.li(Gpr::t(0), base);
        a.li(Gpr::t(1), 0);
        a.label("chase");
        a.ld(Gpr::t(0), 0, Gpr::t(0));
        a.addi(Gpr::t(1), Gpr::t(1), 1);
        a.li(Gpr::t(4), n - 1);
        a.bne(Gpr::t(1), Gpr::t(4), "chase");
        a.li(Gpr::t(6), MMIO_EXIT as i64);
        a.sd(Gpr::ZERO, 0, Gpr::t(6));
        a.assemble()
    }

    #[test]
    fn memory_latency_hurts_in_order() {
        let mut fast = InOrderSim::new(InOrderConfig::rocket(10), &chase());
        let c_fast = fast.run(4_000_000).expect("halts");
        let mut slow = InOrderSim::new(InOrderConfig::rocket(120), &chase());
        let c_slow = slow.run(12_000_000).expect("halts");
        assert!(
            c_slow as f64 > 1.5 * c_fast as f64,
            "120-cycle memory must hurt: {c_slow} vs {c_fast}"
        );
    }

    #[test]
    fn branchy_code_pays_mispredicts() {
        let mut a = Assembler::new(DRAM_BASE);
        let (x, i) = (Gpr::s(0), Gpr::s(2));
        a.li(x, 999);
        a.li(i, 200);
        a.label("loop");
        a.li(Gpr::t(0), 1_103_515_245);
        a.mul(x, x, Gpr::t(0));
        a.addi(x, x, 1234);
        a.andi(Gpr::t(1), x, 4);
        a.beqz(Gpr::t(1), "skip");
        a.nop();
        a.label("skip");
        a.addi(i, i, -1);
        a.bnez(i, "loop");
        a.li(Gpr::t(6), MMIO_EXIT as i64);
        a.sd(Gpr::ZERO, 0, Gpr::t(6));
        let mut sim = InOrderSim::new(InOrderConfig::rocket(10), &a.assemble());
        sim.run(400_000).expect("halts");
        assert!(
            sim.stats.mispredicts > 30,
            "random branches must mispredict"
        );
    }
}
