//! The RiscyOO core's state and top-level rules (paper Fig. 9).
//!
//! Each `rule_*` method on [`crate::soc::Soc`] is one of the paper's
//! top-level atomic rules ("about a dozen at the top level"); the canonical
//! schedule order is fixed in [`crate::soc::SocSim::new`] and plays the role
//! of EHR port numbering. Rules call the guarded interface methods of the
//! CMD modules (ROB, IQs, LSQ, store buffer, rename table, speculation
//! manager), so a stalled resource atomically aborts the whole rule.

use cmd_core::cell::Ehr;
use cmd_core::guard::{Guarded, Stall};
use cmd_core::journal::EhrDeque;
use riscy_isa::csr::{CsrFile, Exception, Priv};
use riscy_isa::inst::{decode, CsrOp, CsrSrc, Instr, Rhs};
use riscy_isa::interp::{alu_exec, muldiv_exec};
use riscy_isa::mem::{is_mmio, DRAM_BASE, MMIO_ROI};
use riscy_isa::reg::Gpr;
use riscy_isa::vm::Access;
use riscy_mem::cache::L1Cache;
use riscy_mem::msg::{line_of, AtomicOp, CoreReq, CoreResp};
use riscy_mem::system::MemSystem;

use crate::config::{CoreConfig, MemModel};
use crate::frontend::{branch_taken, predict_next, Btb, Ras, Tournament};
use crate::iq::IssueQueue;
use crate::lsq::{LdIssue, LdState, Lsq};
use crate::pipetrace::PipeTrace;
use crate::prf::{Bypass, Prf};
use crate::rename::{RenameTable, SpecManager, SpecSnapshot};
use crate::rob::{LsqDeqResult, Rob, RobEntry};
use crate::sb::{SbSearch, StoreBuffer};
use crate::soc::{credit, CoreStats, MemPort, Soc};
use crate::tlbport::TlbHier;
use crate::tma::TmaState;
use crate::types::{ExecPipe, MemKind, PhysReg, SystemOp, Uop};

/// Divide latency in cycles (iterative unit).
const DIV_LATENCY: u64 = 16;
/// Multiply latency in cycles.
const MUL_LATENCY: u64 = 3;

/// An in-flight instruction-fetch request.
#[derive(Debug, Clone, Copy)]
pub struct FetchReq {
    /// Sequence number (responses are consumed in order).
    pub seq: u64,
    /// Fetch epoch at issue.
    pub epoch: u64,
    /// Virtual PC of the packet.
    pub pc: u64,
    /// Instructions in the packet (1 or 2 … up to the width).
    pub n: usize,
    /// The next fetch PC this request's issuer guessed (BTB-based).
    pub guess_next: u64,
    /// Fetch faulted at translation: packet carries the fault.
    pub fault: bool,
    /// Cycle the request was issued (pipeline-trace fetch stamp).
    pub at: u64,
}

/// A decoded instruction awaiting rename.
#[derive(Debug, Clone, Copy)]
pub struct DecInst {
    /// PC.
    pub pc: u64,
    /// Decoded instruction, or `Err` for illegal encodings / fetch faults.
    pub instr: Result<Instr, Exception>,
    /// Predicted next PC.
    pub pred_next: u64,
    /// Predicted taken (conditional branches).
    pub pred_taken: bool,
    /// Global history before this instruction's own shift.
    pub ghist: crate::frontend::GhistSnapshot,
    /// RAS state after this instruction's decode-time push/pop.
    pub ras: crate::frontend::RasSnapshot,
    /// Cycle the enclosing packet was fetched (pipeline-trace stamp).
    pub fetched_at: u64,
    /// Cycle decode ran (pipeline-trace stamp).
    pub decoded_at: u64,
}

/// A memory instruction between address calculation and LSQ update.
#[derive(Debug, Clone, Copy)]
pub struct MemTrans {
    /// The micro-op.
    pub uop: Uop,
    /// Virtual address.
    pub va: u64,
    /// Store data (stores / SC / AMO).
    pub data: u64,
    /// Outstanding TLB request id, if parked.
    pub tlb_id: Option<u64>,
}

/// All architectural and microarchitectural state of one core.
pub struct CoreState {
    /// Core id.
    pub id: usize,
    /// Configuration.
    pub cfg: CoreConfig,
    /// Rename table + free list.
    pub rt: RenameTable,
    /// Speculation manager.
    pub sm: SpecManager,
    /// Physical register file + scoreboard.
    pub prf: Prf,
    /// Reorder buffer.
    pub rob: Rob,
    /// Issue queues: `[alu0..aluN, mem, muldiv]`.
    pub iqs: Vec<IssueQueue>,
    /// Load-store queue.
    pub lsq: Lsq,
    /// Store buffer (WMM).
    pub sb: StoreBuffer,
    /// Bypass network.
    pub bypass: Bypass,
    /// Next fetch PC.
    pub fetch_pc: Ehr<u64>,
    /// Fetch epoch (bumped on every redirect).
    pub epoch: Ehr<u64>,
    /// Next fetch sequence number.
    pub fetch_seq: Ehr<u64>,
    /// Next sequence number decode will consume.
    pub fetch_expect: Ehr<u64>,
    /// Issued fetches awaiting I-cache responses.
    pub inflight_fetch: EhrDeque<FetchReq>,
    /// Arrived fetch packets `(seq, req, raw_bytes)`.
    pub fetch_buf: EhrDeque<(FetchReq, u64)>,
    /// Decoded instructions awaiting rename.
    pub fetch_q: EhrDeque<DecInst>,
    /// A serialized (system) instruction is in flight.
    pub serialize: Ehr<bool>,
    /// Issue→exec latches, one per ALU pipe.
    pub alu_ex: Vec<Ehr<Option<Uop>>>,
    /// Exec→writeback latches, one per ALU pipe.
    pub alu_wb: Vec<Ehr<Option<(Uop, u64)>>>,
    /// The mul/div unit: `(uop, done_cycle, value)`.
    pub md_unit: Ehr<Option<(Uop, u64, u64)>>,
    /// Mul/div writeback latch.
    pub md_wb: Ehr<Option<(Uop, u64)>>,
    /// Mem-pipe issue→addr-calc latch.
    pub mem_ex: Ehr<Option<Uop>>,
    /// Addr-calc'd memory ops waiting on translation.
    pub mem_wait_tlb: EhrDeque<MemTrans>,
    /// Forwarded load values awaiting writeback `(lq_idx, seq, value)`.
    pub forward_q: EhrDeque<(u16, u64, u64)>,
    /// Branch target buffer.
    pub btb: Btb,
    /// Tournament direction predictor.
    pub tour: Tournament,
    /// Return address stack.
    pub ras: Ras,
    /// TLB hierarchy.
    pub tlb: TlbHier,
    /// CSR file.
    pub csr: CsrFile,
    /// Current privilege.
    pub priv_mode: Priv,
    /// Next TLB request id.
    pub next_tlb_id: u64,
    /// ROI begin marker `(cycle, instret)`.
    pub roi_start: Option<(u64, u64)>,
    /// Performance counters.
    pub stats: CoreStats,
    /// Per-instruction pipeline trace collector (disabled by default).
    pub pipe: PipeTrace,
    /// Top-down cycle accounting (sampled only when profiling is on).
    pub tma: Option<TmaState>,
    /// The boundary to the caches and TLBs.
    pub port: MemPort,
}

/// Sign/zero extension of a loaded value.
fn ext_load(v: u64, bytes: u8, signed: bool) -> u64 {
    if !signed || bytes == 8 {
        return v;
    }
    let bits = 8 * u32::from(bytes);
    (((v << (64 - bits)) as i64) >> (64 - bits)) as u64
}

/// Writes `v` into `cell` only when it differs, so an unchanged mirror
/// wakes nobody.
fn mirror<T: PartialEq + Copy + 'static>(cell: &Ehr<T>, v: T) {
    cell.update_if(|old| *old != v, |old| *old = v);
}

/// Hands the core what `l1` has for it at `now`: every response that has
/// arrived, and its free request slots.
fn deliver(l1: &mut L1Cache, now: u64, resp: &EhrDeque<CoreResp>, free: &Ehr<u8>) {
    while let Some(r) = l1.pop_resp(now) {
        resp.push_back(r);
    }
    mirror(free, credit(l1));
}

impl CoreState {
    fn iq_mem(&self) -> &IssueQueue {
        &self.iqs[self.cfg.alu_pipes]
    }

    fn iq_md(&self) -> &IssueQueue {
        &self.iqs[self.cfg.alu_pipes + 1]
    }

    /// Empties every pipeline latch holding a uop renamed after the branch
    /// whose sequence number is `bseq`. Latches holding an older uop, or
    /// none, open no transaction.
    fn squash_latches(&self, bseq: u64) {
        fn squash<T: Clone + 'static>(latch: &Ehr<Option<T>>, bseq: u64, seq: impl Fn(&T) -> u64) {
            latch.update_if(|e| e.as_ref().is_some_and(|t| seq(t) > bseq), |e| *e = None);
        }
        for l in &self.alu_ex {
            squash(l, bseq, |u| u.seq);
        }
        for l in &self.alu_wb {
            squash(l, bseq, |t| t.0.seq);
        }
        squash(&self.md_unit, bseq, |t| t.0.seq);
        squash(&self.md_wb, bseq, |t| t.0.seq);
        squash(&self.mem_ex, bseq, |u| u.seq);
        // Youngest first, so a removal never shifts an unvisited position.
        for i in (0..self.mem_wait_tlb.len()).rev() {
            if self.mem_wait_tlb.with(|v| v[i].uop.seq > bseq) {
                self.mem_wait_tlb.remove(i);
            }
        }
    }

    /// Reads an operand: PRF if present, else the bypass network.
    fn operand(&self, p: PhysReg) -> Option<u64> {
        if self.prf.is_present(p) {
            Some(self.prf.read(p))
        } else {
            self.bypass.get(p)
        }
    }

    /// Write-back side effects shared by every result producer.
    fn writeback(&self, lane: usize, dst: PhysReg, value: u64) {
        self.prf.write(dst, value);
        self.bypass.set(lane, dst, value);
        for iq in &self.iqs {
            iq.wakeup(dst);
        }
    }
}

impl Soc {
    // -----------------------------------------------------------------
    // Substrate
    // -----------------------------------------------------------------

    /// Advances the memory system and TLBs one cycle; wires the page-walk
    /// crossbar (paper Fig. 11) and carries each core's [`MemPort`]
    /// traffic across: what the core rules handed over last cycle into the
    /// caches before the tick that serves it, what the ticks produced out
    /// of them after it.
    pub(crate) fn rule_substrate(&mut self) {
        let now = self.mem.now();
        for core in &mut self.cores {
            let (c, port) = (core.id, &core.port);
            let l1d = self.mem.dcache(c);
            while let Some((line, data, en)) = port.d_write.pop_front() {
                l1d.write_data(line, &data, &en);
            }
            while let Some(req) = port.d_req.pop_front() {
                l1d.request(req).expect("within the D credit");
            }
            let l1i = self.mem.icache(c);
            while let Some(req) = port.i_req.pop_front() {
                l1i.request(req).expect("within the I credit");
            }
            for req in core.tlb.drain_walker_reqs() {
                self.mem.push_walker_req(req);
            }
            while let Some(r) = self.mem.pop_walker_resp(c) {
                core.tlb.push_walker_resp(r);
            }
            if let Some(va) = core.tlb.tick(now, core.csr.satp) {
                port.itlb_fault.write(Some(va));
            }
            while let Some(r) = core.tlb.pop_d_resp() {
                port.dtlb_resp.push_back(r);
            }
            mirror(&port.dtlb_busy, core.tlb.d_miss_pending());
            mirror(&port.itlb_busy, core.tlb.i_miss_pending());
            // Occupancy sampling for CoreStats (sampled every cycle whether
            // or not tracing is enabled, so traced and untraced runs report
            // byte-identical statistics).
            core.stats.rob_occ_sum += core.rob.len() as u64;
            core.stats.iq_occ_sum += core.iqs.iter().map(IssueQueue::len).sum::<usize>() as u64;
            core.stats.occ_cycles += 1;
            // Top-down cycle accounting (read-only: profiled and
            // unprofiled runs stay cycle- and counter-identical).
            if core.tma.is_some() {
                let committed = core.stats.committed;
                let epoch = core.epoch.read();
                let rob_len = core.rob.len();
                let head_mem_blocked = core
                    .rob
                    .first()
                    .ok()
                    .is_some_and(|e| !e.completed && e.uop.mem_kind.is_some());
                if let Some(t) = core.tma.as_mut() {
                    t.sample(committed, epoch, rob_len, head_mem_blocked);
                }
            }
        }
        self.mem.tick();
        // Deliver with the `now` every core rule reads this cycle.
        let now = self.mem.now();
        for core in &self.cores {
            let (c, port) = (core.id, &core.port);
            deliver(self.mem.dcache(c), now, &port.d_resp, &port.d_free);
            deliver(self.mem.icache(c), now, &port.i_resp, &port.i_free);
            while let Some(line) = self.mem.dcache(c).evict_notes.pop_front() {
                port.evict.push_back(line);
            }
        }
    }

    /// TSO: drains cache eviction notifications into `cacheEvict`
    /// (paper §V-B). Under WMM the notes are discarded.
    pub(crate) fn rule_cache_evict(&mut self, c: usize) -> Guarded<()> {
        // `evict_kill == false` is the litmus harness's injected ordering
        // bug: TSO keeps committing but silently loses its load repair.
        let is_tso = self.cfg.mem_model == MemModel::Tso && self.cfg.evict_kill;
        let core = &self.cores[c];
        if core.port.evict.is_empty() {
            return Err(Stall::new("no evictions"));
        }
        while let Some(line) = core.port.evict.pop_front() {
            if is_tso {
                core.lsq.cache_evict(line);
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Commit
    // -----------------------------------------------------------------

    /// Commits one instruction from the ROB head, or launches/han­dles the
    /// commit-slot work of non-speculative memory instructions.
    pub(crate) fn rule_commit(&mut self, c: usize) -> Guarded<()> {
        let e = self.cores[c].rob.first()?;
        if !e.completed {
            // MMIO/atomic accesses start only at the commit slot (§V-B).
            if e.non_spec_mem && !e.started {
                // A successful launch must commit its state changes, so it
                // ends the rule with Ok even though nothing retired.
                self.launch_commit_access(c, &e)?;
                return Ok(());
            }
            return Err(Stall::new("head not completed"));
        }
        if let Some(x) = e.exception {
            self.commit_exception(c, &e, x);
            return Ok(());
        }
        if e.ld_kill {
            self.cores[c].stats.ld_kill_flushes += 1;
            self.flush_core(c, e.uop.pc); // replay from the killed load
            return Ok(());
        }
        if let Some(op) = e.system {
            self.commit_system(c, &e, op);
            return Ok(());
        }
        self.commit_normal(c, &e)
    }

    fn launch_commit_access(&mut self, c: usize, e: &RobEntry) -> Guarded<()> {
        let idx = e.uop.lsq_idx.ok_or(Stall::new("untranslated"))?;
        let core = &self.cores[c];
        let Some(entry) = core.lsq.lq_entry(idx) else {
            return Err(Stall::new("lsq entry gone"));
        };
        let Some(pa) = entry.addr else {
            return Err(Stall::new("address not yet translated"));
        };
        if entry.state == LdState::Done {
            return Err(Stall::new("already performed"));
        }
        if entry.mmio {
            // MMIO load: devices read as zero.
            core.lsq.resp_ld(idx);
            if let Some(dst) = entry.dst {
                let lane = core.cfg.alu_pipes + 1;
                core.writeback(lane, dst, 0);
            }
            core.lsq.mark_wb_done(idx);
            core.rob.with_entry(e.uop.rob, |e| e.started = true);
            return Ok(());
        }
        if let Some(op) = entry.atomic {
            // Older (committed) stores must be globally performed before an
            // atomic touches the cache — it bypasses the SQ/SB path.
            if !core.sb.is_empty() {
                return Err(Stall::new("atomic waits for SB drain"));
            }
            if core.lsq.older_store_pending(entry.seq) {
                return Err(Stall::new("atomic waits for older stores"));
            }
            if core.port.d_full() {
                return Err(Stall::new("dcache full"));
            }
            core.port.d_req.push_back(CoreReq::Atomic {
                tag: u32::from(idx),
                addr: pa,
                bytes: entry.bytes,
                op,
            });
            core.rob.with_entry(e.uop.rob, |e| e.started = true);
            return Ok(());
        }
        Err(Stall::new("unexpected non-spec entry"))
    }

    fn commit_exception(&mut self, c: usize, e: &RobEntry, x: Exception) {
        let core = &mut self.cores[c];
        core.stats.system_flushes += 1;
        let vec = core.csr.trap_to_m(x, e.uop.pc, e.tval, core.priv_mode);
        core.priv_mode = Priv::M;
        self.cosim_step(c, e, None);
        self.count_commit(c, e);
        self.flush_core(c, vec);
    }

    fn commit_system(&mut self, c: usize, e: &RobEntry, op: SystemOp) {
        let mut next = e.next_pc;
        let mut rd_val = None;
        {
            let core = &mut self.cores[c];
            core.stats.system_flushes += 1;
            match op {
                SystemOp::Csr => {
                    if let Instr::Csr { op, rd, src, csr } = e.uop.instr {
                        let count = core.stats.committed;
                        let old = core.csr.read(csr, count, count);
                        let srcv = match src {
                            CsrSrc::Reg(_) => {
                                // Source value read from the renamed register.
                                core.prf.read(e.uop.src1)
                            }
                            CsrSrc::Imm(z) => u64::from(z),
                        };
                        let write = match op {
                            CsrOp::Rw => Some(srcv),
                            CsrOp::Rs => {
                                if matches!(src, CsrSrc::Reg(r) if r.is_zero())
                                    || matches!(src, CsrSrc::Imm(0))
                                {
                                    None
                                } else {
                                    Some(old | srcv)
                                }
                            }
                            CsrOp::Rc => {
                                if matches!(src, CsrSrc::Reg(r) if r.is_zero())
                                    || matches!(src, CsrSrc::Imm(0))
                                {
                                    None
                                } else {
                                    Some(old & !srcv)
                                }
                            }
                        };
                        if let Some(v) = write {
                            core.csr.write(csr, v);
                        }
                        if let Some(dst) = e.uop.dst {
                            core.prf.write(dst, old);
                        }
                        if !rd.is_zero() {
                            rd_val = Some((rd, old));
                        }
                    }
                }
                SystemOp::Ret => {
                    let (pc, p) = match e.uop.instr {
                        Instr::Mret => core.csr.mret(),
                        _ => core.csr.sret(),
                    };
                    core.priv_mode = p;
                    next = pc;
                }
                SystemOp::FlushFence => {
                    core.tlb.flush();
                }
                SystemOp::Trap | SystemOp::Nop => {}
            }
        }
        // Commit the register mapping before flushing.
        if let (Some(a), Some(d), Some(o)) = (e.uop.arch_dst, e.uop.dst, e.uop.old_dst) {
            self.cores[c].rt.commit(a, d, o);
        }
        self.cosim_step(c, e, rd_val);
        self.count_commit(c, e);
        self.flush_core(c, next);
    }

    fn commit_normal(&mut self, c: usize, e: &RobEntry) -> Guarded<()> {
        // Memory bookkeeping at the commit slot.
        match e.uop.mem_kind {
            Some(MemKind::Store | MemKind::Fence) => {
                let idx = e.uop.lsq_idx.expect("stores have SQ entries");
                if e.mmio {
                    // Perform the device write now, in order.
                    let entry = self.cores[c].lsq.sq_entry(idx).expect("live");
                    let pa = entry.addr.expect("translated");
                    let data = entry.data.expect("data set");
                    self.device_store(c, pa, data);
                }
                self.cores[c].lsq.set_at_commit_st(idx);
            }
            Some(MemKind::Atomic | MemKind::Load) => {
                // Completed via deqLd; nothing further.
            }
            None => {}
        }
        let rd_val = match (e.uop.arch_dst, e.uop.dst) {
            (Some(a), Some(d)) => Some((a, self.cores[c].prf.read(d))),
            _ => None,
        };
        if let (Some(a), Some(d), Some(o)) = (e.uop.arch_dst, e.uop.dst, e.uop.old_dst) {
            self.cores[c].rt.commit(a, d, o);
        }
        self.cores[c].rob.deq().expect("head checked");
        if e.uop.instr.is_branch_or_jump() {
            self.cores[c].stats.branches += 1;
        }
        self.cosim_step(c, e, rd_val);
        self.count_commit(c, e);
        Ok(())
    }

    fn count_commit(&mut self, c: usize, e: &RobEntry) {
        let now = self.mem.now();
        self.cores[c].pipe.retire(e.uop.rob, now);
        self.cores[c].stats.committed += 1;
        if self.cores[c].roi_start.is_some() {
            self.cores[c].stats.roi_insts += 1;
        }
    }

    /// MMIO store side effects (exit, console, ROI markers).
    fn device_store(&mut self, c: usize, pa: u64, data: u64) {
        if pa == MMIO_ROI {
            let now = self.mem.now();
            let core = &mut self.cores[c];
            if data != 0 {
                core.roi_start = Some((now, core.stats.committed));
            } else if let Some((cyc0, _)) = core.roi_start.take() {
                core.stats.roi_cycles += now - cyc0;
            }
            return;
        }
        self.devices.store(pa, data);
    }

    /// Full commit-time pipeline flush (exceptions, system instructions,
    /// load-speculation replays).
    fn flush_core(&mut self, c: usize, new_pc: u64) {
        let core = &mut self.cores[c];
        core.rob.flush();
        for iq in &core.iqs {
            iq.flush();
        }
        core.lsq.flush_speculative();
        core.rt.flush_to_committed();
        core.sm.flush();
        core.prf.flush_all_present();
        core.serialize.write(false);
        for l in &core.alu_ex {
            l.write(None);
        }
        for l in &core.alu_wb {
            l.write(None);
        }
        core.md_unit.write(None);
        core.md_wb.write(None);
        core.mem_ex.write(None);
        core.mem_wait_tlb.clear();
        core.forward_q.clear();
        core.fetch_q.clear();
        core.fetch_buf.clear();
        core.fetch_expect.write(core.fetch_seq.read());
        core.epoch.update(|e| *e += 1);
        core.fetch_pc.write(new_pc);
        // A pending I-side walk fault belongs to a fetch the flush squashed
        // (and perhaps to a privilege or address space it left).
        core.port.itlb_fault.write(None);
    }

    /// Lock-step golden-model check at commit (single-core co-simulation).
    fn cosim_step(&mut self, c: usize, e: &RobEntry, rd: Option<(Gpr, u64)>) {
        if c != 0 {
            return;
        }
        let Some(golden) = &mut self.golden else {
            return;
        };
        use riscy_isa::interp::StepOutcome;
        let gpc = golden.hart(0).pc;
        if gpc != e.uop.pc {
            self.cosim_errors.push(format!(
                "pc mismatch: core committed {:#x}, golden at {:#x} (inst #{})",
                e.uop.pc, gpc, self.cores[c].stats.committed
            ));
            return;
        }
        let out = golden.step(0);
        let grd = match out {
            StepOutcome::Retired(cm) => cm.rd,
            _ => None,
        };
        if grd != rd {
            self.cosim_errors.push(format!(
                "rd mismatch at pc {:#x}: core {:?}, golden {:?}",
                e.uop.pc, rd, grd
            ));
        }
    }

    // -----------------------------------------------------------------
    // Write-back
    // -----------------------------------------------------------------

    /// ALU pipe `p` write-back: PRF write, IQ wakeups, bypass, ROB
    /// completion.
    pub(crate) fn rule_alu_writeback(&mut self, c: usize, p: usize) -> Guarded<()> {
        let core = &self.cores[c];
        let (uop, value) = core.alu_wb[p]
            .read()
            .ok_or(Stall::new("nothing to write back"))?;
        core.alu_wb[p].write(None);
        core.writeback(p, uop.dst.expect("wb implies dst"), value);
        core.rob.set_non_mem_completed(uop.rob);
        core.pipe.complete(uop.rob, self.mem.now());
        Ok(())
    }

    /// Mul/div write-back.
    pub(crate) fn rule_md_writeback(&mut self, c: usize) -> Guarded<()> {
        let core = &self.cores[c];
        let (uop, value) = core.md_wb.read().ok_or(Stall::new("md wb empty"))?;
        core.md_wb.write(None);
        let lane = core.cfg.alu_pipes;
        core.writeback(lane, uop.dst.expect("muldiv has dst"), value);
        core.rob.set_non_mem_completed(uop.rob);
        core.pipe.complete(uop.rob, self.mem.now());
        Ok(())
    }

    /// Load/atomic responses from the D cache (paper's `doRespLd`).
    pub(crate) fn rule_resp_ld(&mut self, c: usize) -> Guarded<()> {
        self.handle_resp(c, "no load response")
    }

    /// Drains one forwarded load value (paper Fig. 10's `forwardQ`).
    pub(crate) fn rule_forward(&mut self, c: usize) -> Guarded<()> {
        let core = &self.cores[c];
        let (idx, seq, value) = core
            .forward_q
            .pop_front()
            .ok_or(Stall::new("forward queue empty"))?;
        let Some(entry) = core.lsq.lq_entry(idx) else {
            return Ok(()); // squashed in the meantime
        };
        if entry.seq != seq {
            return Ok(()); // slot was reallocated
        }
        if let Some(dst) = entry.dst {
            let v = ext_load(value, entry.bytes, entry.signed);
            let lane = core.cfg.alu_pipes + 2;
            core.writeback(lane, dst, v);
        }
        core.lsq.mark_wb_done(idx);
        core.pipe.complete(entry.rob, self.mem.now());
        Ok(())
    }

    // -----------------------------------------------------------------
    // Execute
    // -----------------------------------------------------------------

    /// ALU pipe `p` execute (Reg-Read + Exec): also resolves branches.
    pub(crate) fn rule_alu_exec(&mut self, c: usize, p: usize) -> Guarded<()> {
        let uop = self.cores[c].alu_ex[p]
            .read()
            .ok_or(Stall::new("alu exec empty"))?;
        let (wb, resolved): (Option<u64>, Option<(u64, bool, bool)>) = {
            let core = &self.cores[c];
            let a = core.operand(uop.src1).ok_or(Stall::new("src1 not ready"))?;
            let b = core.operand(uop.src2).ok_or(Stall::new("src2 not ready"))?;
            match uop.instr {
                Instr::Alu { op, word, rhs, .. } => {
                    let rhs_v = match rhs {
                        Rhs::Reg(_) => b,
                        Rhs::Imm(i) => i as i64 as u64,
                    };
                    (Some(alu_exec(op, word, a, rhs_v)), None)
                }
                Instr::Lui { imm, .. } => (Some(imm as u64), None),
                Instr::Auipc { imm, .. } => (Some(uop.pc.wrapping_add(imm as u64)), None),
                Instr::Jal { .. } => (Some(uop.pc.wrapping_add(4)), None),
                Instr::Jalr { offset, .. } => {
                    let target = a.wrapping_add(offset as i64 as u64) & !1;
                    (Some(uop.pc.wrapping_add(4)), Some((target, true, false)))
                }
                Instr::Branch { cond, offset, .. } => {
                    let taken = branch_taken(cond, a, b);
                    let target = if taken {
                        uop.pc.wrapping_add(offset as i64 as u64)
                    } else {
                        uop.pc.wrapping_add(4)
                    };
                    (None, Some((target, taken, true)))
                }
                other => unreachable!("non-ALU instr in ALU pipe: {other:?}"),
            }
        };
        {
            let core = &self.cores[c];
            // Results targeting x0 (nop, plain jumps) complete immediately.
            let latched = wb.filter(|_| uop.dst.is_some());
            // `aluWb` empties the latch earlier in the cycle unless it lost
            // its arbitration (a chaos abort); then this result must wait.
            if latched.is_some() && core.alu_wb[p].with(Option::is_some) {
                return Err(Stall::new("wb latch full"));
            }
            core.alu_ex[p].write(None);
            if let Some(v) = latched {
                core.alu_wb[p].write(Some((uop, v)));
            } else {
                core.rob.set_non_mem_completed(uop.rob);
                core.pipe.complete(uop.rob, self.mem.now());
            }
            if let Some((target, _, _)) = resolved {
                core.rob.set_next_pc(uop.rob, target);
            }
        }
        if let Some((target, taken, is_cond)) = resolved {
            if is_cond {
                self.train_branch(c, &uop, taken, target);
            }
            self.resolve_branch(c, &uop, target, taken);
        }
        Ok(())
    }

    fn train_branch(&mut self, c: usize, uop: &Uop, taken: bool, target: u64) {
        let core = &mut self.cores[c];
        core.tour.train(uop.pc, uop.ghist, taken);
        if taken {
            core.btb.update(uop.pc, target);
        } else {
            core.btb.invalidate(uop.pc);
        }
    }

    /// Compares resolved control flow against the prediction; on a
    /// mispredict performs `wrongSpec` recovery, otherwise `correctSpec`.
    ///
    /// Paper §V clears the branch's bit from every in-flight speculation
    /// mask on `correctSpec` and squashes the entries carrying it on
    /// `wrongSpec`. Here the squash set is read from rename order instead:
    /// while a branch is unresolved, the instructions carrying its bit are
    /// exactly those renamed after it (`seq > uop.seq`). So a correct
    /// resolution only frees the tag.
    fn resolve_branch(&mut self, c: usize, uop: &Uop, actual: u64, taken: bool) {
        let Some(tag) = uop.own_tag else { return };
        if actual == uop.pred_next {
            self.cores[c].sm.correct(tag);
            return;
        }
        // Mispredicted: restore and squash (paper §V `wrongSpec`).
        if matches!(uop.instr, Instr::Jalr { .. }) {
            self.cores[c].btb.update(uop.pc, actual);
        }
        self.cores[c].stats.mispredicts += 1;
        let snap: SpecSnapshot = self.cores[c].sm.wrong(tag);
        let core = &mut self.cores[c];
        core.rt.restore(&snap.rat);
        core.ras.restore(snap.ras);
        core.tour.restore(snap.ghist, taken);
        core.rob.wrong_spec(uop.seq);
        for iq in &core.iqs {
            iq.wrong_spec(uop.seq);
        }
        core.lsq.wrong_spec(uop.seq);
        core.squash_latches(uop.seq);
        core.forward_q.clear();
        core.fetch_q.clear();
        core.fetch_buf.clear();
        core.fetch_expect.write(core.fetch_seq.read());
        core.epoch.update(|e| *e += 1);
        core.fetch_pc.write(actual);
    }

    /// Mul/div execute: countdown unit.
    pub(crate) fn rule_md_exec(&mut self, c: usize) -> Guarded<()> {
        let now = self.mem.now();
        let core = &self.cores[c];
        let (uop, done, mut value) = core.md_unit.read().ok_or(Stall::new("md idle"))?;
        if value == u64::MAX && done == u64::MAX {
            // Operands read on the first execution cycle.
            let a = core.operand(uop.src1).ok_or(Stall::new("src1 not ready"))?;
            let b = core.operand(uop.src2).ok_or(Stall::new("src2 not ready"))?;
            let Instr::MulDiv { op, word, .. } = uop.instr else {
                unreachable!("non-muldiv in md unit")
            };
            value = muldiv_exec(op, word, a, b);
            let lat = match op {
                riscy_isa::inst::MulDivOp::Mul
                | riscy_isa::inst::MulDivOp::Mulh
                | riscy_isa::inst::MulDivOp::Mulhsu
                | riscy_isa::inst::MulDivOp::Mulhu => MUL_LATENCY,
                _ => DIV_LATENCY,
            };
            core.md_unit.write(Some((uop, now + lat, value)));
            return Ok(());
        }
        if now < done {
            // The countdown expires without a publish: name the first
            // kernel cycle at which `now >= done` holds. `now` is memory
            // time, which runs ahead of the kernel clock during core rules,
            // so the wait is counted in cycles, not compared as a date.
            self.clk.wake_at(self.clk.cycle() + (done - now));
            return Err(Stall::new("md busy"));
        }
        if core.md_wb.read().is_some() {
            return Err(Stall::new("md wb full"));
        }
        core.md_unit.write(None);
        core.md_wb.write(Some((uop, value)));
        Ok(())
    }

    // -----------------------------------------------------------------
    // Memory pipeline
    // -----------------------------------------------------------------

    /// Addr-Calc (paper Fig. 9): computes the VA and reads store data.
    pub(crate) fn rule_addr_calc(&mut self, c: usize) -> Guarded<()> {
        let core = &self.cores[c];
        let uop = core.mem_ex.read().ok_or(Stall::new("mem exec empty"))?;
        if core.mem_wait_tlb.len() >= 4 {
            return Err(Stall::new("translate stage full"));
        }
        if uop.mem_kind == Some(MemKind::Fence) {
            core.mem_ex.write(None);
            core.rob.set_non_mem_completed(uop.rob);
            core.pipe.complete(uop.rob, self.mem.now());
            return Ok(());
        }
        let base = core.operand(uop.src1).ok_or(Stall::new("base not ready"))?;
        let data = core.operand(uop.src2).ok_or(Stall::new("data not ready"))?;
        let va = match uop.instr {
            Instr::Load { offset, .. } | Instr::Store { offset, .. } => {
                base.wrapping_add(offset as i64 as u64)
            }
            _ => base, // atomics address from rs1
        };
        core.mem_ex.write(None);
        core.mem_wait_tlb.push_back(MemTrans {
            uop,
            va,
            data,
            tlb_id: None,
        });
        Ok(())
    }

    /// Update-LSQ (paper Fig. 9): translation, LSQ fill, ROB notification.
    ///
    /// The lookups and miss launches are plain calls on the TLBs, made only
    /// on paths that fire. The rule stalls when there is provably nothing
    /// to do, or when its D TLB miss has no slot to park in; that stall
    /// decides on a peek and leaves the D TLB alone.
    pub(crate) fn rule_update_lsq(&mut self, c: usize) -> Guarded<()> {
        let now = self.mem.now();
        let mut progressed = false;

        // 1. Consume every arrived TLB response (each finishes one parked
        //    translation; responses for flushed entries are dropped).
        while let Some(r) = self.cores[c].port.dtlb_resp.pop_front() {
            progressed = true;
            let slot = self.cores[c]
                .mem_wait_tlb
                .with(|v| v.iter().position(|t| t.tlb_id == Some(r.id)));
            if let Some(slot) = slot {
                let t = self.cores[c]
                    .mem_wait_tlb
                    .get(slot)
                    .expect("position found above");
                let res = r.result.map_err(|f| {
                    let x = match f.access {
                        Access::Load => Exception::LoadPageFault,
                        _ => Exception::StorePageFault,
                    };
                    (x, f.va)
                });
                self.finish_translation(c, slot, &t, res);
            }
        }

        // 2. Attempt one same-cycle L1 D TLB lookup for the oldest entry
        //    without an outstanding miss. Under the blocking configuration
        //    (RiscyOO-B) nothing proceeds while a miss is pending.
        let hum = self.cores[c].tlb.hit_under_miss();
        if hum || !self.cores[c].port.dtlb_busy.read() {
            let next = self.cores[c].mem_wait_tlb.with(|v| {
                let (slot, t) = v.iter().enumerate().find(|(_, t)| t.tlb_id.is_none())?;
                let access = match t.uop.mem_kind {
                    Some(MemKind::Load) => Access::Load,
                    _ => Access::Store,
                };
                Some((slot, *t, access))
            });
            if let Some((slot, t, access)) = next {
                let (satp, pm) = {
                    let core = &self.cores[c];
                    (core.csr.satp, core.priv_mode)
                };
                let tlb = &self.cores[c].tlb;
                if !progressed && !tlb.can_park_d() && tlb.peek_d(t.va, access, satp, pm).is_none()
                {
                    return Err(Stall::new("dtlb miss slots full"));
                }
                match self.cores[c].tlb.lookup_d(t.va, access, satp, pm) {
                    Some(res) => {
                        let res = res.map_err(|f| {
                            let x = match f.access {
                                Access::Load => Exception::LoadPageFault,
                                _ => Exception::StorePageFault,
                            };
                            (x, f.va)
                        });
                        self.finish_translation(c, slot, &t, res);
                        progressed = true;
                    }
                    None => {
                        if self.cores[c].tlb.can_park_d() {
                            let id = self.cores[c].next_tlb_id;
                            self.cores[c].next_tlb_id += 1;
                            self.cores[c].stats.dtlb_misses += 1;
                            let pm = self.cores[c].priv_mode;
                            self.cores[c].tlb.request_d(now, id, t.va, access, pm);
                            let parked = MemTrans {
                                tlb_id: Some(id),
                                ..t
                            };
                            self.cores[c].mem_wait_tlb.set(slot, parked);
                            progressed = true;
                        }
                        // Else step 1 progressed, so the rule fires and
                        // its lookup has counted the miss.
                    }
                }
            }
        }
        if progressed {
            Ok(())
        } else {
            Err(Stall::new("nothing to translate"))
        }
    }

    fn finish_translation(
        &mut self,
        c: usize,
        slot: usize,
        t: &MemTrans,
        res: Result<u64, (Exception, u64)>,
    ) {
        self.cores[c].mem_wait_tlb.remove(slot);
        let core = &self.cores[c];
        let uop = t.uop;
        let idx = uop.lsq_idx.expect("memory op has an LSQ slot");
        // Physical address sanity: below DRAM and outside MMIO is an
        // access fault.
        let res = res.and_then(|pa| {
            if pa >= DRAM_BASE || is_mmio(pa) {
                Ok(pa)
            } else {
                let x = if uop.mem_kind == Some(MemKind::Load) {
                    Exception::LoadAccessFault
                } else {
                    Exception::StoreAccessFault
                };
                Err((x, pa))
            }
        });
        let mmio = matches!(res, Ok(pa) if is_mmio(pa));
        let (bytes, signed) = access_meta(&uop.instr);
        match uop.mem_kind {
            Some(MemKind::Load) => {
                core.lsq.update_ld(idx, res, bytes, signed, mmio, None);
                core.rob
                    .set_after_translation(uop.rob, mmio, mmio, false, res.err());
            }
            Some(MemKind::Atomic) => {
                let op = atomic_op(&uop.instr, t.data);
                core.lsq.update_ld(idx, res, bytes, false, mmio, Some(op));
                core.rob
                    .set_after_translation(uop.rob, true, mmio, false, res.err());
            }
            Some(MemKind::Store) => {
                core.lsq.update_st(idx, res, bytes, t.data, mmio);
                core.rob
                    .set_after_translation(uop.rob, false, mmio, true, res.err());
                // Stores are ROB-complete once translated; the actual write
                // drains post-commit.
                core.pipe.complete(uop.rob, self.mem.now());
            }
            _ => unreachable!("fences do not translate"),
        }
    }

    /// Paper Fig. 10 `doIssueLd`.
    pub(crate) fn rule_issue_ld(&mut self, c: usize) -> Guarded<()> {
        let (idx, addr, bytes) = self.cores[c].lsq.get_issue_ld()?;
        let core = &self.cores[c];
        if core.port.d_full() {
            return Err(Stall::new("dcache full"));
        }
        let sb_result = if core.cfg.mem_model == MemModel::Wmm {
            core.sb.search(addr, bytes)
        } else {
            SbSearch::Miss
        };
        match core.lsq.issue_ld(idx, sb_result) {
            LdIssue::Forward(v) => {
                let seq = core.lsq.lq_entry(idx).expect("live").seq;
                core.forward_q.push_back((idx, seq, v));
                Ok(())
            }
            LdIssue::ToCache => {
                core.port.d_req.push_back(CoreReq::Ld {
                    tag: u32::from(idx),
                    addr,
                    bytes,
                });
                Ok(())
            }
            LdIssue::Stalled => {
                // The load will retry from the LQ on a later cycle.
                self.cores[c].stats.lsq_replays += 1;
                Ok(())
            }
        }
    }

    /// Paper's `deqLd`: retire the oldest load from the LQ and notify the
    /// ROB (`setAtLSQDeq`).
    pub(crate) fn rule_deq_ld(&mut self, c: usize) -> Guarded<()> {
        let core = &self.cores[c];
        let (_, e) = core.lsq.first_ld()?;
        let result = if e.killed {
            LsqDeqResult::Killed
        } else if let Some((x, tval)) = e.fault {
            LsqDeqResult::Exception(x, tval)
        } else if e.state == LdState::Done {
            if e.dst.is_some() && !e.wb_done {
                return Err(Stall::new("write-back not yet performed"));
            }
            if core.lsq.older_store_addr_unknown(e.seq) {
                return Err(Stall::new("older store address unknown"));
            }
            LsqDeqResult::Complete
        } else {
            return Err(Stall::new("load not done"));
        };
        let e = core.lsq.deq_ld();
        core.rob.set_at_lsq_deq(e.rob, result);
        Ok(())
    }

    /// Paper's `deqSt`: drain committed stores (to the SB under WMM, to L1
    /// directly under TSO) and retire fences.
    pub(crate) fn rule_deq_st(&mut self, c: usize) -> Guarded<()> {
        let model = self.cfg.mem_model;
        let core = &self.cores[c];
        let (idx, e) = core.lsq.first_st()?;
        if !e.committed {
            return Err(Stall::new("store not committed"));
        }
        if e.is_fence {
            let drained = match model {
                MemModel::Wmm => core.sb.is_empty(),
                MemModel::Tso => true, // older stores already dequeued
            };
            if !drained {
                return Err(Stall::new("fence waiting for SB drain"));
            }
            core.lsq.deq_st();
            return Ok(());
        }
        if e.mmio {
            core.lsq.deq_st(); // device write already performed at commit
            return Ok(());
        }
        let addr = e.addr.expect("committed store translated");
        let data = e.data.expect("committed store has data");
        match model {
            MemModel::Wmm => {
                core.sb.enq(addr, e.bytes, data)?;
                core.lsq.deq_st();
            }
            MemModel::Tso => {
                if e.issued {
                    return Err(Stall::new("store awaiting respSt"));
                }
                if core.port.d_full() {
                    return Err(Stall::new("dcache full"));
                }
                core.lsq.mark_st_issued(idx);
                core.port.d_req.push_back(CoreReq::St {
                    sb_idx: u32::from(idx),
                    line: line_of(addr),
                });
            }
        }
        Ok(())
    }

    /// WMM: issue a store-buffer entry to L1 D.
    pub(crate) fn rule_sb_issue(&mut self, c: usize) -> Guarded<()> {
        if self.cfg.mem_model != MemModel::Wmm {
            return Err(Stall::new("no SB under TSO"));
        }
        let core = &self.cores[c];
        if core.port.d_full() {
            return Err(Stall::new("dcache full"));
        }
        let (idx, line) = core.sb.issue()?;
        core.port.d_req.push_back(CoreReq::St {
            sb_idx: idx as u32,
            line,
        });
        Ok(())
    }

    /// Paper Fig. 10 `doRespSt`: store permission granted — write the data
    /// and wake stalled loads.
    pub(crate) fn rule_resp_st(&mut self, c: usize) -> Guarded<()> {
        self.handle_resp(c, "no store response")
    }

    /// `respLd` and `respSt`: each takes the response at the head, of
    /// either kind, so neither kind blocks the other.
    fn handle_resp(&mut self, c: usize, idle: &'static str) -> Guarded<()> {
        match self.cores[c].port.d_resp.pop_front() {
            Some(r @ CoreResp::St { .. }) => self.handle_store_resp(c, r),
            Some(r) => self.handle_load_resp(c, r),
            None => Err(Stall::new(idle)),
        }
    }

    fn handle_store_resp(&mut self, c: usize, resp: CoreResp) -> Guarded<()> {
        let CoreResp::St { sb_idx } = resp else {
            unreachable!()
        };
        match self.cfg.mem_model {
            MemModel::Wmm => {
                // A response for an already-drained slot (a duplicate under
                // fault injection) is dropped rather than crashing the core.
                let Some(e) = self.cores[c].sb.try_deq(sb_idx as usize) else {
                    return Ok(());
                };
                let core = &mut self.cores[c];
                core.stats.sb_drains += 1;
                core.port.d_write.push_back((e.line, e.data, e.byte_en));
                core.lsq.wakeup_by_sb_deq(sb_idx as usize);
            }
            MemModel::Tso => {
                let idx = sb_idx as u16;
                // Same: ignore responses for stores that already drained,
                // or that have not actually issued (no bound address/data).
                let Some(e) = self.cores[c].lsq.sq_entry(idx) else {
                    return Ok(());
                };
                let (Some(addr), Some(data_v)) = (e.addr, e.data) else {
                    return Ok(());
                };
                let line = line_of(addr);
                let mut data = [0u8; 64];
                let mut en = [false; 64];
                let off = (addr - line) as usize;
                for k in 0..e.bytes as usize {
                    data[off + k] = (data_v >> (8 * k)) as u8;
                    en[off + k] = true;
                }
                self.cores[c].port.d_write.push_back((line, data, en));
                self.cores[c].lsq.deq_st();
            }
        }
        Ok(())
    }

    fn handle_load_resp(&mut self, c: usize, resp: CoreResp) -> Guarded<()> {
        let (tag, data, is_atomic) = match resp {
            CoreResp::Ld { tag, data } => (tag, data, false),
            CoreResp::Atomic { tag, data } => (tag, data, true),
            CoreResp::St { .. } => unreachable!(),
        };
        let core = &self.cores[c];
        let idx = tag as u16;
        let entry_before = core.lsq.lq_entry(idx);
        if core.lsq.resp_ld(idx) {
            return Ok(());
        }
        // invariant: `resp_ld` reported a live, non-zombie entry, so the
        // snapshot taken just above must be populated — but a spurious
        // response is still cheaper to drop than to crash on.
        let Some(entry) = entry_before else {
            return Ok(());
        };
        if let Some(dst) = entry.dst {
            let v = if is_atomic {
                data // the cache already width-extended atomics
            } else {
                ext_load(data, entry.bytes, entry.signed)
            };
            let lane = core.cfg.alu_pipes + 1;
            core.writeback(lane, dst, v);
        }
        core.lsq.mark_wb_done(idx);
        core.pipe.complete(entry.rob, self.mem.now());
        Ok(())
    }

    // -----------------------------------------------------------------
    // Issue
    // -----------------------------------------------------------------

    /// Issues from ALU IQ `p` into its exec latch; single-cycle producers
    /// set the optimistic scoreboard bit (paper §V "Scoreboard").
    pub(crate) fn rule_issue_alu(&mut self, c: usize, p: usize) -> Guarded<()> {
        let core = &self.cores[c];
        if core.alu_ex[p].read().is_some() {
            return Err(Stall::new("exec latch full"));
        }
        let uop = core.iqs[p].issue()?;
        core.pipe.issue(uop.rob, self.mem.now());
        if let Some(dst) = uop.dst {
            // Optimistic scoreboard wakeup (paper §V): single-cycle ALU
            // producers wake dependents at issue; the value reaches them
            // through the bypass network exactly when they reg-read.
            core.prf.set_score_ready(dst);
            for iq in &core.iqs {
                iq.wakeup(dst);
            }
        }
        core.alu_ex[p].write(Some(uop));
        Ok(())
    }

    /// Issues into the mul/div unit.
    pub(crate) fn rule_issue_md(&mut self, c: usize) -> Guarded<()> {
        let core = &self.cores[c];
        if core.md_unit.read().is_some() {
            return Err(Stall::new("md unit busy"));
        }
        let uop = core.iq_md().issue()?;
        core.pipe.issue(uop.rob, self.mem.now());
        // Marker state: operands read on the first exec cycle.
        core.md_unit.write(Some((uop, u64::MAX, u64::MAX)));
        Ok(())
    }

    /// Issues from the memory IQ into Addr-Calc.
    pub(crate) fn rule_issue_mem(&mut self, c: usize) -> Guarded<()> {
        let core = &self.cores[c];
        if core.mem_ex.read().is_some() {
            return Err(Stall::new("mem exec latch full"));
        }
        let uop = core.iq_mem().issue()?;
        core.pipe.issue(uop.rob, self.mem.now());
        core.mem_ex.write(Some(uop));
        Ok(())
    }

    // -----------------------------------------------------------------
    // Rename
    // -----------------------------------------------------------------

    /// Renames one instruction (paper Fig. 8's `doRename`, one rule per
    /// superscalar way).
    #[allow(clippy::too_many_lines)]
    pub(crate) fn rule_rename(&mut self, c: usize) -> Guarded<()> {
        let now = self.mem.now();
        let core = &self.cores[c];
        if core.serialize.read() {
            return Err(Stall::new("serialized instruction in flight"));
        }
        let dec = core
            .fetch_q
            .front()
            .ok_or(Stall::new("nothing to rename"))?;

        let instr = match dec.instr {
            Ok(i) => i,
            Err(x) => {
                // Illegal instruction / fetch fault: a completed ROB entry
                // carrying the exception.
                let rob_idx = core.rob.enq_index();
                let uop = bare_uop(&dec, rob_idx, core.rob.enq_seq());
                let mut e = RobEntry::new(uop);
                e.completed = true;
                e.exception = Some(x);
                e.tval = if x == Exception::InstPageFault {
                    dec.pc
                } else {
                    0
                };
                core.rob.enq(e)?;
                core.pipe
                    .rename(rob_idx, dec.pc, None, dec.fetched_at, dec.decoded_at, now);
                core.fetch_q.pop_front();
                return Ok(());
            }
        };

        // Serialized (system) instructions rename alone, with an empty ROB
        // (the paper allows a single CSR instruction in flight).
        if let Some(op) = system_class(&instr) {
            if !core.rob.is_empty() || !core.lsq.is_empty() || !core.sb.is_empty() {
                return Err(Stall::new("waiting to serialize"));
            }
            let mut uop = bare_uop(&dec, core.rob.enq_index(), core.rob.enq_seq());
            uop.instr = instr;
            if let Instr::Csr { rd, src, .. } = instr {
                // The CSR source register is read at commit via src1.
                if let CsrSrc::Reg(rs1) = src {
                    uop.src1 = core.rt.lookup(rs1);
                }
                if !rd.is_zero() {
                    let (new, old) = core.rt.allocate(rd)?;
                    uop.arch_dst = Some(rd);
                    uop.dst = Some(new);
                    uop.old_dst = Some(old);
                    core.prf.set_not_ready(new);
                }
            }
            let mut e = RobEntry::new(uop);
            e.completed = true;
            e.system = Some(op);
            if let Some(x) = trap_exception(&instr, core.priv_mode) {
                e.exception = Some(x);
                e.tval = if x == Exception::Breakpoint {
                    dec.pc
                } else {
                    0
                };
            }
            core.rob.enq(e)?;
            core.pipe.rename(
                uop.rob,
                dec.pc,
                Some(&instr),
                dec.fetched_at,
                dec.decoded_at,
                now,
            );
            core.serialize.write(true);
            core.fetch_q.pop_front();
            return Ok(());
        }

        // Ordinary instruction. Every stall is decided before the first
        // write, through the modules' read-only twins and in the order the
        // allocations below happen (LSQ, physical register, speculation
        // tag, IQ, ROB), so a rename that cannot fire reads its guard,
        // touches nothing, and sleeps on the capacity cells alone.
        let mem_kind = mem_class(&instr);
        let rd = dest(&instr);
        let needs_tag = matches!(instr, Instr::Branch { .. } | Instr::Jalr { .. });
        let rob_idx = core.rob.enq_index();
        let iq = match pipe_of(&instr) {
            // Round-robin over ALU IQs by ROB index.
            ExecPipe::Alu => &core.iqs[rob_idx as usize % core.cfg.alu_pipes],
            ExecPipe::Mem => core.iq_mem(),
            ExecPipe::MulDiv => core.iq_md(),
        };
        match mem_kind {
            Some(MemKind::Load | MemKind::Atomic) => core.lsq.can_enq_ld()?,
            Some(MemKind::Store | MemKind::Fence) => core.lsq.can_enq_st()?,
            None => {}
        }
        if let Some(r) = rd {
            core.rt.can_allocate(r)?;
        }
        if needs_tag {
            core.sm.can_allocate()?;
        }
        iq.can_enter()?;
        core.rob.can_enq()?;

        // Rename sources, take the rename order, allocate resources.
        let (rs1, rs2) = sources(&instr);
        let src1 = core.rt.lookup(rs1);
        let src2 = core.rt.lookup(rs2);
        let rdy1 = core.prf.score_ready(src1);
        let rdy2 = core.prf.score_ready(src2);
        let seq = core.rob.enq_seq();
        let lsq_idx = match mem_kind {
            Some(kind @ (MemKind::Load | MemKind::Atomic)) => {
                Some(
                    core.lsq
                        .enq_ld(rob_idx, seq, None, kind == MemKind::Atomic)?,
                )
            }
            Some(MemKind::Store) => Some(core.lsq.enq_st(seq, false)?),
            Some(MemKind::Fence) => Some(core.lsq.enq_st(seq, true)?),
            None => None,
        };

        let (arch_dst, dst, old_dst) = match rd {
            Some(r) => {
                let (new, old) = core.rt.allocate(r)?;
                (Some(r), Some(new), Some(old))
            }
            None => (None, None, None),
        };

        let mut uop = Uop {
            instr,
            pc: dec.pc,
            pred_next: dec.pred_next,
            rob: rob_idx,
            arch_dst,
            dst,
            old_dst,
            src1,
            src2,
            seq,
            own_tag: None,
            lsq_idx,
            mem_kind,
            pred_taken: dec.pred_taken,
            ghist: dec.ghist,
        };

        // Branches needing verification allocate a speculation tag with a
        // recovery snapshot (paper §V "SpeculationManager").
        if needs_tag {
            let snap = SpecSnapshot {
                rat: core.rt.snapshot(),
                ras: dec.ras,
                ghist: dec.ghist,
                seq,
            };
            uop.own_tag = Some(core.sm.allocate(snap)?);
        }

        iq.enter(uop, rdy1, rdy2)?;
        // Destination becomes not-ready only after the source ready bits
        // were read (paper Fig. 8's ordering in doRename).
        if let Some(d) = dst {
            core.prf.set_not_ready(d);
        }
        // Loads record their destination in the LQ entry.
        if let (Some(idx), Some(MemKind::Load | MemKind::Atomic)) = (lsq_idx, mem_kind) {
            core.lsq.set_ld_dst(idx, dst);
        }
        core.rob.enq(RobEntry::new(uop))?;
        core.pipe.rename(
            rob_idx,
            dec.pc,
            Some(&instr),
            dec.fetched_at,
            dec.decoded_at,
            now,
        );
        core.fetch_q.pop_front();
        Ok(())
    }

    // -----------------------------------------------------------------
    // Decode
    // -----------------------------------------------------------------

    /// Consumes one fetched packet in sequence order, decodes it, predicts
    /// next PCs, and redirects the fetch stream when its BTB guess was
    /// wrong.
    pub(crate) fn rule_decode(&mut self, c: usize) -> Guarded<()> {
        let now = self.mem.now();
        let core = &mut self.cores[c];
        let expect = core.fetch_expect.read();
        let epoch = core.epoch.read();
        let pos = core
            .fetch_buf
            .with(|b| b.iter().position(|(r, _)| r.seq == expect))
            .ok_or(Stall::new("packet not arrived"))?;
        if core.fetch_q.len() + 2 > 4 * core.cfg.width {
            return Err(Stall::new("decode queue full"));
        }
        let (req, raw) = core.fetch_buf.remove(pos).expect("position found above");
        core.fetch_expect.write(expect + 1);
        if req.epoch != epoch {
            return Ok(()); // stale wrong-path packet
        }
        if req.fault {
            core.fetch_q.push_back(DecInst {
                pc: req.pc,
                instr: Err(Exception::InstPageFault),
                pred_next: req.pc.wrapping_add(4),
                pred_taken: false,
                ghist: core.tour.snapshot(),
                ras: core.ras.snapshot(),
                fetched_at: req.at,
                decoded_at: now,
            });
            return Ok(());
        }
        let mut next = req.pc;
        for k in 0..req.n {
            let pc = req.pc + 4 * k as u64;
            if pc != next {
                break; // earlier instruction in the packet jumped away
            }
            let word = (raw >> (32 * k)) as u32;
            let ghist = core.tour.snapshot();
            match decode(word) {
                Ok(instr) => {
                    let p = predict_next(&mut core.btb, &mut core.tour, &mut core.ras, pc, &instr);
                    core.fetch_q.push_back(DecInst {
                        pc,
                        instr: Ok(instr),
                        pred_next: p.target,
                        pred_taken: p.taken,
                        ghist,
                        ras: core.ras.snapshot(),
                        fetched_at: req.at,
                        decoded_at: now,
                    });
                    next = p.target;
                }
                Err(_) => {
                    core.fetch_q.push_back(DecInst {
                        pc,
                        instr: Err(Exception::IllegalInst),
                        pred_next: pc + 4,
                        pred_taken: false,
                        ghist,
                        ras: core.ras.snapshot(),
                        fetched_at: req.at,
                        decoded_at: now,
                    });
                    next = pc + 4;
                }
            }
        }
        if next != req.guess_next {
            // Decode-time redirect: the BTB-based fetch-ahead guessed wrong.
            core.epoch.update(|e| *e += 1);
            core.fetch_pc.write(next);
            core.fetch_buf.clear();
            core.fetch_expect.write(core.fetch_seq.read());
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Fetch
    // -----------------------------------------------------------------

    /// Issues an I-cache fetch for the next packet, guessing the following
    /// fetch PC with the BTB (fetch-ahead).
    pub(crate) fn rule_fetch(&mut self, c: usize) -> Guarded<()> {
        let now = self.mem.now();
        if self.devices.exited[c].read().is_some() {
            return Err(Stall::new("core exited"));
        }
        {
            let core = &self.cores[c];
            if core.fetch_q.len() >= 4 * core.cfg.width {
                return Err(Stall::new("decode queue full"));
            }
            if core.fetch_buf.len() >= 8 {
                return Err(Stall::new("fetch buffer full"));
            }
            if core.inflight_fetch.len() >= 4 {
                return Err(Stall::new("fetches in flight"));
            }
        }
        if self.cores[c].port.itlb_busy.read() {
            return Err(Stall::new("itlb miss pending"));
        }
        let pc = self.cores[c].fetch_pc.read();
        let epoch = self.cores[c].epoch.read();
        let n = if pc.is_multiple_of(8) {
            self.cfg.width.min(2)
        } else {
            1
        };
        let (satp, pm) = {
            let core = &self.cores[c];
            (core.csr.satp, core.priv_mode)
        };
        let seq = self.cores[c].fetch_seq.read();
        // A faulting I-side walk reports once; it is this PC's fault if
        // this PC launched it.
        let walk_fault = self.cores[c].port.itlb_fault.read();
        if walk_fault.is_some() {
            self.cores[c].port.itlb_fault.write(None);
        }
        let looked_up = if walk_fault == Some(pc) {
            None
        } else {
            // The stall decides on a peek and leaves the I TLB alone.
            match self.cores[c].tlb.peek_i(pc, satp, pm) {
                None => {
                    let core = &mut self.cores[c];
                    core.tlb.lookup_i(pc, satp, pm);
                    let id = core.next_tlb_id;
                    core.next_tlb_id += 1;
                    core.tlb.request_i(now, id, pc, pm);
                    return Ok(());
                }
                Some(Ok(_)) if self.cores[c].port.i_full() => {
                    return Err(Stall::new("icache full"));
                }
                Some(_) => self.cores[c].tlb.lookup_i(pc, satp, pm),
            }
        };
        let pa = match looked_up {
            Some(Ok(pa)) => pa,
            _ => {
                // Fetch fault (a faulting walk or a permission fault):
                // deliver a poisoned packet directly.
                let req = FetchReq {
                    seq,
                    epoch,
                    pc,
                    n: 1,
                    guess_next: pc.wrapping_add(4),
                    fault: true,
                    at: now,
                };
                let core = &self.cores[c];
                core.fetch_seq.write(seq + 1);
                core.fetch_buf.push_back((req, 0));
                core.fetch_pc.write(pc.wrapping_add(4));
                return Ok(());
            }
        };
        // BTB-based fetch-ahead: follow a predicted-taken branch anywhere
        // in the packet.
        let mut guess = pc + 4 * n as u64;
        let mut eff_n = n;
        for k in 0..n {
            if let Some(t) = self.cores[c].btb.predict(pc + 4 * k as u64) {
                guess = t;
                eff_n = k + 1;
                break;
            }
        }
        let req = FetchReq {
            seq,
            epoch,
            pc,
            n: eff_n,
            guess_next: guess,
            fault: false,
            at: now,
        };
        let core = &self.cores[c];
        core.port.i_req.push_back(CoreReq::Ld {
            tag: seq as u32,
            addr: pa,
            bytes: (4 * eff_n) as u8,
        });
        core.fetch_seq.write(seq + 1);
        core.inflight_fetch.push_back(req);
        core.fetch_pc.write(guess);
        Ok(())
    }

    /// Moves arrived I-cache responses into the fetch buffer.
    pub(crate) fn rule_fetch_resp(&mut self, c: usize) -> Guarded<()> {
        let core = &self.cores[c];
        if core.port.i_resp.is_empty() {
            return Err(Stall::new("no fetch responses"));
        }
        while let Some(resp) = core.port.i_resp.pop_front() {
            let CoreResp::Ld { tag, data } = resp else {
                continue;
            };
            let found = core
                .inflight_fetch
                .with(|v| v.iter().position(|r| r.seq as u32 == tag));
            if let Some(req) = found.and_then(|i| core.inflight_fetch.remove(i)) {
                // Wrong-path packets from before a redirect are dropped
                // here; the sequence counter already skipped past them.
                if req.epoch == core.epoch.read() {
                    core.fetch_buf.push_back((req, data));
                }
            }
        }
        Ok(())
    }
}

/// Access size/signedness of a memory instruction.
fn access_meta(i: &Instr) -> (u8, bool) {
    match *i {
        Instr::Load { width, signed, .. } => (width.bytes() as u8, signed),
        Instr::Store { width, .. } => (width.bytes() as u8, false),
        Instr::Lr { width, .. } | Instr::Sc { width, .. } | Instr::Amo { width, .. } => {
            (width.bytes() as u8, true)
        }
        _ => (8, false),
    }
}

/// Builds the cache-level atomic payload.
fn atomic_op(i: &Instr, data: u64) -> AtomicOp {
    match *i {
        Instr::Lr { .. } => AtomicOp::Lr,
        Instr::Sc { .. } => AtomicOp::Sc(data),
        Instr::Amo { op, .. } => AtomicOp::Amo(op, data),
        _ => unreachable!("not an atomic"),
    }
}

/// Serialized (system) instruction classification.
fn system_class(i: &Instr) -> Option<SystemOp> {
    match i {
        Instr::Csr { .. } => Some(SystemOp::Csr),
        Instr::Ecall | Instr::Ebreak => Some(SystemOp::Trap),
        Instr::Mret | Instr::Sret => Some(SystemOp::Ret),
        Instr::FenceI | Instr::SfenceVma { .. } => Some(SystemOp::FlushFence),
        Instr::Wfi => Some(SystemOp::Nop),
        _ => None,
    }
}

/// The exception a trap-class instruction raises at commit.
fn trap_exception(i: &Instr, p: Priv) -> Option<Exception> {
    match i {
        Instr::Ecall => Some(Exception::Ecall(p)),
        Instr::Ebreak => Some(Exception::Breakpoint),
        _ => None,
    }
}

/// Architectural source registers (x0 for unused slots).
fn sources(i: &Instr) -> (Gpr, Gpr) {
    match *i {
        Instr::Jalr { rs1, .. } => (rs1, Gpr::ZERO),
        Instr::Branch { rs1, rs2, .. } => (rs1, rs2),
        Instr::Load { rs1, .. } => (rs1, Gpr::ZERO),
        Instr::Store { rs1, rs2, .. } => (rs1, rs2),
        Instr::Alu { rs1, rhs, .. } => match rhs {
            Rhs::Reg(rs2) => (rs1, rs2),
            Rhs::Imm(_) => (rs1, Gpr::ZERO),
        },
        Instr::MulDiv { rs1, rs2, .. } => (rs1, rs2),
        Instr::Lr { rs1, .. } => (rs1, Gpr::ZERO),
        Instr::Sc { rs1, rs2, .. } | Instr::Amo { rs1, rs2, .. } => (rs1, rs2),
        _ => (Gpr::ZERO, Gpr::ZERO),
    }
}

/// Architectural destination, if any (x0 writes are dropped).
fn dest(i: &Instr) -> Option<Gpr> {
    let rd = match *i {
        Instr::Lui { rd, .. }
        | Instr::Auipc { rd, .. }
        | Instr::Jal { rd, .. }
        | Instr::Jalr { rd, .. }
        | Instr::Load { rd, .. }
        | Instr::Alu { rd, .. }
        | Instr::MulDiv { rd, .. }
        | Instr::Lr { rd, .. }
        | Instr::Sc { rd, .. }
        | Instr::Amo { rd, .. } => rd,
        _ => return None,
    };
    (!rd.is_zero()).then_some(rd)
}

/// Memory classification.
fn mem_class(i: &Instr) -> Option<MemKind> {
    match i {
        Instr::Load { .. } => Some(MemKind::Load),
        Instr::Store { .. } => Some(MemKind::Store),
        Instr::Lr { .. } | Instr::Sc { .. } | Instr::Amo { .. } => Some(MemKind::Atomic),
        Instr::Fence => Some(MemKind::Fence),
        _ => None,
    }
}

/// Execution pipeline selection.
fn pipe_of(i: &Instr) -> ExecPipe {
    match i {
        Instr::Load { .. }
        | Instr::Store { .. }
        | Instr::Lr { .. }
        | Instr::Sc { .. }
        | Instr::Amo { .. }
        | Instr::Fence => ExecPipe::Mem,
        Instr::MulDiv { .. } => ExecPipe::MulDiv,
        _ => ExecPipe::Alu,
    }
}

fn bare_uop(dec: &DecInst, rob: u16, seq: u64) -> Uop {
    Uop {
        instr: Instr::Ecall, // placeholder for undecodable words
        pc: dec.pc,
        pred_next: dec.pred_next,
        rob,
        arch_dst: None,
        dst: None,
        old_dst: None,
        src1: PhysReg::ZERO,
        src2: PhysReg::ZERO,
        seq,
        own_tag: None,
        lsq_idx: None,
        mem_kind: None,
        pred_taken: dec.pred_taken,
        ghist: dec.ghist,
    }
}

cmd_core::snap_struct!(FetchReq {
    seq,
    epoch,
    pc,
    n,
    guess_next,
    fault,
    at,
});

cmd_core::snap_struct!(DecInst {
    pc,
    instr,
    pred_next,
    pred_taken,
    ghist,
    ras,
    fetched_at,
    decoded_at,
});

cmd_core::snap_struct!(MemTrans {
    uop,
    va,
    data,
    tlb_id
});

// The plain state of a core: everything beside its cells, which the
// kernel's cell walk saves. The bypass network is `Wire`-based and
// therefore empty at cycle boundaries; the pipeline-trace collector and
// top-down accounting are observers, not state — snapshots are refused
// while either is attached (see [`crate::soc::SocSim::save_snapshot`]).
cmd_core::snapshot_fields!(CoreState {
    btb: module,
    tour: module,
    ras: module,
    tlb: module,
    csr,
    priv_mode,
    next_tlb_id,
    roi_start,
    stats,
});

impl CoreState {
    /// Checks what the cells a snapshot restored must satisfy together and
    /// with the restored `mem`: every occupancy mask and LSQ head agrees
    /// with its slots, the ROB ring is in order, every sequence number in
    /// flight is below the one the next rename takes, no request queue to
    /// an L1 is longer than its credit and every credit is the L1's free
    /// request slots, the rename state is in range, and every live
    /// speculation tag fits the free list.
    ///
    /// # Errors
    ///
    /// [`cmd_core::snap::SnapError::Corrupt`] naming the first violation.
    pub(crate) fn check_cells(&self, mem: &MemSystem) -> Result<(), cmd_core::snap::SnapError> {
        let p = &self.port;
        let l1s = [
            (&p.d_req, &p.d_free, mem.dcache_ref(self.id)),
            (&p.i_req, &p.i_free, mem.icache_ref(self.id)),
        ];
        let why = if !self.iqs.iter().all(IssueQueue::masks_consistent) {
            "issue-queue masks disagree with the slots"
        } else if !self.lsq.masks_consistent() {
            "load-store-queue masks or heads disagree with the slots"
        } else if !self.sb.masks_consistent() {
            "store-buffer mask disagrees with the slots"
        } else if !self.rob.consistent() {
            "ROB pointers disagree with the entries"
        } else if self.max_seq().is_some_and(|s| s >= self.rob.enq_seq()) {
            "an in-flight sequence number is not below the ROB's next"
        } else if l1s
            .iter()
            .any(|(q, free, _)| q.len() > usize::from(free.read()))
        {
            "a memory request queue is longer than its credit"
        } else if l1s.iter().any(|(_, free, l1)| free.read() != credit(l1)) {
            "a memory credit disagrees with its L1"
        } else if !self.rt.in_range() {
            "rename state out of range"
        } else {
            return self.sm.check_against(&self.rt);
        };
        Err(cmd_core::snap::SnapError::Corrupt(why.into()))
    }

    /// The largest sequence number in flight: in the ROB, the issue queues,
    /// the LSQ (zombies included), the live speculation tags and the
    /// pipeline latches.
    fn max_seq(&self) -> Option<u64> {
        let uop = |l: &Ehr<Option<Uop>>| l.with(|u| u.map(|u| u.seq));
        let latched = self
            .alu_ex
            .iter()
            .chain([&self.mem_ex])
            .filter_map(uop)
            .chain(
                self.alu_wb
                    .iter()
                    .filter_map(|l| l.with(|t| t.map(|t| t.0.seq))),
            )
            .chain(self.md_unit.with(|t| t.map(|t| t.0.seq)))
            .chain(self.md_wb.with(|t| t.map(|t| t.0.seq)))
            .chain(
                self.mem_wait_tlb
                    .with(|v| v.iter().map(|t| t.uop.seq).max()),
            );
        [self.rob.max_seq(), self.lsq.max_seq(), self.sm.max_seq()]
            .into_iter()
            .flatten()
            .chain(self.iqs.iter().filter_map(IssueQueue::max_seq))
            .chain(latched)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use cmd_core::clock::{CellId, Clock};
    use riscy_isa::asm::Assembler;
    use riscy_isa::inst::MemWidth;
    use riscy_mem::system::MemConfig;

    use super::*;

    fn load() -> Instr {
        Instr::Load {
            width: MemWidth::D,
            signed: true,
            rd: Gpr::a(0),
            rs1: Gpr::a(1),
            offset: 0,
        }
    }

    /// Renames a register and allocates a speculation tag.
    fn jalr() -> Instr {
        Instr::Jalr {
            rd: Gpr::a(0),
            rs1: Gpr::a(1),
            offset: 0,
        }
    }

    fn store() -> Instr {
        Instr::Store {
            width: MemWidth::D,
            rs2: Gpr::a(0),
            rs1: Gpr::a(1),
            offset: 0,
        }
    }

    /// Builds a one-core SoC with `instr` at the head of the rename queue,
    /// lets `fill` drive the core into a shortage in one committed rule,
    /// then evaluates `rename` inside an open rule: returns its outcome and
    /// the cells it enlisted.
    fn stalled_rename(instr: Instr, fill: fn(&CoreState)) -> (Guarded<()>, Vec<CellId>) {
        let clk = Clock::new();
        let mut a = Assembler::new(DRAM_BASE);
        a.nop();
        let cfg = CoreConfig::riscyoo_t_plus();
        let mut soc = Soc::new(&clk, cfg, MemConfig::default(), 1, &a.assemble());
        let core = &soc.cores[0];
        clk.begin_rule();
        core.fetch_q.push_back(DecInst {
            pc: DRAM_BASE,
            instr: Ok(instr),
            pred_next: DRAM_BASE + 4,
            pred_taken: false,
            ghist: core.tour.snapshot(),
            ras: core.ras.snapshot(),
            fetched_at: 0,
            decoded_at: 0,
        });
        fill(core);
        clk.commit_rule();
        clk.begin_rule();
        let outcome = soc.rule_rename(0);
        let enlisted = clk.enlisted_cells();
        clk.abort_rule();
        (outcome, enlisted)
    }

    /// A uop standing for any older instruction, stamped as the ROB's next.
    fn older(core: &CoreState) -> Uop {
        let dec = core.fetch_q.front().expect("an instruction to rename");
        bare_uop(&dec, 0, core.rob.enq_seq())
    }

    #[test]
    fn a_stalled_rename_writes_nothing() {
        // Each shortage, filled through the mutating methods, with an
        // instruction that reaches it only after allocating what comes
        // before it in rename's order (a load: an LQ slot and a register).
        type Case = (&'static str, Instr, fn(&CoreState));
        let cases: [Case; 6] = [
            ("lq full", load(), |c| {
                while c.lsq.enq_ld(0, 0, None, false).is_ok() {}
            }),
            (
                "sq full",
                store(),
                |c| {
                    while c.lsq.enq_st(0, false).is_ok() {}
                },
            ),
            ("no free physical register", load(), |c| {
                while c.rt.allocate(Gpr::a(5)).is_ok() {}
            }),
            ("no free speculation tag", jalr(), |c| {
                let snap = SpecSnapshot {
                    rat: c.rt.snapshot(),
                    ras: c.ras.snapshot(),
                    ghist: c.tour.snapshot(),
                    seq: 0,
                };
                while c.sm.allocate(snap).is_ok() {}
            }),
            ("iq full", load(), |c| {
                while c.iq_mem().enter(older(c), false, false).is_ok() {}
            }),
            ("rob full", load(), |c| {
                while c.rob.enq(RobEntry::new(older(c))).is_ok() {}
            }),
        ];
        for (reason, instr, fill) in cases {
            let (outcome, enlisted) = stalled_rename(instr, fill);
            assert_eq!(outcome, Err(Stall::new(reason)));
            assert!(
                enlisted.is_empty(),
                "{reason}: the stalled rename enlisted {enlisted:?}"
            );
        }
    }

    /// A one-core SoC and a way to rename one instruction at a time: each
    /// call renames `instr` at `pc`, predicted to fall through, in its own
    /// committed rule and returns the micro-op the ROB holds for it.
    fn renamer() -> (Clock, Soc, impl FnMut(&mut Soc, u64, Instr) -> Uop) {
        let clk = Clock::new();
        let mut a = Assembler::new(DRAM_BASE);
        a.nop();
        let cfg = CoreConfig::riscyoo_t_plus();
        let soc = Soc::new(&clk, cfg, MemConfig::default(), 1, &a.assemble());
        let rule_clk = clk.clone();
        let rename = move |soc: &mut Soc, pc: u64, instr: Instr| {
            let core = &soc.cores[0];
            rule_clk.begin_rule();
            core.fetch_q.push_back(DecInst {
                pc,
                instr: Ok(instr),
                pred_next: pc + 4,
                pred_taken: false,
                ghist: core.tour.snapshot(),
                ras: core.ras.snapshot(),
                fetched_at: 0,
                decoded_at: 0,
            });
            let idx = core.rob.enq_index();
            rule_clk.commit_rule();
            rule_clk.begin_rule();
            soc.rule_rename(0).expect("room to rename");
            rule_clk.commit_rule();
            soc.cores[0].rob.entry(idx).expect("renamed").uop
        };
        (clk, soc, rename)
    }

    fn beq() -> Instr {
        Instr::Branch {
            cond: riscy_isa::inst::BranchCond::Eq,
            rs1: Gpr::ZERO,
            rs2: Gpr::ZERO,
            offset: 64,
        }
    }

    fn addi(rd: Gpr) -> Instr {
        Instr::Alu {
            op: riscy_isa::inst::AluOp::Add,
            word: false,
            rd,
            rs1: Gpr::ZERO,
            rhs: Rhs::Imm(1),
        }
    }

    #[test]
    fn a_correct_resolution_enlists_one_cell() {
        let (clk, mut soc, mut rename) = renamer();
        let b = rename(&mut soc, DRAM_BASE, beq());
        for (k, instr) in [load(), store(), beq(), addi(Gpr::a(2))]
            .into_iter()
            .enumerate()
        {
            rename(&mut soc, DRAM_BASE + 4 * (k as u64 + 1), instr);
        }
        clk.begin_rule();
        soc.resolve_branch(0, &b, b.pred_next, false);
        assert_eq!(
            clk.enlisted_cells().len(),
            1,
            "the speculation manager's snapshot array, nothing renamed after the branch"
        );
        clk.commit_rule();
        assert_eq!(
            soc.cores[0].sm.live(),
            1,
            "the younger branch keeps its tag"
        );
    }

    /// Paper §V's stale-bit hazard: b1 takes tag t, x renames, b1 resolves
    /// correctly, b2 takes t again, y renames, b2 mispredicts. x depends on
    /// nothing b2 decides and must survive everywhere it sits; y must go
    /// everywhere. x and y are each a load, a store, a branch and an add
    /// parked in an ALU latch.
    #[test]
    fn a_reused_tag_squashes_only_what_was_renamed_after_its_new_branch() {
        let (clk, mut soc, mut rename) = renamer();
        let mut pc = DRAM_BASE;
        let mut ren = |soc: &mut Soc, instr| {
            pc += 4;
            rename(soc, pc, instr)
        };
        let b1 = ren(&mut soc, beq());
        let x = group(&mut soc, &mut ren);
        in_rule(&clk, || soc.resolve_branch(0, &b1, b1.pred_next, false));
        let b2 = ren(&mut soc, beq());
        assert_eq!(b2.own_tag, b1.own_tag, "b2 reuses b1's tag");
        let y = group(&mut soc, &mut ren);
        let core = &soc.cores[0];
        in_rule(&clk, || {
            core.alu_ex[0].write(Some(x[3]));
            core.alu_ex[1].write(Some(y[3]));
        });
        let iq_len = |core: &CoreState| core.iqs.iter().map(IssueQueue::len).sum::<usize>();
        let in_iqs = iq_len(core);
        in_rule(&clk, || soc.resolve_branch(0, &b2, b2.pred_next + 4, true));

        let core = &soc.cores[0];
        let in_rob = |u: &Uop| core.rob.entry(u.rob).is_some_and(|e| e.uop.seq == u.seq);
        assert!(x.iter().chain([&b1, &b2]).all(in_rob), "x is in the ROB");
        assert!(!y.iter().any(in_rob), "y is not");
        assert_eq!(core.rob.len(), 6);
        assert_eq!(
            iq_len(core),
            in_iqs - 4,
            "y's four issue-queue entries went"
        );
        let lq = |u: &Uop| core.lsq.lq_entry(u.lsq_idx.expect("a load")).map(|e| e.seq);
        let sq = |u: &Uop| {
            core.lsq
                .sq_entry(u.lsq_idx.expect("a store"))
                .map(|e| e.seq)
        };
        assert_eq!((lq(&x[0]), sq(&x[1])), (Some(x[0].seq), Some(x[1].seq)));
        assert_eq!((lq(&y[0]), sq(&y[1])), (None, None));
        assert_eq!(
            core.sm.live(),
            1,
            "x's branch keeps its tag, b2's and y's are free"
        );
        assert_eq!(core.alu_ex[0].read().map(|u| u.seq), Some(x[3].seq));
        assert_eq!(core.alu_ex[1].read(), None);
        assert_eq!(core.check_cells(&soc.mem), Ok(()));
    }

    /// Renames a load, a store, a branch and an add.
    fn group(soc: &mut Soc, ren: &mut impl FnMut(&mut Soc, Instr) -> Uop) -> [Uop; 4] {
        [load(), store(), beq(), addi(Gpr::a(3))].map(|i| ren(soc, i))
    }

    fn in_rule<R>(clk: &Clock, f: impl FnOnce() -> R) -> R {
        clk.begin_rule();
        let r = f();
        clk.commit_rule();
        r
    }
}
