//! The golden-model ISA interpreter (substitute for Spike, the "golden model
//! for RISC-V implementations" the paper validates against).
//!
//! [`Machine`] executes RV64IMA+Zicsr with M/S/U privilege and Sv39 paging,
//! one instruction per [`Machine::step`]. Both processor implementations in
//! this repository are checked against it instruction-by-instruction
//! (lock-step co-simulation at commit).

use cmd_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

use crate::asm::Program;
use crate::csr::{CsrFile, Exception, Priv};
use crate::inst::{
    decode, AluOp, AmoOp, BranchCond, CsrOp, CsrSrc, Instr, MemWidth, MulDivOp, Rhs,
};
use crate::mem::{is_mmio, SparseMem, MMIO_EXIT, MMIO_PUTCHAR, MMIO_ROI};
use crate::reg::Gpr;
use crate::vm::{self, Access, PAGE_SHIFT};

/// Architectural state of one hart.
#[derive(Debug, Clone)]
pub struct Hart {
    /// Hart id (mhartid).
    pub id: usize,
    /// Program counter.
    pub pc: u64,
    /// Integer register file (`regs[0]` is kept at zero).
    pub regs: [u64; 32],
    /// Current privilege.
    pub priv_mode: Priv,
    /// CSR file.
    pub csrs: CsrFile,
    /// Retired instruction count.
    pub instret: u64,
    /// Exit code once the hart has halted via the MMIO exit register.
    pub halted: Option<u64>,
    /// LR reservation (64-byte line address).
    pub reservation: Option<u64>,
    /// Instret at ROI begin (while inside a region of interest).
    pub roi_start: Option<u64>,
    /// Total instructions retired inside ROIs.
    pub roi_insts: u64,
}

impl Hart {
    fn new(id: usize, pc: u64) -> Self {
        Hart {
            id,
            pc,
            regs: [0; 32],
            priv_mode: Priv::M,
            csrs: CsrFile::new(id as u64),
            instret: 0,
            halted: None,
            reservation: None,
            roi_start: None,
            roi_insts: 0,
        }
    }

    /// Reads a GPR.
    #[must_use]
    pub fn reg(&self, r: Gpr) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a GPR (writes to `x0` are discarded).
    pub fn set_reg(&mut self, r: Gpr, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }
}

cmd_core::snap_struct!(Hart {
    id,
    pc,
    regs,
    priv_mode,
    csrs,
    instret,
    halted,
    reservation,
    roi_start,
    roi_insts,
});

/// What one [`Machine::step`] did, for commit-level co-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// PC of the retired (or trapping) instruction.
    pub pc: u64,
    /// The next PC after this step.
    pub next_pc: u64,
    /// Destination register write, if any.
    pub rd: Option<(Gpr, u64)>,
    /// Exception taken by this instruction, if any.
    pub trap: Option<Exception>,
}

/// Outcome of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired (possibly by trapping).
    Retired(Commit),
    /// The hart halted *on this step* via the MMIO exit register.
    Halted(u64),
    /// The hart had already halted; nothing happened.
    AlreadyHalted,
}

/// What the last [`Machine::step`] touched, for a caller that warms caches
/// and predictors from the executed stream ([`Machine::touched`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Touched {
    /// Physical address the instruction word was read from; `None` when
    /// the fetch faulted (or the hart had already halted).
    pub fetch_pa: Option<u64>,
    /// The decoded instruction; `None` when the fetch faulted or the word
    /// is illegal.
    pub instr: Option<Instr>,
    /// `(va, pa)` of the data access whenever its address translated,
    /// MMIO included, and also when the access then trapped as misaligned.
    pub data: Option<(u64, u64)>,
}

/// Sets of the translation cache; each [`Access`] kind has its own.
const XLATE_SETS: usize = 64;
/// Most PTE frames the translation cache tracks before it starts over,
/// which bounds the scan every store pays.
const PTE_FRAMES_MAX: usize = 32;
/// Entries of the decode cache.
const DECODE_SETS: usize = 1024;

/// One successful walk: the 4 KiB virtual page `vpn` under `satp` at
/// `priv_mode` maps to physical page `ppn`.
#[derive(Debug, Clone, Copy)]
struct XlateEntry {
    vpn: u64,
    satp: u64,
    priv_mode: Priv,
    ppn: u64,
}

/// The translation cache: direct-mapped per access kind, plus the frames
/// its walks read PTEs from. A write to one of those frames empties it.
#[derive(Debug, Clone)]
struct XlateCache {
    sets: Vec<Option<XlateEntry>>,
    pte_frames: Vec<u64>,
}

impl XlateCache {
    fn new() -> Self {
        XlateCache {
            sets: vec![None; 3 * XLATE_SETS],
            pte_frames: Vec::new(),
        }
    }

    fn set(vpn: u64, access: Access) -> usize {
        access as usize * XLATE_SETS + (vpn as usize % XLATE_SETS)
    }

    /// Translates `va` for `hart`: a hit, or a walk through `mem` whose
    /// success is cached. Faults are never cached.
    fn translate(
        &mut self,
        mem: &SparseMem,
        hart: &Hart,
        va: u64,
        access: Access,
    ) -> Result<u64, Exception> {
        if hart.priv_mode == Priv::M || !vm::satp_sv39_enabled(hart.csrs.satp) {
            return Ok(va);
        }
        let (vpn, offset) = (va >> PAGE_SHIFT, va & (vm::PAGE_SIZE - 1));
        let (satp, priv_mode) = (hart.csrs.satp, hart.priv_mode);
        let set = Self::set(vpn, access);
        if let Some(e) = self.sets[set] {
            if e.vpn == vpn && e.satp == satp && e.priv_mode == priv_mode {
                let pa = e.ppn << PAGE_SHIFT | offset;
                debug_assert_eq!(
                    vm::walk_sv39(vm::satp_root_ppn(satp), va, access, priv_mode, |a| {
                        mem.read_u64(a)
                    })
                    .map(|t| t.pa),
                    Ok(pa),
                    "translation cache hit for {va:#x} ({access:?}) disagrees with a walk"
                );
                return Ok(pa);
            }
        }
        let (mut frames, mut reads) = ([0; vm::LEVELS], 0);
        let walk = vm::walk_sv39(vm::satp_root_ppn(satp), va, access, priv_mode, |a| {
            frames[reads] = a >> PAGE_SHIFT;
            reads += 1;
            mem.read_u64(a)
        });
        match walk {
            Ok(t) => {
                if self.pte_frames.len() + reads > PTE_FRAMES_MAX {
                    self.flush();
                }
                for &f in &frames[..reads] {
                    if !self.pte_frames.contains(&f) {
                        self.pte_frames.push(f);
                    }
                }
                self.sets[set] = Some(XlateEntry {
                    vpn,
                    satp,
                    priv_mode,
                    ppn: t.pa >> PAGE_SHIFT,
                });
                Ok(t.pa)
            }
            Err(_) => Err(match access {
                Access::Fetch => Exception::InstPageFault,
                Access::Load => Exception::LoadPageFault,
                Access::Store => Exception::StorePageFault,
            }),
        }
    }

    /// A write landed at `pa`: empties the cache if a cached walk read a
    /// PTE from its frame.
    fn written(&mut self, pa: u64) {
        if self.pte_frames.contains(&(pa >> PAGE_SHIFT)) {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.sets.fill(None);
        self.pte_frames.clear();
    }
}

/// The decode cache: direct-mapped by fetch physical address, each entry
/// holding the word it decoded.
#[derive(Debug, Clone)]
struct DecodeCache {
    sets: Vec<Option<(u64, u32, Instr)>>,
}

impl DecodeCache {
    fn new() -> Self {
        DecodeCache {
            sets: vec![None; DECODE_SETS],
        }
    }

    /// Decodes `word`, fetched from `pa`: the cached instruction when the
    /// entry for `pa` decoded this very word, else a fresh decode (cached
    /// when legal).
    fn decode(&mut self, pa: u64, word: u32) -> Option<Instr> {
        let set = (pa >> 2) as usize % DECODE_SETS;
        if let Some((p, w, instr)) = self.sets[set] {
            if p == pa && w == word {
                debug_assert_eq!(decode(word), Ok(instr), "decode cache hit at {pa:#x}");
                return Some(instr);
            }
        }
        let instr = decode(word).ok()?;
        self.sets[set] = Some((pa, word, instr));
        Some(instr)
    }
}

/// A whole shared-memory machine: physical memory plus `n` harts.
#[derive(Debug, Clone)]
pub struct Machine {
    mem: SparseMem,
    harts: Vec<Hart>,
    console: Vec<u8>,
    xlate: XlateCache,
    decoded: DecodeCache,
    touched: Touched,
}

/// The caches and the step record are derived state and not saved; a
/// loaded machine starts them empty.
impl Snap for Machine {
    fn save(&self, w: &mut SnapWriter) {
        self.mem.save(w);
        self.harts.save(w);
        self.console.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut m = Machine::new(0, 0);
        m.mem = Snap::load(r)?;
        m.harts = Snap::load(r)?;
        m.console = Snap::load(r)?;
        Ok(m)
    }
}

impl Machine {
    /// Creates a machine with `num_harts` harts, all starting at `entry` in
    /// M-mode.
    #[must_use]
    pub fn new(num_harts: usize, entry: u64) -> Self {
        Machine {
            mem: SparseMem::new(),
            harts: (0..num_harts).map(|i| Hart::new(i, entry)).collect(),
            console: Vec::new(),
            xlate: XlateCache::new(),
            decoded: DecodeCache::new(),
            touched: Touched::default(),
        }
    }

    /// Creates a machine and loads `program` into memory.
    #[must_use]
    pub fn with_program(num_harts: usize, program: &Program) -> Self {
        let mut m = Machine::new(num_harts, program.entry);
        program.load(&mut m.mem);
        m
    }

    /// Physical memory.
    #[must_use]
    pub fn mem(&self) -> &SparseMem {
        &self.mem
    }

    /// Physical memory, for writes from outside [`Machine::step`]. Empties
    /// the translation cache, since the caller may rewrite a page table.
    pub fn mem_mut(&mut self) -> &mut SparseMem {
        self.xlate.flush();
        &mut self.mem
    }

    /// What the last [`Machine::step`] touched (all `None` after a step of
    /// an already halted hart).
    #[must_use]
    pub fn touched(&self) -> Touched {
        self.touched
    }

    /// Immutable access to a hart.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn hart(&self, id: usize) -> &Hart {
        &self.harts[id]
    }

    /// Mutable access to a hart (test setup).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn hart_mut(&mut self, id: usize) -> &mut Hart {
        &mut self.harts[id]
    }

    /// Number of harts.
    #[must_use]
    pub fn num_harts(&self) -> usize {
        self.harts.len()
    }

    /// Bytes written to the console device so far.
    #[must_use]
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Whether every hart has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.harts.iter().all(|h| h.halted.is_some())
    }

    fn translate(&mut self, id: usize, va: u64, access: Access) -> Result<u64, Exception> {
        self.xlate.translate(&self.mem, &self.harts[id], va, access)
    }

    /// Translates a data access of `bytes` bytes and records it in
    /// `touched`, then checks alignment, which traps ahead of a page
    /// fault. The walk comes first so a misaligned access still reports
    /// where it would have gone.
    fn data_pa(
        &mut self,
        id: usize,
        va: u64,
        bytes: u64,
        access: Access,
    ) -> Result<u64, Exception> {
        let pa = self.translate(id, va, access);
        if let Ok(pa) = pa {
            self.touched.data = Some((va, pa));
        }
        if !va.is_multiple_of(bytes) {
            return Err(if access == Access::Load {
                Exception::LoadAddrMisaligned
            } else {
                Exception::StoreAddrMisaligned
            });
        }
        pa
    }

    /// A store, SC or AMO of hart `writer` writing `v` to memory.
    fn write(&mut self, writer: usize, pa: u64, bytes: u64, v: u64) {
        self.mem.write_le(pa, bytes, v);
        self.xlate.written(pa);
        self.break_reservations(writer, pa);
    }

    fn mmio_store(&mut self, hart_id: usize, pa: u64, v: u64) {
        if (MMIO_EXIT..MMIO_EXIT + 8 * 8).contains(&pa) {
            let target = ((pa - MMIO_EXIT) / 8) as usize;
            if let Some(h) = self.harts.get_mut(target) {
                h.halted = Some(v);
            }
        } else if pa == MMIO_PUTCHAR {
            self.console.push(v as u8);
        } else if pa == MMIO_ROI {
            let h = &mut self.harts[hart_id];
            if v != 0 {
                h.roi_start = Some(h.instret);
            } else if let Some(s) = h.roi_start.take() {
                h.roi_insts += h.instret - s;
            }
        }
    }

    /// Invalidate other harts' reservations overlapping a written line.
    fn break_reservations(&mut self, writer: usize, pa: u64) {
        let line = pa & !63;
        for h in &mut self.harts {
            if h.id != writer && h.reservation == Some(line) {
                h.reservation = None;
            }
        }
    }

    /// Executes one instruction on hart `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[allow(clippy::too_many_lines)]
    pub fn step(&mut self, id: usize) -> StepOutcome {
        self.touched = Touched::default();
        if self.harts[id].halted.is_some() {
            return StepOutcome::AlreadyHalted;
        }
        let pc = self.harts[id].pc;

        // Fetch.
        let fetch_pa = match self.translate(id, pc, Access::Fetch) {
            Ok(pa) => pa,
            Err(e) => return StepOutcome::Retired(self.take_trap(id, e, pc, pc)),
        };
        self.touched.fetch_pa = Some(fetch_pa);
        let word = self.mem.read_le(fetch_pa, 4) as u32;
        let Some(instr) = self.decoded.decode(fetch_pa, word) else {
            return StepOutcome::Retired(self.take_trap(
                id,
                Exception::IllegalInst,
                pc,
                u64::from(word),
            ));
        };
        self.touched.instr = Some(instr);

        let mut next_pc = pc.wrapping_add(4);
        let mut rd_write: Option<(Gpr, u64)> = None;

        macro_rules! trap {
            ($e:expr, $tval:expr) => {{
                return StepOutcome::Retired(self.take_trap(id, $e, pc, $tval));
            }};
        }

        match instr {
            Instr::Lui { rd, imm } => rd_write = Some((rd, imm as u64)),
            Instr::Auipc { rd, imm } => rd_write = Some((rd, pc.wrapping_add(imm as u64))),
            Instr::Jal { rd, offset } => {
                rd_write = Some((rd, next_pc));
                next_pc = pc.wrapping_add(offset as i64 as u64);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let t = self.harts[id].reg(rs1).wrapping_add(offset as i64 as u64) & !1;
                rd_write = Some((rd, next_pc));
                next_pc = t;
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.harts[id].reg(rs1), self.harts[id].reg(rs2));
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i64) < (b as i64),
                    BranchCond::Ge => (a as i64) >= (b as i64),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as i64 as u64);
                }
            }
            Instr::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let va = self.harts[id].reg(rs1).wrapping_add(offset as i64 as u64);
                let pa = match self.data_pa(id, va, width.bytes(), Access::Load) {
                    Ok(pa) => pa,
                    Err(e) => trap!(e, va),
                };
                let raw = if is_mmio(pa) {
                    0
                } else {
                    self.mem.read_le(pa, width.bytes())
                };
                let v = if signed {
                    let bits = 8 * width.bytes() as u32;
                    if bits == 64 {
                        raw
                    } else {
                        (((raw << (64 - bits)) as i64) >> (64 - bits)) as u64
                    }
                } else {
                    raw
                };
                rd_write = Some((rd, v));
            }
            Instr::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let va = self.harts[id].reg(rs1).wrapping_add(offset as i64 as u64);
                let pa = match self.data_pa(id, va, width.bytes(), Access::Store) {
                    Ok(pa) => pa,
                    Err(e) => trap!(e, va),
                };
                let v = self.harts[id].reg(rs2);
                if is_mmio(pa) {
                    self.mmio_store(id, pa, v);
                } else {
                    self.write(id, pa, width.bytes(), v);
                }
            }
            Instr::Alu {
                op,
                word,
                rd,
                rs1,
                rhs,
            } => {
                let a = self.harts[id].reg(rs1);
                let b = match rhs {
                    Rhs::Reg(r) => self.harts[id].reg(r),
                    Rhs::Imm(i) => i as i64 as u64,
                };
                let v = alu_exec(op, word, a, b);
                rd_write = Some((rd, v));
            }
            Instr::MulDiv {
                op,
                word,
                rd,
                rs1,
                rs2,
            } => {
                let a = self.harts[id].reg(rs1);
                let b = self.harts[id].reg(rs2);
                rd_write = Some((rd, muldiv_exec(op, word, a, b)));
            }
            Instr::Lr { width, rd, rs1 } => {
                let va = self.harts[id].reg(rs1);
                let pa = match self.data_pa(id, va, width.bytes(), Access::Load) {
                    Ok(pa) => pa,
                    Err(e) => trap!(e, va),
                };
                let raw = self.mem.read_le(pa, width.bytes());
                let v = if width == MemWidth::W {
                    raw as u32 as i32 as i64 as u64
                } else {
                    raw
                };
                self.harts[id].reservation = Some(pa & !63);
                rd_write = Some((rd, v));
            }
            Instr::Sc {
                width,
                rd,
                rs1,
                rs2,
            } => {
                let va = self.harts[id].reg(rs1);
                let pa = match self.data_pa(id, va, width.bytes(), Access::Store) {
                    Ok(pa) => pa,
                    Err(e) => trap!(e, va),
                };
                let ok = self.harts[id].reservation == Some(pa & !63);
                self.harts[id].reservation = None;
                if ok {
                    let v = self.harts[id].reg(rs2);
                    self.write(id, pa, width.bytes(), v);
                    rd_write = Some((rd, 0));
                } else {
                    rd_write = Some((rd, 1));
                }
            }
            Instr::Amo {
                op,
                width,
                rd,
                rs1,
                rs2,
            } => {
                let va = self.harts[id].reg(rs1);
                let pa = match self.data_pa(id, va, width.bytes(), Access::Store) {
                    Ok(pa) => pa,
                    Err(e) => trap!(e, va),
                };
                let raw = self.mem.read_le(pa, width.bytes());
                let old = if width == MemWidth::W {
                    raw as u32 as i32 as i64 as u64
                } else {
                    raw
                };
                let src = self.harts[id].reg(rs2);
                let new = amo_exec(op, width, old, src);
                self.write(id, pa, width.bytes(), new);
                rd_write = Some((rd, old));
            }
            Instr::Csr { op, rd, src, csr } => {
                let h = &mut self.harts[id];
                let old = h.csrs.read(csr, h.instret, h.instret);
                let srcv = match src {
                    CsrSrc::Reg(r) => h.reg(r),
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
                    h.csrs.write(csr, v);
                }
                rd_write = Some((rd, old));
            }
            Instr::Fence | Instr::FenceI | Instr::Wfi => {}
            Instr::SfenceVma { .. } => {}
            Instr::Ecall => {
                let p = self.harts[id].priv_mode;
                trap!(Exception::Ecall(p), 0);
            }
            Instr::Ebreak => trap!(Exception::Breakpoint, pc),
            Instr::Mret => {
                if self.harts[id].priv_mode != Priv::M {
                    trap!(Exception::IllegalInst, u64::from(word));
                }
                let (epc, p) = self.harts[id].csrs.mret();
                next_pc = epc;
                self.harts[id].priv_mode = p;
            }
            Instr::Sret => {
                if self.harts[id].priv_mode == Priv::U {
                    trap!(Exception::IllegalInst, u64::from(word));
                }
                let (epc, p) = self.harts[id].csrs.sret();
                next_pc = epc;
                self.harts[id].priv_mode = p;
            }
        }

        let h = &mut self.harts[id];
        if let Some((rd, v)) = rd_write {
            h.set_reg(rd, v);
        }
        h.pc = next_pc;
        h.instret += 1;
        if let Some(code) = h.halted {
            return StepOutcome::Halted(code);
        }
        StepOutcome::Retired(Commit {
            pc,
            next_pc,
            rd: rd_write.filter(|(r, _)| !r.is_zero()),
            trap: None,
        })
    }

    fn take_trap(&mut self, id: usize, e: Exception, pc: u64, tval: u64) -> Commit {
        let h = &mut self.harts[id];
        let from = h.priv_mode;
        let vec = h.csrs.trap_to_m(e, pc, tval, from);
        h.priv_mode = Priv::M;
        h.pc = vec;
        h.instret += 1;
        Commit {
            pc,
            next_pc: vec,
            rd: None,
            trap: Some(e),
        }
    }

    /// Steps all live harts round-robin until every hart halts or
    /// `max_steps` total instructions retire.
    ///
    /// # Errors
    ///
    /// Returns the number of instructions executed if the budget is
    /// exhausted first.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, u64> {
        let n = self.harts.len();
        let mut executed = 0;
        while executed < max_steps {
            if self.all_halted() {
                return Ok(executed);
            }
            for id in 0..n {
                if self.harts[id].halted.is_none() {
                    self.step(id);
                    executed += 1;
                }
            }
        }
        if self.all_halted() {
            Ok(executed)
        } else {
            Err(executed)
        }
    }
}

/// Executes an ALU operation (shared with the hardware models).
#[must_use]
pub fn alu_exec(op: AluOp, word: bool, a: u64, b: u64) -> u64 {
    let v = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => {
            let sh = if word { b & 0x1f } else { b & 0x3f };
            a.wrapping_shl(sh as u32)
        }
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => {
            if word {
                u64::from((a as u32) >> (b & 0x1f))
            } else {
                a >> (b & 0x3f)
            }
        }
        AluOp::Sra => {
            if word {
                ((a as u32 as i32) >> (b & 0x1f)) as u64
            } else {
                ((a as i64) >> (b & 0x3f)) as u64
            }
        }
        AluOp::Or => a | b,
        AluOp::And => a & b,
    };
    if word {
        v as u32 as i32 as i64 as u64
    } else {
        v
    }
}

/// Executes an M-extension operation (shared with the hardware models).
#[must_use]
pub fn muldiv_exec(op: MulDivOp, word: bool, a: u64, b: u64) -> u64 {
    if word {
        let (a32, b32) = (a as u32, b as u32);
        let v = match op {
            MulDivOp::Mul => a32.wrapping_mul(b32),
            MulDivOp::Div => {
                let (a, b) = (a32 as i32, b32 as i32);
                if b == 0 {
                    u32::MAX
                } else {
                    a.wrapping_div(b) as u32
                }
            }
            MulDivOp::Divu => a32.checked_div(b32).unwrap_or(u32::MAX),
            MulDivOp::Rem => {
                let (a, b) = (a32 as i32, b32 as i32);
                if b == 0 {
                    a as u32
                } else {
                    a.wrapping_rem(b) as u32
                }
            }
            MulDivOp::Remu => {
                if b32 == 0 {
                    a32
                } else {
                    a32 % b32
                }
            }
            _ => unreachable!("no word form for {op:?}"),
        };
        v as i32 as i64 as u64
    } else {
        match op {
            MulDivOp::Mul => a.wrapping_mul(b),
            MulDivOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            MulDivOp::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
            MulDivOp::Mulhu => ((u128::from(a) * u128::from(b)) >> 64) as u64,
            MulDivOp::Div => {
                let (ai, bi) = (a as i64, b as i64);
                if bi == 0 {
                    u64::MAX
                } else {
                    ai.wrapping_div(bi) as u64
                }
            }
            MulDivOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            MulDivOp::Rem => {
                let (ai, bi) = (a as i64, b as i64);
                if bi == 0 {
                    a
                } else {
                    ai.wrapping_rem(bi) as u64
                }
            }
            MulDivOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

/// Executes an AMO's ALU half (shared with the hardware models).
#[must_use]
pub fn amo_exec(op: AmoOp, width: MemWidth, old: u64, src: u64) -> u64 {
    let (a, b) = if width == MemWidth::W {
        (old as u32 as u64, src as u32 as u64)
    } else {
        (old, src)
    };

    match op {
        AmoOp::Swap => b,
        AmoOp::Add => a.wrapping_add(b),
        AmoOp::Xor => a ^ b,
        AmoOp::And => a & b,
        AmoOp::Or => a | b,
        AmoOp::Min => {
            if width == MemWidth::W {
                (a as u32 as i32).min(b as u32 as i32) as u32 as u64
            } else if (a as i64) < (b as i64) {
                a
            } else {
                b
            }
        }
        AmoOp::Max => {
            if width == MemWidth::W {
                (a as u32 as i32).max(b as u32 as i32) as u32 as u64
            } else if (a as i64) > (b as i64) {
                a
            } else {
                b
            }
        }
        AmoOp::Minu => a.min(b),
        AmoOp::Maxu => a.max(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::csr::addr as csr_addr;
    use crate::mem::DRAM_BASE;

    fn exit_seq(a: &mut Assembler, code: i64) {
        // li t6, MMIO_EXIT; li t5, code; sd t5, 0(t6)
        a.li(Gpr::t(6), MMIO_EXIT as i64);
        a.li(Gpr::t(5), code);
        a.sd(Gpr::t(5), 0, Gpr::t(6));
    }

    fn run_to_halt(a: Assembler) -> Machine {
        let p = a.assemble();
        let mut m = Machine::with_program(1, &p);
        m.run(1_000_000).expect("program must halt");
        m
    }

    #[test]
    fn arithmetic_loop_sums() {
        let mut a = Assembler::new(DRAM_BASE);
        let (t0, t1) = (Gpr::t(0), Gpr::t(1));
        a.li(t0, 100);
        a.li(t1, 0);
        a.label("loop");
        a.add(t1, t1, t0);
        a.addi(t0, t0, -1);
        a.bnez(t0, "loop");
        exit_seq(&mut a, 0);
        let m = run_to_halt(a);
        assert_eq!(m.hart(0).reg(Gpr::t(1)), 5050);
    }

    #[test]
    fn loads_stores_roundtrip() {
        let mut a = Assembler::new(DRAM_BASE);
        let (t0, t1, t2) = (Gpr::t(0), Gpr::t(1), Gpr::t(2));
        a.li(t0, (DRAM_BASE + 0x1000) as i64);
        a.li(t1, -12345);
        a.sd(t1, 0, t0);
        a.ld(t2, 0, t0);
        a.sw(t1, 8, t0);
        a.lw(Gpr::t(3), 8, t0);
        a.lbu(Gpr::t(4), 8, t0);
        exit_seq(&mut a, 0);
        let m = run_to_halt(a);
        assert_eq!(m.hart(0).reg(Gpr::t(2)), (-12345i64) as u64);
        assert_eq!(m.hart(0).reg(Gpr::t(3)), (-12345i64) as u64); // lw sign-extends
        assert_eq!(m.hart(0).reg(Gpr::t(4)), (-12345i64 as u64) & 0xff);
    }

    #[test]
    fn muldiv_semantics() {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::a(0), -7);
        a.li(Gpr::a(1), 3);
        a.mul(Gpr::a(2), Gpr::a(0), Gpr::a(1));
        a.div(Gpr::a(3), Gpr::a(0), Gpr::a(1));
        a.muldiv(MulDivOp::Rem, Gpr::a(4), Gpr::a(0), Gpr::a(1));
        a.li(Gpr::a(5), 5);
        a.div(Gpr::a(6), Gpr::a(5), Gpr::ZERO); // div by zero -> all ones
        exit_seq(&mut a, 0);
        let m = run_to_halt(a);
        assert_eq!(m.hart(0).reg(Gpr::a(2)), (-21i64) as u64);
        assert_eq!(m.hart(0).reg(Gpr::a(3)), (-2i64) as u64);
        assert_eq!(m.hart(0).reg(Gpr::a(4)), (-1i64) as u64);
        assert_eq!(m.hart(0).reg(Gpr::a(6)), u64::MAX);
    }

    #[test]
    fn function_call_and_return() {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::a(0), 5);
        a.call("double");
        a.mv(Gpr::s(0), Gpr::a(0));
        exit_seq(&mut a, 0);
        a.label("double");
        a.add(Gpr::a(0), Gpr::a(0), Gpr::a(0));
        a.ret();
        let m = run_to_halt(a);
        assert_eq!(m.hart(0).reg(Gpr::s(0)), 10);
    }

    #[test]
    fn amoadd_and_lrsc() {
        let mut a = Assembler::new(DRAM_BASE);
        let addr = (DRAM_BASE + 0x2000) as i64;
        a.li(Gpr::t(0), addr);
        a.li(Gpr::t(1), 5);
        a.sd(Gpr::t(1), 0, Gpr::t(0));
        a.li(Gpr::t(2), 3);
        a.amoadd_d(Gpr::t(3), Gpr::t(2), Gpr::t(0)); // t3 = 5, mem = 8
        a.lr_d(Gpr::t(4), Gpr::t(0)); // t4 = 8
        a.addi(Gpr::t(4), Gpr::t(4), 1);
        a.sc_d(Gpr::s(1), Gpr::t(4), Gpr::t(0)); // success: s1 = 0, mem = 9
        a.sc_d(Gpr::s(2), Gpr::t(4), Gpr::t(0)); // no reservation: s2 = 1
        a.ld(Gpr::s(0), 0, Gpr::t(0));
        a.mv(Gpr::s(3), Gpr::t(3));
        exit_seq(&mut a, 0);
        let m = run_to_halt(a);
        assert_eq!(m.hart(0).reg(Gpr::s(3)), 5);
        assert_eq!(m.hart(0).reg(Gpr::s(1)), 0);
        assert_eq!(m.hart(0).reg(Gpr::s(2)), 1);
        assert_eq!(m.hart(0).reg(Gpr::s(0)), 9);
    }

    #[test]
    fn ecall_traps_to_mtvec_and_mret_returns() {
        let mut a = Assembler::new(DRAM_BASE);
        a.la(Gpr::t(0), "handler");
        a.csrw(csr_addr::MTVEC, Gpr::t(0));
        a.li(Gpr::s(0), 0);
        a.ecall();
        a.li(Gpr::s(1), 77); // executed after mret
        exit_seq(&mut a, 0);
        a.label("handler");
        a.li(Gpr::s(0), 42);
        a.csrr(Gpr::t(1), csr_addr::MEPC);
        a.addi(Gpr::t(1), Gpr::t(1), 4);
        a.csrw(csr_addr::MEPC, Gpr::t(1));
        a.mret();
        let m = run_to_halt(a);
        assert_eq!(m.hart(0).reg(Gpr::s(0)), 42);
        assert_eq!(m.hart(0).reg(Gpr::s(1)), 77);
    }

    #[test]
    fn console_output() {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::t(0), MMIO_PUTCHAR as i64);
        for &c in b"hi" {
            a.li(Gpr::t(1), i64::from(c));
            a.sd(Gpr::t(1), 0, Gpr::t(0));
        }
        exit_seq(&mut a, 0);
        let m = run_to_halt(a);
        assert_eq!(m.console(), b"hi");
    }

    #[test]
    fn roi_counts_instructions() {
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::t(0), MMIO_ROI as i64);
        a.li(Gpr::t(1), 1);
        a.sd(Gpr::t(1), 0, Gpr::t(0)); // roi begin
        for _ in 0..10 {
            a.nop();
        }
        a.sd(Gpr::ZERO, 0, Gpr::t(0)); // roi end
        exit_seq(&mut a, 0);
        let m = run_to_halt(a);
        // 10 nops + the closing store retire inside the ROI window.
        assert!(m.hart(0).roi_insts >= 10);
        assert!(m.hart(0).roi_insts <= 12);
    }

    #[test]
    fn two_harts_amo_increment_shared_counter() {
        let mut a = Assembler::new(DRAM_BASE);
        let ctr = (DRAM_BASE + 0x3000) as i64;
        // Each hart adds its 1000 increments, then writes its exit register.
        a.li(Gpr::t(0), ctr);
        a.li(Gpr::t(1), 1000);
        a.label("loop");
        a.li(Gpr::t(2), 1);
        a.amoadd_d(Gpr::ZERO, Gpr::t(2), Gpr::t(0));
        a.addi(Gpr::t(1), Gpr::t(1), -1);
        a.bnez(Gpr::t(1), "loop");
        // exit: address = MMIO_EXIT + 8*hartid
        a.csrr(Gpr::t(3), csr_addr::MHARTID);
        a.slli(Gpr::t(3), Gpr::t(3), 3);
        a.li(Gpr::t(4), MMIO_EXIT as i64);
        a.add(Gpr::t(4), Gpr::t(4), Gpr::t(3));
        a.sd(Gpr::ZERO, 0, Gpr::t(4));
        let p = a.assemble();
        let mut m = Machine::with_program(2, &p);
        m.run(1_000_000).expect("both harts halt");
        assert_eq!(m.mem().read_u64(ctr as u64), 2000);
    }

    #[test]
    fn sc_fails_after_remote_store() {
        let mut a = Assembler::new(DRAM_BASE);
        exit_seq(&mut a, 0);
        let p = a.assemble();
        let mut m = Machine::with_program(2, &p);
        // Hand-drive: hart 0 takes a reservation; hart 1 stores to the line.
        let addr = DRAM_BASE + 0x4000;
        m.hart_mut(0).regs[5] = addr; // t0
        m.hart_mut(1).regs[5] = addr;
        m.hart_mut(1).regs[6] = 99; // t1
        let lr = Instr::Lr {
            width: MemWidth::D,
            rd: Gpr::t(1),
            rs1: Gpr::t(0),
        };
        let st = Instr::Store {
            width: MemWidth::D,
            rs2: Gpr::t(1),
            rs1: Gpr::t(0),
            offset: 8,
        };
        let sc = Instr::Sc {
            width: MemWidth::D,
            rd: Gpr::t(2),
            rs1: Gpr::t(0),
            rs2: Gpr::t(1),
        };
        let scratch = DRAM_BASE + 0x5000;
        m.mem_mut().write_le(scratch, 4, u64::from(lr.encode()));
        m.mem_mut().write_le(scratch + 4, 4, u64::from(sc.encode()));
        m.mem_mut().write_le(scratch + 8, 4, u64::from(st.encode()));
        m.hart_mut(0).pc = scratch;
        m.hart_mut(1).pc = scratch + 8;
        m.step(0); // hart0: lr
        m.step(1); // hart1: store to same line -> breaks reservation
        m.step(0); // hart0: sc must fail
        assert_eq!(m.hart(0).reg(Gpr::t(2)), 1, "sc must fail");
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut a = Assembler::new(DRAM_BASE);
        a.la(Gpr::t(0), "handler");
        a.csrw(csr_addr::MTVEC, Gpr::t(0));
        a.push(Instr::Ebreak); // placeholder; we'll overwrite with garbage
        a.label("handler");
        exit_seq(&mut a, 3);
        let p = a.assemble();
        let mut m = Machine::with_program(1, &p);
        // Overwrite the ebreak with an illegal word.
        let ebreak_pc = p.text_base + 4 * 4; // la(2) + csrw(1) + ... compute below
        let _ = ebreak_pc;
        // Find it: scan for the ebreak encoding.
        let mut pc = p.text_base;
        loop {
            let w = m.mem().read_le(pc, 4) as u32;
            if w == Instr::Ebreak.encode() {
                m.mem_mut().write_le(pc, 4, 0xffff_ffff);
                break;
            }
            pc += 4;
        }
        m.run(1000).unwrap();
        assert_eq!(m.hart(0).halted, Some(3));
        assert_eq!(m.hart(0).csrs.mcause, Exception::IllegalInst.cause());
    }

    /// The one 4 KiB virtual page the cache tests map (vpn2 = 1).
    const VA: u64 = 0x4000_0000;
    const PA_A: u64 = DRAM_BASE + 0x20_000;
    const PA_B: u64 = DRAM_BASE + 0x21_000;

    /// Writes an Sv39 table rooted at `root`: identity gigapages for DRAM
    /// (code, tables) and the MMIO block, and [`VA`] mapped through the
    /// tables at `l1` and `l0` to `target`. Returns the PA of `VA`'s leaf.
    fn map_va(m: &mut Machine, root: u64, l1: u64, l0: u64, target: u64) -> u64 {
        use crate::vm::{make_leaf, make_pointer, pte};
        let rwx = pte::R | pte::W | pte::X | pte::A | pte::D;
        let mem = m.mem_mut();
        mem.write_u64(root + 2 * 8, make_leaf(DRAM_BASE >> 12, rwx));
        mem.write_u64(root, make_leaf(0, pte::R | pte::W | pte::A | pte::D));
        mem.write_u64(root + 8, make_pointer(l1 >> 12));
        mem.write_u64(l1, make_pointer(l0 >> 12));
        mem.write_u64(l0, leaf_to(target));
        l0
    }

    fn leaf_to(pa: u64) -> u64 {
        use crate::vm::{make_leaf, pte};
        make_leaf(pa >> 12, pte::R | pte::W | pte::A | pte::D)
    }

    fn satp_of(root: u64) -> u64 {
        (vm::SATP_MODE_SV39 << 60) | (root >> 12)
    }

    /// A machine in S-mode with paging on through the table at `root`,
    /// `PA_A` holding 111 and `PA_B` 222.
    fn paged(a: Assembler, root: u64) -> Machine {
        let mut m = Machine::with_program(1, &a.assemble());
        m.mem_mut().write_u64(PA_A, 111);
        m.mem_mut().write_u64(PA_B, 222);
        let h = m.hart_mut(0);
        h.priv_mode = Priv::S;
        h.csrs.satp = satp_of(root);
        m
    }

    /// A store that rewrites a PTE, with no `sfence.vma`, is seen by the
    /// next access through that page: the cached walk read that frame.
    #[test]
    fn store_to_a_pte_retranslates_without_sfence() {
        let root = DRAM_BASE + 0x10_000;
        let leaf = DRAM_BASE + 0x12_000;
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::t(0), VA as i64);
        a.ld(Gpr::a(0), 0, Gpr::t(0));
        a.li(Gpr::t(1), leaf as i64);
        a.li(Gpr::t(2), leaf_to(PA_B) as i64);
        a.sd(Gpr::t(2), 0, Gpr::t(1));
        a.ld(Gpr::a(1), 0, Gpr::t(0));
        exit_seq(&mut a, 0);
        let mut m = paged(a, root);
        map_va(&mut m, root, DRAM_BASE + 0x11_000, leaf, PA_A);
        m.run(1_000).expect("halts");
        assert_eq!(m.hart(0).reg(Gpr::a(0)), 111);
        assert_eq!(m.hart(0).reg(Gpr::a(1)), 222, "stale translation used");
    }

    /// A PTE rewritten through `mem_mut` between two steps is seen by the
    /// second.
    #[test]
    fn pte_written_from_outside_step_retranslates() {
        let root = DRAM_BASE + 0x10_000;
        let leaf = DRAM_BASE + 0x12_000;
        let mut a = Assembler::new(DRAM_BASE);
        a.ld(Gpr::a(0), 0, Gpr::t(0));
        a.ld(Gpr::a(1), 0, Gpr::t(0));
        let mut m = paged(a, root);
        map_va(&mut m, root, DRAM_BASE + 0x11_000, leaf, PA_A);
        m.hart_mut(0).regs[Gpr::t(0).index()] = VA;
        m.step(0);
        m.mem_mut().write_u64(leaf, leaf_to(PA_B));
        m.step(0);
        assert_eq!(m.hart(0).reg(Gpr::a(0)), 111);
        assert_eq!(m.hart(0).reg(Gpr::a(1)), 222, "stale translation used");
    }

    /// Switching `satp` between two page tables mid-run switches the
    /// mapping both ways, with no `sfence.vma`.
    #[test]
    fn satp_switch_between_two_tables() {
        let (root_a, root_b) = (DRAM_BASE + 0x10_000, DRAM_BASE + 0x13_000);
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::t(0), VA as i64);
        a.li(Gpr::t(1), satp_of(root_a) as i64);
        a.li(Gpr::t(2), satp_of(root_b) as i64);
        a.ld(Gpr::a(0), 0, Gpr::t(0));
        a.csrw(csr_addr::SATP, Gpr::t(2));
        a.ld(Gpr::a(1), 0, Gpr::t(0));
        a.csrw(csr_addr::SATP, Gpr::t(1));
        a.ld(Gpr::a(2), 0, Gpr::t(0));
        exit_seq(&mut a, 0);
        let mut m = paged(a, root_a);
        map_va(
            &mut m,
            root_a,
            DRAM_BASE + 0x11_000,
            DRAM_BASE + 0x12_000,
            PA_A,
        );
        map_va(
            &mut m,
            root_b,
            DRAM_BASE + 0x14_000,
            DRAM_BASE + 0x15_000,
            PA_B,
        );
        m.run(1_000).expect("halts");
        let h = m.hart(0);
        assert_eq!(
            (h.reg(Gpr::a(0)), h.reg(Gpr::a(1)), h.reg(Gpr::a(2))),
            (111, 222, 111)
        );
    }

    /// A store over an instruction that already ran makes its next
    /// execution run the new one: a decode-cache entry is used only for
    /// the word it decoded.
    #[test]
    fn store_over_an_executed_instruction_runs_the_new_one() {
        let add100 = Instr::Alu {
            op: AluOp::Add,
            word: false,
            rd: Gpr::a(0),
            rs1: Gpr::a(0),
            rhs: Rhs::Imm(100),
        };
        let mut a = Assembler::new(DRAM_BASE);
        a.li(Gpr::s(0), 2);
        a.la(Gpr::t(0), "patch");
        a.li(Gpr::t(1), i64::from(add100.encode()));
        a.label("patch");
        a.addi(Gpr::a(0), Gpr::a(0), 1);
        a.sw(Gpr::t(1), 0, Gpr::t(0));
        a.addi(Gpr::s(0), Gpr::s(0), -1);
        a.bnez(Gpr::s(0), "patch");
        exit_seq(&mut a, 0);
        let m = run_to_halt(a);
        assert_eq!(m.hart(0).reg(Gpr::a(0)), 101);
    }

    /// `touched` reports the fetch, the instruction and the data access,
    /// also for a misaligned access that traps and an illegal word.
    #[test]
    fn step_reports_what_it_touched() {
        let mut a = Assembler::new(DRAM_BASE);
        exit_seq(&mut a, 0);
        let mut m = Machine::with_program(1, &a.assemble());
        let ld = Instr::Load {
            width: MemWidth::D,
            signed: true,
            rd: Gpr::a(0),
            rs1: Gpr::t(0),
            offset: 0,
        };
        let at = DRAM_BASE + 0x5000;
        m.mem_mut().write_le(at, 4, u64::from(ld.encode()));
        m.mem_mut().write_le(at + 4, 4, 0xffff_ffff);
        let va = DRAM_BASE + 0x6001;
        m.hart_mut(0).regs[Gpr::t(0).index()] = va;
        m.hart_mut(0).pc = at;
        let StepOutcome::Retired(c) = m.step(0) else {
            panic!("retires by trapping")
        };
        assert_eq!(c.trap, Some(Exception::LoadAddrMisaligned));
        assert_eq!(
            m.touched(),
            Touched {
                fetch_pa: Some(at),
                instr: Some(ld),
                data: Some((va, va)),
            }
        );
        m.hart_mut(0).pc = at + 4;
        m.step(0);
        assert_eq!(
            m.touched(),
            Touched {
                fetch_pa: Some(at + 4),
                instr: None,
                data: None,
            }
        );
        m.hart_mut(0).halted = Some(0);
        assert_eq!(m.step(0), StepOutcome::AlreadyHalted);
        assert_eq!(m.touched(), Touched::default());
    }
}
