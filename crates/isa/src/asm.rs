//! A label-based RV64 assembler and program images.
//!
//! Workloads in this reproduction are written as Rust programs that *emit*
//! RISC-V machine code (substituting for the paper's cross-compiled SPEC and
//! PARSEC binaries). The assembler provides the usual mnemonics,
//! pseudo-instructions (`li`, `la`, `mv`, `j`, ...) and forward label
//! references.
//!
//! # Examples
//!
//! ```
//! use riscy_isa::asm::Assembler;
//! use riscy_isa::reg::Gpr;
//!
//! let mut a = Assembler::new(0x8000_0000);
//! let (t0, t1) = (Gpr::t(0), Gpr::t(1));
//! a.li(t0, 10);
//! a.li(t1, 0);
//! a.label("loop");
//! a.add(t1, t1, t0);
//! a.addi(t0, t0, -1);
//! a.bnez(t0, "loop");
//! let prog = a.assemble();
//! assert_eq!(prog.text_words().len(), 5);
//! ```

use std::collections::HashMap;

use crate::inst::{AluOp, AmoOp, BranchCond, CsrOp, CsrSrc, Instr, MemWidth, MulDivOp, Rhs};
use crate::mem::SparseMem;
use crate::reg::Gpr;

/// A loadable program image: machine code plus data segments.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Entry PC.
    pub entry: u64,
    /// Base address of the text segment.
    pub text_base: u64,
    /// Encoded instructions.
    text: Vec<u32>,
    /// Data segments: `(base, bytes)`.
    pub data: Vec<(u64, Vec<u8>)>,
}

impl Program {
    /// The encoded text words.
    #[must_use]
    pub fn text_words(&self) -> &[u32] {
        &self.text
    }

    /// Loads text and data into a physical memory.
    pub fn load(&self, mem: &mut SparseMem) {
        for (i, w) in self.text.iter().enumerate() {
            mem.write_le(self.text_base + 4 * i as u64, 4, u64::from(*w));
        }
        for (base, bytes) in &self.data {
            mem.write_bytes(*base, bytes);
        }
    }

    /// Appends a data segment.
    pub fn add_data(&mut self, base: u64, bytes: Vec<u8>) {
        self.data.push((base, bytes));
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Fixed(Instr),
    Branch {
        cond: BranchCond,
        rs1: Gpr,
        rs2: Gpr,
        target: String,
    },
    Jal {
        rd: Gpr,
        target: String,
    },
    /// `auipc`+`addi` pair loading a label's address (occupies 2 slots; the
    /// second is `LaLo`).
    LaHi {
        rd: Gpr,
        target: String,
    },
    LaLo,
}

/// The assembler. See the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct Assembler {
    base: u64,
    slots: Vec<Slot>,
    labels: HashMap<String, usize>,
    data: Vec<(u64, Vec<u8>)>,
}

impl Assembler {
    /// Starts a program whose text begins at `base`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        Assembler {
            base,
            slots: Vec::new(),
            labels: HashMap::new(),
            data: Vec::new(),
        }
    }

    /// Current PC (address of the next emitted instruction).
    #[must_use]
    pub fn here(&self) -> u64 {
        self.base + 4 * self.slots.len() as u64
    }

    /// Binds `name` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn label(&mut self, name: &str) {
        let prev = self.labels.insert(name.to_string(), self.slots.len());
        assert!(prev.is_none(), "label `{name}` bound twice");
    }

    /// Emits an already-constructed instruction.
    pub fn push(&mut self, i: Instr) {
        self.slots.push(Slot::Fixed(i));
    }

    /// Attaches a data segment to the eventual [`Program`].
    pub fn data_segment(&mut self, base: u64, bytes: Vec<u8>) {
        self.data.push((base, bytes));
    }

    /// Resolves labels and produces the program image.
    ///
    /// # Panics
    ///
    /// Panics on undefined labels or out-of-range branch offsets.
    #[must_use]
    pub fn assemble(self) -> Program {
        let Assembler {
            base,
            slots,
            labels,
            data,
        } = self;
        let addr_of = |target: &str| -> u64 {
            base + 4 * *labels
                .get(target)
                .unwrap_or_else(|| panic!("undefined label `{target}`"))
                as u64
        };
        let mut text = Vec::with_capacity(slots.len());
        for (idx, slot) in slots.iter().enumerate() {
            let pc = base + 4 * idx as u64;
            let inst = match slot {
                Slot::Fixed(i) => *i,
                Slot::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let off = addr_of(target) as i64 - pc as i64;
                    assert!(
                        (-4096..=4094).contains(&off),
                        "branch to `{target}` out of range ({off})"
                    );
                    Instr::Branch {
                        cond: *cond,
                        rs1: *rs1,
                        rs2: *rs2,
                        offset: off as i32,
                    }
                }
                Slot::Jal { rd, target } => {
                    let off = addr_of(target) as i64 - pc as i64;
                    assert!(
                        (-(1 << 20)..(1 << 20)).contains(&off),
                        "jal to `{target}` out of range ({off})"
                    );
                    Instr::Jal {
                        rd: *rd,
                        offset: off as i32,
                    }
                }
                Slot::LaHi { rd, target } => {
                    let off = addr_of(target) as i64 - pc as i64;
                    let lo = ((off << 52) >> 52) as i32; // sign-extended low 12
                    let hi = (off - i64::from(lo)) & 0xffff_ffff;
                    Instr::Auipc {
                        rd: *rd,
                        imm: hi << 32 >> 32,
                    }
                }
                Slot::LaLo => {
                    // Paired with the preceding LaHi.
                    let Slot::LaHi { rd, target } = &slots[idx - 1] else {
                        unreachable!("LaLo must follow LaHi");
                    };
                    let prev_pc = pc - 4;
                    let off = addr_of(target) as i64 - prev_pc as i64;
                    let lo = ((off << 52) >> 52) as i32;
                    Instr::Alu {
                        op: AluOp::Add,
                        word: false,
                        rd: *rd,
                        rs1: *rd,
                        rhs: Rhs::Imm(lo),
                    }
                }
            };
            text.push(inst.encode());
        }
        Program {
            entry: base,
            text_base: base,
            text,
            data,
        }
    }

    // -- ALU ----------------------------------------------------------------

    /// `add rd, rs1, rs2`
    pub fn add(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.alu(AluOp::Add, rd, rs1, rs2);
    }
    /// `sub rd, rs1, rs2`
    pub fn sub(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.alu(AluOp::Sub, rd, rs1, rs2);
    }
    /// `and rd, rs1, rs2`
    pub fn and(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.alu(AluOp::And, rd, rs1, rs2);
    }
    /// `or rd, rs1, rs2`
    pub fn or(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.alu(AluOp::Or, rd, rs1, rs2);
    }
    /// `xor rd, rs1, rs2`
    pub fn xor(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.alu(AluOp::Xor, rd, rs1, rs2);
    }
    /// Generic register-register ALU op.
    pub fn alu(&mut self, op: AluOp, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.push(Instr::Alu {
            op,
            word: false,
            rd,
            rs1,
            rhs: Rhs::Reg(rs2),
        });
    }
    /// `addi rd, rs1, imm`
    pub fn addi(&mut self, rd: Gpr, rs1: Gpr, imm: i32) {
        self.alui(AluOp::Add, rd, rs1, imm);
    }
    /// `andi rd, rs1, imm`
    pub fn andi(&mut self, rd: Gpr, rs1: Gpr, imm: i32) {
        self.alui(AluOp::And, rd, rs1, imm);
    }
    /// `xori rd, rs1, imm`
    pub fn xori(&mut self, rd: Gpr, rs1: Gpr, imm: i32) {
        self.alui(AluOp::Xor, rd, rs1, imm);
    }
    /// `slli rd, rs1, sh`
    pub fn slli(&mut self, rd: Gpr, rs1: Gpr, sh: i32) {
        self.alui(AluOp::Sll, rd, rs1, sh);
    }
    /// `srli rd, rs1, sh`
    pub fn srli(&mut self, rd: Gpr, rs1: Gpr, sh: i32) {
        self.alui(AluOp::Srl, rd, rs1, sh);
    }
    /// Generic immediate ALU op.
    pub fn alui(&mut self, op: AluOp, rd: Gpr, rs1: Gpr, imm: i32) {
        self.push(Instr::Alu {
            op,
            word: false,
            rd,
            rs1,
            rhs: Rhs::Imm(imm),
        });
    }

    // -- M extension ---------------------------------------------------------

    /// `mul rd, rs1, rs2`
    pub fn mul(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.muldiv(MulDivOp::Mul, rd, rs1, rs2);
    }
    /// `div rd, rs1, rs2`
    pub fn div(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.muldiv(MulDivOp::Div, rd, rs1, rs2);
    }
    /// `remu rd, rs1, rs2`
    pub fn remu(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.muldiv(MulDivOp::Remu, rd, rs1, rs2);
    }
    /// Generic mul/div op.
    pub fn muldiv(&mut self, op: MulDivOp, rd: Gpr, rs1: Gpr, rs2: Gpr) {
        self.push(Instr::MulDiv {
            op,
            word: false,
            rd,
            rs1,
            rs2,
        });
    }

    // -- Memory ---------------------------------------------------------------

    /// `ld rd, off(rs1)`
    pub fn ld(&mut self, rd: Gpr, off: i32, rs1: Gpr) {
        self.load(MemWidth::D, true, rd, off, rs1);
    }
    /// `lw rd, off(rs1)`
    pub fn lw(&mut self, rd: Gpr, off: i32, rs1: Gpr) {
        self.load(MemWidth::W, true, rd, off, rs1);
    }
    /// `lbu rd, off(rs1)`
    pub fn lbu(&mut self, rd: Gpr, off: i32, rs1: Gpr) {
        self.load(MemWidth::B, false, rd, off, rs1);
    }
    /// Generic load.
    pub fn load(&mut self, width: MemWidth, signed: bool, rd: Gpr, off: i32, rs1: Gpr) {
        self.push(Instr::Load {
            width,
            signed,
            rd,
            rs1,
            offset: off,
        });
    }
    /// `sd rs2, off(rs1)`
    pub fn sd(&mut self, rs2: Gpr, off: i32, rs1: Gpr) {
        self.store(MemWidth::D, rs2, off, rs1);
    }
    /// `sw rs2, off(rs1)`
    pub fn sw(&mut self, rs2: Gpr, off: i32, rs1: Gpr) {
        self.store(MemWidth::W, rs2, off, rs1);
    }
    /// `sb rs2, off(rs1)`
    pub fn sb(&mut self, rs2: Gpr, off: i32, rs1: Gpr) {
        self.store(MemWidth::B, rs2, off, rs1);
    }
    /// Generic store.
    pub fn store(&mut self, width: MemWidth, rs2: Gpr, off: i32, rs1: Gpr) {
        self.push(Instr::Store {
            width,
            rs2,
            rs1,
            offset: off,
        });
    }

    // -- Atomics ---------------------------------------------------------------

    /// `lr.d rd, (rs1)`
    pub fn lr_d(&mut self, rd: Gpr, rs1: Gpr) {
        self.push(Instr::Lr {
            width: MemWidth::D,
            rd,
            rs1,
        });
    }
    /// `sc.d rd, rs2, (rs1)`
    pub fn sc_d(&mut self, rd: Gpr, rs2: Gpr, rs1: Gpr) {
        self.push(Instr::Sc {
            width: MemWidth::D,
            rd,
            rs1,
            rs2,
        });
    }
    /// `amoadd.d rd, rs2, (rs1)`
    pub fn amoadd_d(&mut self, rd: Gpr, rs2: Gpr, rs1: Gpr) {
        self.amo(AmoOp::Add, MemWidth::D, rd, rs2, rs1);
    }
    /// `amoswap.w rd, rs2, (rs1)`
    pub fn amoswap_w(&mut self, rd: Gpr, rs2: Gpr, rs1: Gpr) {
        self.amo(AmoOp::Swap, MemWidth::W, rd, rs2, rs1);
    }
    /// Generic AMO.
    pub fn amo(&mut self, op: AmoOp, width: MemWidth, rd: Gpr, rs2: Gpr, rs1: Gpr) {
        self.push(Instr::Amo {
            op,
            width,
            rd,
            rs1,
            rs2,
        });
    }
    /// `fence`
    pub fn fence(&mut self) {
        self.push(Instr::Fence);
    }

    // -- Control flow ------------------------------------------------------------

    /// `beq rs1, rs2, label`
    pub fn beq(&mut self, rs1: Gpr, rs2: Gpr, target: &str) {
        self.branch(BranchCond::Eq, rs1, rs2, target);
    }
    /// `bne rs1, rs2, label`
    pub fn bne(&mut self, rs1: Gpr, rs2: Gpr, target: &str) {
        self.branch(BranchCond::Ne, rs1, rs2, target);
    }
    /// `blt rs1, rs2, label`
    pub fn blt(&mut self, rs1: Gpr, rs2: Gpr, target: &str) {
        self.branch(BranchCond::Lt, rs1, rs2, target);
    }
    /// `bge rs1, rs2, label`
    pub fn bge(&mut self, rs1: Gpr, rs2: Gpr, target: &str) {
        self.branch(BranchCond::Ge, rs1, rs2, target);
    }
    /// `bltu rs1, rs2, label`
    pub fn bltu(&mut self, rs1: Gpr, rs2: Gpr, target: &str) {
        self.branch(BranchCond::Ltu, rs1, rs2, target);
    }
    /// `bgeu rs1, rs2, label`
    pub fn bgeu(&mut self, rs1: Gpr, rs2: Gpr, target: &str) {
        self.branch(BranchCond::Geu, rs1, rs2, target);
    }
    /// `beqz rs1, label`
    pub fn beqz(&mut self, rs1: Gpr, target: &str) {
        self.beq(rs1, Gpr::ZERO, target);
    }
    /// `bnez rs1, label`
    pub fn bnez(&mut self, rs1: Gpr, target: &str) {
        self.bne(rs1, Gpr::ZERO, target);
    }
    /// Generic labeled branch.
    pub fn branch(&mut self, cond: BranchCond, rs1: Gpr, rs2: Gpr, target: &str) {
        self.slots.push(Slot::Branch {
            cond,
            rs1,
            rs2,
            target: target.to_string(),
        });
    }
    /// `j label`
    pub fn j(&mut self, target: &str) {
        self.jal(Gpr::ZERO, target);
    }
    /// `jal rd, label`
    pub fn jal(&mut self, rd: Gpr, target: &str) {
        self.slots.push(Slot::Jal {
            rd,
            target: target.to_string(),
        });
    }
    /// `call label` (jal ra, label)
    pub fn call(&mut self, target: &str) {
        self.jal(Gpr::RA, target);
    }
    /// `ret` (jalr x0, 0(ra))
    pub fn ret(&mut self) {
        self.push(Instr::Jalr {
            rd: Gpr::ZERO,
            rs1: Gpr::RA,
            offset: 0,
        });
    }
    /// `jalr rd, off(rs1)`
    pub fn jalr(&mut self, rd: Gpr, rs1: Gpr, off: i32) {
        self.push(Instr::Jalr {
            rd,
            rs1,
            offset: off,
        });
    }

    // -- Pseudo-instructions --------------------------------------------------------

    /// `nop`
    pub fn nop(&mut self) {
        self.addi(Gpr::ZERO, Gpr::ZERO, 0);
    }
    /// `mv rd, rs`
    pub fn mv(&mut self, rd: Gpr, rs: Gpr) {
        self.addi(rd, rs, 0);
    }
    /// Loads an arbitrary 64-bit constant (expands to 1–8 instructions).
    pub fn li(&mut self, rd: Gpr, v: i64) {
        if (-2048..2048).contains(&v) {
            self.addi(rd, Gpr::ZERO, v as i32);
        } else if v >= i64::from(i32::MIN) && v <= i64::from(i32::MAX) {
            let lo = ((v << 52) >> 52) as i32; // sign-extended low 12
            let hi = v - i64::from(lo);
            // hi might overflow i32 positive range after rounding; lui takes
            // the value mod 2^32 sign-extended.
            let hi32 = (hi as u32) & 0xffff_f000;
            self.push(Instr::Lui {
                rd,
                imm: i64::from(hi32 as i32),
            });
            if lo != 0 {
                self.push(Instr::Alu {
                    op: AluOp::Add,
                    word: true,
                    rd,
                    rs1: rd,
                    rhs: Rhs::Imm(lo),
                });
            }
        } else {
            // All arithmetic is mod 2^64 in the machine, so wrapping here
            // preserves `(hi << 12) + lo == v (mod 2^64)`.
            let lo = ((v << 52) >> 52) as i32;
            let hi = v.wrapping_sub(i64::from(lo)) >> 12;
            self.li(rd, hi);
            self.slli(rd, rd, 12);
            if lo != 0 {
                self.addi(rd, rd, lo);
            }
        }
    }
    /// Loads the address of `label` (pc-relative, 2 instructions).
    pub fn la(&mut self, rd: Gpr, target: &str) {
        self.slots.push(Slot::LaHi {
            rd,
            target: target.to_string(),
        });
        self.slots.push(Slot::LaLo);
    }

    // -- System ----------------------------------------------------------------------

    /// `csrrw rd, csr, rs1`
    pub fn csrrw(&mut self, rd: Gpr, csr: u16, rs1: Gpr) {
        self.push(Instr::Csr {
            op: CsrOp::Rw,
            rd,
            src: CsrSrc::Reg(rs1),
            csr,
        });
    }
    /// `csrrs rd, csr, rs1`
    pub fn csrrs(&mut self, rd: Gpr, csr: u16, rs1: Gpr) {
        self.push(Instr::Csr {
            op: CsrOp::Rs,
            rd,
            src: CsrSrc::Reg(rs1),
            csr,
        });
    }
    /// `csrw csr, rs1`
    pub fn csrw(&mut self, csr: u16, rs1: Gpr) {
        self.csrrw(Gpr::ZERO, csr, rs1);
    }
    /// `csrr rd, csr`
    pub fn csrr(&mut self, rd: Gpr, csr: u16) {
        self.csrrs(rd, csr, Gpr::ZERO);
    }
    /// `ecall`
    pub fn ecall(&mut self) {
        self.push(Instr::Ecall);
    }
    /// `mret`
    pub fn mret(&mut self) {
        self.push(Instr::Mret);
    }
    /// `sfence.vma x0, x0`
    pub fn sfence_vma(&mut self) {
        self.push(Instr::SfenceVma {
            rs1: Gpr::ZERO,
            rs2: Gpr::ZERO,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::decode;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Assembler::new(0x8000_0000);
        a.label("top");
        a.nop();
        a.j("end");
        a.j("top");
        a.label("end");
        a.nop();
        let p = a.assemble();
        // j end: at index 1, target index 3 → offset +8.
        match decode(p.text_words()[1]).unwrap() {
            Instr::Jal { offset, .. } => assert_eq!(offset, 8),
            other => panic!("{other:?}"),
        }
        // j top: at index 2, target 0 → offset -8.
        match decode(p.text_words()[2]).unwrap() {
            Instr::Jal { offset, .. } => assert_eq!(offset, -8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut a = Assembler::new(0);
        a.j("nowhere");
        let _ = a.assemble();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn duplicate_label_panics() {
        let mut a = Assembler::new(0);
        a.label("x");
        a.label("x");
    }

    #[test]
    fn program_loads_into_memory() {
        let mut a = Assembler::new(0x8000_0000);
        a.nop();
        a.data_segment(0x8100_0000, vec![1, 2, 3]);
        let p = a.assemble();
        let mut m = SparseMem::new();
        p.load(&mut m);
        assert_eq!(m.read_le(0x8000_0000, 4) as u32, p.text_words()[0]);
        assert_eq!(m.read_u8(0x8100_0002), 3);
    }

    #[test]
    fn li_small_and_32bit() {
        let mut a = Assembler::new(0);
        a.li(Gpr::a(0), 42);
        a.li(Gpr::a(1), -1);
        a.li(Gpr::a(2), 0x1234_5678);
        a.li(Gpr::a(3), -0x1234_5678);
        let p = a.assemble();
        assert!(p.text_words().len() >= 6);
        // All words must decode.
        for w in p.text_words() {
            decode(*w).unwrap();
        }
    }

    #[test]
    fn li_64bit_constants_decode() {
        let mut a = Assembler::new(0);
        for v in [
            0x8000_0000i64,
            0x1234_5678_9abc_def0,
            -0x1234_5678_9abc_def0,
            i64::MAX,
            i64::MIN,
            0x8000_0000_0000_0000u64 as i64,
        ] {
            a.li(Gpr::a(0), v);
        }
        let p = a.assemble();
        for w in p.text_words() {
            decode(*w).unwrap();
        }
    }

    #[test]
    fn la_emits_auipc_addi_pair() {
        let mut a = Assembler::new(0x8000_0000);
        a.la(Gpr::a(0), "dst");
        for _ in 0..100 {
            a.nop();
        }
        a.label("dst");
        a.nop();
        let p = a.assemble();
        match decode(p.text_words()[0]).unwrap() {
            Instr::Auipc { .. } => {}
            other => panic!("expected auipc, got {other:?}"),
        }
        match decode(p.text_words()[1]).unwrap() {
            Instr::Alu {
                op: AluOp::Add,
                rhs: Rhs::Imm(i),
                ..
            } => assert_eq!(i, 0x198), // 102 instructions * 4
            other => panic!("expected addi, got {other:?}"),
        }
    }
}
