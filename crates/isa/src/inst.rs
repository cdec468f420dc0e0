//! RV64IMA + Zicsr instruction definitions, binary encoding and decoding.
//!
//! [`Instr`] is the decoded form shared by the assembler, the golden
//! interpreter, and the processor front-ends. [`Instr::encode`] and
//! [`decode`] are exact inverses for every representable instruction
//! (property-tested).

use std::fmt;

use crate::reg::Gpr;

/// Branch comparison of the B-type instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq`
    Eq,
    /// `bne`
    Ne,
    /// `blt`
    Lt,
    /// `bge`
    Ge,
    /// `bltu`
    Ltu,
    /// `bgeu`
    Geu,
}

/// Access width of loads, stores and AMOs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte
    B,
    /// 2 bytes
    H,
    /// 4 bytes
    W,
    /// 8 bytes
    D,
}

impl MemWidth {
    /// Size in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }
}

/// Integer ALU operations (shared by register and immediate forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// add / addi (sub in register form via `Sub`)
    Add,
    /// sub (register form only)
    Sub,
    /// sll / slli
    Sll,
    /// slt / slti
    Slt,
    /// sltu / sltiu
    Sltu,
    /// xor / xori
    Xor,
    /// srl / srli
    Srl,
    /// sra / srai
    Sra,
    /// or / ori
    Or,
    /// and / andi
    And,
}

/// M-extension operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulDivOp {
    /// mul
    Mul,
    /// mulh
    Mulh,
    /// mulhsu
    Mulhsu,
    /// mulhu
    Mulhu,
    /// div
    Div,
    /// divu
    Divu,
    /// rem
    Rem,
    /// remu
    Remu,
}

/// A-extension atomic memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// amoswap
    Swap,
    /// amoadd
    Add,
    /// amoxor
    Xor,
    /// amoand
    And,
    /// amoor
    Or,
    /// amomin
    Min,
    /// amomax
    Max,
    /// amominu
    Minu,
    /// amomaxu
    Maxu,
}

cmd_core::snap_enum!(AmoOp {
    0 => Swap,
    1 => Add,
    2 => Xor,
    3 => And,
    4 => Or,
    5 => Min,
    6 => Max,
    7 => Minu,
    8 => Maxu,
});

/// Zicsr operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// csrrw / csrrwi
    Rw,
    /// csrrs / csrrsi
    Rs,
    /// csrrc / csrrci
    Rc,
}

/// Second operand of an ALU instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rhs {
    /// Register form (`add`, `sll`, ...).
    Reg(Gpr),
    /// Immediate form (`addi`, `slli`, ...). Shift amounts occupy the low
    /// 6 bits (5 for word forms).
    Imm(i32),
}

/// Source operand of a CSR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrSrc {
    /// Register form.
    Reg(Gpr),
    /// 5-bit zero-extended immediate form.
    Imm(u8),
}

/// A decoded RV64IMA + Zicsr instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `lui rd, imm` — imm is the already-shifted 32-bit value,
    /// sign-extended.
    Lui {
        /// destination
        rd: Gpr,
        /// upper-immediate value (`imm20 << 12`, sign-extended)
        imm: i64,
    },
    /// `auipc rd, imm`
    Auipc {
        /// destination
        rd: Gpr,
        /// upper-immediate value
        imm: i64,
    },
    /// `jal rd, offset`
    Jal {
        /// link register
        rd: Gpr,
        /// pc-relative byte offset (±1 MiB, even)
        offset: i32,
    },
    /// `jalr rd, offset(rs1)`
    Jalr {
        /// link register
        rd: Gpr,
        /// base
        rs1: Gpr,
        /// byte offset
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// comparison
        cond: BranchCond,
        /// left operand
        rs1: Gpr,
        /// right operand
        rs2: Gpr,
        /// pc-relative byte offset (±4 KiB, even)
        offset: i32,
    },
    /// Load.
    Load {
        /// access width
        width: MemWidth,
        /// sign-extend the loaded value
        signed: bool,
        /// destination
        rd: Gpr,
        /// base
        rs1: Gpr,
        /// byte offset
        offset: i32,
    },
    /// Store.
    Store {
        /// access width
        width: MemWidth,
        /// data register
        rs2: Gpr,
        /// base
        rs1: Gpr,
        /// byte offset
        offset: i32,
    },
    /// Integer ALU operation, register or immediate form.
    Alu {
        /// operation
        op: AluOp,
        /// 32-bit word form (`addw`, `slliw`, ...)
        word: bool,
        /// destination
        rd: Gpr,
        /// first source
        rs1: Gpr,
        /// second operand
        rhs: Rhs,
    },
    /// M-extension multiply/divide.
    MulDiv {
        /// operation
        op: MulDivOp,
        /// 32-bit word form
        word: bool,
        /// destination
        rd: Gpr,
        /// first source
        rs1: Gpr,
        /// second source
        rs2: Gpr,
    },
    /// `lr.w` / `lr.d`
    Lr {
        /// access width (W or D only)
        width: MemWidth,
        /// destination
        rd: Gpr,
        /// address register
        rs1: Gpr,
    },
    /// `sc.w` / `sc.d`
    Sc {
        /// access width (W or D only)
        width: MemWidth,
        /// success flag destination (0 = success)
        rd: Gpr,
        /// address register
        rs1: Gpr,
        /// data register
        rs2: Gpr,
    },
    /// AMO read-modify-write.
    Amo {
        /// operation
        op: AmoOp,
        /// access width (W or D only)
        width: MemWidth,
        /// destination (old value)
        rd: Gpr,
        /// address register
        rs1: Gpr,
        /// data register
        rs2: Gpr,
    },
    /// Zicsr access.
    Csr {
        /// operation
        op: CsrOp,
        /// destination (old CSR value)
        rd: Gpr,
        /// source operand
        src: CsrSrc,
        /// CSR address (12 bits)
        csr: u16,
    },
    /// `fence` (all orderings — treated as a full fence).
    Fence,
    /// `fence.i`
    FenceI,
    /// `ecall`
    Ecall,
    /// `ebreak`
    Ebreak,
    /// `mret`
    Mret,
    /// `sret`
    Sret,
    /// `wfi`
    Wfi,
    /// `sfence.vma rs1, rs2`
    SfenceVma {
        /// address register (x0 = all)
        rs1: Gpr,
        /// ASID register (x0 = all)
        rs2: Gpr,
    },
}

/// Error from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable instruction word.
    pub raw: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal instruction {:#010x}", self.raw)
    }
}

impl std::error::Error for DecodeError {}

// Field extraction helpers -------------------------------------------------

fn rd_of(w: u32) -> Gpr {
    Gpr::new(((w >> 7) & 0x1f) as u8)
}
fn rs1_of(w: u32) -> Gpr {
    Gpr::new(((w >> 15) & 0x1f) as u8)
}
fn rs2_of(w: u32) -> Gpr {
    Gpr::new(((w >> 20) & 0x1f) as u8)
}
fn funct3(w: u32) -> u32 {
    (w >> 12) & 7
}
fn funct7(w: u32) -> u32 {
    w >> 25
}
fn imm_i(w: u32) -> i32 {
    (w as i32) >> 20
}
fn imm_s(w: u32) -> i32 {
    (((w & 0xfe00_0000) as i32) >> 20) | (((w >> 7) & 0x1f) as i32)
}
fn imm_b(w: u32) -> i32 {
    (((w & 0x8000_0000) as i32) >> 19)
        | ((((w >> 7) & 1) << 11) as i32)
        | ((((w >> 25) & 0x3f) << 5) as i32)
        | ((((w >> 8) & 0xf) << 1) as i32)
}
fn imm_j(w: u32) -> i32 {
    (((w & 0x8000_0000) as i32) >> 11)
        | (((w >> 12) & 0xff) << 12) as i32
        | (((w >> 20) & 1) << 11) as i32
        | (((w >> 21) & 0x3ff) << 1) as i32
}

// Encoding helpers ----------------------------------------------------------

fn enc_r(op: u32, f3: u32, f7: u32, rd: Gpr, rs1: Gpr, rs2: Gpr) -> u32 {
    op | (u32::from(rd) << 7)
        | (f3 << 12)
        | (u32::from(rs1) << 15)
        | (u32::from(rs2) << 20)
        | (f7 << 25)
}

fn enc_i(op: u32, f3: u32, rd: Gpr, rs1: Gpr, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "I-imm out of range: {imm}");
    op | (u32::from(rd) << 7) | (f3 << 12) | (u32::from(rs1) << 15) | (((imm as u32) & 0xfff) << 20)
}

fn enc_s(op: u32, f3: u32, rs1: Gpr, rs2: Gpr, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "S-imm out of range: {imm}");
    let imm = imm as u32;
    op | ((imm & 0x1f) << 7)
        | (f3 << 12)
        | (u32::from(rs1) << 15)
        | (u32::from(rs2) << 20)
        | (((imm >> 5) & 0x7f) << 25)
}

fn enc_b(op: u32, f3: u32, rs1: Gpr, rs2: Gpr, imm: i32) -> u32 {
    debug_assert!(
        (-4096..=4094).contains(&imm) && imm % 2 == 0,
        "B-imm out of range: {imm}"
    );
    let imm = imm as u32;
    op | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xf) << 8)
        | (f3 << 12)
        | (u32::from(rs1) << 15)
        | (u32::from(rs2) << 20)
        | (((imm >> 5) & 0x3f) << 25)
        | (((imm >> 12) & 1) << 31)
}

fn enc_j(op: u32, rd: Gpr, imm: i32) -> u32 {
    debug_assert!(
        (-(1 << 20)..(1 << 20)).contains(&imm) && imm % 2 == 0,
        "J-imm out of range: {imm}"
    );
    let imm = imm as u32;
    op | (u32::from(rd) << 7)
        | (((imm >> 12) & 0xff) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 20) & 1) << 31)
}

fn enc_u(op: u32, rd: Gpr, imm: i64) -> u32 {
    debug_assert!(imm % (1 << 12) == 0, "U-imm must be 4KiB aligned");
    op | (u32::from(rd) << 7) | ((imm as u32) & 0xffff_f000)
}

const OP_LUI: u32 = 0x37;
const OP_AUIPC: u32 = 0x17;
const OP_JAL: u32 = 0x6f;
const OP_JALR: u32 = 0x67;
const OP_BRANCH: u32 = 0x63;
const OP_LOAD: u32 = 0x03;
const OP_STORE: u32 = 0x23;
const OP_IMM: u32 = 0x13;
const OP_IMM32: u32 = 0x1b;
const OP_REG: u32 = 0x33;
const OP_REG32: u32 = 0x3b;
const OP_AMO: u32 = 0x2f;
const OP_SYSTEM: u32 = 0x73;
const OP_MISC_MEM: u32 = 0x0f;

impl cmd_core::snap::Snap for Instr {
    /// An instruction's snapshot encoding *is* its canonical 32-bit RISC-V
    /// encoding — no second format to keep in sync with the decoder.
    fn save(&self, w: &mut cmd_core::snap::SnapWriter) {
        w.u32(self.encode());
    }

    /// Refuses a word the decoder accepts but `save` would not write (a
    /// fence with stray bits, say): the bytes were damaged.
    fn load(r: &mut cmd_core::snap::SnapReader<'_>) -> Result<Self, cmd_core::snap::SnapError> {
        let word = r.u32()?;
        match decode(word) {
            Ok(i) if i.encode() == word => Ok(i),
            _ => Err(cmd_core::snap::SnapError::Corrupt(
                "not a canonical instruction word".into(),
            )),
        }
    }
}

impl Instr {
    /// Encodes into the 32-bit RISC-V instruction word.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if an immediate is out of range for its
    /// encoding — the assembler guarantees ranges for generated code.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn encode(self) -> u32 {
        use Instr::*;
        match self {
            Lui { rd, imm } => enc_u(OP_LUI, rd, imm),
            Auipc { rd, imm } => enc_u(OP_AUIPC, rd, imm),
            Jal { rd, offset } => enc_j(OP_JAL, rd, offset),
            Jalr { rd, rs1, offset } => enc_i(OP_JALR, 0, rd, rs1, offset),
            Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let f3 = match cond {
                    BranchCond::Eq => 0,
                    BranchCond::Ne => 1,
                    BranchCond::Lt => 4,
                    BranchCond::Ge => 5,
                    BranchCond::Ltu => 6,
                    BranchCond::Geu => 7,
                };
                enc_b(OP_BRANCH, f3, rs1, rs2, offset)
            }
            Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let f3 = match (width, signed) {
                    (MemWidth::B, true) => 0,
                    (MemWidth::H, true) => 1,
                    (MemWidth::W, true) => 2,
                    (MemWidth::D, _) => 3,
                    (MemWidth::B, false) => 4,
                    (MemWidth::H, false) => 5,
                    (MemWidth::W, false) => 6,
                };
                enc_i(OP_LOAD, f3, rd, rs1, offset)
            }
            Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let f3 = match width {
                    MemWidth::B => 0,
                    MemWidth::H => 1,
                    MemWidth::W => 2,
                    MemWidth::D => 3,
                };
                enc_s(OP_STORE, f3, rs1, rs2, offset)
            }
            Alu {
                op,
                word,
                rd,
                rs1,
                rhs,
            } => {
                let (f3, f7) = match op {
                    AluOp::Add => (0, 0x00),
                    AluOp::Sub => (0, 0x20),
                    AluOp::Sll => (1, 0x00),
                    AluOp::Slt => (2, 0x00),
                    AluOp::Sltu => (3, 0x00),
                    AluOp::Xor => (4, 0x00),
                    AluOp::Srl => (5, 0x00),
                    AluOp::Sra => (5, 0x20),
                    AluOp::Or => (6, 0x00),
                    AluOp::And => (7, 0x00),
                };
                match rhs {
                    Rhs::Reg(rs2) => {
                        let opc = if word { OP_REG32 } else { OP_REG };
                        enc_r(opc, f3, f7, rd, rs1, rs2)
                    }
                    Rhs::Imm(imm) => {
                        let opc = if word { OP_IMM32 } else { OP_IMM };
                        match op {
                            AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                                let shamt_mask = if word { 0x1f } else { 0x3f };
                                let shamt = (imm as u32) & shamt_mask;
                                enc_i(opc, f3, rd, rs1, ((f7 << 5) | shamt) as i32)
                            }
                            AluOp::Sub => panic!("subi does not exist; use addi with -imm"),
                            _ => enc_i(opc, f3, rd, rs1, imm),
                        }
                    }
                }
            }
            MulDiv {
                op,
                word,
                rd,
                rs1,
                rs2,
            } => {
                let f3 = match op {
                    MulDivOp::Mul => 0,
                    MulDivOp::Mulh => 1,
                    MulDivOp::Mulhsu => 2,
                    MulDivOp::Mulhu => 3,
                    MulDivOp::Div => 4,
                    MulDivOp::Divu => 5,
                    MulDivOp::Rem => 6,
                    MulDivOp::Remu => 7,
                };
                let opc = if word { OP_REG32 } else { OP_REG };
                enc_r(opc, f3, 0x01, rd, rs1, rs2)
            }
            Lr { width, rd, rs1 } => {
                let f3 = if width == MemWidth::W { 2 } else { 3 };
                enc_r(OP_AMO, f3, 0x02 << 2, rd, rs1, Gpr::ZERO)
            }
            Sc {
                width,
                rd,
                rs1,
                rs2,
            } => {
                let f3 = if width == MemWidth::W { 2 } else { 3 };
                enc_r(OP_AMO, f3, 0x03 << 2, rd, rs1, rs2)
            }
            Amo {
                op,
                width,
                rd,
                rs1,
                rs2,
            } => {
                let f3 = if width == MemWidth::W { 2 } else { 3 };
                let f5: u32 = match op {
                    AmoOp::Swap => 0x01,
                    AmoOp::Add => 0x00,
                    AmoOp::Xor => 0x04,
                    AmoOp::And => 0x0c,
                    AmoOp::Or => 0x08,
                    AmoOp::Min => 0x10,
                    AmoOp::Max => 0x14,
                    AmoOp::Minu => 0x18,
                    AmoOp::Maxu => 0x1c,
                };
                enc_r(OP_AMO, f3, f5 << 2, rd, rs1, rs2)
            }
            Csr { op, rd, src, csr } => {
                let base = match op {
                    CsrOp::Rw => 1,
                    CsrOp::Rs => 2,
                    CsrOp::Rc => 3,
                };
                match src {
                    CsrSrc::Reg(rs1) => {
                        OP_SYSTEM
                            | (u32::from(rd) << 7)
                            | (base << 12)
                            | (u32::from(rs1) << 15)
                            | (u32::from(csr) << 20)
                    }
                    CsrSrc::Imm(z) => {
                        OP_SYSTEM
                            | (u32::from(rd) << 7)
                            | ((base + 4) << 12)
                            | ((u32::from(z) & 0x1f) << 15)
                            | (u32::from(csr) << 20)
                    }
                }
            }
            Fence => OP_MISC_MEM | (0x0ff0 << 20),
            FenceI => OP_MISC_MEM | (1 << 12),
            Ecall => OP_SYSTEM,
            Ebreak => OP_SYSTEM | (1 << 20),
            Mret => OP_SYSTEM | (0x302 << 20),
            Sret => OP_SYSTEM | (0x102 << 20),
            Wfi => OP_SYSTEM | (0x105 << 20),
            SfenceVma { rs1, rs2 } => enc_r(OP_SYSTEM, 0, 0x09, Gpr::ZERO, rs1, rs2),
        }
    }

    /// Whether this instruction reads memory (loads, LR, AMOs).
    #[must_use]
    pub fn is_mem_read(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Lr { .. } | Instr::Amo { .. }
        )
    }

    /// Whether this is a control-flow instruction.
    #[must_use]
    pub fn is_branch_or_jump(&self) -> bool {
        matches!(
            self,
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. }
        )
    }
}

/// Decodes a 32-bit instruction word.
///
/// # Errors
///
/// Returns [`DecodeError`] for any word that is not a valid RV64IMA+Zicsr
/// instruction.
#[allow(clippy::too_many_lines)]
pub fn decode(w: u32) -> Result<Instr, DecodeError> {
    let err = Err(DecodeError { raw: w });
    let opc = w & 0x7f;
    let instr = match opc {
        OP_LUI => Instr::Lui {
            rd: rd_of(w),
            imm: i64::from((w & 0xffff_f000) as i32),
        },
        OP_AUIPC => Instr::Auipc {
            rd: rd_of(w),
            imm: i64::from((w & 0xffff_f000) as i32),
        },
        OP_JAL => Instr::Jal {
            rd: rd_of(w),
            offset: imm_j(w),
        },
        OP_JALR => {
            if funct3(w) != 0 {
                return err;
            }
            Instr::Jalr {
                rd: rd_of(w),
                rs1: rs1_of(w),
                offset: imm_i(w),
            }
        }
        OP_BRANCH => {
            let cond = match funct3(w) {
                0 => BranchCond::Eq,
                1 => BranchCond::Ne,
                4 => BranchCond::Lt,
                5 => BranchCond::Ge,
                6 => BranchCond::Ltu,
                7 => BranchCond::Geu,
                _ => return err,
            };
            Instr::Branch {
                cond,
                rs1: rs1_of(w),
                rs2: rs2_of(w),
                offset: imm_b(w),
            }
        }
        OP_LOAD => {
            let (width, signed) = match funct3(w) {
                0 => (MemWidth::B, true),
                1 => (MemWidth::H, true),
                2 => (MemWidth::W, true),
                3 => (MemWidth::D, true),
                4 => (MemWidth::B, false),
                5 => (MemWidth::H, false),
                6 => (MemWidth::W, false),
                _ => return err,
            };
            Instr::Load {
                width,
                signed,
                rd: rd_of(w),
                rs1: rs1_of(w),
                offset: imm_i(w),
            }
        }
        OP_STORE => {
            let width = match funct3(w) {
                0 => MemWidth::B,
                1 => MemWidth::H,
                2 => MemWidth::W,
                3 => MemWidth::D,
                _ => return err,
            };
            Instr::Store {
                width,
                rs2: rs2_of(w),
                rs1: rs1_of(w),
                offset: imm_s(w),
            }
        }
        OP_IMM | OP_IMM32 => {
            let word = opc == OP_IMM32;
            let imm = imm_i(w);
            let op = match funct3(w) {
                0 => AluOp::Add,
                1 => {
                    if word && (imm as u32) & !0x1f != 0 {
                        return err;
                    }
                    if !word && (imm as u32) & !0x3f != 0 {
                        return err;
                    }
                    AluOp::Sll
                }
                2 if !word => AluOp::Slt,
                3 if !word => AluOp::Sltu,
                4 if !word => AluOp::Xor,
                5 => {
                    let hi = (imm as u32 >> 6) & 0x3f;
                    match hi {
                        0x00 => AluOp::Srl,
                        0x10 => AluOp::Sra,
                        _ => return err,
                    }
                }
                6 if !word => AluOp::Or,
                7 if !word => AluOp::And,
                _ => return err,
            };
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => imm & if word { 0x1f } else { 0x3f },
                _ => imm,
            };
            Instr::Alu {
                op,
                word,
                rd: rd_of(w),
                rs1: rs1_of(w),
                rhs: Rhs::Imm(imm),
            }
        }
        OP_REG | OP_REG32 => {
            let word = opc == OP_REG32;
            let (f3, f7) = (funct3(w), funct7(w));
            if f7 == 0x01 {
                let op = match f3 {
                    0 => MulDivOp::Mul,
                    1 if !word => MulDivOp::Mulh,
                    2 if !word => MulDivOp::Mulhsu,
                    3 if !word => MulDivOp::Mulhu,
                    4 => MulDivOp::Div,
                    5 => MulDivOp::Divu,
                    6 => MulDivOp::Rem,
                    7 => MulDivOp::Remu,
                    _ => return err,
                };
                Instr::MulDiv {
                    op,
                    word,
                    rd: rd_of(w),
                    rs1: rs1_of(w),
                    rs2: rs2_of(w),
                }
            } else {
                let op = match (f3, f7) {
                    (0, 0x00) => AluOp::Add,
                    (0, 0x20) => AluOp::Sub,
                    (1, 0x00) => AluOp::Sll,
                    (2, 0x00) if !word => AluOp::Slt,
                    (3, 0x00) if !word => AluOp::Sltu,
                    (4, 0x00) if !word => AluOp::Xor,
                    (5, 0x00) => AluOp::Srl,
                    (5, 0x20) => AluOp::Sra,
                    (6, 0x00) if !word => AluOp::Or,
                    (7, 0x00) if !word => AluOp::And,
                    _ => return err,
                };
                Instr::Alu {
                    op,
                    word,
                    rd: rd_of(w),
                    rs1: rs1_of(w),
                    rhs: Rhs::Reg(rs2_of(w)),
                }
            }
        }
        OP_AMO => {
            let width = match funct3(w) {
                2 => MemWidth::W,
                3 => MemWidth::D,
                _ => return err,
            };
            let f5 = funct7(w) >> 2;
            match f5 {
                0x02 => {
                    if rs2_of(w) != Gpr::ZERO {
                        return err;
                    }
                    Instr::Lr {
                        width,
                        rd: rd_of(w),
                        rs1: rs1_of(w),
                    }
                }
                0x03 => Instr::Sc {
                    width,
                    rd: rd_of(w),
                    rs1: rs1_of(w),
                    rs2: rs2_of(w),
                },
                _ => {
                    let op = match f5 {
                        0x01 => AmoOp::Swap,
                        0x00 => AmoOp::Add,
                        0x04 => AmoOp::Xor,
                        0x0c => AmoOp::And,
                        0x08 => AmoOp::Or,
                        0x10 => AmoOp::Min,
                        0x14 => AmoOp::Max,
                        0x18 => AmoOp::Minu,
                        0x1c => AmoOp::Maxu,
                        _ => return err,
                    };
                    Instr::Amo {
                        op,
                        width,
                        rd: rd_of(w),
                        rs1: rs1_of(w),
                        rs2: rs2_of(w),
                    }
                }
            }
        }
        OP_SYSTEM => {
            let f3 = funct3(w);
            if f3 == 0 {
                match w >> 7 {
                    0 => Instr::Ecall,
                    x if x == (1 << 13) => Instr::Ebreak,
                    _ => {
                        if funct7(w) == 0x09 && rd_of(w) == Gpr::ZERO {
                            Instr::SfenceVma {
                                rs1: rs1_of(w),
                                rs2: rs2_of(w),
                            }
                        } else {
                            match w >> 20 {
                                0x302 if rd_of(w) == Gpr::ZERO && rs1_of(w) == Gpr::ZERO => {
                                    Instr::Mret
                                }
                                0x102 if rd_of(w) == Gpr::ZERO && rs1_of(w) == Gpr::ZERO => {
                                    Instr::Sret
                                }
                                0x105 if rd_of(w) == Gpr::ZERO && rs1_of(w) == Gpr::ZERO => {
                                    Instr::Wfi
                                }
                                _ => return err,
                            }
                        }
                    }
                }
            } else {
                let op = match f3 & 3 {
                    1 => CsrOp::Rw,
                    2 => CsrOp::Rs,
                    3 => CsrOp::Rc,
                    _ => return err,
                };
                let csr = (w >> 20) as u16;
                let src = if f3 >= 4 {
                    CsrSrc::Imm(((w >> 15) & 0x1f) as u8)
                } else {
                    CsrSrc::Reg(rs1_of(w))
                };
                Instr::Csr {
                    op,
                    rd: rd_of(w),
                    src,
                    csr,
                }
            }
        }
        OP_MISC_MEM => match funct3(w) {
            0 => Instr::Fence,
            1 => Instr::FenceI,
            _ => return err,
        },
        _ => return err,
    };
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instr) {
        let w = i.encode();
        let back = decode(w).unwrap_or_else(|e| panic!("{e} while decoding {i:?}"));
        assert_eq!(back, i, "round trip failed for word {w:#010x}");
    }

    #[test]
    fn roundtrip_core_instructions() {
        let a0 = Gpr::a(0);
        let a1 = Gpr::a(1);
        let t0 = Gpr::t(0);
        roundtrip(Instr::Lui {
            rd: a0,
            imm: 0x12345 << 12,
        });
        roundtrip(Instr::Lui { rd: a0, imm: -4096 });
        roundtrip(Instr::Auipc {
            rd: t0,
            imm: 0x1000,
        });
        roundtrip(Instr::Jal {
            rd: Gpr::RA,
            offset: -2048,
        });
        roundtrip(Instr::Jalr {
            rd: Gpr::ZERO,
            rs1: Gpr::RA,
            offset: 0,
        });
        for cond in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Ltu,
            BranchCond::Geu,
        ] {
            roundtrip(Instr::Branch {
                cond,
                rs1: a0,
                rs2: a1,
                offset: -64,
            });
        }
    }

    #[test]
    fn roundtrip_loads_stores() {
        let a0 = Gpr::a(0);
        let s1 = Gpr::s(1);
        for width in [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D] {
            roundtrip(Instr::Load {
                width,
                signed: true,
                rd: a0,
                rs1: s1,
                offset: -8,
            });
            roundtrip(Instr::Store {
                width,
                rs2: a0,
                rs1: s1,
                offset: 16,
            });
            if width != MemWidth::D {
                roundtrip(Instr::Load {
                    width,
                    signed: false,
                    rd: a0,
                    rs1: s1,
                    offset: 4,
                });
            }
        }
    }

    #[test]
    fn roundtrip_alu_all_ops() {
        let (a, b, c) = (Gpr::a(0), Gpr::a(1), Gpr::a(2));
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ] {
            roundtrip(Instr::Alu {
                op,
                word: false,
                rd: a,
                rs1: b,
                rhs: Rhs::Reg(c),
            });
            if op != AluOp::Sub {
                let imm = match op {
                    AluOp::Sll | AluOp::Srl | AluOp::Sra => 13,
                    _ => -5,
                };
                roundtrip(Instr::Alu {
                    op,
                    word: false,
                    rd: a,
                    rs1: b,
                    rhs: Rhs::Imm(imm),
                });
            }
        }
        // Word forms that exist: addw/subw/sllw/srlw/sraw + immediates.
        for op in [AluOp::Add, AluOp::Sub, AluOp::Sll, AluOp::Srl, AluOp::Sra] {
            roundtrip(Instr::Alu {
                op,
                word: true,
                rd: a,
                rs1: b,
                rhs: Rhs::Reg(c),
            });
        }
        for op in [AluOp::Add, AluOp::Sll, AluOp::Srl, AluOp::Sra] {
            let imm = if op == AluOp::Add { 100 } else { 7 };
            roundtrip(Instr::Alu {
                op,
                word: true,
                rd: a,
                rs1: b,
                rhs: Rhs::Imm(imm),
            });
        }
    }

    #[test]
    fn roundtrip_muldiv() {
        let (a, b, c) = (Gpr::a(0), Gpr::a(1), Gpr::a(2));
        for op in [
            MulDivOp::Mul,
            MulDivOp::Mulh,
            MulDivOp::Mulhsu,
            MulDivOp::Mulhu,
            MulDivOp::Div,
            MulDivOp::Divu,
            MulDivOp::Rem,
            MulDivOp::Remu,
        ] {
            roundtrip(Instr::MulDiv {
                op,
                word: false,
                rd: a,
                rs1: b,
                rs2: c,
            });
        }
        for op in [
            MulDivOp::Mul,
            MulDivOp::Div,
            MulDivOp::Divu,
            MulDivOp::Rem,
            MulDivOp::Remu,
        ] {
            roundtrip(Instr::MulDiv {
                op,
                word: true,
                rd: a,
                rs1: b,
                rs2: c,
            });
        }
    }

    #[test]
    fn roundtrip_atomics() {
        let (a, b, c) = (Gpr::a(0), Gpr::a(1), Gpr::a(2));
        for width in [MemWidth::W, MemWidth::D] {
            roundtrip(Instr::Lr {
                width,
                rd: a,
                rs1: b,
            });
            roundtrip(Instr::Sc {
                width,
                rd: a,
                rs1: b,
                rs2: c,
            });
            for op in [
                AmoOp::Swap,
                AmoOp::Add,
                AmoOp::Xor,
                AmoOp::And,
                AmoOp::Or,
                AmoOp::Min,
                AmoOp::Max,
                AmoOp::Minu,
                AmoOp::Maxu,
            ] {
                roundtrip(Instr::Amo {
                    op,
                    width,
                    rd: a,
                    rs1: b,
                    rs2: c,
                });
            }
        }
    }

    #[test]
    fn roundtrip_system() {
        roundtrip(Instr::Ecall);
        roundtrip(Instr::Ebreak);
        roundtrip(Instr::Mret);
        roundtrip(Instr::Sret);
        roundtrip(Instr::Wfi);
        roundtrip(Instr::Fence);
        roundtrip(Instr::FenceI);
        roundtrip(Instr::SfenceVma {
            rs1: Gpr::a(0),
            rs2: Gpr::ZERO,
        });
        for op in [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc] {
            roundtrip(Instr::Csr {
                op,
                rd: Gpr::a(0),
                src: CsrSrc::Reg(Gpr::a(1)),
                csr: 0x300,
            });
            roundtrip(Instr::Csr {
                op,
                rd: Gpr::ZERO,
                src: CsrSrc::Imm(17),
                csr: 0x180,
            });
        }
    }

    #[test]
    fn illegal_words_rejected() {
        assert!(decode(0).is_err());
        assert!(decode(0xffff_ffff).is_err());
        assert!(decode(0x0000_007f).is_err());
    }

    #[test]
    fn immediate_extraction_signs() {
        // addi a0, a0, -1
        let w = Instr::Alu {
            op: AluOp::Add,
            word: false,
            rd: Gpr::a(0),
            rs1: Gpr::a(0),
            rhs: Rhs::Imm(-1),
        }
        .encode();
        match decode(w).unwrap() {
            Instr::Alu {
                rhs: Rhs::Imm(i), ..
            } => assert_eq!(i, -1),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn classification_helpers() {
        let ld = Instr::Load {
            width: MemWidth::D,
            signed: true,
            rd: Gpr::a(0),
            rs1: Gpr::a(1),
            offset: 0,
        };
        assert!(ld.is_mem_read());
        let amo = Instr::Amo {
            op: AmoOp::Add,
            width: MemWidth::W,
            rd: Gpr::a(0),
            rs1: Gpr::a(1),
            rs2: Gpr::a(2),
        };
        assert!(amo.is_mem_read());
        assert!(Instr::Jal {
            rd: Gpr::ZERO,
            offset: 8
        }
        .is_branch_or_jump());
    }
}
