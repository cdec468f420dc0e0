//! Core-internal types: physical registers, speculation tags, micro-ops.

use riscy_isa::inst::Instr;
use riscy_isa::reg::Gpr;

use crate::frontend::GhistSnapshot;

/// A physical register name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysReg(pub u16);

impl PhysReg {
    /// The physical register permanently holding zero (`p0` maps `x0`).
    pub const ZERO: PhysReg = PhysReg(0);

    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A speculation tag: the slot of an unresolved branch's recovery snapshot
/// in the [`crate::rename::SpecManager`] (paper §V: "speculation tags are
/// managed as a finite set"). Which instructions a branch's misprediction
/// squashes is decided by rename order ([`Uop::seq`]), not by the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecTag(pub u8);

/// Which execution pipeline an instruction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecPipe {
    /// Simple integer ops and branches.
    Alu,
    /// Loads, stores, fences, atomics.
    Mem,
    /// Multiply/divide (the paper's FP/MUL/DIV pipeline; FP is not part of
    /// the integer evaluation).
    MulDiv,
}

/// Classification of an instruction for the memory pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A load.
    Load,
    /// A store.
    Store,
    /// LR / SC / AMO (executes at commit).
    Atomic,
    /// A fence (ordering only).
    Fence,
}

/// Reasons an instruction must execute serially at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemOp {
    /// CSR read/write.
    Csr,
    /// `ecall` / `ebreak` (trap at commit).
    Trap,
    /// `mret` / `sret`.
    Ret,
    /// `fence.i` / `sfence.vma` (flush structures).
    FlushFence,
    /// `wfi` (treated as a no-op).
    Nop,
}

/// A renamed micro-op flowing through the back-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uop {
    /// The decoded instruction.
    pub instr: Instr,
    /// Its PC.
    pub pc: u64,
    /// Predicted next PC (for branch verification).
    pub pred_next: u64,
    /// ROB index.
    pub rob: u16,
    /// Architectural destination.
    pub arch_dst: Option<Gpr>,
    /// Renamed destination.
    pub dst: Option<PhysReg>,
    /// Old physical mapping of the destination (freed at commit).
    pub old_dst: Option<PhysReg>,
    /// Renamed first source.
    pub src1: PhysReg,
    /// Renamed second source.
    pub src2: PhysReg,
    /// Rename order: the ROB's sequence number for this instruction. An
    /// unresolved branch's misprediction squashes exactly the instructions
    /// with a larger one.
    pub seq: u64,
    /// This instruction's own speculation tag (branches only).
    pub own_tag: Option<SpecTag>,
    /// LQ or SQ index for memory instructions.
    pub lsq_idx: Option<u16>,
    /// Memory classification.
    pub mem_kind: Option<MemKind>,
    /// Predicted direction (conditional branches).
    pub pred_taken: bool,
    /// Global-history snapshot before this branch (for training/recovery).
    pub ghist: GhistSnapshot,
}

/// Why the ROB asked for a pipeline flush at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushCause {
    /// An architectural exception (page fault etc.) — redirect to the trap
    /// vector.
    Exception(riscy_isa::csr::Exception),
    /// A speculative load violated the memory model; replay from it.
    LoadSpeculationFailure,
    /// A system instruction (CSR/fence/ret) completed; resume at next PC.
    SystemDone,
}

cmd_core::snap_struct!(PhysReg { 0 });
cmd_core::snap_struct!(SpecTag { 0 });

cmd_core::snap_enum!(ExecPipe {
    0 => Alu,
    1 => Mem,
    2 => MulDiv,
});

cmd_core::snap_enum!(MemKind {
    0 => Load,
    1 => Store,
    2 => Atomic,
    3 => Fence,
});

cmd_core::snap_enum!(SystemOp {
    0 => Csr,
    1 => Trap,
    2 => Ret,
    3 => FlushFence,
    4 => Nop,
});

cmd_core::snap_struct!(Uop {
    instr,
    pc,
    pred_next,
    rob,
    arch_dst,
    dst,
    old_dst,
    src1,
    src2,
    seq,
    own_tag,
    lsq_idx,
    mem_kind,
    pred_taken,
    ghist,
});

cmd_core::snap_enum!(FlushCause {
    0 => Exception(e),
    1 => LoadSpeculationFailure,
    2 => SystemDone,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_reg_zero() {
        assert_eq!(PhysReg::ZERO.index(), 0);
    }
}
