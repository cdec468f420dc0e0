//! Front-end predictors: direct-mapped BTB, Alpha-21264-style tournament
//! direction predictor, and a return-address stack (paper Fig. 12).
//!
//! Predictor state is performance-only (never affects architectural
//! correctness), so these are plain structures updated in place; mispredict
//! recovery snapshots only the RAS top-pointer and global history.

use riscy_isa::inst::{BranchCond, Instr};
use riscy_isa::reg::Gpr;

use crate::config::BpConfig;

/// Direct-mapped branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>, // (pc, target)
    mask: u64,
}

impl Btb {
    /// Creates an empty BTB with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        Btb {
            entries: vec![None; entries],
            mask: entries as u64 - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Predicted target for `pc`, if any.
    #[must_use]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, tgt)) if tag == pc => Some(tgt),
            _ => None,
        }
    }

    /// Trains the entry for a taken branch/jump.
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = self.index(pc);
        self.entries[i] = Some((pc, target));
    }

    /// Removes the entry (not-taken branch aliasing cleanup).
    pub fn invalidate(&mut self, pc: u64) {
        let i = self.index(pc);
        if matches!(self.entries[i], Some((tag, _)) if tag == pc) {
            self.entries[i] = None;
        }
    }
}

/// Alpha 21264-style tournament predictor: a local predictor (per-PC
/// history → 3-bit counters), a global predictor (global history → 2-bit
/// counters), and a choice predictor selecting between them.
#[derive(Debug, Clone)]
pub struct Tournament {
    local_hist: Vec<u16>,
    local_pred: Vec<u8>,  // 3-bit
    global_pred: Vec<u8>, // 2-bit
    choice: Vec<u8>,      // 2-bit: ≥2 = use global
    ghist: u64,
    cfg: BpConfig,
}

/// A snapshot of the speculative global history (restored on redirect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GhistSnapshot(u64);

impl Tournament {
    /// Creates a reset predictor.
    #[must_use]
    pub fn new(cfg: BpConfig) -> Self {
        Tournament {
            local_hist: vec![0; cfg.local_hist_entries],
            // Weakly taken: most cold branches are backward loop branches.
            local_pred: vec![4; 1 << cfg.local_hist_bits],
            global_pred: vec![2; cfg.global_entries],
            choice: vec![1; cfg.global_entries],
            ghist: 0,
            cfg,
        }
    }

    fn lh_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.local_hist_entries - 1)
    }

    fn gmask(&self) -> u64 {
        self.cfg.global_entries as u64 - 1
    }

    /// Predicts the direction of the branch at `pc` and speculatively
    /// shifts the global history.
    pub fn predict_and_update_ghist(&mut self, pc: u64) -> bool {
        let taken = self.predict(pc);
        self.ghist = (self.ghist << 1) | u64::from(taken);
        taken
    }

    /// Pure prediction without history effects.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        let lh =
            self.local_hist[self.lh_index(pc)] as usize & ((1 << self.cfg.local_hist_bits) - 1);
        let local_taken = self.local_pred[lh] >= 4;
        let gi = ((self.ghist ^ (pc >> 2)) & self.gmask()) as usize;
        let global_taken = self.global_pred[gi] >= 2;
        if self.choice[gi] >= 2 {
            global_taken
        } else {
            local_taken
        }
    }

    /// Captures the speculative global history for recovery.
    #[must_use]
    pub fn snapshot(&self) -> GhistSnapshot {
        GhistSnapshot(self.ghist)
    }

    /// Restores history after a squash; `actual` is the resolved direction
    /// of the mispredicted branch.
    pub fn restore(&mut self, snap: GhistSnapshot, actual: bool) {
        self.ghist = (snap.0 << 1) | u64::from(actual);
    }

    /// Trains all tables with the resolved outcome. `snap` is the history
    /// *before* this branch's own speculative shift.
    pub fn train(&mut self, pc: u64, snap: GhistSnapshot, taken: bool) {
        let lhi = self.lh_index(pc);
        let lh = self.local_hist[lhi] as usize & ((1 << self.cfg.local_hist_bits) - 1);
        let gi = ((snap.0 ^ (pc >> 2)) & self.gmask()) as usize;
        let local_taken = self.local_pred[lh] >= 4;
        let global_taken = self.global_pred[gi] >= 2;
        // Choice trains toward whichever component was right.
        if local_taken != global_taken {
            if global_taken == taken {
                self.choice[gi] = (self.choice[gi] + 1).min(3);
            } else {
                self.choice[gi] = self.choice[gi].saturating_sub(1);
            }
        }
        bump(&mut self.local_pred[lh], taken, 7);
        bump(&mut self.global_pred[gi], taken, 3);
        self.local_hist[lhi] = ((self.local_hist[lhi] << 1) | u16::from(taken))
            & ((1 << self.cfg.local_hist_bits) - 1);
    }
}

fn bump(ctr: &mut u8, up: bool, max: u8) {
    if up {
        *ctr = (*ctr + 1).min(max);
    } else {
        *ctr = ctr.saturating_sub(1);
    }
}

/// Return-address stack with pointer-only recovery.
#[derive(Debug, Clone)]
pub struct Ras {
    stack: Vec<u64>,
    top: usize,
}

/// A snapshot of the RAS top pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RasSnapshot(usize);

impl Ras {
    /// Creates an empty RAS of `entries` slots.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        Ras {
            stack: vec![0; entries],
            top: 0,
        }
    }

    /// Pushes a return address (on `call`).
    pub fn push(&mut self, ra: u64) {
        self.top = (self.top + 1) % self.stack.len();
        self.stack[self.top] = ra;
    }

    /// Pops the predicted return address (on `ret`).
    pub fn pop(&mut self) -> u64 {
        let v = self.stack[self.top];
        self.top = (self.top + self.stack.len() - 1) % self.stack.len();
        v
    }

    /// Snapshot for mispredict recovery.
    #[must_use]
    pub fn snapshot(&self) -> RasSnapshot {
        RasSnapshot(self.top)
    }

    /// Restores the top pointer.
    pub fn restore(&mut self, s: RasSnapshot) {
        self.top = s.0;
    }
}

/// How `call`/`ret` shapes are recognized for the RAS (standard RISC-V
/// convention: link register is `ra`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallRet {
    /// `jal ra, ...` / `jalr ra, ...`.
    Call,
    /// `jalr x0, 0(ra)`.
    Ret,
    /// Neither.
    Other,
}

/// Classifies an instruction for RAS handling.
#[must_use]
pub fn call_ret_kind(i: &Instr) -> CallRet {
    match *i {
        Instr::Jal { rd, .. } if rd == Gpr::RA => CallRet::Call,
        Instr::Jalr { rd, rs1, .. } => {
            if rd == Gpr::RA {
                CallRet::Call
            } else if rd == Gpr::ZERO && rs1 == Gpr::RA {
                CallRet::Ret
            } else {
                CallRet::Other
            }
        }
        _ => CallRet::Other,
    }
}

/// The complete next-PC prediction for one fetched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextPc {
    /// Predicted next PC.
    pub target: u64,
    /// For conditional branches: the predicted direction.
    pub taken: bool,
}

/// Predicts the next PC for `instr` at `pc` using all three structures,
/// updating speculative state (global history, RAS).
pub fn predict_next(
    btb: &mut Btb,
    tour: &mut Tournament,
    ras: &mut Ras,
    pc: u64,
    instr: &Instr,
) -> NextPc {
    match *instr {
        Instr::Jal { offset, .. } => {
            let target = pc.wrapping_add(offset as i64 as u64);
            if call_ret_kind(instr) == CallRet::Call {
                ras.push(pc + 4);
            }
            NextPc {
                target,
                taken: true,
            }
        }
        Instr::Jalr { .. } => match call_ret_kind(instr) {
            CallRet::Ret => NextPc {
                target: ras.pop(),
                taken: true,
            },
            kind => {
                let target = btb.predict(pc).unwrap_or(pc + 4);
                if kind == CallRet::Call {
                    ras.push(pc + 4);
                }
                NextPc {
                    target,
                    taken: true,
                }
            }
        },
        Instr::Branch { offset, .. } => {
            let taken = tour.predict_and_update_ghist(pc);
            let target = if taken {
                pc.wrapping_add(offset as i64 as u64)
            } else {
                pc + 4
            };
            NextPc { target, taken }
        }
        _ => NextPc {
            target: pc + 4,
            taken: false,
        },
    }
}

/// Resolved-direction check: does `cond` hold for operand values?
#[must_use]
pub fn branch_taken(cond: BranchCond, a: u64, b: u64) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i64) < (b as i64),
        BranchCond::Ge => (a as i64) >= (b as i64),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

cmd_core::snap_struct!(GhistSnapshot { 0 });
cmd_core::snap_struct!(RasSnapshot { 0 });

cmd_core::snapshot_fields!(Btb { entries: same_len });

cmd_core::snapshot_fields!(Tournament {
    local_hist: same_len,
    local_pred: same_len,
    global_pred: same_len,
    choice: same_len,
    ghist,
});

cmd_core::snapshot_fields!(Ras { stack: same_len, top } check Ras::top_in_range);

impl Ras {
    /// The post-restore check: the top pointer indexes the stack.
    fn top_in_range(&self) -> Result<(), cmd_core::snap::SnapError> {
        if self.top < self.stack.len() {
            Ok(())
        } else {
            Err(cmd_core::snap::SnapError::Corrupt(
                "RAS top pointer out of range".into(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_predicts_after_update() {
        let mut b = Btb::new(16);
        assert_eq!(b.predict(0x1000), None);
        b.update(0x1000, 0x2000);
        assert_eq!(b.predict(0x1000), Some(0x2000));
        // Aliasing entry with a different tag must not hit.
        assert_eq!(b.predict(0x1000 + 16 * 4), None);
        b.invalidate(0x1000);
        assert_eq!(b.predict(0x1000), None);
    }

    #[test]
    fn tournament_learns_always_taken() {
        let mut t = Tournament::new(BpConfig::default());
        let pc = 0x8000_0040;
        for _ in 0..16 {
            let snap = t.snapshot();
            t.predict_and_update_ghist(pc);
            t.train(pc, snap, true);
        }
        assert!(t.predict(pc), "must learn an always-taken branch");
    }

    #[test]
    fn tournament_learns_alternating_via_local_history() {
        let mut t = Tournament::new(BpConfig::default());
        let pc = 0x8000_0080;
        let mut correct = 0;
        let mut total = 0;
        for i in 0..200u32 {
            let actual = i % 2 == 0;
            let snap = t.snapshot();
            let pred = t.predict_and_update_ghist(pc);
            t.train(pc, snap, actual);
            if i >= 100 {
                total += 1;
                if pred == actual {
                    correct += 1;
                }
            }
        }
        assert!(
            correct * 10 >= total * 9,
            "local history must capture period-2 pattern: {correct}/{total}"
        );
    }

    #[test]
    fn ras_push_pop_and_recovery() {
        let mut r = Ras::new(8);
        r.push(0x100);
        r.push(0x200);
        let snap = r.snapshot();
        r.push(0x300);
        assert_eq!(r.pop(), 0x300);
        r.push(0x400);
        r.restore(snap);
        assert_eq!(r.pop(), 0x200);
        assert_eq!(r.pop(), 0x100);
    }

    #[test]
    fn call_ret_classification() {
        use riscy_isa::inst::Instr;
        assert_eq!(
            call_ret_kind(&Instr::Jal {
                rd: Gpr::RA,
                offset: 8
            }),
            CallRet::Call
        );
        assert_eq!(
            call_ret_kind(&Instr::Jalr {
                rd: Gpr::ZERO,
                rs1: Gpr::RA,
                offset: 0
            }),
            CallRet::Ret
        );
        assert_eq!(
            call_ret_kind(&Instr::Jal {
                rd: Gpr::ZERO,
                offset: 8
            }),
            CallRet::Other
        );
    }

    #[test]
    fn predict_next_uses_ras_for_returns() {
        let cfg = BpConfig::default();
        let mut btb = Btb::new(cfg.btb_entries);
        let mut tour = Tournament::new(cfg);
        let mut ras = Ras::new(cfg.ras_entries);
        // call at 0x1000 pushes 0x1004.
        let call = Instr::Jal {
            rd: Gpr::RA,
            offset: 0x100,
        };
        let p = predict_next(&mut btb, &mut tour, &mut ras, 0x1000, &call);
        assert_eq!(p.target, 0x1100);
        // ret pops 0x1004.
        let ret = Instr::Jalr {
            rd: Gpr::ZERO,
            rs1: Gpr::RA,
            offset: 0,
        };
        let p = predict_next(&mut btb, &mut tour, &mut ras, 0x1100, &ret);
        assert_eq!(p.target, 0x1004);
    }

    #[test]
    fn branch_taken_signedness() {
        assert!(branch_taken(BranchCond::Lt, (-1i64) as u64, 1));
        assert!(!branch_taken(BranchCond::Ltu, (-1i64) as u64, 1));
        assert!(branch_taken(BranchCond::Geu, (-1i64) as u64, 1));
    }
}
