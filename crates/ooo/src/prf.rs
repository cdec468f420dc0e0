//! The physical register file with true presence bits, the optimistic
//! scoreboard, and the bypass network (paper §V-A).

use cmd_core::cell::{Ehr, Wire};
use cmd_core::clock::Clock;

use crate::types::PhysReg;

/// Physical register file: values plus *true* presence bits (set only when
/// data is actually written, paper §V-A), and the *optimistic* scoreboard
/// presence bits used at IQ entry for back-to-back wakeup.
#[derive(Clone)]
pub struct Prf {
    vals: Vec<Ehr<u64>>,
    present: Vec<Ehr<bool>>,
    score: Vec<Ehr<bool>>,
}

impl Prf {
    /// Creates a PRF with all registers present and zero.
    #[must_use]
    pub fn new(clk: &Clock, phys_regs: usize) -> Self {
        Prf {
            vals: (0..phys_regs).map(|_| Ehr::new(clk, 0)).collect(),
            present: (0..phys_regs).map(|_| Ehr::new(clk, true)).collect(),
            score: (0..phys_regs).map(|_| Ehr::new(clk, true)).collect(),
        }
    }

    /// Reads a register's value (caller checks presence).
    #[must_use]
    pub fn read(&self, p: PhysReg) -> u64 {
        self.vals[p.index()].read()
    }

    /// True presence bit.
    #[must_use]
    pub fn is_present(&self, p: PhysReg) -> bool {
        self.present[p.index()].read()
    }

    /// Optimistic (scoreboard) presence bit.
    #[must_use]
    pub fn score_ready(&self, p: PhysReg) -> bool {
        self.score[p.index()].read()
    }

    /// Write-back: sets the value and both presence bits.
    pub fn write(&self, p: PhysReg, v: u64) {
        if p == PhysReg::ZERO {
            return;
        }
        self.vals[p.index()].write(v);
        self.present[p.index()].write(true);
        self.score[p.index()].write(true);
    }

    /// Rename-time: clears both presence bits of a fresh destination.
    pub fn set_not_ready(&self, p: PhysReg) {
        if p == PhysReg::ZERO {
            return;
        }
        self.present[p.index()].write(false);
        self.score[p.index()].write(false);
    }

    /// Optimistic early wakeup (producer issued with known small latency).
    pub fn set_score_ready(&self, p: PhysReg) {
        self.score[p.index()].write(true);
    }

    /// Flush: every register becomes present (in-flight producers are
    /// squashed).
    pub fn flush_all_present(&self) {
        for i in 0..self.vals.len() {
            self.present[i].write(true);
            self.score[i].write(true);
        }
    }

    /// Number of physical registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The bypass network (paper §V-A "Bypass"): `set` by Exec/Reg-Write rules,
/// `get` by Reg-Read rules in the same cycle (`set < get`).
#[derive(Clone)]
pub struct Bypass {
    lanes: Vec<Wire<(PhysReg, u64)>>,
}

impl Bypass {
    /// Creates `lanes` bypass wires (one per producing pipeline stage).
    #[must_use]
    pub fn new(clk: &Clock, lanes: usize) -> Self {
        Bypass {
            lanes: (0..lanes).map(|_| Wire::new(clk)).collect(),
        }
    }

    /// Publishes a result on lane `i` for the rest of this cycle.
    pub fn set(&self, lane: usize, p: PhysReg, v: u64) {
        if p != PhysReg::ZERO {
            self.lanes[lane].set((p, v));
        }
    }

    /// Searches every lane for register `p`.
    #[must_use]
    pub fn get(&self, p: PhysReg) -> Option<u64> {
        self.lanes
            .iter()
            .filter_map(|w| w.peek())
            .find(|(q, _)| *q == p)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presence_cleared_at_rename_set_at_writeback() {
        let clk = Clock::new();
        let prf = Prf::new(&clk, 8);
        let p = PhysReg(5);
        clk.begin_rule();
        prf.set_not_ready(p);
        clk.commit_rule();
        assert!(!prf.is_present(p));
        assert!(!prf.score_ready(p));
        clk.begin_rule();
        prf.write(p, 42);
        clk.commit_rule();
        assert!(prf.is_present(p));
        assert_eq!(prf.read(p), 42);
    }

    #[test]
    fn zero_register_immutable() {
        let clk = Clock::new();
        let prf = Prf::new(&clk, 8);
        clk.begin_rule();
        prf.write(PhysReg::ZERO, 99);
        prf.set_not_ready(PhysReg::ZERO);
        clk.commit_rule();
        assert_eq!(prf.read(PhysReg::ZERO), 0);
        assert!(prf.is_present(PhysReg::ZERO));
    }

    #[test]
    fn scoreboard_optimistic_before_presence() {
        let clk = Clock::new();
        let prf = Prf::new(&clk, 8);
        let p = PhysReg(3);
        clk.begin_rule();
        prf.set_not_ready(p);
        clk.commit_rule();
        clk.begin_rule();
        prf.set_score_ready(p);
        clk.commit_rule();
        assert!(prf.score_ready(p), "optimistically ready");
        assert!(!prf.is_present(p), "value not yet written");
    }

    #[test]
    fn bypass_set_then_get_same_cycle() {
        let clk = Clock::new();
        let by = Bypass::new(&clk, 2);
        clk.begin_rule();
        by.set(0, PhysReg(4), 0xaa);
        by.set(1, PhysReg(6), 0xbb);
        clk.commit_rule();
        clk.begin_rule();
        assert_eq!(by.get(PhysReg(4)), Some(0xaa));
        assert_eq!(by.get(PhysReg(6)), Some(0xbb));
        assert_eq!(by.get(PhysReg(5)), None);
        clk.abort_rule();
        clk.end_cycle();
        clk.begin_rule();
        assert_eq!(by.get(PhysReg(4)), None, "bypass clears at cycle end");
        clk.abort_rule();
    }

    #[test]
    fn flush_makes_all_present() {
        let clk = Clock::new();
        let prf = Prf::new(&clk, 4);
        clk.begin_rule();
        prf.set_not_ready(PhysReg(2));
        clk.commit_rule();
        clk.begin_rule();
        prf.flush_all_present();
        clk.commit_rule();
        assert!(prf.is_present(PhysReg(2)));
    }
}
