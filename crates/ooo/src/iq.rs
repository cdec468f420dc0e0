//! Instruction issue queues: one per execution pipeline (paper §IV, §V-A).
//!
//! Readiness uses the scoreboard's *optimistic* presence bits at entry and
//! wakeups from write-back and early (issue-time) producers, giving
//! back-to-back scheduling of dependent single-cycle operations.

use cmd_core::cell::Ehr;
use cmd_core::clock::Clock;
use cmd_core::guard::{Guarded, Stall};
use cmd_core::journal::EhrArray;

use crate::mask::{occupied, SlotMask};
use crate::types::{PhysReg, Uop};

/// The stall reason of an `enter` into a full queue.
pub(crate) const IQ_FULL: &str = "iq full";

#[derive(Debug, Clone, Copy)]
struct IqEntry {
    uop: Uop,
    rdy1: bool,
    rdy2: bool,
}

/// An issue queue (paper Fig. 7 generalized to real micro-ops).
///
/// Beside the slots sit the two bit-vectors the paper's IQ has: `valid`
/// (the slot holds an entry) and `ready` (the entry has both sources
/// ready). Every scan iterates one of them, and a stall — `issue` with
/// nothing ready, `enter` on a full queue — reads the mask and nothing
/// else, so that word is all a sleeping rule watches. The third index is
/// the CAM's match lines: per physical register, the slots with a source
/// still waiting on it, so a `wakeup` visits only the entries it readies.
/// Age is rename order: the oldest entry has the smallest [`Uop::seq`].
#[derive(Clone)]
pub struct IssueQueue {
    slots: Vec<Ehr<Option<IqEntry>>>,
    valid: SlotMask,
    ready: SlotMask,
    /// `waiting[p * words + k]`: word `k` of the mask of slots waiting on
    /// physical register `p` — derived state, like the masks.
    waiting: EhrArray<u64>,
    /// Words per slot mask.
    words: usize,
}

impl IssueQueue {
    /// Creates an empty IQ of `size` slots whose sources name physical
    /// registers below `phys_regs`.
    #[must_use]
    pub fn new(clk: &Clock, size: usize, phys_regs: usize) -> Self {
        let words = size.div_ceil(64);
        IssueQueue {
            slots: (0..size).map(|_| Ehr::new(clk, None)).collect(),
            valid: SlotMask::new(clk, size),
            ready: SlotMask::new(clk, size),
            waiting: EhrArray::new(clk, vec![0; phys_regs * words]),
            words,
        }
    }

    /// The index word holding slot `i`'s bit for register `p`, and the bit.
    fn waiting_bit(&self, p: PhysReg, i: usize) -> (usize, u64) {
        (usize::from(p.0) * self.words + i / 64, 1 << (i % 64))
    }

    /// Files slot `i`, holding `e`, under every source it still waits on,
    /// or (`on == false`) takes it out again; change-only.
    fn index(&self, i: usize, e: &IqEntry, on: bool) {
        for (src, rdy) in [(e.uop.src1, e.rdy1), (e.uop.src2, e.rdy2)] {
            if !rdy {
                let (w, bit) = self.waiting_bit(src, i);
                self.waiting
                    .update_if(w, |m| (m & bit != 0) != on, |m| *m ^= bit);
            }
        }
    }

    /// The slot the next `enter` fills: the lowest free one.
    fn free_slot(&self) -> Guarded<usize> {
        self.valid.first_clear().ok_or(Stall::new(IQ_FULL))
    }

    /// Whether [`IssueQueue::enter`] would succeed, and if not the stall it
    /// would report, read without writing anything.
    ///
    /// # Errors
    ///
    /// Stalls when the queue is full.
    pub fn can_enter(&self) -> Guarded<()> {
        self.free_slot().map(drop)
    }

    /// Inserts a renamed micro-op with its source-ready bits (paper's
    /// `enter`) into the lowest free slot.
    ///
    /// # Errors
    ///
    /// Stalls when the queue is full.
    pub fn enter(&self, uop: Uop, rdy1: bool, rdy2: bool) -> Guarded<()> {
        let free = self.free_slot()?;
        let e = IqEntry { uop, rdy1, rdy2 };
        self.index(free, &e, true);
        self.slots[free].write(Some(e));
        self.valid.set(free);
        if rdy1 && rdy2 {
            self.ready.set(free);
        }
        debug_assert!(self.masks_consistent());
        Ok(())
    }

    /// Wakes every entry waiting on `dst` (paper's `wakeup`).
    pub fn wakeup(&self, dst: PhysReg) {
        if dst == PhysReg::ZERO {
            return;
        }
        // Exactly the slots filed under `dst` wait on it: nobody else opens
        // a transaction.
        for k in 0..self.words {
            let w = usize::from(dst.0) * self.words + k;
            let mut bits = self.waiting.get(w);
            if bits == 0 {
                continue;
            }
            self.waiting.set(w, 0);
            while bits != 0 {
                let i = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let now_ready = self.slots[i].update(|e| {
                    let e = e.as_mut().expect("a waiting slot holds an entry");
                    e.rdy1 |= e.uop.src1 == dst;
                    e.rdy2 |= e.uop.src2 == dst;
                    e.rdy1 && e.rdy2
                });
                if now_ready {
                    self.ready.set(i);
                }
            }
        }
        debug_assert!(self.masks_consistent());
    }

    /// Removes and returns the oldest fully-ready micro-op (paper's
    /// `issue`).
    ///
    /// # Errors
    ///
    /// Stalls when nothing is ready.
    pub fn issue(&self) -> Guarded<Uop> {
        let pick = self
            .ready
            .iter()
            .min_by_key(|&i| self.slots[i].with(|e| e.as_ref().expect("ready slot").uop.seq))
            .ok_or(Stall::new("no ready instruction"))?;
        let e = self.slots[pick].read().expect("ready slot");
        self.free(pick, &e);
        debug_assert!(self.masks_consistent());
        Ok(e.uop)
    }

    /// Empties slot `i`, holding `e`, and clears its bits.
    fn free(&self, i: usize, e: &IqEntry) {
        self.index(i, e, false);
        self.slots[i].write(None);
        self.valid.clear(i);
        self.ready.clear(i);
    }

    /// `wrongSpec`: drops every entry renamed after the branch whose
    /// sequence number is `bseq`.
    pub fn wrong_spec(&self, bseq: u64) {
        for i in self.valid.iter() {
            let hit = self.slots[i].with(|e| e.filter(|e| e.uop.seq > bseq));
            if let Some(e) = hit {
                self.free(i, &e);
            }
        }
        debug_assert!(self.masks_consistent());
    }

    /// Empties the queue, touching live slots only.
    pub fn flush(&self) {
        for i in self.valid.iter() {
            let e = self.slots[i].read().expect("valid slot");
            self.index(i, &e, false);
            self.slots[i].write(None);
        }
        self.valid.clear_all();
        self.ready.clear_all();
        debug_assert!(self.masks_consistent());
    }

    /// Occupancy (a popcount).
    #[must_use]
    pub fn len(&self) -> usize {
        self.valid.count()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Whether `valid`, `ready` and the waiting index are what the slots
    /// say they are — the invariant every method that fills, frees or
    /// readies a slot `debug_assert!`s, and a snapshot restore checks.
    /// Public so tests outside the crate can also check it after an aborted
    /// rule.
    #[must_use]
    pub fn masks_consistent(&self) -> bool {
        self.valid.matches(occupied(&self.slots))
            && self.ready.matches(self.ready_bits())
            && self
                .waiting_bits()
                .is_some_and(|bits| self.waiting.with(|w| *w == bits))
    }

    /// The largest sequence number in the queue, if it holds anything.
    pub(crate) fn max_seq(&self) -> Option<u64> {
        self.slots
            .iter()
            .filter_map(|s| s.with(|e| e.map(|e| e.uop.seq)))
            .max()
    }

    /// What the waiting index must hold; `None` when a slot waits on a
    /// register the index has no row for.
    fn waiting_bits(&self) -> Option<Vec<u64>> {
        let mut bits = vec![0; self.waiting.with(<[u64]>::len)];
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(e) = s.read() {
                for (src, rdy) in [(e.uop.src1, e.rdy1), (e.uop.src2, e.rdy2)] {
                    if !rdy {
                        let (w, bit) = self.waiting_bit(src, i);
                        *bits.get_mut(w)? |= bit;
                    }
                }
            }
        }
        Some(bits)
    }

    /// What `ready` must hold, slot by slot.
    fn ready_bits(&self) -> impl Iterator<Item = bool> + '_ {
        self.slots
            .iter()
            .map(|s| s.with(|e| matches!(e, Some(e) if e.rdy1 && e.rdy2)))
    }
}

cmd_core::snap_struct!(IqEntry { uop, rdy1, rdy2 });

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::inst::Instr;
    use riscy_isa::reg::Gpr;

    fn uop(src1: u16, src2: u16, seq: u64) -> Uop {
        Uop {
            instr: Instr::Lui {
                rd: Gpr::a(0),
                imm: 0,
            },
            pc: 0,
            pred_next: 4,
            rob: 0,
            arch_dst: None,
            dst: None,
            old_dst: None,
            src1: PhysReg(src1),
            src2: PhysReg(src2),
            seq,
            own_tag: None,
            lsq_idx: None,
            mem_kind: None,
            pred_taken: false,
            ghist: crate::frontend::GhistSnapshot::default(),
        }
    }

    fn in_rule<R>(clk: &Clock, f: impl FnOnce() -> R) -> R {
        clk.begin_rule();
        let r = f();
        clk.commit_rule();
        r
    }

    #[test]
    fn issue_oldest_ready_first() {
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 4, 128);
        in_rule(&clk, || {
            iq.enter(uop(1, 0, 0), false, true).unwrap();
            iq.enter(uop(2, 0, 1), true, true).unwrap();
            iq.enter(uop(3, 0, 2), true, true).unwrap();
        });
        in_rule(&clk, || {
            let u = iq.issue().unwrap();
            assert_eq!(u.src1, PhysReg(2), "oldest *ready*, not oldest");
        });
    }

    #[test]
    fn wakeup_enables_issue_same_cycle_in_later_rule() {
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 4, 128);
        in_rule(&clk, || {
            iq.enter(uop(5, 5, 0), false, false).unwrap();
        });
        in_rule(&clk, || {
            assert!(iq.issue().is_err());
        });
        in_rule(&clk, || iq.wakeup(PhysReg(5)));
        in_rule(&clk, || {
            assert!(iq.issue().is_ok(), "EHR: wakeup visible to later rule");
        });
    }

    #[test]
    fn wakeup_of_zero_register_ignored() {
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 2, 128);
        in_rule(&clk, || {
            iq.enter(uop(0, 0, 0), false, false).unwrap();
        });
        in_rule(&clk, || iq.wakeup(PhysReg::ZERO));
        in_rule(&clk, || {
            assert!(iq.issue().is_err(), "p0 wakeups must not fire");
        });
    }

    #[test]
    fn full_queue_stalls() {
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 2, 128);
        in_rule(&clk, || {
            iq.enter(uop(1, 1, 0), true, true).unwrap();
            iq.enter(uop(2, 2, 0), true, true).unwrap();
            assert!(iq.enter(uop(3, 3, 0), true, true).is_err());
        });
    }

    #[test]
    fn wrong_spec_kills_tagged_only() {
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 4, 128);
        in_rule(&clk, || {
            iq.enter(uop(1, 1, 3), true, true).unwrap();
            iq.enter(uop(2, 2, 5), true, true).unwrap();
        });
        // The branch took sequence number 4.
        in_rule(&clk, || iq.wrong_spec(4));
        assert_eq!(iq.len(), 1);
        in_rule(&clk, || {
            assert_eq!(iq.issue().unwrap().src1, PhysReg(1));
        });
    }

    #[test]
    fn broadcasts_that_concern_no_entry_enlist_no_cell() {
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 4, 128);
        in_rule(&clk, || {
            iq.enter(uop(5, 6, 1), false, true).unwrap();
            iq.enter(uop(7, 8, 0), false, false).unwrap();
        });
        clk.begin_rule();
        iq.wakeup(PhysReg(9)); // nobody waits on p9
        iq.wakeup(PhysReg(6)); // src2 matches but is already ready
        iq.wrong_spec(1); // nothing was renamed after it
        assert!(clk.enlisted_cells().is_empty(), "no-op broadcasts are free");
        iq.wakeup(PhysReg(7));
        assert_eq!(
            clk.enlisted_cells().len(),
            2,
            "one source of two: the woken slot and the waiting index, no mask word"
        );
        iq.wakeup(PhysReg(5));
        assert_eq!(
            clk.enlisted_cells().len(),
            4,
            "last source: the woken slot and the ready word besides"
        );
        clk.commit_rule();
    }

    #[test]
    fn flush_of_an_empty_queue_enlists_no_cell() {
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 80, 128);
        clk.begin_rule();
        iq.flush();
        assert!(clk.enlisted_cells().is_empty());
        clk.commit_rule();
        in_rule(&clk, || {
            iq.enter(uop(1, 1, 0), true, false).unwrap();
        });
        clk.begin_rule();
        iq.flush();
        assert_eq!(
            clk.enlisted_cells().len(),
            3,
            "the live slot, the valid word and the waiting index, not 80 slots"
        );
        clk.commit_rule();
        assert!(iq.is_empty());
    }

    #[test]
    fn an_aborted_rule_rolls_slots_and_masks_back_together() {
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 70, 128);
        in_rule(&clk, || {
            for k in 0..66 {
                iq.enter(uop(k, 0, u64::from(k)), k % 2 == 0, true).unwrap();
            }
        });
        clk.begin_rule();
        assert_eq!(iq.issue().unwrap().src1, PhysReg(0));
        iq.wakeup(PhysReg(65));
        iq.enter(uop(99, 0, 66), true, true).unwrap();
        iq.flush();
        clk.abort_rule();
        assert!(iq.masks_consistent());
        assert_eq!(iq.len(), 66);
        in_rule(&clk, || {
            assert_eq!(iq.issue().unwrap().src1, PhysReg(0), "issue was undone");
        });
    }

    #[test]
    fn correct_spec_then_reuse() {
        // b1 (seq 0) resolves correctly, which the queue never hears about;
        // b2 (seq 2) reuses its tag and mispredicts. x (seq 1) was renamed
        // after b1 but before b2, so it stays.
        let clk = Clock::new();
        let iq = IssueQueue::new(&clk, 4, 128);
        in_rule(&clk, || {
            iq.enter(uop(1, 1, 1), true, true).unwrap();
            iq.enter(uop(3, 3, 3), true, true).unwrap();
        });
        in_rule(&clk, || iq.wrong_spec(2));
        assert_eq!(iq.len(), 1, "only y is squashed");
        assert_eq!(in_rule(&clk, || iq.issue().unwrap().seq), 1);
    }
}
