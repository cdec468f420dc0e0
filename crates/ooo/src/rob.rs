//! The reorder buffer (paper §V-A), with the paper's interface:
//! `getEnqIndex`/`enq`/`first`/`deq`, `setNonMemCompleted`,
//! `setAfterTranslation`, `setAtLSQDeq`, plus `correctSpec`/`wrongSpec`.

use cmd_core::cell::Ehr;
use cmd_core::clock::Clock;
use cmd_core::guard::{Guarded, Stall};
use riscy_isa::csr::Exception;

use crate::types::{SpecTag, SystemOp, Uop};

/// One ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobEntry {
    /// The renamed instruction.
    pub uop: Uop,
    /// Ready to commit.
    pub completed: bool,
    /// Exception detected (handled at commit).
    pub exception: Option<Exception>,
    /// Trap value (faulting address).
    pub tval: u64,
    /// Load-speculation failure: replay from this instruction at commit.
    pub ld_kill: bool,
    /// Actual next PC (branches update it at execute; system instructions
    /// redirect here after commit).
    pub next_pc: u64,
    /// Memory access may only start at the commit slot (MMIO/atomics).
    pub non_spec_mem: bool,
    /// The access targets MMIO space.
    pub mmio: bool,
    /// System (serialized) instruction class.
    pub system: Option<SystemOp>,
    /// A commit-time memory access has been launched.
    pub started: bool,
}

impl RobEntry {
    /// A fresh entry for `uop`.
    #[must_use]
    pub fn new(uop: Uop) -> Self {
        RobEntry {
            uop,
            completed: false,
            exception: None,
            tval: 0,
            ld_kill: false,
            next_pc: uop.pc.wrapping_add(4),
            non_spec_mem: false,
            mmio: false,
            system: None,
            started: false,
        }
    }
}

/// Outcome reported by the LSQ when an entry is dequeued
/// (`setAtLSQDeq`, paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsqDeqResult {
    /// Load finished normally.
    Complete,
    /// Address translation or access faulted.
    Exception(Exception, u64),
    /// The speculative load violated the memory model.
    Killed,
}

/// The stall reason of an `enq` into a full ROB.
pub(crate) const ROB_FULL: &str = "rob full";

/// The reorder buffer: a circular buffer of [`RobEntry`] cells.
#[derive(Clone)]
pub struct Rob {
    entries: Vec<Ehr<Option<RobEntry>>>,
    head: Ehr<usize>,
    tail: Ehr<usize>,
    count: Ehr<usize>,
}

impl Rob {
    /// Creates an empty ROB of `capacity` entries.
    #[must_use]
    pub fn new(clk: &Clock, capacity: usize) -> Self {
        Rob {
            entries: (0..capacity).map(|_| Ehr::new(clk, None)).collect(),
            head: Ehr::new(clk, 0),
            tail: Ehr::new(clk, 0),
            count: Ehr::new(clk, 0),
        }
    }

    /// Capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count.read()
    }

    /// Whether the ROB is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index the next `enq` will use (paper's `getEnqIndex`, needed to
    /// tag IQ/LSQ entries before the enq happens).
    #[must_use]
    pub fn enq_index(&self) -> u16 {
        self.tail.read() as u16
    }

    /// Whether [`Rob::enq`] would succeed, and if not the stall it would
    /// report, read without writing anything.
    ///
    /// # Errors
    ///
    /// Stalls when full.
    pub fn can_enq(&self) -> Guarded<()> {
        if self.len() >= self.capacity() {
            return Err(Stall::new(ROB_FULL));
        }
        Ok(())
    }

    /// Appends an entry in program order.
    ///
    /// # Errors
    ///
    /// Stalls when full.
    pub fn enq(&self, e: RobEntry) -> Guarded<u16> {
        self.can_enq()?;
        let t = self.tail.read();
        self.entries[t].write(Some(e));
        self.tail.write((t + 1) % self.capacity());
        self.count.update(|c| *c += 1);
        Ok(t as u16)
    }

    /// The oldest entry (commit candidate).
    ///
    /// # Errors
    ///
    /// Stalls when empty.
    pub fn first(&self) -> Guarded<RobEntry> {
        if self.is_empty() {
            return Err(Stall::new("rob empty"));
        }
        Ok(self.entries[self.head.read()]
            .read()
            .expect("head entry valid"))
    }

    /// Removes the oldest entry.
    ///
    /// # Errors
    ///
    /// Stalls when empty.
    pub fn deq(&self) -> Guarded<RobEntry> {
        let e = self.first()?;
        let h = self.head.read();
        self.entries[h].write(None);
        self.head.write((h + 1) % self.capacity());
        self.count.update(|c| *c -= 1);
        Ok(e)
    }

    /// Applies `f` to the entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (stale index — a scheduling bug).
    pub fn with_entry(&self, idx: u16, f: impl FnOnce(&mut RobEntry)) {
        self.entries[idx as usize].update(|e| f(e.as_mut().expect("rob index must be live")));
    }

    /// Reads the entry at `idx`, if live.
    #[must_use]
    pub fn entry(&self, idx: u16) -> Option<RobEntry> {
        self.entries[idx as usize].read()
    }

    /// Marks a non-memory instruction completed (paper's
    /// `setNonMemCompleted`).
    pub fn set_non_mem_completed(&self, idx: u16) {
        self.with_entry(idx, |e| e.completed = true);
    }

    /// Records translation results for a memory instruction (paper's
    /// `setAfterTranslation`): whether it must wait for the commit slot,
    /// whether it is now complete (normal stores), and any page fault.
    pub fn set_after_translation(
        &self,
        idx: u16,
        non_spec_mem: bool,
        mmio: bool,
        complete: bool,
        exception: Option<(Exception, u64)>,
    ) {
        self.with_entry(idx, |e| {
            e.non_spec_mem = non_spec_mem;
            e.mmio = mmio;
            if let Some((x, tval)) = exception {
                e.exception = Some(x);
                e.tval = tval;
                e.completed = true;
            } else if complete {
                e.completed = true;
            }
        });
    }

    /// Records a load's LSQ dequeue outcome (paper's `setAtLSQDeq`).
    pub fn set_at_lsq_deq(&self, idx: u16, r: LsqDeqResult) {
        self.with_entry(idx, |e| match r {
            LsqDeqResult::Complete => e.completed = true,
            LsqDeqResult::Exception(x, tval) => {
                e.exception = Some(x);
                e.tval = tval;
                e.completed = true;
            }
            LsqDeqResult::Killed => {
                e.ld_kill = true;
                e.completed = true;
            }
        });
    }

    /// Records a branch's resolved next PC.
    pub fn set_next_pc(&self, idx: u16, next: u64) {
        self.with_entry(idx, |e| e.next_pc = next);
    }

    /// `wrongSpec`: squashes every entry carrying `tag` (they form the
    /// youngest suffix) and rolls the tail back.
    pub fn wrong_spec(&self, tag: SpecTag) {
        let cap = self.capacity();
        let mut t = self.tail.read();
        let count = self.count.read();
        let mut n = count;
        while n > 0 {
            let prev = (t + cap - 1) % cap;
            let tagged =
                self.entries[prev].with(|e| matches!(e, Some(e) if e.uop.mask.contains(tag)));
            if !tagged {
                break;
            }
            self.entries[prev].write(None);
            t = prev;
            n -= 1;
        }
        if n != count {
            self.tail.write(t);
            self.count.write(n);
        }
    }

    /// Slot indices of the live entries, oldest first: the ring
    /// `head .. head + count` is the ROB's occupancy, no mask needed.
    fn live(&self) -> impl Iterator<Item = usize> {
        let cap = self.capacity();
        let head = self.head.read();
        (head..head + self.count.read()).map(move |i| if i < cap { i } else { i - cap })
    }

    /// `correctSpec`: clears `tag` from every live mask.
    pub fn correct_spec(&self, tag: SpecTag) {
        // Change-only: entries that do not depend on `tag` open no
        // transaction.
        for i in self.live() {
            self.entries[i].update_if(
                |e| matches!(e, Some(e) if e.uop.mask.contains(tag)),
                |e| {
                    let e = e.as_mut().expect("predicate saw an entry");
                    e.uop.mask = e.uop.mask.without(tag);
                },
            );
        }
    }

    /// Whether the pointers are in range and the ring `head .. head + count`
    /// holds exactly the live entries: what a restored ROB is checked for.
    pub(crate) fn consistent(&self) -> bool {
        let cap = self.capacity();
        let (head, tail, count) = (self.head.read(), self.tail.read(), self.count.read());
        head < cap
            && count <= cap
            && (head + count) % cap == tail
            && (0..cap)
                .all(|i| self.entries[i].with(Option::is_some) == ((i + cap - head) % cap < count))
    }

    /// Empties the ROB (commit-time flush), touching live entries and the
    /// pointers that move only.
    pub fn flush(&self) {
        for i in self.live() {
            self.entries[i].write(None);
        }
        for p in [&self.head, &self.tail, &self.count] {
            p.update_if(|v| *v != 0, |v| *v = 0);
        }
    }
}

cmd_core::snap_struct!(RobEntry {
    uop,
    completed,
    exception,
    tval,
    ld_kill,
    next_pc,
    non_spec_mem,
    mmio,
    system,
    started,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PhysReg, SpecMask};
    use riscy_isa::inst::Instr;
    use riscy_isa::reg::Gpr;

    fn uop(pc: u64, mask: SpecMask) -> Uop {
        Uop {
            instr: Instr::Lui {
                rd: Gpr::a(0),
                imm: 0,
            },
            pc,
            pred_next: pc + 4,
            rob: 0,
            arch_dst: Some(Gpr::a(0)),
            dst: Some(PhysReg(33)),
            old_dst: Some(PhysReg(10)),
            src1: PhysReg::ZERO,
            src2: PhysReg::ZERO,
            mask,
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
    fn fifo_order_and_capacity() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 4);
        in_rule(&clk, || {
            for i in 0..4 {
                rob.enq(RobEntry::new(uop(i * 4, SpecMask::EMPTY))).unwrap();
            }
            assert!(rob.enq(RobEntry::new(uop(99, SpecMask::EMPTY))).is_err());
        });
        in_rule(&clk, || {
            assert_eq!(rob.first().unwrap().uop.pc, 0);
            assert_eq!(rob.deq().unwrap().uop.pc, 0);
            assert_eq!(rob.deq().unwrap().uop.pc, 4);
        });
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn can_enq_agrees_with_enq_and_writes_nothing() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 3);
        in_rule(&clk, || {
            for i in 0..4 {
                let before = clk.enlisted_cells().len();
                let can = rob.can_enq();
                assert_eq!(clk.enlisted_cells().len(), before, "the twin wrote");
                assert_eq!(
                    can,
                    rob.enq(RobEntry::new(uop(i * 4, SpecMask::EMPTY)))
                        .map(drop)
                );
            }
            assert_eq!(rob.can_enq(), Err(Stall::new("rob full")));
        });
        in_rule(&clk, || rob.deq().unwrap());
        assert_eq!(rob.can_enq(), Ok(()), "a deq makes room");
    }

    #[test]
    fn enq_index_matches_actual() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 4);
        in_rule(&clk, || {
            let predicted = rob.enq_index();
            let actual = rob.enq(RobEntry::new(uop(0, SpecMask::EMPTY))).unwrap();
            assert_eq!(predicted, actual);
        });
    }

    #[test]
    fn completion_markers() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 4);
        let idx = in_rule(&clk, || {
            rob.enq(RobEntry::new(uop(0, SpecMask::EMPTY))).unwrap()
        });
        in_rule(&clk, || rob.set_non_mem_completed(idx));
        assert!(rob.entry(idx).unwrap().completed);

        let idx2 = in_rule(&clk, || {
            rob.enq(RobEntry::new(uop(4, SpecMask::EMPTY))).unwrap()
        });
        in_rule(&clk, || {
            rob.set_after_translation(idx2, true, true, false, None);
        });
        let e = rob.entry(idx2).unwrap();
        assert!(e.non_spec_mem && e.mmio && !e.completed);

        in_rule(&clk, || {
            rob.set_at_lsq_deq(idx2, LsqDeqResult::Killed);
        });
        let e = rob.entry(idx2).unwrap();
        assert!(e.ld_kill && e.completed);
    }

    #[test]
    fn wrong_spec_rolls_back_suffix() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 8);
        let tag = SpecTag(2);
        in_rule(&clk, || {
            rob.enq(RobEntry::new(uop(0, SpecMask::EMPTY))).unwrap();
            rob.enq(RobEntry::new(uop(4, SpecMask::EMPTY))).unwrap();
            rob.enq(RobEntry::new(uop(8, SpecMask::EMPTY.with(tag))))
                .unwrap();
            rob.enq(RobEntry::new(uop(12, SpecMask::EMPTY.with(tag))))
                .unwrap();
        });
        in_rule(&clk, || rob.wrong_spec(tag));
        assert_eq!(rob.len(), 2);
        // The next enq reuses the rolled-back slots.
        let idx = in_rule(&clk, || {
            rob.enq(RobEntry::new(uop(100, SpecMask::EMPTY))).unwrap()
        });
        assert_eq!(idx, 2);
    }

    #[test]
    fn correct_spec_clears_masks() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 4);
        let tag = SpecTag(0);
        in_rule(&clk, || {
            rob.enq(RobEntry::new(uop(0, SpecMask::EMPTY.with(tag))))
                .unwrap();
        });
        in_rule(&clk, || rob.correct_spec(tag));
        in_rule(&clk, || rob.wrong_spec(tag));
        assert_eq!(rob.len(), 1, "cleared entry survives a tag reuse kill");
    }

    #[test]
    fn correct_spec_of_an_unrelated_tag_enlists_no_cell() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 8);
        in_rule(&clk, || {
            rob.enq(RobEntry::new(uop(0, SpecMask::EMPTY))).unwrap();
            rob.enq(RobEntry::new(uop(4, SpecMask::EMPTY.with(SpecTag(1)))))
                .unwrap();
        });
        clk.begin_rule();
        rob.correct_spec(SpecTag(5));
        assert!(clk.enlisted_cells().is_empty());
        rob.correct_spec(SpecTag(1));
        assert_eq!(clk.enlisted_cells().len(), 1, "only the dependent entry");
        clk.commit_rule();
    }

    #[test]
    fn flush_empties() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 4);
        in_rule(&clk, || {
            rob.enq(RobEntry::new(uop(0, SpecMask::EMPTY))).unwrap();
            rob.enq(RobEntry::new(uop(4, SpecMask::EMPTY))).unwrap();
        });
        in_rule(&clk, || rob.flush());
        assert!(rob.is_empty());
        assert_eq!(rob.enq_index(), 0);
    }

    #[test]
    fn flush_of_an_empty_rob_enlists_no_cell() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 192);
        clk.begin_rule();
        rob.flush();
        rob.wrong_spec(SpecTag(0));
        assert!(clk.enlisted_cells().is_empty());
        clk.commit_rule();
        in_rule(&clk, || {
            rob.enq(RobEntry::new(uop(0, SpecMask::EMPTY))).unwrap();
            rob.enq(RobEntry::new(uop(4, SpecMask::EMPTY))).unwrap();
            rob.deq().unwrap();
        });
        clk.begin_rule();
        rob.flush();
        assert_eq!(
            clk.enlisted_cells().len(),
            4,
            "the live entry and the three pointers, not 192 entries"
        );
        clk.commit_rule();
        assert!(rob.is_empty());
        assert_eq!(rob.enq_index(), 0);
    }

    #[test]
    fn correct_spec_walks_the_live_ring_across_the_wrap() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 4);
        let tag = SpecTag(1);
        in_rule(&clk, || {
            for _ in 0..3 {
                rob.enq(RobEntry::new(uop(0, SpecMask::EMPTY))).unwrap();
                rob.deq().unwrap();
            }
            // head = 3: the three live entries sit in slots 3, 0, 1.
            for pc in [0, 4, 8] {
                rob.enq(RobEntry::new(uop(pc, SpecMask::EMPTY.with(tag))))
                    .unwrap();
            }
        });
        clk.begin_rule();
        rob.correct_spec(tag);
        assert_eq!(clk.enlisted_cells().len(), 3);
        clk.commit_rule();
        in_rule(&clk, || rob.wrong_spec(tag));
        assert_eq!(rob.len(), 3, "every live mask was cleared");
    }

    #[test]
    fn wraparound_indices() {
        let clk = Clock::new();
        let rob = Rob::new(&clk, 2);
        for i in 0..5u64 {
            in_rule(&clk, || {
                rob.enq(RobEntry::new(uop(i * 4, SpecMask::EMPTY))).unwrap();
                rob.deq().unwrap();
            });
        }
        assert!(rob.is_empty());
    }
}
