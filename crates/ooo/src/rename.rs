//! Register renaming: speculative and committed rename tables, the free
//! list, and the speculation manager (paper Fig. 9's `RenameTable` and
//! `SpeculationManager` modules).
//!
//! All state lives in transactional cells so the `doRename` rule is atomic:
//! if any resource (ROB slot, IQ slot, LSQ slot, physical register,
//! speculation tag) is unavailable, the whole rename aborts and *nothing*
//! leaks — the composability property §IV of the paper is about.
//!
//! The free list is a ring: allocation advances `free_head`, a commit
//! appends the overwritten register at `free_tail`. A branch snapshot is the
//! 32-entry map plus the *head position* at the branch — a register freed by
//! a later commit lands at `free_tail`, which the live list and every
//! snapshot share, so snapshots never need to be told about it, and neither
//! taking nor restoring one touches the heap.

use cmd_core::cell::Ehr;
use cmd_core::clock::Clock;
use cmd_core::guard::{Guarded, Stall};
use cmd_core::journal::EhrArray;
use riscy_isa::reg::Gpr;

use crate::frontend::{GhistSnapshot, RasSnapshot};
use crate::types::{PhysReg, SpecTag};

/// Rename table (RAT) pair: speculative and committed maps, plus the free
/// list of physical registers.
#[derive(Clone)]
pub struct RenameTable {
    rat: EhrArray<PhysReg>,
    crat: EhrArray<PhysReg>,
    /// Free-list ring of `phys_regs` slots; the list is positions
    /// `free_head..free_tail`, taken modulo the ring size.
    free_ring: EhrArray<PhysReg>,
    free_head: Ehr<u64>,
    free_tail: Ehr<u64>,
    phys_regs: usize,
}

impl RenameTable {
    /// Creates the reset mapping: architectural register `i` maps to
    /// physical register `i`; the rest are free.
    ///
    /// # Panics
    ///
    /// Panics unless `phys_regs > 32`.
    #[must_use]
    pub fn new(clk: &Clock, phys_regs: usize) -> Self {
        assert!(phys_regs > 32, "need more physical than architectural regs");
        let identity: Vec<PhysReg> = (0..32).map(|i| PhysReg(i as u16)).collect();
        // Slots past the initial list hold p0 until a commit overwrites them.
        let ring: Vec<PhysReg> = (32..phys_regs)
            .map(|i| PhysReg(i as u16))
            .chain(std::iter::repeat_n(PhysReg::ZERO, 32))
            .collect();
        RenameTable {
            rat: EhrArray::new(clk, identity.clone()),
            crat: EhrArray::new(clk, identity),
            free_ring: EhrArray::new(clk, ring),
            free_head: Ehr::new(clk, 0),
            free_tail: Ehr::new(clk, (phys_regs - 32) as u64),
            phys_regs,
        }
    }

    fn ring_slot(&self, pos: u64) -> usize {
        (pos % self.phys_regs as u64) as usize
    }

    /// Speculative mapping of `r`.
    #[must_use]
    pub fn lookup(&self, r: Gpr) -> PhysReg {
        self.rat.get(r.index())
    }

    /// Whether [`RenameTable::allocate`] of `r` would succeed, and if not
    /// the stall it would report, read without writing anything. Always
    /// succeeds for `x0`, which allocates nothing.
    ///
    /// # Errors
    ///
    /// Stalls when the free list is empty.
    pub fn can_allocate(&self, r: Gpr) -> Guarded<()> {
        if !r.is_zero() && self.free_head.read() == self.free_tail.read() {
            return Err(Stall::new("no free physical register"));
        }
        Ok(())
    }

    /// Renames a destination: allocates a fresh physical register and
    /// returns `(new, old)`.
    ///
    /// Renaming `x0` performs no allocation and returns the zero register.
    ///
    /// # Errors
    ///
    /// Stalls when the free list is empty.
    pub fn allocate(&self, r: Gpr) -> Guarded<(PhysReg, PhysReg)> {
        self.can_allocate(r)?;
        if r.is_zero() {
            return Ok((PhysReg::ZERO, PhysReg::ZERO));
        }
        let head = self.free_head.read();
        let new = self.free_ring.get(self.ring_slot(head));
        self.free_head.write(head + 1);
        let old = self.lookup(r);
        self.rat.set(r.index(), new);
        Ok((new, old))
    }

    /// Commits a mapping: the committed RAT advances and the overwritten
    /// physical register returns to the free list — the live one and, by
    /// construction, the one every outstanding snapshot would restore.
    pub fn commit(&self, r: Gpr, new: PhysReg, old: PhysReg) {
        if r.is_zero() {
            return;
        }
        self.crat.set(r.index(), new);
        if old != PhysReg::ZERO {
            let tail = self.free_tail.read();
            self.free_ring.set(self.ring_slot(tail), old);
            self.free_tail.write(tail + 1);
        }
    }

    /// Full-pipeline flush: the speculative RAT collapses to the committed
    /// one and the free list is rebuilt from it. Outstanding snapshots die
    /// with the flush ([`SpecManager::flush`]).
    pub fn flush_to_committed(&self) {
        let crat = self.crat.with(<[PhysReg]>::to_vec);
        let mut in_use = vec![false; self.phys_regs];
        for p in &crat {
            in_use[p.index()] = true;
        }
        self.rat.replace(crat);
        let mut ring: Vec<PhysReg> = (0..self.phys_regs)
            .filter(|&i| !in_use[i])
            .map(|i| PhysReg(i as u16))
            .collect();
        let free = ring.len();
        ring.resize(self.phys_regs, PhysReg::ZERO);
        self.free_ring.replace(ring);
        self.free_head.write(0);
        self.free_tail.write(free as u64);
    }

    /// Snapshot of the speculative state (for branch tags).
    #[must_use]
    pub fn snapshot(&self) -> RatSnapshot {
        let mut rat = [PhysReg::ZERO; 32];
        self.rat.with(|t| rat.copy_from_slice(t));
        RatSnapshot {
            rat,
            free_head: self.free_head.read(),
        }
    }

    /// Restores a snapshot (branch misprediction): the map as it was, and
    /// the free list rewound to the branch — which hands back every
    /// wrong-path allocation and keeps everything commits freed since.
    pub fn restore(&self, s: &RatSnapshot) {
        for (i, &p) in s.rat.iter().enumerate() {
            self.rat.update_if(i, |cur| *cur != p, |cur| *cur = p);
        }
        self.free_head.write(s.free_head);
    }

    /// Number of free physical registers.
    #[must_use]
    pub fn free_count(&self) -> usize {
        (self.free_tail.read() - self.free_head.read()) as usize
    }

    /// Whether every mapped and free-listed register exists and the
    /// free-list pointers are in order and fit the ring: what a restored
    /// table is checked for.
    pub(crate) fn in_range(&self) -> bool {
        let regs = |a: &[PhysReg]| a.iter().all(|p| p.index() < self.phys_regs);
        let (head, tail) = (self.free_head.read(), self.free_tail.read());
        self.rat.with(regs)
            && self.crat.with(regs)
            && self.free_ring.with(regs)
            && head <= tail
            && tail - head <= self.phys_regs as u64
    }

    /// Whether `s` can be restored onto this table: its head is not ahead
    /// of the live one and the list it would restore fits the ring.
    fn accepts(&self, s: &RatSnapshot) -> bool {
        s.free_head <= self.free_head.read()
            && self.free_tail.read() - s.free_head <= self.phys_regs as u64
            && s.rat.iter().all(|p| p.index() < self.phys_regs)
    }
}

/// Captured speculative rename state: the map, and where the free list's
/// head stood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatSnapshot {
    rat: [PhysReg; 32],
    free_head: u64,
}

/// Everything restored when a branch turns out mispredicted.
#[derive(Debug, Clone, Copy)]
pub struct SpecSnapshot {
    /// Rename state at the branch.
    pub rat: RatSnapshot,
    /// RAS top pointer.
    pub ras: RasSnapshot,
    /// Global branch history.
    pub ghist: GhistSnapshot,
    /// The branch's rename order ([`crate::types::Uop::seq`]): its
    /// misprediction frees every tag of a branch renamed after it.
    pub seq: u64,
}

/// The speculation manager: a finite set of tags, each with a snapshot
/// (paper §V: `SpeculationManager`).
#[derive(Clone)]
pub struct SpecManager {
    snapshots: EhrArray<Option<SpecSnapshot>>,
    num_tags: usize,
}

impl SpecManager {
    /// Creates a manager with `num_tags` tags.
    #[must_use]
    pub fn new(clk: &Clock, num_tags: usize) -> Self {
        assert!(num_tags <= 256, "a SpecTag is 8 bits");
        SpecManager {
            snapshots: EhrArray::new(clk, vec![None; num_tags]),
            num_tags,
        }
    }

    /// The tag the next `allocate` hands out: the lowest free one.
    fn free_tag(&self) -> Guarded<usize> {
        self.snapshots
            .with(|s| s.iter().position(Option::is_none))
            .ok_or(Stall::new("no free speculation tag"))
    }

    /// Whether [`SpecManager::allocate`] would succeed, and if not the
    /// stall it would report, read without writing anything.
    ///
    /// # Errors
    ///
    /// Stalls when all tags are live.
    pub fn can_allocate(&self) -> Guarded<()> {
        self.free_tag().map(drop)
    }

    /// Allocates a tag for a branch, recording its recovery snapshot.
    ///
    /// # Errors
    ///
    /// Stalls when all tags are live (rename must wait).
    pub fn allocate(&self, snap: SpecSnapshot) -> Guarded<SpecTag> {
        let slot = self.free_tag()?;
        self.snapshots.set(slot, Some(snap));
        Ok(SpecTag(slot as u8))
    }

    /// Resolves a branch as correctly predicted: frees the tag
    /// (`correctSpec`), and that is all. Nothing in flight records which
    /// tags it depends on, so there is nothing else to clear.
    pub fn correct(&self, tag: SpecTag) {
        self.snapshots.set(tag.0 as usize, None);
    }

    /// Resolves a branch as mispredicted: returns its snapshot and frees
    /// this tag plus the tag of every branch renamed after it
    /// (`wrongSpec`).
    ///
    /// # Panics
    ///
    /// Panics if the tag is not live.
    pub fn wrong(&self, tag: SpecTag) -> SpecSnapshot {
        let snap = self
            .snapshots
            .get(tag.0 as usize)
            .expect("wrongSpec on a dead tag");
        self.snapshots.set(tag.0 as usize, None);
        for i in 0..self.num_tags {
            self.snapshots.update_if(
                i,
                |s| matches!(s, Some(sn) if sn.seq > snap.seq),
                |s| *s = None,
            );
        }
        snap
    }

    /// Frees every tag (full flush).
    pub fn flush(&self) {
        for i in 0..self.num_tags {
            self.snapshots.update_if(i, Option::is_some, |s| *s = None);
        }
    }

    /// Number of live tags.
    #[must_use]
    pub fn live(&self) -> usize {
        self.snapshots.with(|s| s.iter().flatten().count())
    }

    /// Total tags.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.num_tags
    }

    /// The largest sequence number of a live tag's branch, if any.
    pub(crate) fn max_seq(&self) -> Option<u64> {
        self.snapshots
            .with(|s| s.iter().flatten().map(|sn| sn.seq).max())
    }

    /// Cross-check after both halves of the rename state were restored
    /// from a snapshot: every live tag must be restorable onto `rt`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`](cmd_core::snap::SnapError::Corrupt) when a
    /// tag's free-list head cannot belong to `rt`'s ring.
    pub(crate) fn check_against(&self, rt: &RenameTable) -> Result<(), cmd_core::snap::SnapError> {
        if self
            .snapshots
            .with(|s| s.iter().flatten().all(|sn| rt.accepts(&sn.rat)))
        {
            Ok(())
        } else {
            Err(cmd_core::snap::SnapError::Corrupt(
                "speculation snapshot does not fit the free-list ring".into(),
            ))
        }
    }
}

cmd_core::snap_struct!(RatSnapshot { rat, free_head });

cmd_core::snap_struct!(SpecSnapshot {
    rat,
    ras,
    ghist,
    seq,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BpConfig;
    use crate::frontend::{Ras, Tournament};

    fn in_rule<R>(clk: &Clock, f: impl FnOnce() -> R) -> R {
        clk.begin_rule();
        let r = f();
        clk.commit_rule();
        r
    }

    fn fixture() -> (Clock, RenameTable, SpecManager) {
        let clk = Clock::new();
        let rt = RenameTable::new(&clk, 40);
        let sm = SpecManager::new(&clk, 4);
        (clk, rt, sm)
    }

    fn snap(rt: &RenameTable, seq: u64) -> SpecSnapshot {
        let t = Tournament::new(BpConfig::default());
        let r = Ras::new(4);
        SpecSnapshot {
            rat: rt.snapshot(),
            ras: r.snapshot(),
            ghist: t.snapshot(),
            seq,
        }
    }

    #[test]
    fn allocate_and_lookup() {
        let (clk, rt, _) = fixture();
        clk.begin_rule();
        let a1 = Gpr::a(1);
        let (new, old) = rt.allocate(a1).unwrap();
        assert_eq!(old, PhysReg(11), "reset maps x11 to p11");
        assert_eq!(new, PhysReg(32), "first free register");
        assert_eq!(rt.lookup(a1), new);
        clk.commit_rule();
    }

    #[test]
    fn x0_never_allocates() {
        let (clk, rt, _) = fixture();
        clk.begin_rule();
        let before = rt.free_count();
        let (new, old) = rt.allocate(Gpr::ZERO).unwrap();
        assert_eq!((new, old), (PhysReg::ZERO, PhysReg::ZERO));
        assert_eq!(rt.free_count(), before);
        clk.commit_rule();
    }

    #[test]
    fn can_allocate_agrees_with_allocate_and_writes_nothing() {
        let (clk, rt, _) = fixture();
        clk.begin_rule();
        for _ in 0..9 {
            let can = rt.can_allocate(Gpr::a(0));
            let before = clk.enlisted_cells().len();
            assert_eq!(can, rt.can_allocate(Gpr::a(0)), "the twin wrote");
            assert_eq!(clk.enlisted_cells().len(), before, "the twin wrote");
            assert_eq!(can, rt.allocate(Gpr::a(0)).map(drop));
        }
        assert_eq!(
            rt.can_allocate(Gpr::a(1)),
            Err(Stall::new("no free physical register"))
        );
        // `x0` allocates nothing, so it never runs out.
        assert_eq!(rt.can_allocate(Gpr::ZERO), Ok(()));
        assert_eq!(rt.allocate(Gpr::ZERO).map(drop), Ok(()));
        clk.abort_rule();
    }

    #[test]
    fn spec_can_allocate_agrees_with_allocate_and_writes_nothing() {
        let (clk, rt, sm) = fixture();
        clk.begin_rule();
        for _ in 0..5 {
            let before = clk.enlisted_cells().len();
            let can = sm.can_allocate();
            assert_eq!(clk.enlisted_cells().len(), before, "the twin wrote");
            assert_eq!(can, sm.allocate(snap(&rt, 0)).map(drop));
        }
        assert_eq!(
            sm.can_allocate(),
            Err(Stall::new("no free speculation tag"))
        );
        sm.correct(SpecTag(2));
        assert_eq!(sm.can_allocate(), Ok(()), "a resolved branch frees its tag");
        clk.commit_rule();
    }

    #[test]
    fn freelist_exhaustion_stalls_atomically() {
        let (clk, rt, _) = fixture();
        clk.begin_rule();
        for _ in 0..8 {
            rt.allocate(Gpr::a(0)).unwrap();
        }
        assert!(rt.allocate(Gpr::a(0)).is_err());
        clk.abort_rule();
        // The abort rolled back every allocation.
        assert_eq!(rt.free_count(), 8);
        assert_eq!(rt.lookup(Gpr::a(0)), PhysReg(10));
    }

    #[test]
    fn commit_frees_old_mapping() {
        let (clk, rt, _) = fixture();
        clk.begin_rule();
        let (new, old) = rt.allocate(Gpr::a(2)).unwrap();
        rt.commit(Gpr::a(2), new, old);
        clk.commit_rule();
        assert_eq!(rt.free_count(), 8, "old register recycled");
        // The recycled register comes back out once the initial list is
        // used up: 7 fresh ones, then `old`.
        clk.begin_rule();
        let got: Vec<PhysReg> = (0..8).map(|_| rt.allocate(Gpr::a(3)).unwrap().0).collect();
        assert_eq!(got.last(), Some(&old));
        clk.abort_rule();
    }

    #[test]
    fn flush_returns_to_committed_state() {
        let (clk, rt, _) = fixture();
        clk.begin_rule();
        let (n1, o1) = rt.allocate(Gpr::a(3)).unwrap();
        rt.commit(Gpr::a(3), n1, o1);
        // Speculative allocation beyond the commit point.
        let _ = rt.allocate(Gpr::a(4)).unwrap();
        let _ = rt.allocate(Gpr::a(5)).unwrap();
        rt.flush_to_committed();
        assert_eq!(rt.lookup(Gpr::a(3)), n1, "committed mapping survives");
        assert_eq!(rt.lookup(Gpr::a(4)), PhysReg(14), "speculative undone");
        assert_eq!(rt.free_count(), 8);
        clk.commit_rule();
    }

    #[test]
    fn mispredict_restore_keeps_registers_freed_since_the_branch() {
        let (clk, rt, sm) = fixture();
        clk.begin_rule();
        // Older instruction renames a0 (will commit later).
        let (n_a0, o_a0) = rt.allocate(Gpr::a(0)).unwrap();
        // Branch allocates a tag.
        let tag = sm.allocate(snap(&rt, 0)).unwrap();
        // Wrong-path instructions rename.
        let _ = rt.allocate(Gpr::a(1)).unwrap();
        let _ = rt.allocate(Gpr::a(2)).unwrap();
        // The older instruction commits, freeing p10's old mapping.
        rt.commit(Gpr::a(0), n_a0, o_a0);
        // Mispredict: restore.
        let s = sm.wrong(tag);
        rt.restore(&s.rat);
        clk.commit_rule();
        // a0's speculative (now committed) mapping survives; wrong path undone.
        assert_eq!(rt.lookup(Gpr::a(0)), n_a0);
        assert_eq!(rt.lookup(Gpr::a(1)), PhysReg(11));
        // Free list: started 8, minus a0's live new reg, plus freed old p10.
        assert_eq!(rt.free_count(), 8);
    }

    #[test]
    fn rename_commit_and_branch_resolution_never_clone_a_collection() {
        // One cell transaction per structure touched, each journaling one
        // element: allocate touches the head pointer and one RAT entry,
        // commit one CRAT entry, one ring slot and the tail pointer, a
        // branch one snapshot slot.
        let (clk, rt, sm) = fixture();
        clk.begin_rule();
        let (new, old) = rt.allocate(Gpr::a(0)).unwrap();
        assert_eq!(clk.enlisted_cells().len(), 2);
        rt.commit(Gpr::a(0), new, old);
        assert_eq!(clk.enlisted_cells().len(), 5);
        let tag = sm.allocate(snap(&rt, 0)).unwrap();
        sm.correct(tag);
        assert_eq!(clk.enlisted_cells().len(), 6);
        clk.commit_rule();
    }

    #[test]
    fn restored_snapshot_must_fit_the_ring() {
        let (clk, rt, sm) = fixture();
        clk.begin_rule();
        let mut s = snap(&rt, 0);
        s.rat.free_head = 99; // ahead of the live head
        sm.allocate(s).unwrap();
        clk.commit_rule();
        assert!(sm.check_against(&rt).is_err());
    }

    #[test]
    fn tag_exhaustion_stalls() {
        let (clk, rt, sm) = fixture();
        clk.begin_rule();
        for _ in 0..4 {
            sm.allocate(snap(&rt, 0)).unwrap();
        }
        assert!(sm.allocate(snap(&rt, 0)).is_err());
        clk.commit_rule();
        assert_eq!(sm.live(), 4);
    }

    #[test]
    fn correct_spec_frees_only_the_tag() {
        let (clk, rt, sm) = fixture();
        let t0 = in_rule(&clk, || sm.allocate(snap(&rt, 0)).unwrap());
        let t1 = in_rule(&clk, || sm.allocate(snap(&rt, 1)).unwrap());
        clk.begin_rule();
        sm.correct(t0);
        assert_eq!(clk.enlisted_cells().len(), 1, "the snapshot array alone");
        assert_eq!(sm.live(), 1);
        // t0's slot comes back for a branch renamed after t1, and its
        // misprediction must not take t1 with it.
        let t0_again = sm.allocate(snap(&rt, 2)).unwrap();
        assert_eq!(t0_again, t0, "slot reused");
        sm.wrong(t0_again);
        assert_eq!(sm.live(), 1, "t1 survives");
        assert_eq!(sm.wrong(t1).seq, 1);
        clk.commit_rule();
    }

    #[test]
    fn wrong_spec_kills_dependent_tags() {
        let (clk, rt, sm) = fixture();
        clk.begin_rule();
        let t0 = sm.allocate(snap(&rt, 5)).unwrap();
        let _t1 = sm.allocate(snap(&rt, 6)).unwrap();
        let _t2 = sm.allocate(snap(&rt, 4)).unwrap();
        sm.wrong(t0);
        assert_eq!(
            sm.live(),
            1,
            "t1, renamed after t0, dies with it; t2, renamed before, survives"
        );
        clk.commit_rule();
    }
}
