//! The load-store queue (paper §V-B): split LQ/SQ with the paper's full
//! interface — `enq`, `update`, `getIssueLd`, `issueLd`, `respLd`,
//! `wakeupBySBDeq`, `cacheEvict`, `setAtCommit`, `firstLd`/`firstSt`,
//! `deqLd`/`deqSt` — plus `wrongSpec`, which squashes by rename order
//! (a correctly predicted branch changes nothing here).
//!
//! Loads issue speculatively past older stores with unknown addresses;
//! a store's `update` searches younger loads for memory-dependency
//! violations and marks them *to-be-killed* (handled at commit as a
//! flush+replay). Under TSO, `cacheEvict` additionally kills loads that
//! read values made stale by a remote write (paper §V-B).

use cmd_core::cell::Ehr;
use cmd_core::clock::Clock;
use cmd_core::guard::{Guarded, Stall};
use riscy_isa::csr::Exception;
use riscy_mem::msg::{line_of, AtomicOp};

use crate::mask::{occupied, SlotMask};
use crate::sb::SbSearch;
use crate::types::PhysReg;

/// Execution state of a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdState {
    /// Address not yet translated.
    WaitAddr,
    /// Ready to be picked by `getIssueLd`.
    Ready,
    /// Stalled on an explicit source (cleared by a wakeup method).
    Stalled,
    /// Request in flight to the cache.
    Issued,
    /// Value bound (forwarded or from cache).
    Done,
}

/// What stalls a load (paper: "the load records the source that stalls
/// it, and retries after the source of the stall has been resolved").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallSrc {
    /// Partially-overlapping older store (by age).
    SqPartial(u64),
    /// Partially-overlapping store-buffer entry.
    SbEntry(usize),
    /// An older fence.
    Fence(u64),
}

/// One load-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct LqEntry {
    /// ROB index.
    pub rob: u16,
    /// The instruction's rename order ([`crate::types::Uop::seq`]).
    pub seq: u64,
    /// Memory-op age (global order among loads and stores).
    pub age: u64,
    /// Destination register.
    pub dst: Option<PhysReg>,
    /// Access size.
    pub bytes: u8,
    /// Sign-extend the result.
    pub signed: bool,
    /// Physical address (after translation).
    pub addr: Option<u64>,
    /// Targets MMIO space (executes at commit).
    pub mmio: bool,
    /// LR/SC/AMO payload (executes at commit).
    pub atomic: Option<AtomicOp>,
    /// Allocated for an LR/SC/AMO (known at rename, before translation).
    pub atomic_class: bool,
    /// Execution state.
    pub state: LdState,
    /// Stall source while `state == Stalled`.
    pub stall: Option<StallSrc>,
    /// Bound value.
    pub value: Option<u64>,
    /// Age of the store the value was forwarded from (`None` = cache;
    /// `Some(0)` = store buffer).
    pub fwd_src_age: Option<u64>,
    /// Page fault from translation.
    pub fault: Option<(Exception, u64)>,
    /// Memory-dependency violation: replay at commit.
    pub killed: bool,
    /// The destination register write-back has been performed.
    pub wb_done: bool,
    /// Squashed while a cache response is outstanding: the slot is poisoned
    /// until the wrong-path response returns (paper §V-B).
    pub zombie: bool,
    /// The instruction has reached the commit slot (atomics/MMIO may start).
    pub at_commit: bool,
}

/// One store-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct SqEntry {
    /// ROB index.
    pub rob: u16,
    /// The instruction's rename order ([`crate::types::Uop::seq`]).
    pub seq: u64,
    /// Memory-op age.
    pub age: u64,
    /// Access size.
    pub bytes: u8,
    /// Physical address.
    pub addr: Option<u64>,
    /// Store data.
    pub data: Option<u64>,
    /// Targets MMIO space.
    pub mmio: bool,
    /// This entry is a fence, not a store.
    pub is_fence: bool,
    /// Translation faulted (entry is dead weight until the flush).
    pub faulted: bool,
    /// Committed from the ROB; may drain.
    pub committed: bool,
    /// TSO: issued to L1 D, awaiting `respSt`.
    pub issued: bool,
}

/// Result of `issueLd` (paper Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdIssue {
    /// Forward this value (goes through the forwarding queue).
    Forward(u64),
    /// Send to the cache.
    ToCache,
    /// Stalled; the source was recorded.
    Stalled,
}

/// The split load/store queue.
///
/// `lq_valid` and `sq_valid` are the occupancy bit-vectors of the two slot
/// arrays (a zombie load keeps its bit: it pins the slot). Every search
/// iterates one of them, and the empty/full stalls read nothing else.
/// `lq_ready` marks the loads in state [`LdState::Ready`] — translated, not
/// yet issued — so `getIssueLd` with nothing to offer, the common case
/// while loads wait on the cache, stalls on one read of it.
///
/// `lq_head` and `sq_head` are the paper's `firstLd`/`firstSt` priority
/// encoders held in cells: the slot of the oldest live (non-zombie) load
/// and of the oldest store/fence. An enq sets a head only when there is
/// none (it enqueues the youngest entry); a dequeue or a squash derives it
/// again. So `firstLd`/`firstSt` read a head and its slot, and a rule
/// asleep on them wakes when the oldest entry changes, not on every write
/// to a younger one.
#[derive(Clone)]
pub struct Lsq {
    lq: Vec<Ehr<Option<LqEntry>>>,
    sq: Vec<Ehr<Option<SqEntry>>>,
    lq_valid: SlotMask,
    lq_ready: SlotMask,
    sq_valid: SlotMask,
    lq_head: Ehr<Option<u16>>,
    sq_head: Ehr<Option<u16>>,
    next_age: Ehr<u64>,
    /// Loads killed by `cacheEvict` (TSO statistic, Fig. 20 discussion).
    pub evict_kills: Ehr<u64>,
}

impl Lsq {
    /// Creates an empty LSQ (paper Fig. 12: 24-entry LQ, 14-entry SQ).
    #[must_use]
    pub fn new(clk: &Clock, lq_entries: usize, sq_entries: usize) -> Self {
        Lsq {
            lq: (0..lq_entries).map(|_| Ehr::new(clk, None)).collect(),
            sq: (0..sq_entries).map(|_| Ehr::new(clk, None)).collect(),
            lq_valid: SlotMask::new(clk, lq_entries),
            lq_ready: SlotMask::new(clk, lq_entries),
            sq_valid: SlotMask::new(clk, sq_entries),
            lq_head: Ehr::new(clk, None),
            sq_head: Ehr::new(clk, None),
            next_age: Ehr::new(clk, 1),
            evict_kills: Ehr::new(clk, 0),
        }
    }

    fn alloc_age(&self) -> u64 {
        let a = self.next_age.read();
        self.next_age.write(a + 1);
        a
    }

    /// The slot the next `enq_ld` fills: the lowest free one.
    fn free_lq(&self) -> Guarded<usize> {
        self.lq_valid.first_clear().ok_or(Stall::new("lq full"))
    }

    /// The slot the next `enq_st` fills: the lowest free one.
    fn free_sq(&self) -> Guarded<usize> {
        self.sq_valid.first_clear().ok_or(Stall::new("sq full"))
    }

    /// Whether [`Lsq::enq_ld`] would succeed, and if not the stall it
    /// would report, read without writing anything.
    ///
    /// # Errors
    ///
    /// Stalls when the LQ is full.
    pub fn can_enq_ld(&self) -> Guarded<()> {
        self.free_lq().map(drop)
    }

    /// Whether [`Lsq::enq_st`] would succeed, and if not the stall it
    /// would report, read without writing anything.
    ///
    /// # Errors
    ///
    /// Stalls when the SQ is full.
    pub fn can_enq_st(&self) -> Guarded<()> {
        self.free_sq().map(drop)
    }

    /// Allocates a load entry at rename (paper's `enq`) in the lowest free
    /// slot.
    ///
    /// # Errors
    ///
    /// Stalls when the LQ is full.
    pub fn enq_ld(
        &self,
        rob: u16,
        seq: u64,
        dst: Option<PhysReg>,
        atomic_class: bool,
    ) -> Guarded<u16> {
        let free = self.free_lq()?;
        let age = self.alloc_age();
        self.lq[free].write(Some(LqEntry {
            rob,
            seq,
            age,
            dst,
            bytes: 0,
            signed: false,
            addr: None,
            mmio: false,
            atomic: None,
            atomic_class,
            state: LdState::WaitAddr,
            stall: None,
            value: None,
            fwd_src_age: None,
            fault: None,
            killed: false,
            wb_done: false,
            zombie: false,
            at_commit: false,
        }));
        self.lq_valid.set(free);
        // The youngest load is the oldest only in an empty LQ.
        if self.lq_head.read().is_none() {
            self.lq_head.write(Some(free as u16));
        }
        debug_assert!(self.masks_consistent());
        Ok(free as u16)
    }

    /// Allocates a store or fence entry at rename (paper's `enq`) in the
    /// lowest free slot.
    ///
    /// # Errors
    ///
    /// Stalls when the SQ is full.
    pub fn enq_st(&self, rob: u16, seq: u64, is_fence: bool) -> Guarded<u16> {
        let free = self.free_sq()?;
        let age = self.alloc_age();
        self.sq[free].write(Some(SqEntry {
            rob,
            seq,
            age,
            bytes: 0,
            addr: None,
            data: None,
            mmio: false,
            is_fence,
            faulted: false,
            committed: false,
            issued: false,
        }));
        self.sq_valid.set(free);
        if self.sq_head.read().is_none() {
            self.sq_head.write(Some(free as u16));
        }
        debug_assert!(self.masks_consistent());
        Ok(free as u16)
    }

    /// Records a load's destination register (set during rename, after the
    /// entry was allocated).
    pub fn set_ld_dst(&self, idx: u16, dst: Option<PhysReg>) {
        self.lq[idx as usize].update(|e| {
            e.as_mut().expect("live LQ index").dst = dst;
        });
    }

    /// Fills a load's translation results (half of the paper's `update`).
    pub fn update_ld(
        &self,
        idx: u16,
        addr: Result<u64, (Exception, u64)>,
        bytes: u8,
        signed: bool,
        mmio: bool,
        atomic: Option<AtomicOp>,
    ) {
        let state = self.lq[idx as usize].update(|e| {
            let e = e.as_mut().expect("live LQ index");
            e.bytes = bytes;
            e.signed = signed;
            e.mmio = mmio;
            e.atomic = atomic;
            match addr {
                Ok(pa) => {
                    e.addr = Some(pa);
                    // MMIO and atomics wait for the commit slot.
                    e.state = if mmio || atomic.is_some() {
                        LdState::Stalled
                    } else {
                        LdState::Ready
                    };
                }
                Err(f) => {
                    e.fault = Some(f);
                    e.state = LdState::Done;
                }
            }
            e.state
        });
        if state == LdState::Ready {
            self.lq_ready.set(idx as usize);
        }
        debug_assert!(self.masks_consistent());
    }

    /// Fills a store's translation results and data, and performs the
    /// memory-dependency kill search on younger loads (the other half of
    /// the paper's `update`).
    pub fn update_st(
        &self,
        idx: u16,
        addr: Result<u64, (Exception, u64)>,
        bytes: u8,
        data: u64,
        mmio: bool,
    ) {
        let (age, pa) = self.sq[idx as usize].update(|e| {
            let e = e.as_mut().expect("live SQ index");
            e.bytes = bytes;
            e.mmio = mmio;
            match addr {
                Ok(pa) => {
                    e.addr = Some(pa);
                    e.data = Some(data);
                    (e.age, Some(pa))
                }
                Err(_) => {
                    e.faulted = true;
                    (e.age, None)
                }
            }
        });
        let Some(pa) = pa else { return };
        // Kill younger loads that already read bytes this store writes and
        // whose value did not come from a store younger than this one.
        for i in self.lq_valid.iter() {
            self.lq[i].update_if(
                |e| {
                    let Some(e) = e else { return false };
                    if e.zombie || e.age <= age || e.killed {
                        return false;
                    }
                    let Some(la) = e.addr else { return false };
                    overlaps(la, e.bytes, pa, bytes)
                        && matches!(e.state, LdState::Issued | LdState::Done)
                        && e.fwd_src_age.unwrap_or(0) < age
                },
                |e| e.as_mut().expect("predicate saw an entry").killed = true,
            );
        }
    }

    /// Returns a load ready to issue (paper's `getIssueLd`): the oldest
    /// `Ready` load with no older fence in the SQ.
    ///
    /// # Errors
    ///
    /// Stalls when no load is ready.
    pub fn get_issue_ld(&self) -> Guarded<(u16, u64, u8)> {
        if self.lq_ready.is_empty() {
            return Err(Stall::new("no ready load"));
        }
        // One pass over the live loads finds the oldest issuable load and
        // the oldest unfinished atomic/MMIO access. Those execute at commit
        // and write the cache directly, so younger loads must not run ahead
        // of them: the oldest issuable load qualifies iff it is the older
        // of the two.
        let mut oldest_atomic = u64::MAX;
        let mut pick: Option<(usize, u64, u64, u8)> = None;
        for i in self.lq_valid.iter() {
            self.lq[i].with(|e| {
                let e = e.as_ref().expect("valid bit set");
                if e.zombie {
                    return;
                }
                if e.atomic_class || e.mmio {
                    if e.state != LdState::Done {
                        oldest_atomic = oldest_atomic.min(e.age);
                    }
                } else if e.state == LdState::Ready
                    && !e.killed
                    && pick.is_none_or(|(_, age, _, _)| e.age < age)
                {
                    pick = Some((i, e.age, e.addr.expect("ready implies addr"), e.bytes));
                }
            });
        }
        let Some((i, age, addr, bytes)) = pick.filter(|&(_, age, _, _)| age < oldest_atomic) else {
            return Err(Stall::new("no ready load"));
        };
        let oldest_fence = self
            .sq_valid
            .iter()
            .filter_map(|j| self.sq[j].with(|e| e.as_ref().filter(|e| e.is_fence).map(|e| e.age)))
            .min();
        if let Some(f) = oldest_fence {
            if f < age {
                // Record the fence stall so the load retries after the
                // fence drains.
                self.lq[i].update(|e| {
                    let e = e.as_mut().expect("live");
                    e.state = LdState::Stalled;
                    e.stall = Some(StallSrc::Fence(f));
                });
                self.lq_ready.clear(i);
                debug_assert!(self.masks_consistent());
                return Err(Stall::new("load blocked by fence"));
            }
        }
        Ok((i as u16, addr, bytes))
    }

    /// Issues the load at `idx`: combines the store-queue search with the
    /// supplied store-buffer search result (paper's `issueLd`, Fig. 10).
    pub fn issue_ld(&self, idx: u16, sb: SbSearch) -> LdIssue {
        let ld = &self.lq[idx as usize];
        self.lq_ready.clear(idx as usize);
        let (lage, la, lb) = ld.with(|e| {
            let e = e.as_ref().expect("live LQ index");
            (e.age, e.addr.expect("addr known"), e.bytes)
        });
        // Youngest older overlapping store in the SQ wins over the SB:
        // `(age, addr, bytes, data)`.
        let mut best: Option<(u64, u64, u8, Option<u64>)> = None;
        for j in self.sq_valid.iter() {
            self.sq[j].with(|s| {
                let s = s.as_ref().expect("valid bit set");
                if s.is_fence || s.faulted || s.age >= lage {
                    return;
                }
                let Some(sa) = s.addr else { return };
                if overlaps(la, lb, sa, s.bytes) && best.is_none_or(|(bage, ..)| s.age > bage) {
                    best = Some((s.age, sa, s.bytes, s.data));
                }
            });
        }
        let bind = |v: u64, src_age: u64| {
            ld.update(|e| {
                let e = e.as_mut().expect("live");
                e.state = LdState::Done;
                e.value = Some(v);
                e.fwd_src_age = Some(src_age);
            });
            LdIssue::Forward(v)
        };
        let stall_on = |src: StallSrc| {
            ld.update(|e| {
                let e = e.as_mut().expect("live");
                e.state = LdState::Stalled;
                e.stall = Some(src);
            });
            LdIssue::Stalled
        };
        let outcome = match (best, sb) {
            (Some((sage, sa, sbytes, sdata)), _) if covers(sa, sbytes, la, lb) => bind(
                extract(sdata.expect("data set with addr"), sa, la, lb),
                sage,
            ),
            (Some((sage, ..)), _) => stall_on(StallSrc::SqPartial(sage)),
            (None, SbSearch::Forward(v)) => bind(v, 0),
            (None, SbSearch::Partial(i)) => stall_on(StallSrc::SbEntry(i)),
            (None, SbSearch::Miss) => {
                ld.update(|e| e.as_mut().expect("live").state = LdState::Issued);
                LdIssue::ToCache
            }
        };
        debug_assert!(self.masks_consistent());
        outcome
    }

    /// Delivers a cache response (paper's `respLd`). Returns `true` when it
    /// was a wrong-path response (the slot is freed, nothing else to do).
    pub fn resp_ld(&self, idx: u16, data: u64) -> bool {
        let mut wrong_path = false;
        self.lq[idx as usize].update(|e| {
            let Some(en) = e.as_mut() else {
                wrong_path = true;
                return;
            };
            if en.zombie {
                *e = None;
                wrong_path = true;
                return;
            }
            en.state = LdState::Done;
            en.value = Some(data);
        });
        if wrong_path {
            self.lq_valid.clear(idx as usize);
        }
        self.lq_ready.clear(idx as usize);
        debug_assert!(self.masks_consistent());
        wrong_path
    }

    /// Marks the load's register write-back performed (loads may only
    /// dequeue once their value is architecturally visible).
    pub fn mark_wb_done(&self, idx: u16) {
        self.lq[idx as usize].update(|e| {
            if let Some(e) = e {
                e.wb_done = true;
            }
        });
    }

    /// Reads an entry (for write-back metadata).
    #[must_use]
    pub fn lq_entry(&self, idx: u16) -> Option<LqEntry> {
        self.lq[idx as usize].read().filter(|e| !e.zombie)
    }

    /// Reads an SQ entry.
    #[must_use]
    pub fn sq_entry(&self, idx: u16) -> Option<SqEntry> {
        self.sq[idx as usize].read()
    }

    /// A store-buffer entry drained: clear matching stall sources (paper's
    /// `wakeupBySBDeq`).
    pub fn wakeup_by_sb_deq(&self, sb_idx: usize) {
        self.wakeup_where(|s| matches!(s, StallSrc::SbEntry(i) if *i == sb_idx));
    }

    fn wakeup_where(&self, pred: impl Fn(&StallSrc) -> bool) {
        for i in self.lq_valid.iter() {
            let woke = self.lq[i].update_if(
                |e| {
                    matches!(e, Some(e) if e.state == LdState::Stalled
                        && !e.zombie
                        && e.stall.as_ref().is_some_and(&pred))
                },
                |e| {
                    let e = e.as_mut().expect("predicate saw an entry");
                    e.stall = None;
                    e.state = LdState::Ready;
                },
            );
            if woke {
                self.lq_ready.set(i);
            }
        }
        debug_assert!(self.masks_consistent());
    }

    /// TSO: a line left the L1 D; kill cache-sourced loads that already
    /// bound a value from it (paper's `cacheEvict`).
    ///
    /// `Issued` loads are killed too, not just `Done` ones: their cache
    /// response may already be in flight, carrying data read *before* the
    /// invalidation — binding it after the line left would order the load
    /// past a remote store it must precede. (The litmus harness found this
    /// as a real MP violation under chaos-delayed response channels; the
    /// paper's combinational `cacheEvict` has no such window, so killing
    /// the in-flight load is the faithful translation.) A load whose
    /// request had not yet sampled the line refetches fresh data after the
    /// replay — conservative, never wrong.
    pub fn cache_evict(&self, line: u64) {
        let mut kills = 0;
        for i in self.lq_valid.iter() {
            let hit = self.lq[i].update_if(
                |e| {
                    let Some(e) = e else { return false };
                    let bound = matches!(e.state, LdState::Issued | LdState::Done);
                    !e.zombie
                        && !e.killed
                        && e.addr.is_some_and(|a| line_of(a) == line)
                        && bound
                        && e.fwd_src_age.is_none()
                },
                |e| e.as_mut().expect("predicate saw an entry").killed = true,
            );
            kills += u64::from(hit);
        }
        if kills > 0 {
            self.evict_kills.update(|k| *k += kills);
        }
    }

    /// Marks the instruction at the commit slot (paper's `setAtCommit`):
    /// commits stores/fences, or releases an MMIO/atomic load to execute.
    pub fn set_at_commit_st(&self, idx: u16) {
        self.sq[idx as usize].update(|e| {
            e.as_mut().expect("live SQ index").committed = true;
        });
    }

    /// Releases an MMIO/atomic load at the commit slot.
    pub fn set_at_commit_ld(&self, idx: u16) {
        self.lq[idx as usize].update(|e| {
            e.as_mut().expect("live LQ index").at_commit = true;
        });
    }

    /// Slot of the oldest live (non-zombie) load, found by a scan: what
    /// `lq_head` must hold. Ages are compared on a borrow.
    fn scan_lq(&self) -> Option<u16> {
        self.lq_valid
            .iter()
            .filter_map(|i| {
                self.lq[i].with(|e| e.as_ref().filter(|e| !e.zombie).map(|e| (i, e.age)))
            })
            .min_by_key(|&(_, age)| age)
            .map(|(i, _)| i as u16)
    }

    /// Slot of the oldest store/fence, found by a scan: what `sq_head` must
    /// hold.
    fn scan_sq(&self) -> Option<u16> {
        self.sq_valid
            .iter()
            .filter_map(|i| self.sq[i].with(|e| e.as_ref().map(|e| (i, e.age))))
            .min_by_key(|&(_, age)| age)
            .map(|(i, _)| i as u16)
    }

    /// Derives both heads again after a squash, writing only the ones that
    /// moved.
    fn rescan_heads(&self) {
        let (lq, sq) = (self.scan_lq(), self.scan_sq());
        self.lq_head.update_if(|h| *h != lq, |h| *h = lq);
        self.sq_head.update_if(|h| *h != sq, |h| *h = sq);
    }

    /// The oldest load (paper's `firstLd`): the head and its slot.
    ///
    /// # Errors
    ///
    /// Stalls when the LQ is empty.
    pub fn first_ld(&self) -> Guarded<(u16, LqEntry)> {
        let i = self.lq_head.read().ok_or(Stall::new("lq empty"))?;
        Ok((
            i,
            self.lq[i as usize].read().expect("head slot holds a load"),
        ))
    }

    /// The oldest store/fence (paper's `firstSt`): the head and its slot.
    ///
    /// # Errors
    ///
    /// Stalls when the SQ is empty.
    pub fn first_st(&self) -> Guarded<(u16, SqEntry)> {
        let i = self.sq_head.read().ok_or(Stall::new("sq empty"))?;
        Ok((
            i,
            self.sq[i as usize].read().expect("head slot holds a store"),
        ))
    }

    /// Whether any older store than `age` still has an unknown address
    /// (final memory-dependency check before a load dequeues).
    #[must_use]
    pub fn older_store_addr_unknown(&self, age: u64) -> bool {
        self.sq_valid.iter().any(|i| {
            self.sq[i].with(|e| {
                matches!(e, Some(e) if e.age < age && !e.is_fence && !e.faulted && e.addr.is_none())
            })
        })
    }

    /// Removes the oldest load (paper's `deqLd`).
    ///
    /// # Panics
    ///
    /// Panics if the LQ is empty.
    pub fn deq_ld(&self) -> LqEntry {
        let i = usize::from(self.lq_head.read().expect("deqLd on empty LQ"));
        let e = self.lq[i].read().expect("head slot holds a load");
        self.lq[i].write(None);
        self.lq_valid.clear(i);
        self.lq_ready.clear(i);
        self.lq_head.write(self.scan_lq());
        debug_assert!(self.masks_consistent());
        e
    }

    /// Removes the oldest store and wakes loads stalled on it (paper's
    /// `deqSt`).
    ///
    /// # Panics
    ///
    /// Panics if the SQ is empty.
    pub fn deq_st(&self) -> SqEntry {
        let i = usize::from(self.sq_head.read().expect("deqSt on empty SQ"));
        let e = self.sq[i].read().expect("head slot holds a store");
        self.sq[i].write(None);
        self.sq_valid.clear(i);
        self.sq_head.write(self.scan_sq());
        if e.is_fence {
            self.wakeup_where(|s| matches!(s, StallSrc::Fence(a) if *a == e.age));
        } else {
            self.wakeup_where(|s| matches!(s, StallSrc::SqPartial(a) if *a == e.age));
        }
        debug_assert!(self.masks_consistent());
        e
    }

    /// Marks the TSO head store as issued to L1.
    pub fn mark_st_issued(&self, idx: u16) {
        self.sq[idx as usize].update(|e| {
            e.as_mut().expect("live SQ index").issued = true;
        });
    }

    /// Drops the load in slot `i` if `doomed` says so: an issued load
    /// becomes a zombie until its wrong-path response returns, anything
    /// else frees the slot. Zombies are already gone and never doomed.
    fn squash_ld(&self, i: usize, doomed: impl FnOnce(&LqEntry) -> bool) {
        let mut freed = false;
        self.lq[i].update_if(
            |e| matches!(e, Some(en) if !en.zombie && doomed(en)),
            |e| match e {
                Some(en) if en.state == LdState::Issued => en.zombie = true,
                _ => {
                    *e = None;
                    freed = true;
                }
            },
        );
        if freed {
            self.lq_valid.clear(i);
            self.lq_ready.clear(i);
        }
    }

    /// Frees SQ slot `i` if `doomed` says so.
    fn squash_st(&self, i: usize, doomed: impl FnOnce(&SqEntry) -> bool) {
        if self.sq[i].with(|e| e.as_ref().is_some_and(doomed)) {
            self.sq[i].write(None);
            self.sq_valid.clear(i);
        }
    }

    /// `wrongSpec`: drops the entries renamed after the branch whose
    /// sequence number is `bseq`; issued loads become zombies until their
    /// wrong-path responses return. Committed stores are older than any
    /// unresolved branch, so they never qualify.
    pub fn wrong_spec(&self, bseq: u64) {
        for i in self.lq_valid.iter() {
            self.squash_ld(i, |e| e.seq > bseq);
        }
        for i in self.sq_valid.iter() {
            self.squash_st(i, |e| e.seq > bseq);
        }
        self.rescan_heads();
        debug_assert!(self.masks_consistent());
    }

    /// Commit-time flush: drop everything except committed stores/fences
    /// and zombie loads (their responses are still in flight). Touches live
    /// slots only, and of those only the ones it changes.
    pub fn flush_speculative(&self) {
        for i in self.lq_valid.iter() {
            self.squash_ld(i, |_| true);
        }
        for i in self.sq_valid.iter() {
            self.squash_st(i, |e| !e.committed);
        }
        self.rescan_heads();
        debug_assert!(self.masks_consistent());
    }

    /// Live (non-zombie) load count.
    #[must_use]
    pub fn lq_len(&self) -> usize {
        self.lq_valid
            .iter()
            .filter(|&i| self.lq[i].with(|e| matches!(e, Some(e) if !e.zombie)))
            .count()
    }

    /// Store/fence count (a popcount).
    #[must_use]
    pub fn sq_len(&self) -> usize {
        self.sq_valid.count()
    }

    /// Whether both queues are drained (zombies included — they pin slots).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lq_valid.is_empty() && self.sq_valid.is_empty()
    }

    /// Whether the three masks and the two heads are what the slots say
    /// they are — the invariant every method that fills or frees a slot,
    /// or moves a load into or out of `Ready`, `debug_assert!`s, and a
    /// snapshot restore checks. Public so tests outside the crate can also
    /// check it after an aborted rule.
    #[must_use]
    pub fn masks_consistent(&self) -> bool {
        // The scans trust the masks, so they run only once those hold.
        self.lq_valid.matches(occupied(&self.lq))
            && self.sq_valid.matches(occupied(&self.sq))
            && self.lq_ready.matches(self.ready_bits())
            && self.lq_head.read() == self.scan_lq()
            && self.sq_head.read() == self.scan_sq()
    }

    /// The largest sequence number in either queue, zombies included.
    pub(crate) fn max_seq(&self) -> Option<u64> {
        let lq = self.lq.iter().filter_map(|s| s.with(|e| e.map(|e| e.seq)));
        let sq = self.sq.iter().filter_map(|s| s.with(|e| e.map(|e| e.seq)));
        lq.chain(sq).max()
    }

    /// What `lq_ready` must hold, slot by slot.
    fn ready_bits(&self) -> impl Iterator<Item = bool> + '_ {
        self.lq
            .iter()
            .map(|s| s.with(|e| matches!(e, Some(e) if e.state == LdState::Ready)))
    }
}

fn overlaps(a1: u64, n1: u8, a2: u64, n2: u8) -> bool {
    a1 < a2 + u64::from(n2) && a2 < a1 + u64::from(n1)
}

/// Whether `[sa, sa+sn)` covers all of `[la, la+ln)`.
fn covers(sa: u64, sn: u8, la: u64, ln: u8) -> bool {
    sa <= la && la + u64::from(ln) <= sa + u64::from(sn)
}

/// Extracts the load bytes from a covering store's data.
fn extract(data: u64, sa: u64, la: u64, ln: u8) -> u64 {
    let shift = 8 * (la - sa);
    let v = data >> shift;
    if ln == 8 {
        v
    } else {
        v & ((1u64 << (8 * ln)) - 1)
    }
}

cmd_core::snap_enum!(LdState {
    0 => WaitAddr,
    1 => Ready,
    2 => Stalled,
    3 => Issued,
    4 => Done,
});

cmd_core::snap_enum!(StallSrc {
    0 => SqPartial(a),
    1 => SbEntry(i),
    2 => Fence(a),
});

cmd_core::snap_struct!(LqEntry {
    rob,
    seq,
    age,
    dst,
    bytes,
    signed,
    addr,
    mmio,
    atomic,
    atomic_class,
    state,
    stall,
    value,
    fwd_src_age,
    fault,
    killed,
    wb_done,
    zombie,
    at_commit,
});

cmd_core::snap_struct!(SqEntry {
    rob,
    seq,
    age,
    bytes,
    addr,
    data,
    mmio,
    is_fence,
    faulted,
    committed,
    issued,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn in_rule<R>(clk: &Clock, f: impl FnOnce() -> R) -> R {
        clk.begin_rule();
        let r = f();
        clk.commit_rule();
        r
    }

    fn lsq() -> (Clock, Lsq) {
        let clk = Clock::new();
        let l = Lsq::new(&clk, 4, 4);
        (clk, l)
    }

    #[test]
    fn enq_capacity() {
        let (clk, l) = lsq();
        in_rule(&clk, || {
            for _ in 0..4 {
                l.enq_ld(0, 0, None, false).unwrap();
            }
            assert!(l.enq_ld(0, 0, None, false).is_err());
            for _ in 0..4 {
                l.enq_st(0, 0, false).unwrap();
            }
            assert!(l.enq_st(0, 0, false).is_err());
        });
    }

    #[test]
    fn load_forwards_from_covering_older_store() {
        let (clk, l) = lsq();
        let (st, ld) = in_rule(&clk, || {
            let st = l.enq_st(1, 1, false).unwrap();
            let ld = l.enq_ld(2, 2, None, false).unwrap();
            st_ld_pair(&l, st, ld)
        });
        let r = in_rule(&clk, || l.issue_ld(ld, SbSearch::Miss));
        assert_eq!(r, LdIssue::Forward(0x9988), "bytes 2..4 of the store");
        let _ = st;
    }

    fn st_ld_pair(l: &Lsq, st: u16, ld: u16) -> (u16, u16) {
        // store 8 bytes at 0x1000; load 2 bytes at 0x1002.
        l.update_st(st, Ok(0x1000), 8, 0xddcc_bbaa_9988_7766, false);
        l.update_ld(ld, Ok(0x1002), 2, false, false, None);
        (st, ld)
    }

    #[test]
    fn load_stalls_on_partial_older_store_then_wakes_on_deq() {
        let (clk, l) = lsq();
        let ld = in_rule(&clk, || {
            let st = l.enq_st(1, 1, false).unwrap();
            let ld = l.enq_ld(2, 2, None, false).unwrap();
            l.update_st(st, Ok(0x1004), 4, 0xffff_ffff, false);
            l.update_ld(ld, Ok(0x1000), 8, false, false, None);
            ld
        });
        let r = in_rule(&clk, || l.issue_ld(ld, SbSearch::Miss));
        assert_eq!(r, LdIssue::Stalled);
        in_rule(&clk, || {
            assert!(l.get_issue_ld().is_err(), "stalled load not re-offered");
        });
        in_rule(&clk, || {
            l.set_at_commit_st(0);
            l.deq_st();
        });
        let (idx, _, _) = in_rule(&clk, || l.get_issue_ld().unwrap());
        assert_eq!(idx, ld, "deqSt woke the load");
    }

    #[test]
    fn speculative_load_killed_by_late_store_address() {
        let (clk, l) = lsq();
        let (st, ld) = in_rule(&clk, || {
            let st = l.enq_st(1, 1, false).unwrap();
            let ld = l.enq_ld(2, 2, None, false).unwrap();
            // The load translates first and issues speculatively.
            l.update_ld(ld, Ok(0x2000), 8, false, false, None);
            (st, ld)
        });
        in_rule(&clk, || {
            let (idx, addr, _) = l.get_issue_ld().unwrap();
            assert_eq!((idx, addr), (ld, 0x2000));
            assert_eq!(l.issue_ld(ld, SbSearch::Miss), LdIssue::ToCache);
        });
        in_rule(&clk, || {
            assert!(!l.resp_ld(ld, 0xdead), "not wrong-path");
        });
        // Now the older store's address arrives and overlaps.
        in_rule(&clk, || {
            l.update_st(st, Ok(0x2000), 8, 1, false);
        });
        assert!(l.lq_entry(ld).unwrap().killed, "violation detected");
    }

    #[test]
    fn forward_from_youngest_older_store_is_not_killed() {
        let (clk, l) = lsq();
        let (st_old, st_new, ld) = in_rule(&clk, || {
            let st_old = l.enq_st(1, 1, false).unwrap();
            let st_new = l.enq_st(2, 2, false).unwrap();
            let ld = l.enq_ld(3, 3, None, false).unwrap();
            // Younger store's address is known; it covers the load.
            l.update_st(st_new, Ok(0x3000), 8, 42, false);
            l.update_ld(ld, Ok(0x3000), 8, false, false, None);
            (st_old, st_new, ld)
        });
        let r = in_rule(&clk, || l.issue_ld(ld, SbSearch::Miss));
        assert_eq!(r, LdIssue::Forward(42));
        // The *older* store resolves to the same address: the load read the
        // younger value, which is still correct.
        in_rule(&clk, || l.update_st(st_old, Ok(0x3000), 8, 7, false));
        assert!(!l.lq_entry(ld).unwrap().killed);
        let _ = st_new;
    }

    #[test]
    fn fence_blocks_younger_loads_until_deq() {
        let (clk, l) = lsq();
        let ld = in_rule(&clk, || {
            l.enq_st(1, 1, true).unwrap(); // fence
            let ld = l.enq_ld(2, 2, None, false).unwrap();
            l.update_ld(ld, Ok(0x4000), 8, false, false, None);
            ld
        });
        in_rule(&clk, || {
            assert!(l.get_issue_ld().is_err(), "fence blocks the load");
        });
        in_rule(&clk, || {
            l.deq_st();
        });
        let got = in_rule(&clk, || l.get_issue_ld());
        assert_eq!(got.unwrap().0, ld);
    }

    #[test]
    fn sb_search_results_honored() {
        let (clk, l) = lsq();
        let (ld1, ld2) = in_rule(&clk, || {
            let ld1 = l.enq_ld(1, 1, None, false).unwrap();
            let ld2 = l.enq_ld(2, 2, None, false).unwrap();
            l.update_ld(ld1, Ok(0x5000), 8, false, false, None);
            l.update_ld(ld2, Ok(0x5008), 8, false, false, None);
            (ld1, ld2)
        });
        let r1 = in_rule(&clk, || l.issue_ld(ld1, SbSearch::Forward(99)));
        assert_eq!(r1, LdIssue::Forward(99));
        let r2 = in_rule(&clk, || l.issue_ld(ld2, SbSearch::Partial(1)));
        assert_eq!(r2, LdIssue::Stalled);
        in_rule(&clk, || l.wakeup_by_sb_deq(1));
        let got = in_rule(&clk, || l.get_issue_ld().unwrap().0);
        assert_eq!(got, ld2);
    }

    #[test]
    fn wrong_spec_zombifies_issued_loads() {
        let (clk, l) = lsq();
        let ld = in_rule(&clk, || {
            let ld = l.enq_ld(1, 1, None, false).unwrap();
            l.update_ld(ld, Ok(0x6000), 8, false, false, None);
            ld
        });
        in_rule(&clk, || {
            l.get_issue_ld().unwrap();
            l.issue_ld(ld, SbSearch::Miss);
        });
        in_rule(&clk, || l.wrong_spec(0));
        assert_eq!(l.lq_len(), 0, "logically gone");
        assert!(
            in_rule(&clk, || l.first_ld()).is_err(),
            "a zombie is no head"
        );
        assert!(!l.is_empty(), "slot pinned until the response returns");
        let wrong = in_rule(&clk, || l.resp_ld(ld, 5));
        assert!(wrong, "response identified as wrong-path");
        assert!(l.is_empty());
    }

    #[test]
    fn tso_cache_evict_kills_cache_sourced_loads_only() {
        let (clk, l) = lsq();
        let (ld_cache, ld_fwd) = in_rule(&clk, || {
            let st = l.enq_st(1, 1, false).unwrap();
            let a = l.enq_ld(2, 2, None, false).unwrap();
            let b = l.enq_ld(3, 3, None, false).unwrap();
            l.update_st(st, Ok(0x7000), 8, 1, false);
            l.update_ld(a, Ok(0x7040), 8, false, false, None);
            l.update_ld(b, Ok(0x7000), 8, false, false, None);
            (a, b)
        });
        in_rule(&clk, || {
            l.issue_ld(ld_cache, SbSearch::Miss);
            l.resp_ld(ld_cache, 9);
            assert_eq!(l.issue_ld(ld_fwd, SbSearch::Miss), LdIssue::Forward(1));
        });
        in_rule(&clk, || {
            l.cache_evict(0x7040);
            l.cache_evict(0x7000);
        });
        assert!(l.lq_entry(ld_cache).unwrap().killed);
        assert!(
            !l.lq_entry(ld_fwd).unwrap().killed,
            "forwarded loads immune to eviction"
        );
        assert_eq!(l.evict_kills.read(), 1);
    }

    #[test]
    fn broadcasts_that_concern_no_entry_enlist_no_cell() {
        let (clk, l) = lsq();
        in_rule(&clk, || {
            let st = l.enq_st(1, 1, false).unwrap();
            let ld = l.enq_ld(2, 2, None, false).unwrap();
            l.update_st(st, Ok(0xb000), 8, 1, false);
            l.update_ld(ld, Ok(0xc000), 8, false, false, None);
        });
        clk.begin_rule();
        l.wrong_spec(2); // nothing was renamed after it
        l.wakeup_by_sb_deq(0);
        l.cache_evict(0xc000); // the load has not bound a value yet
        assert!(clk.enlisted_cells().is_empty(), "no-op broadcasts are free");
        l.wrong_spec(1);
        assert_eq!(
            clk.enlisted_cells().len(),
            4,
            "the load's slot, its two mask words and the LQ head"
        );
        clk.commit_rule();
    }

    #[test]
    fn deq_ld_ordering_and_unknown_store_guard() {
        let (clk, l) = lsq();
        in_rule(&clk, || {
            let st = l.enq_st(1, 1, false).unwrap();
            let ld = l.enq_ld(2, 2, None, false).unwrap();
            l.update_ld(ld, Ok(0x8000), 8, false, false, None);
            let (_, e) = l.first_ld().unwrap();
            assert!(l.older_store_addr_unknown(e.age), "store addr unknown");
            l.update_st(st, Ok(0x9000), 8, 0, false);
            assert!(!l.older_store_addr_unknown(e.age));
        });
    }

    #[test]
    fn flush_keeps_committed_stores() {
        let (clk, l) = lsq();
        in_rule(&clk, || {
            let st1 = l.enq_st(1, 1, false).unwrap();
            let _st2 = l.enq_st(2, 2, false).unwrap();
            let _ld = l.enq_ld(3, 3, None, false).unwrap();
            l.update_st(st1, Ok(0xa000), 8, 5, false);
            l.set_at_commit_st(st1);
        });
        in_rule(&clk, || l.flush_speculative());
        assert_eq!(l.sq_len(), 1, "committed store survives");
        assert_eq!(l.lq_len(), 0);
    }

    #[test]
    fn flush_touches_only_the_slots_it_changes() {
        let clk = Clock::new();
        let l = Lsq::new(&clk, 80, 80);
        clk.begin_rule();
        l.flush_speculative();
        assert!(clk.enlisted_cells().is_empty(), "empty LSQ: nothing to do");
        clk.commit_rule();
        let ld = in_rule(&clk, || {
            let st = l.enq_st(1, 1, false).unwrap();
            l.update_st(st, Ok(0xa000), 8, 5, false);
            l.set_at_commit_st(st);
            let ld = l.enq_ld(2, 2, None, false).unwrap();
            l.update_ld(ld, Ok(0xb000), 8, false, false, None);
            assert_eq!(l.issue_ld(ld, SbSearch::Miss), LdIssue::ToCache);
            ld
        });
        in_rule(&clk, || l.flush_speculative());
        assert!(!l.is_empty(), "the issued load became a zombie");
        clk.begin_rule();
        l.flush_speculative();
        assert!(
            clk.enlisted_cells().is_empty(),
            "a committed store and a zombie are left alone"
        );
        clk.commit_rule();
        assert!(in_rule(&clk, || l.resp_ld(ld, 0)), "wrong-path response");
        assert_eq!((l.lq_len(), l.sq_len()), (0, 1));
        assert!(l.masks_consistent());
    }

    #[test]
    fn an_aborted_rule_rolls_slots_and_masks_back_together() {
        let clk = Clock::new();
        let l = Lsq::new(&clk, 70, 66);
        in_rule(&clk, || {
            // Stores take sequence numbers below 66, loads from 100 on.
            for k in 0..66 {
                l.enq_ld(k, 100 + u64::from(k), None, false).unwrap();
                l.enq_st(k, u64::from(k), false).unwrap();
            }
        });
        clk.begin_rule();
        assert!(l.enq_st(0, 66, false).is_err(), "sq full");
        l.deq_ld();
        l.deq_st();
        l.enq_ld(99, 200, None, false).unwrap();
        l.wrong_spec(99);
        l.flush_speculative();
        assert!(l.is_empty());
        clk.abort_rule();
        assert!(l.masks_consistent());
        assert_eq!((l.lq_len(), l.sq_len()), (66, 66));
        assert_eq!(in_rule(&clk, || l.first_ld().unwrap().0), 0);
    }

    #[test]
    fn heads_follow_the_oldest_entry_through_zombies_and_squashes() {
        let (clk, l) = lsq();
        let lds = in_rule(&clk, || {
            let lds: Vec<u16> = (0..3)
                .map(|k| l.enq_ld(k, u64::from(k), None, false).unwrap())
                .collect();
            l.update_ld(lds[1], Ok(0xd000), 8, false, false, None);
            assert_eq!(l.issue_ld(lds[1], SbSearch::Miss), LdIssue::ToCache);
            lds
        });
        assert_eq!(in_rule(&clk, || l.first_ld().unwrap().0), lds[0]);
        // The load renamed before the branch stays the head; the issued one
        // becomes a zombie and the last one goes.
        in_rule(&clk, || l.wrong_spec(0));
        assert_eq!(in_rule(&clk, || l.first_ld().unwrap().0), lds[0]);
        in_rule(&clk, || l.deq_ld());
        assert!(
            in_rule(&clk, || l.first_ld()).is_err(),
            "only a zombie is left"
        );
        let (st, ld) = in_rule(&clk, || {
            (
                l.enq_st(3, 3, true).unwrap(),
                l.enq_ld(4, 4, None, false).unwrap(),
            )
        });
        assert_eq!(in_rule(&clk, || l.first_ld().unwrap().0), ld);
        assert_eq!(in_rule(&clk, || l.first_st().unwrap().0), st);
        assert!(
            in_rule(&clk, || l.resp_ld(lds[1], 0)),
            "the zombie's response"
        );
        in_rule(&clk, || l.flush_speculative());
        assert!(in_rule(&clk, || l.first_ld()).is_err());
        assert!(in_rule(&clk, || l.first_st()).is_err());
        assert!(l.is_empty() && l.masks_consistent());
    }

    /// `firstLd`/`firstSt` read a head and its slot: a rule asleep on them
    /// sleeps through writes to younger entries and wakes when the oldest
    /// one changes.
    #[test]
    fn a_rule_asleep_on_first_ld_or_first_st_watches_only_the_head() {
        use cmd_core::sched::Wakeup;
        use cmd_core::sim::Sim;

        struct St {
            clk: Clock,
            lsq: Lsq,
            deqs: Vec<(&'static str, u64)>,
        }
        let fault = Err((Exception::LoadPageFault, 0));
        let (clk, l) = lsq();
        in_rule(&clk, || {
            l.enq_ld(0, 0, None, false).unwrap();
            l.enq_ld(1, 1, None, false).unwrap();
            l.enq_st(2, 2, false).unwrap();
            l.enq_st(3, 3, false).unwrap();
        });
        let st = St {
            clk: clk.clone(),
            lsq: l,
            deqs: Vec::new(),
        };
        let mut sim = Sim::new(clk, st);
        sim.rule("script", move |s: &mut St| {
            match s.clk.cycle() {
                // Only younger entries change: the second load finishes, the
                // second store commits, a third load arrives.
                2 => {
                    s.lsq.update_ld(1, fault, 8, false, false, None);
                    s.lsq.set_at_commit_st(1);
                    s.lsq.enq_ld(4, 4, None, false)?;
                }
                4 => s.lsq.update_ld(0, fault, 8, false, false, None),
                6 => s.lsq.set_at_commit_st(0),
                _ => return Err(Stall::new("nothing scripted")),
            }
            Ok(())
        });
        let deq_ld = sim.rule("deqLd", |s: &mut St| {
            if s.lsq.first_ld()?.1.state != LdState::Done {
                return Err(Stall::new("load not done"));
            }
            s.lsq.deq_ld();
            s.deqs.push(("ld", s.clk.cycle()));
            Ok(())
        });
        let deq_st = sim.rule("deqSt", |s: &mut St| {
            if !s.lsq.first_st()?.1.committed {
                return Err(Stall::new("store not committed"));
            }
            s.lsq.deq_st();
            s.deqs.push(("st", s.clk.cycle()));
            Ok(())
        });
        for r in [deq_ld, deq_st] {
            sim.set_wakeup(r, Wakeup::Inferred);
        }
        sim.enable_profiling();
        sim.run(10);
        assert_eq!(
            sim.state().deqs,
            [("ld", 4), ("ld", 5), ("st", 6), ("st", 7)]
        );
        let evals =
            |r: cmd_core::sim::RuleId| sim.profiler().expect("enabled").rule(r.index()).evals;
        // deqLd: a stall at 0, two firings, then a stall on the third load;
        // deqSt: a stall at 0, two firings, then "sq empty". Neither woke at
        // cycle 2.
        assert_eq!((evals(deq_ld), evals(deq_st)), (4, 4));
    }

    #[test]
    fn extract_subword_from_store_data() {
        assert_eq!(
            extract(0x1122_3344_5566_7788, 0x100, 0x100, 8),
            0x1122_3344_5566_7788
        );
        assert_eq!(extract(0x1122_3344_5566_7788, 0x100, 0x102, 2), 0x5566);
        assert_eq!(extract(0x1122_3344_5566_7788, 0x100, 0x107, 1), 0x11);
    }

    #[test]
    fn overlap_helper() {
        assert!(overlaps(0x100, 8, 0x104, 8));
        assert!(!overlaps(0x100, 4, 0x104, 4));
        assert!(covers(0x100, 8, 0x104, 4));
        assert!(!covers(0x104, 4, 0x100, 8));
    }
}
