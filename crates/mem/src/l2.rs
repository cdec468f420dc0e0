//! The shared, inclusive L2 cache: MSI directory parent, DRAM client, and
//! server for the page walkers' uncached loads (paper §V-D, Fig. 11).
//!
//! The L2 processes each line with a *blocking transaction* — exactly one
//! in-flight transaction per line — which is the structure of the
//! deductively verified protocol the paper builds on. Transactions move
//! through phases: recall the victim's child copies, fetch from DRAM,
//! downgrade conflicting children, then grant.

use std::collections::VecDeque;

use riscy_isa::mem::SparseMem;

use crate::cache::{read_from_line, CacheArray, CacheGeom};
use crate::dram::{Dram, DramConfig, DramReq};
use crate::msg::{CacheStats, ChildReq, ChildToParent, DownReq, Line, Msi, ParentResp};

/// Configuration of the shared L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Maximum concurrent transactions (paper: 16).
    pub max_trans: usize,
    /// DRAM behind this L2.
    pub dram: DramConfig,
    /// MESI extension: grant E (exclusive-clean) to a sole reader so its
    /// first store avoids an upgrade round trip (paper §V-D's suggested
    /// extension; `false` = the paper's verified MSI).
    pub mesi: bool,
}

impl Default for L2Config {
    /// The paper's RiscyOO-B L2: 1 MB, 16-way, max 16 requests.
    fn default() -> Self {
        L2Config {
            size_bytes: 1024 * 1024,
            ways: 16,
            max_trans: 16,
            dram: DramConfig::default(),
            mesi: false,
        }
    }
}

/// An uncached 8-byte read (page-walker traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncachedReq {
    /// Requesting core.
    pub core: usize,
    /// Client tag.
    pub tag: u64,
    /// Physical byte address (8-byte aligned).
    pub addr: u64,
}

/// Response to an [`UncachedReq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncachedResp {
    /// Client tag.
    pub tag: u64,
    /// The 8 bytes read.
    pub data: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Requester {
    Child(ChildReq),
    Uncached(UncachedReq),
}

impl Requester {
    fn line(&self) -> u64 {
        match self {
            Requester::Child(r) => r.line(),
            Requester::Uncached(u) => u.addr & !63,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the victim slot's child copies to be recalled.
    EvictVictim,
    /// Waiting for DRAM data.
    WaitDram,
    /// Waiting for conflicting children to downgrade.
    WaitDowngrades,
}

#[derive(Debug, Clone, Copy)]
struct Trans {
    req: Requester,
    line: u64,
    phase: Phase,
    slot: usize,
    dram_issued: bool,
    downs_sent: bool,
}

/// The shared inclusive L2 with its DRAM controller.
#[derive(Debug)]
pub struct L2 {
    cfg: L2Config,
    array: CacheArray,
    num_children: usize,
    /// Requests arriving from the crossbar.
    pub req_in: VecDeque<ChildReq>,
    /// Writebacks/acks arriving from the crossbar.
    pub msg_in: VecDeque<ChildToParent>,
    /// Grants to each child (drained by the crossbar).
    pub resp_out: Vec<VecDeque<ParentResp>>,
    /// Downgrade requests to each child (drained by the crossbar).
    pub down_out: Vec<VecDeque<DownReq>>,
    /// Page-walker reads in.
    pub uncached_in: VecDeque<UncachedReq>,
    /// Page-walker reads out, per core.
    pub uncached_out: Vec<VecDeque<UncachedResp>>,
    room: VecDeque<Requester>,
    trans: Vec<Trans>,
    dram: Dram,
    /// Hit/miss statistics.
    pub stats: CacheStats,
}

impl L2 {
    /// Creates an empty L2 serving `num_children` L1 caches and
    /// `num_cores` page walkers.
    #[must_use]
    pub fn new(cfg: L2Config, num_children: usize, num_cores: usize) -> Self {
        L2 {
            cfg,
            array: CacheArray::new(CacheGeom::from_size(cfg.size_bytes, cfg.ways)),
            num_children,
            req_in: VecDeque::new(),
            msg_in: VecDeque::new(),
            resp_out: (0..num_children).map(|_| VecDeque::new()).collect(),
            down_out: (0..num_children).map(|_| VecDeque::new()).collect(),
            uncached_in: VecDeque::new(),
            uncached_out: (0..num_cores).map(|_| VecDeque::new()).collect(),
            room: VecDeque::new(),
            trans: Vec::new(),
            dram: Dram::new(cfg.dram),
            stats: CacheStats::default(),
        }
    }

    /// Whether all queues and transactions are drained (test helper).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.req_in.is_empty()
            && self.msg_in.is_empty()
            && self.room.is_empty()
            && self.trans.is_empty()
    }

    /// Non-intrusive peek at a resident line's data (no LRU touch, no
    /// statistics). `None` when the line is not cached in the L2. The copy
    /// is stale while a child holds the line in M — callers must consult
    /// the L1s first (see
    /// [`MemSystem::peek_coherent`](crate::system::MemSystem::peek_coherent)).
    #[must_use]
    pub fn peek_line(&self, line: u64) -> Option<&crate::msg::Line> {
        let i = self.array.lookup(line)?;
        Some(&*self.array.slot(i).data)
    }

    /// The earliest cycle, at or after `now`, at which [`L2::tick`] may
    /// change the L2 between two ticks: `now` while messages or requests
    /// wait to be taken in or out, or a transaction can take its next step
    /// (see `L2::step_trans`); otherwise the DRAM's next event
    /// (`u64::MAX` when that is idle too). A transaction waiting on child
    /// acknowledgements or on DRAM data is no event — the ack arrives
    /// through a timed crossbar queue, the data through the DRAM, and a
    /// tick absorbs either before it steps transactions. Nor is a request
    /// waiting in the room: what defers it (a full transaction table, its
    /// line in flight, no unlocked victim) clears only when a transaction
    /// ends inside a tick, which then retries the room.
    #[must_use]
    pub fn next_event(&self, now: u64) -> u64 {
        let queued = !self.req_in.is_empty()
            || !self.msg_in.is_empty()
            || !self.uncached_in.is_empty()
            || self.resp_out.iter().any(|q| !q.is_empty())
            || self.down_out.iter().any(|q| !q.is_empty())
            || self.uncached_out.iter().any(|q| !q.is_empty());
        let stepping = self.trans.iter().any(|t| match t.phase {
            Phase::EvictVictim => {
                let slot = self.array.slot(t.slot);
                slot.state == Msi::I || Self::dir_empty(slot)
            }
            Phase::WaitDram => !t.dram_issued,
            Phase::WaitDowngrades => !t.downs_sent,
        });
        if queued || stepping {
            now
        } else {
            self.dram.next_event(now)
        }
    }

    /// One simulation cycle.
    pub fn tick(&mut self, now: u64, mem: &mut SparseMem) {
        self.absorb_messages(mem);
        self.dram.tick(now, mem);
        self.absorb_dram();
        self.advance_trans();
        self.accept_requests();
    }

    fn absorb_messages(&mut self, mem: &mut SparseMem) {
        while let Some(msg) = self.msg_in.pop_front() {
            match msg {
                ChildToParent::PutM { child, line, data } => {
                    if let Some(idx) = self.array.lookup(line) {
                        let slot = self.array.slot_mut(idx);
                        slot.data = data;
                        slot.dirty = true;
                        if slot.owner == Some(child) {
                            slot.owner = None;
                        }
                    } else {
                        // Shouldn't occur under inclusivity, but never lose data.
                        mem.write_line(line, &data);
                    }
                }
                ChildToParent::DownAck {
                    child,
                    line,
                    data,
                    to,
                } => {
                    if let Some(idx) = self.array.lookup(line) {
                        let slot = self.array.slot_mut(idx);
                        if let Some(d) = data {
                            slot.data = d;
                            slot.dirty = true;
                        }
                        match to {
                            Msi::I => {
                                slot.sharers &= !(1 << child);
                                if slot.owner == Some(child) {
                                    slot.owner = None;
                                }
                            }
                            Msi::S => {
                                if slot.owner == Some(child) {
                                    slot.owner = None;
                                    slot.sharers |= 1 << child;
                                }
                            }
                            // Children never ack upward (E/M are never the
                            // target of a downgrade request).
                            Msi::E | Msi::M => {}
                        }
                    }
                }
            }
        }
    }

    fn absorb_dram(&mut self) {
        while let Some(resp) = self.dram.pop_resp() {
            if let Some(t) = self
                .trans
                .iter_mut()
                .find(|t| t.line == resp.line && t.phase == Phase::WaitDram)
            {
                self.array.install(t.slot, t.line, Msi::S, resp.data);
                self.array.slot_mut(t.slot).locked = true;
                t.phase = Phase::WaitDowngrades;
                t.downs_sent = true; // a fresh line has no child copies
            }
        }
    }

    fn advance_trans(&mut self) {
        let mut i = 0;
        while i < self.trans.len() {
            let done = self.step_trans(i);
            if done {
                self.trans.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn dir_empty(slot: &crate::cache::Slot) -> bool {
        slot.sharers == 0 && slot.owner.is_none()
    }

    fn step_trans(&mut self, ti: usize) -> bool {
        let t = self.trans[ti];
        match t.phase {
            Phase::EvictVictim => {
                let slot = self.array.slot(t.slot);
                if slot.state != Msi::I && !Self::dir_empty(slot) {
                    return false; // acks still arriving
                }
                if slot.state != Msi::I && slot.dirty {
                    if self
                        .dram
                        .request(DramReq::Write {
                            line: slot.line,
                            data: slot.data.clone(),
                        })
                        .is_err()
                    {
                        return false;
                    }
                    self.stats.writebacks += 1;
                }
                let slot = self.array.slot_mut(t.slot);
                slot.state = Msi::I;
                slot.locked = true; // reserved for the incoming line
                self.trans[ti].phase = Phase::WaitDram;
                self.try_issue_dram(ti);
                false
            }
            Phase::WaitDram => {
                self.try_issue_dram(ti);
                false
            }
            Phase::WaitDowngrades => {
                if !self.trans[ti].downs_sent {
                    self.send_downgrades(ti);
                    self.trans[ti].downs_sent = true;
                }
                if self.downgrades_satisfied(ti) {
                    self.grant(ti);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn try_issue_dram(&mut self, ti: usize) {
        if self.trans[ti].dram_issued {
            return;
        }
        let line = self.trans[ti].line;
        if self.dram.request(DramReq::Read { line }).is_ok() {
            self.trans[ti].dram_issued = true;
        }
    }

    fn send_downgrades(&mut self, ti: usize) {
        let t = self.trans[ti];
        let slot = self.array.slot(t.slot);
        match t.req {
            Requester::Child(r) if r.wants_m() => {
                let keep = r.child();
                if let Some(o) = slot.owner {
                    // The requester itself is recalled too when it is the
                    // recorded owner. That only happens for anomalous
                    // requests — a duplicated GetM, or a re-request racing
                    // its own in-flight PutM — and recalling is the one
                    // response that is correct for both: the child acks with
                    // its authoritative copy (or the ack queues behind the
                    // PutM on the same ordered channel), the directory
                    // clears, and the grant returns fresh data. Exempting
                    // the requester instead wedges the transaction forever
                    // on `downgrades_satisfied`.
                    self.down_out[o].push_back(DownReq {
                        line: t.line,
                        to: Msi::I,
                    });
                    self.stats.downgrades += 1;
                }
                let sharers = slot.sharers;
                for c in 0..self.num_children {
                    if c != keep && sharers & (1 << c) != 0 {
                        self.down_out[c].push_back(DownReq {
                            line: t.line,
                            to: Msi::I,
                        });
                        self.stats.downgrades += 1;
                    }
                }
            }
            _ => {
                // Read access: only an M owner conflicts; demote to S.
                if let Some(o) = slot.owner {
                    self.down_out[o].push_back(DownReq {
                        line: t.line,
                        to: Msi::S,
                    });
                    self.stats.downgrades += 1;
                }
            }
        }
    }

    fn downgrades_satisfied(&self, ti: usize) -> bool {
        let t = self.trans[ti];
        let slot = self.array.slot(t.slot);
        match t.req {
            Requester::Child(r) if r.wants_m() => {
                slot.owner.is_none() && slot.sharers & !(1 << r.child()) == 0
            }
            _ => slot.owner.is_none(),
        }
    }

    fn grant(&mut self, ti: usize) {
        let t = self.trans[ti];
        let slot = self.array.slot_mut(t.slot);
        slot.locked = false;
        match t.req {
            Requester::Child(r) => {
                let child = r.child();
                let state = if r.wants_m() {
                    slot.owner = Some(child);
                    slot.sharers = 0;
                    // The child's copy becomes the authoritative one.
                    Msi::M
                } else if self.cfg.mesi && slot.sharers == 0 && slot.owner.is_none() {
                    // MESI: the sole reader gets an exclusive clean copy.
                    // The directory tracks it as the owner; a later silent
                    // E→M upgrade needs no protocol action.
                    slot.owner = Some(child);
                    Msi::E
                } else {
                    slot.sharers |= 1 << child;
                    Msi::S
                };
                let data = slot.data.clone();
                self.resp_out[child].push_back(ParentResp {
                    line: t.line,
                    state,
                    data,
                });
            }
            Requester::Uncached(u) => {
                let data = read_from_line(&slot.data, u.addr, 8);
                self.uncached_out[u.core].push_back(UncachedResp { tag: u.tag, data });
            }
        }
    }

    fn accept_requests(&mut self) {
        while let Some(r) = self.req_in.pop_front() {
            self.room.push_back(Requester::Child(r));
        }
        while let Some(u) = self.uncached_in.pop_front() {
            self.room.push_back(Requester::Uncached(u));
        }
        let mut deferred = VecDeque::new();
        while let Some(req) = self.room.pop_front() {
            if self.trans.len() >= self.cfg.max_trans {
                deferred.push_back(req);
                continue;
            }
            let line = req.line();
            if self.trans.iter().any(|t| t.line == line) {
                // Line-level blocking: one transaction per line at a time.
                deferred.push_back(req);
                continue;
            }
            match self.array.lookup_touch(line) {
                Some(idx) => {
                    self.stats.hits += 1;
                    self.array.slot_mut(idx).locked = true;
                    self.trans.push(Trans {
                        req,
                        line,
                        phase: Phase::WaitDowngrades,
                        slot: idx,
                        dram_issued: false,
                        downs_sent: false,
                    });
                }
                None => match self.array.victim(line) {
                    Some(vic) => {
                        self.stats.misses += 1;
                        // Recall the victim's child copies before reuse.
                        let vslot = self.array.slot(vic);
                        let (vline, vstate) = (vslot.line, vslot.state);
                        if vstate != Msi::I {
                            if let Some(o) = vslot.owner {
                                self.down_out[o].push_back(DownReq {
                                    line: vline,
                                    to: Msi::I,
                                });
                            }
                            let sharers = vslot.sharers;
                            for c in 0..self.num_children {
                                if sharers & (1 << c) != 0 {
                                    self.down_out[c].push_back(DownReq {
                                        line: vline,
                                        to: Msi::I,
                                    });
                                }
                            }
                        }
                        self.array.slot_mut(vic).locked = true;
                        self.trans.push(Trans {
                            req,
                            line,
                            phase: Phase::EvictVictim,
                            slot: vic,
                            dram_issued: false,
                            downs_sent: false,
                        });
                    }
                    None => deferred.push_back(req),
                },
            }
        }
        self.room = deferred;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::mem::DRAM_BASE;

    fn small_l2(children: usize) -> (L2, SparseMem) {
        let cfg = L2Config {
            size_bytes: 4096,
            ways: 2,
            max_trans: 4,
            dram: DramConfig {
                latency: 5,
                max_outstanding: 8,
                cycles_per_line: 1,
            },
            mesi: false,
        };
        (L2::new(cfg, children, children), SparseMem::new())
    }

    fn run(l2: &mut L2, mem: &mut SparseMem, from: u64, cycles: u64) -> u64 {
        for now in from..from + cycles {
            l2.tick(now, mem);
        }
        from + cycles
    }

    #[test]
    fn gets_miss_fetches_from_dram() {
        let (mut l2, mut mem) = small_l2(1);
        mem.write_u64(DRAM_BASE, 0x77);
        l2.req_in.push_back(ChildReq::GetS {
            child: 0,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 0, 20);
        let g = l2.resp_out[0].pop_front().expect("grant");
        assert_eq!(g.state, Msi::S);
        assert_eq!(g.data[0], 0x77);
        assert_eq!(l2.stats.misses, 1);
    }

    #[test]
    fn getm_invalidates_other_sharer() {
        let (mut l2, mut mem) = small_l2(2);
        l2.req_in.push_back(ChildReq::GetS {
            child: 0,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 0, 20);
        l2.resp_out[0].pop_front().expect("S grant");
        l2.req_in.push_back(ChildReq::GetM {
            child: 1,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 20, 5);
        let d = l2.down_out[0].pop_front().expect("downgrade to sharer");
        assert_eq!(d.to, Msi::I);
        assert!(l2.resp_out[1].is_empty(), "no grant before the ack");
        l2.msg_in.push_back(ChildToParent::DownAck {
            child: 0,
            line: DRAM_BASE,
            data: None,
            to: Msi::I,
        });
        run(&mut l2, &mut mem, 25, 5);
        let g = l2.resp_out[1].pop_front().expect("M grant");
        assert_eq!(g.state, Msi::M);
    }

    #[test]
    fn gets_recalls_dirty_data_from_owner() {
        let (mut l2, mut mem) = small_l2(2);
        l2.req_in.push_back(ChildReq::GetM {
            child: 0,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 0, 20);
        l2.resp_out[0].pop_front().expect("M grant");
        // Child 1 reads; child 0 must be demoted and its data captured.
        l2.req_in.push_back(ChildReq::GetS {
            child: 1,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 20, 5);
        let d = l2.down_out[0].pop_front().expect("demote owner");
        assert_eq!(d.to, Msi::S);
        let mut dirty = Box::new([0u8; 64]);
        dirty[0] = 0xee;
        l2.msg_in.push_back(ChildToParent::DownAck {
            child: 0,
            line: DRAM_BASE,
            data: Some(dirty),
            to: Msi::S,
        });
        run(&mut l2, &mut mem, 25, 5);
        let g = l2.resp_out[1].pop_front().expect("S grant with fresh data");
        assert_eq!(g.data[0], 0xee);
    }

    #[test]
    fn uncached_read_served() {
        let (mut l2, mut mem) = small_l2(1);
        mem.write_u64(DRAM_BASE + 0x100, 0xabcd);
        l2.uncached_in.push_back(UncachedReq {
            core: 0,
            tag: 9,
            addr: DRAM_BASE + 0x100,
        });
        run(&mut l2, &mut mem, 0, 20);
        let r = l2.uncached_out[0].pop_front().expect("walker data");
        assert_eq!(
            r,
            UncachedResp {
                tag: 9,
                data: 0xabcd
            }
        );
    }

    #[test]
    fn capacity_eviction_writes_dirty_line_to_dram() {
        let (mut l2, mut mem) = small_l2(1);
        // 4096 B / 64 B / 2 ways = 32 sets; lines 64*32 apart collide.
        let step = 64 * 32;
        let a = DRAM_BASE;
        // Own line a in M, write it back via PutM, then force eviction.
        l2.req_in.push_back(ChildReq::GetM { child: 0, line: a });
        run(&mut l2, &mut mem, 0, 20);
        l2.resp_out[0].pop_front().unwrap();
        let mut dirty = Box::new([0u8; 64]);
        dirty[3] = 0x99;
        l2.msg_in.push_back(ChildToParent::PutM {
            child: 0,
            line: a,
            data: dirty,
        });
        // Fill the set with two more lines to evict `a`.
        l2.req_in.push_back(ChildReq::GetS {
            child: 0,
            line: a + step,
        });
        l2.req_in.push_back(ChildReq::GetS {
            child: 0,
            line: a + 2 * step,
        });
        run(&mut l2, &mut mem, 20, 60);
        assert_eq!(l2.resp_out[0].len(), 2);
        assert_eq!(mem.read_u8(a + 3), 0x99, "dirty data written to DRAM");
    }

    #[test]
    fn line_blocking_serializes_same_line_requests() {
        let (mut l2, mut mem) = small_l2(2);
        l2.req_in.push_back(ChildReq::GetM {
            child: 0,
            line: DRAM_BASE,
        });
        l2.req_in.push_back(ChildReq::GetM {
            child: 1,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 0, 20);
        assert_eq!(l2.resp_out[0].len(), 1, "first GetM granted");
        assert!(l2.resp_out[1].is_empty(), "second blocked behind first");
        // Child 0 acks the recall triggered by child 1's request.
        let down = l2.down_out[0].pop_front().expect("recall to child 0");
        assert_eq!(down.to, Msi::I);
        l2.msg_in.push_back(ChildToParent::DownAck {
            child: 0,
            line: DRAM_BASE,
            data: Some(Box::new([1; 64])),
            to: Msi::I,
        });
        run(&mut l2, &mut mem, 20, 10);
        let g = l2.resp_out[1]
            .pop_front()
            .expect("second granted after ack");
        assert_eq!(g.state, Msi::M);
        assert_eq!(g.data[0], 1, "sees child 0's data");
    }
}

impl L2 {
    /// Whether a functional-warming install of `line` can succeed: the line
    /// is already resident or its set has a free way.
    #[must_use]
    pub fn warm_room(&self, line: u64) -> bool {
        self.array.lookup(line).is_some() || self.array.free_slot(line).is_some()
    }

    /// Functional-warming install (fast-forward): places `line` in S state
    /// into a free way, with `sharer`'s bit set when an L1 copy is being
    /// installed alongside (`None` warms the L2 level alone). Never evicts
    /// (inclusion would force L1 invalidations) and issues no DRAM
    /// traffic. Returns whether the line is resident afterwards; when it
    /// already is, only the sharer bit is added.
    pub fn warm_insert(&mut self, line: u64, data: &Line, sharer: Option<usize>) -> bool {
        if let Some(idx) = self.array.lookup(line) {
            if let Some(s) = sharer {
                self.array.slot_mut(idx).sharers |= 1 << s;
            }
            return true;
        }
        let Some(idx) = self.array.free_slot(line) else {
            return false;
        };
        self.array.install(idx, line, Msi::S, Box::new(*data));
        self.array.slot_mut(idx).sharers = sharer.map_or(0, |s| 1 << s);
        true
    }
}

cmd_core::snap_struct!(UncachedReq { core, tag, addr });
cmd_core::snap_struct!(UncachedResp { tag, data });

cmd_core::snap_enum!(Requester {
    0 => Child(c),
    1 => Uncached(u),
});

cmd_core::snap_enum!(Phase {
    0 => EvictVictim,
    1 => WaitDram,
    2 => WaitDowngrades,
});

cmd_core::snap_struct!(Trans {
    req,
    line,
    phase,
    slot,
    dram_issued,
    downs_sent,
});

cmd_core::snapshot_fields!(L2 {
    array: module,
    req_in,
    msg_in,
    resp_out: same_len,
    down_out: same_len,
    uncached_in,
    uncached_out: same_len,
    room,
    trans: at_most(cfg.max_trans),
    dram: module,
    stats,
});

#[cfg(test)]
mod mesi_tests {
    use super::*;
    use crate::msg::{ChildReq, ChildToParent, Msi};
    use riscy_isa::mem::{SparseMem, DRAM_BASE};

    fn mesi_l2() -> (L2, SparseMem) {
        let cfg = L2Config {
            size_bytes: 4096,
            ways: 2,
            max_trans: 4,
            dram: crate::dram::DramConfig {
                latency: 5,
                max_outstanding: 8,
                cycles_per_line: 1,
            },
            mesi: true,
        };
        (L2::new(cfg, 2, 2), SparseMem::new())
    }

    fn run(l2: &mut L2, mem: &mut SparseMem, from: u64, cycles: u64) -> u64 {
        for now in from..from + cycles {
            l2.tick(now, mem);
        }
        from + cycles
    }

    #[test]
    fn sole_reader_gets_exclusive() {
        let (mut l2, mut mem) = mesi_l2();
        l2.req_in.push_back(ChildReq::GetS {
            child: 0,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 0, 20);
        let g = l2.resp_out[0].pop_front().expect("grant");
        assert_eq!(g.state, Msi::E, "sole reader gets E under MESI");
    }

    #[test]
    fn second_reader_demotes_exclusive_to_shared() {
        let (mut l2, mut mem) = mesi_l2();
        l2.req_in.push_back(ChildReq::GetS {
            child: 0,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 0, 20);
        l2.resp_out[0].pop_front().expect("E grant");
        l2.req_in.push_back(ChildReq::GetS {
            child: 1,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 20, 5);
        let d = l2.down_out[0].pop_front().expect("E owner demoted");
        assert_eq!(d.to, Msi::S);
        // Clean E copy acks without data.
        l2.msg_in.push_back(ChildToParent::DownAck {
            child: 0,
            line: DRAM_BASE,
            data: None,
            to: Msi::S,
        });
        run(&mut l2, &mut mem, 25, 5);
        let g = l2.resp_out[1].pop_front().expect("S grant");
        assert_eq!(g.state, Msi::S, "second reader shares");
    }

    #[test]
    fn msi_mode_never_grants_exclusive() {
        let cfg = L2Config {
            size_bytes: 4096,
            ways: 2,
            max_trans: 4,
            dram: crate::dram::DramConfig {
                latency: 5,
                max_outstanding: 8,
                cycles_per_line: 1,
            },
            mesi: false,
        };
        let mut l2 = L2::new(cfg, 1, 1);
        let mut mem = SparseMem::new();
        l2.req_in.push_back(ChildReq::GetS {
            child: 0,
            line: DRAM_BASE,
        });
        run(&mut l2, &mut mem, 0, 20);
        let g = l2.resp_out[0].pop_front().expect("grant");
        assert_eq!(g.state, Msi::S, "plain MSI grants S even to a sole reader");
    }
}
