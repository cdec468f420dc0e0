//! Set-associative cache arrays and the non-blocking L1 cache.
//!
//! The L1 follows the paper's interface (§V-B): guarded `req` /
//! `resp_ld` / `resp_st` / `write_data` methods plus a coherence port to the
//! parent L2. It is *non-blocking*: up to `mshrs` line misses may be
//! outstanding while hits continue to be served (the paper's L1s allow 8).

use std::collections::VecDeque;

use riscy_isa::inst::MemWidth;
use riscy_isa::interp::amo_exec;

use crate::msg::{
    line_of, AtomicOp, CacheStats, ChildReq, ChildToParent, CoreReq, CoreResp, DownReq, Line, Msi,
    ParentToChild, LINE_BYTES,
};
use crate::queue::TimedQueue;

/// Geometry of a set-associative array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeom {
    /// Geometry from a total size in bytes and associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a multiple of `ways * 64` and the
    /// resulting set count is a power of two.
    #[must_use]
    pub fn from_size(size_bytes: usize, ways: usize) -> Self {
        let sets = size_bytes / (ways * LINE_BYTES as usize);
        assert!(sets.is_power_of_two() && sets > 0, "bad cache geometry");
        CacheGeom { sets, ways }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.sets * self.ways * LINE_BYTES as usize
    }

    fn set_of(&self, line: u64) -> usize {
        ((line / LINE_BYTES) as usize) & (self.sets - 1)
    }
}

/// One way of one set.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Line address held (valid when `state != I`).
    pub line: u64,
    /// MSI state.
    pub state: Msi,
    /// Data.
    pub data: Box<Line>,
    /// LRU timestamp.
    pub lru: u64,
    /// Locked slots may not be evicted or downgraded (store in progress, or
    /// an L2 transaction pending on it).
    pub locked: bool,
    /// Dirty (used by the L2, whose "M" relative to DRAM is this bit).
    pub dirty: bool,
    /// Directory: sharer bitmask (L2 only).
    pub sharers: u64,
    /// Directory: current M owner (L2 only).
    pub owner: Option<usize>,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            line: 0,
            state: Msi::I,
            data: Box::new([0; 64]),
            lru: 0,
            locked: false,
            dirty: false,
            sharers: 0,
            owner: None,
        }
    }
}

/// A set-associative array of [`Slot`]s with LRU replacement.
#[derive(Debug)]
pub struct CacheArray {
    geom: CacheGeom,
    slots: Vec<Slot>,
    tick: u64,
}

impl CacheArray {
    /// Creates an empty array.
    #[must_use]
    pub fn new(geom: CacheGeom) -> Self {
        CacheArray {
            geom,
            slots: (0..geom.sets * geom.ways).map(|_| Slot::empty()).collect(),
            tick: 0,
        }
    }

    /// The array's geometry.
    #[must_use]
    pub fn geom(&self) -> CacheGeom {
        self.geom
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let s = self.geom.set_of(line);
        s * self.geom.ways..(s + 1) * self.geom.ways
    }

    /// Finds the slot holding `line`, if any.
    #[must_use]
    pub fn lookup(&self, line: u64) -> Option<usize> {
        self.set_range(line)
            .find(|&i| self.slots[i].state != Msi::I && self.slots[i].line == line)
    }

    /// Finds `line` and bumps its LRU.
    pub fn lookup_touch(&mut self, line: u64) -> Option<usize> {
        let idx = self.lookup(line)?;
        self.tick += 1;
        self.slots[idx].lru = self.tick;
        Some(idx)
    }

    /// Chooses a victim slot in `line`'s set: an invalid slot if possible,
    /// otherwise the least-recently-used unlocked one.
    #[must_use]
    pub fn victim(&self, line: u64) -> Option<usize> {
        let range = self.set_range(line);
        let mut best: Option<usize> = None;
        for i in range {
            let s = &self.slots[i];
            if s.locked {
                continue;
            }
            if s.state == Msi::I {
                return Some(i);
            }
            if best.is_none_or(|b| s.lru < self.slots[b].lru) {
                best = Some(i);
            }
        }
        best
    }

    /// Direct slot access.
    #[must_use]
    pub fn slot(&self, idx: usize) -> &Slot {
        &self.slots[idx]
    }

    /// Direct mutable slot access.
    pub fn slot_mut(&mut self, idx: usize) -> &mut Slot {
        &mut self.slots[idx]
    }

    /// Installs `line` in slot `idx` with `state` and `data`, resetting
    /// directory/bookkeeping and touching LRU.
    pub fn install(&mut self, idx: usize, line: u64, state: Msi, data: Box<Line>) {
        self.tick += 1;
        let lru = self.tick;
        let s = &mut self.slots[idx];
        s.line = line;
        s.state = state;
        s.data = data;
        s.lru = lru;
        s.locked = false;
        s.dirty = false;
        s.sharers = 0;
        s.owner = None;
    }

    /// A free (invalid, unlocked) slot in `line`'s set, if any — used by
    /// functional warming, which must never evict.
    #[must_use]
    pub fn free_slot(&self, line: u64) -> Option<usize> {
        self.set_range(line)
            .find(|&i| self.slots[i].state == Msi::I && !self.slots[i].locked)
    }
}

cmd_core::snap_struct!(Slot {
    line,
    state,
    data,
    lru,
    locked,
    dirty,
    sharers,
    owner,
});

cmd_core::snapshot_fields!(CacheArray {
    slots: same_len,
    tick
});

/// Reads `bytes` little-endian at `addr` from a line buffer.
#[must_use]
pub fn read_from_line(data: &Line, addr: u64, bytes: u8) -> u64 {
    let off = (addr % LINE_BYTES) as usize;
    let mut v = 0u64;
    for i in 0..bytes as usize {
        v |= u64::from(data[off + i]) << (8 * i);
    }
    v
}

/// Writes the low `bytes` of `v` little-endian at `addr` into a line buffer.
pub fn write_to_line(data: &mut Line, addr: u64, bytes: u8, v: u64) {
    let off = (addr % LINE_BYTES) as usize;
    for i in 0..bytes as usize {
        data[off + i] = (v >> (8 * i)) as u8;
    }
}

/// Configuration of an L1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Maximum outstanding line misses (paper: 8).
    pub mshrs: usize,
    /// Hit latency in cycles (request to response).
    pub hit_latency: u64,
}

impl Default for L1Config {
    /// The paper's RiscyOO-B L1: 32 KB, 8-way, 8 requests.
    fn default() -> Self {
        L1Config {
            size_bytes: 32 * 1024,
            ways: 8,
            mshrs: 8,
            hit_latency: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mshr {
    line: u64,
    want_m: bool,
}

/// A non-blocking, coherent (MSI child) L1 cache.
///
/// Used both as L1 D (full request set) and L1 I (loads only).
#[derive(Debug)]
pub struct L1Cache {
    /// This cache's child id in the coherence protocol.
    pub child_id: usize,
    cfg: L1Config,
    array: CacheArray,
    /// Waiting room of core requests (capacity = mshrs; replays each tick).
    room: Vec<CoreReq>,
    mshrs: Vec<Mshr>,
    resp_q: TimedQueue<CoreResp>,
    /// Requests to the parent (drained by the crossbar).
    pub to_parent_req: VecDeque<ChildReq>,
    /// Unsolicited messages to the parent (writebacks, acks).
    pub to_parent_msg: VecDeque<ChildToParent>,
    /// Ordered grant/downgrade stream from the parent (filled by the
    /// crossbar). Ordering matters: see [`ParentToChild`].
    pub from_parent: VecDeque<ParentToChild>,
    /// Downgrades deferred because their line was locked.
    deferred_downs: VecDeque<DownReq>,
    /// LR/SC reservation (line address).
    reservation: Option<u64>,
    /// Lines that left the cache (evicted/invalidated) — drained by the TSO
    /// LSQ for `cacheEvict` (paper §V-B).
    pub evict_notes: VecDeque<u64>,
    /// Hit/miss statistics.
    pub stats: CacheStats,
}

impl L1Cache {
    /// Creates an empty L1.
    #[must_use]
    pub fn new(child_id: usize, cfg: L1Config) -> Self {
        L1Cache {
            child_id,
            cfg,
            array: CacheArray::new(CacheGeom::from_size(cfg.size_bytes, cfg.ways)),
            room: Vec::new(),
            mshrs: Vec::new(),
            resp_q: TimedQueue::new(cfg.hit_latency, 64),
            to_parent_req: VecDeque::new(),
            to_parent_msg: VecDeque::new(),
            from_parent: VecDeque::new(),
            deferred_downs: VecDeque::new(),
            reservation: None,
            evict_notes: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Whether a new core request can be accepted (paper: "max 8 requests").
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.free_slots() > 0
    }

    /// How many more core requests the cache accepts before its next tick.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.cfg.mshrs - self.room.len()
    }

    /// Submits a core request.
    ///
    /// # Errors
    ///
    /// Returns the request back when the cache is full.
    pub fn request(&mut self, req: CoreReq) -> Result<(), CoreReq> {
        if !self.can_accept() {
            return Err(req);
        }
        self.room.push(req);
        Ok(())
    }

    /// Pops a response ready at `now`.
    pub fn pop_resp(&mut self, now: u64) -> Option<CoreResp> {
        self.resp_q.pop_ready(now)
    }

    /// Completes a store: writes the store-buffer data into the locked line
    /// (paper's `writeData`).
    ///
    /// # Panics
    ///
    /// Panics if the line is not present, not M, or not locked — the
    /// protocol guarantees it is between `respSt` and `writeData`.
    pub fn write_data(&mut self, line: u64, data: &Line, byte_en: &[bool; 64]) {
        let idx = self.array.lookup(line).expect("locked line present");
        let slot = self.array.slot_mut(idx);
        assert!(
            slot.state == Msi::M && slot.locked,
            "writeData protocol violation"
        );
        for (i, &en) in byte_en.iter().enumerate() {
            if en {
                slot.data[i] = data[i];
            }
        }
        slot.locked = false;
        slot.dirty = true;
    }

    /// Whether any miss is outstanding (used by fences/drains).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.room.is_empty() && self.mshrs.is_empty() && self.resp_q.is_empty()
    }

    /// The earliest cycle, at or after `now`, at which [`L1Cache::tick`]
    /// may change this cache: `now` while parent messages or outgoing
    /// traffic wait, or while a waiting request would be served, touch an
    /// LRU or start or upgrade a miss; `u64::MAX` when every waiting
    /// request sits behind a miss already outstanding (or a full MSHR
    /// file) — ticking is then a no-op until the parent answers.
    #[must_use]
    pub fn next_event(&self, now: u64) -> u64 {
        let busy = !self.from_parent.is_empty()
            || !self.deferred_downs.is_empty()
            || !self.to_parent_req.is_empty()
            || !self.to_parent_msg.is_empty()
            || self.room.iter().any(|&req| !self.waits_on_parent(req));
        if busy {
            now
        } else {
            u64::MAX
        }
    }

    /// Whether serving `req` now would change nothing: its line is absent
    /// (a hit touches the LRU, even a store's hit on a shared line) and
    /// [`L1Cache::start_miss`] would neither allocate nor upgrade an MSHR.
    fn waits_on_parent(&self, req: CoreReq) -> bool {
        let (line, want_m) = match req {
            CoreReq::Ld { addr, .. } => (line_of(addr), false),
            CoreReq::St { line, .. } => (line, true),
            CoreReq::Atomic { addr, op, .. } => {
                let line = line_of(addr);
                if matches!(op, AtomicOp::Sc(_)) && self.reservation != Some(line) {
                    return false; // fails at once
                }
                (line, true)
            }
        };
        self.array.lookup(line).is_none()
            && match self.mshr_for(line) {
                Some(i) => self.mshrs[i].want_m || !want_m,
                None => self.mshrs.len() >= self.cfg.mshrs,
            }
    }

    /// The earliest response arrival strictly after `now`: the next cycle
    /// at which [`L1Cache::pop_resp`] has something new with nothing else
    /// happening.
    #[must_use]
    pub fn next_resp_after(&self, now: u64) -> Option<u64> {
        self.resp_q.next_arrival_after(now)
    }

    fn mshr_for(&self, line: u64) -> Option<usize> {
        self.mshrs.iter().position(|m| m.line == line)
    }

    fn start_miss(&mut self, line: u64, want_m: bool) {
        if let Some(i) = self.mshr_for(line) {
            // Upgrade an outstanding GetS to GetM if a store arrived.
            if want_m && !self.mshrs[i].want_m {
                self.mshrs[i].want_m = true;
                // The S grant will arrive; a second GetM request follows.
                self.to_parent_req.push_back(ChildReq::GetM {
                    child: self.child_id,
                    line,
                });
            }
            return;
        }
        if self.mshrs.len() >= self.cfg.mshrs {
            return; // retry next cycle
        }
        self.mshrs.push(Mshr { line, want_m });
        self.to_parent_req.push_back(if want_m {
            ChildReq::GetM {
                child: self.child_id,
                line,
            }
        } else {
            ChildReq::GetS {
                child: self.child_id,
                line,
            }
        });
        self.stats.misses += 1;
    }

    /// One simulation cycle.
    pub fn tick(&mut self, now: u64) {
        self.apply_parent_msgs();
        self.process_room(now);
    }

    fn apply_parent_msgs(&mut self) {
        // Downgrades deferred while a line was locked come first (they are
        // always older than anything still in the channel, and the parent
        // will not send another message for the same line until the ack).
        for _ in 0..self.deferred_downs.len() {
            let d = self.deferred_downs.pop_front().expect("counted");
            self.apply_downgrade(d);
        }
        while let Some(msg) = self.from_parent.pop_front() {
            match msg {
                ParentToChild::Down(d) => self.apply_downgrade(d),
                ParentToChild::Grant(g) => {
                    // An existing S copy upgrading to M keeps its slot.
                    if let Some(idx) = self.array.lookup(g.line) {
                        let slot = self.array.slot_mut(idx);
                        slot.state = slot.state.max(g.state);
                        // M grants carry authoritative data.
                        if g.state == Msi::M {
                            slot.data = g.data;
                        }
                    } else {
                        let Some(vic) = self.array.victim(g.line) else {
                            // All ways locked (rare): retry next cycle.
                            self.from_parent.push_front(ParentToChild::Grant(g));
                            return;
                        };
                        self.evict_slot(vic);
                        self.array.install(vic, g.line, g.state, g.data);
                    }
                    // Retire the MSHR unless it was upgraded and still
                    // awaits M.
                    if let Some(i) = self.mshr_for(g.line) {
                        let done = !self.mshrs[i].want_m || g.state == Msi::M;
                        if done {
                            self.mshrs.swap_remove(i);
                        }
                    }
                }
            }
        }
    }

    fn apply_downgrade(&mut self, d: DownReq) {
        match self.array.lookup(d.line) {
            Some(idx) => {
                let slot = self.array.slot_mut(idx);
                if slot.locked {
                    // A store is mid-flight on this line; answer next cycle.
                    self.deferred_downs.push_back(d);
                    return;
                }
                if slot.state > d.to {
                    let data = if slot.state == Msi::M {
                        Some(slot.data.clone())
                    } else {
                        None // S and E copies are clean
                    };
                    slot.state = d.to;
                    slot.dirty = false;
                    self.stats.downgrades += 1;
                    if d.to == Msi::I {
                        self.evict_notes.push_back(d.line);
                    }
                    if self.reservation == Some(d.line) && d.to == Msi::I {
                        self.reservation = None;
                    }
                    self.to_parent_msg.push_back(ChildToParent::DownAck {
                        child: self.child_id,
                        line: d.line,
                        data,
                        to: d.to,
                    });
                } else {
                    self.to_parent_msg.push_back(ChildToParent::DownAck {
                        child: self.child_id,
                        line: d.line,
                        data: None,
                        to: slot.state,
                    });
                }
            }
            None => {
                // Silently evicted earlier: ack with nothing.
                self.to_parent_msg.push_back(ChildToParent::DownAck {
                    child: self.child_id,
                    line: d.line,
                    data: None,
                    to: Msi::I,
                });
            }
        }
    }

    fn evict_slot(&mut self, idx: usize) {
        let slot = self.array.slot_mut(idx);
        if slot.state == Msi::I {
            return;
        }
        let line = slot.line;
        if slot.state == Msi::M {
            let data = slot.data.clone();
            self.to_parent_msg.push_back(ChildToParent::PutM {
                child: self.child_id,
                line,
                data,
            });
            self.stats.writebacks += 1;
        }
        // S lines are dropped silently (the directory stays conservative).
        let slot = self.array.slot_mut(idx);
        slot.state = Msi::I;
        self.evict_notes.push_back(line);
        if self.reservation == Some(line) {
            self.reservation = None;
        }
    }

    fn process_room(&mut self, now: u64) {
        let mut i = 0;
        while i < self.room.len() {
            if !self.resp_q.can_push() {
                break;
            }
            let req = self.room[i];
            if self.try_serve(now, req) {
                self.room.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Attempts to serve one request; returns `true` when completed.
    fn try_serve(&mut self, now: u64, req: CoreReq) -> bool {
        match req {
            CoreReq::Ld { tag, addr, bytes } => {
                let line = line_of(addr);
                match self.array.lookup_touch(line) {
                    Some(idx) => {
                        let slot = self.array.slot(idx);
                        let data = read_from_line(&slot.data, addr, bytes);
                        self.stats.hits += 1;
                        let _ = self.resp_q.push(now, CoreResp::Ld { tag, data });
                        true
                    }
                    None => {
                        self.start_miss(line, false);
                        false
                    }
                }
            }
            CoreReq::St { sb_idx, line } => {
                match self.array.lookup_touch(line) {
                    Some(idx) if self.array.slot(idx).state >= Msi::E => {
                        let slot = self.array.slot_mut(idx);
                        if slot.locked {
                            return false; // one store at a time per line
                        }
                        // MESI: an E copy upgrades to M silently.
                        slot.state = Msi::M;
                        slot.locked = true;
                        self.stats.hits += 1;
                        let _ = self.resp_q.push(now, CoreResp::St { sb_idx });
                        true
                    }
                    _ => {
                        self.start_miss(line, true);
                        false
                    }
                }
            }
            CoreReq::Atomic {
                tag,
                addr,
                bytes,
                op,
            } => {
                let line = line_of(addr);
                // SC with a dead reservation fails without touching memory.
                if let AtomicOp::Sc(_) = op {
                    if self.reservation != Some(line) {
                        self.stats.hits += 1;
                        let _ = self.resp_q.push(now, CoreResp::Atomic { tag, data: 1 });
                        return true;
                    }
                }
                match self.array.lookup_touch(line) {
                    Some(idx) if self.array.slot(idx).state >= Msi::E => {
                        let slot = self.array.slot_mut(idx);
                        if slot.locked {
                            return false;
                        }
                        slot.state = Msi::M; // silent E→M upgrade
                        let old = read_from_line(&slot.data, addr, bytes);
                        let old_ext = if bytes == 4 {
                            old as u32 as i32 as i64 as u64
                        } else {
                            old
                        };
                        let result = match op {
                            AtomicOp::Lr => {
                                self.reservation = Some(line);
                                old_ext
                            }
                            AtomicOp::Sc(v) => {
                                write_to_line(&mut slot.data, addr, bytes, v);
                                slot.dirty = true;
                                self.reservation = None;
                                0
                            }
                            AtomicOp::Amo(aop, v) => {
                                let w = if bytes == 4 { MemWidth::W } else { MemWidth::D };
                                let newv = amo_exec(aop, w, old_ext, v);
                                write_to_line(&mut slot.data, addr, bytes, newv);
                                slot.dirty = true;
                                old_ext
                            }
                        };
                        self.stats.hits += 1;
                        let _ = self
                            .resp_q
                            .push(now, CoreResp::Atomic { tag, data: result });
                        true
                    }
                    _ => {
                        self.start_miss(line, true);
                        false
                    }
                }
            }
        }
    }

    /// Test/debug peek at a line's state.
    #[must_use]
    pub fn line_state(&self, line: u64) -> Msi {
        self.array
            .lookup(line)
            .map_or(Msi::I, |i| self.array.slot(i).state)
    }

    /// Non-intrusive peek at a resident line's state and data (no LRU
    /// touch, no statistics). `None` when the line is not present. Used by
    /// [`MemSystem::peek_coherent`](crate::system::MemSystem::peek_coherent)
    /// to read final memory values through dirty M-state lines after a run.
    #[must_use]
    pub fn peek_line(&self, line: u64) -> Option<(Msi, &Line)> {
        let i = self.array.lookup(line)?;
        let s = self.array.slot(i);
        Some((s.state, &*s.data))
    }
}

impl L1Cache {
    /// Whether a functional-warming install of `line` can succeed: the line
    /// is already resident or its set has a free way.
    #[must_use]
    pub fn warm_room(&self, line: u64) -> bool {
        self.array.lookup(line).is_some() || self.array.free_slot(line).is_some()
    }

    /// Functional-warming install (fast-forward): places `line` in S state
    /// into a free way, if one exists. Never evicts and emits no coherence
    /// traffic — the warmup driver mirrors the sharer bit in the parent
    /// directory to keep inclusion intact. Returns whether the line is
    /// resident afterwards.
    pub fn warm_insert(&mut self, line: u64, data: &Line) -> bool {
        if self.array.lookup(line).is_some() {
            return true;
        }
        let Some(idx) = self.array.free_slot(line) else {
            return false;
        };
        self.array.install(idx, line, Msi::S, Box::new(*data));
        true
    }
}

cmd_core::snap_struct!(Mshr { line, want_m });

cmd_core::snapshot_fields!(L1Cache {
    array: module,
    room: at_most(cfg.mshrs),
    mshrs: at_most(cfg.mshrs),
    resp_q: module,
    to_parent_req,
    to_parent_msg,
    from_parent,
    deferred_downs,
    reservation,
    evict_notes,
    stats,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_from_size() {
        let g = CacheGeom::from_size(32 * 1024, 8);
        assert_eq!(g.sets, 64);
        assert_eq!(g.size_bytes(), 32 * 1024);
    }

    #[test]
    fn array_lookup_and_install() {
        let mut a = CacheArray::new(CacheGeom { sets: 2, ways: 2 });
        assert!(a.lookup(0x1000).is_none());
        let v = a.victim(0x1000).unwrap();
        a.install(v, 0x1000, Msi::S, Box::new([1; 64]));
        assert!(a.lookup(0x1000).is_some());
        // Same set, different line.
        let v2 = a.victim(0x1100).unwrap();
        assert_ne!(v, v2);
    }

    #[test]
    fn lru_victimizes_oldest() {
        let mut a = CacheArray::new(CacheGeom { sets: 1, ways: 2 });
        let v0 = a.victim(0).unwrap();
        a.install(v0, 0, Msi::S, Box::new([0; 64]));
        let v1 = a.victim(64).unwrap();
        a.install(v1, 64, Msi::S, Box::new([0; 64]));
        a.lookup_touch(0); // line 0 is now MRU
        let vic = a.victim(128).unwrap();
        assert_eq!(a.slot(vic).line, 64, "LRU line must be chosen");
    }

    #[test]
    fn locked_slots_never_victims() {
        let mut a = CacheArray::new(CacheGeom { sets: 1, ways: 1 });
        let v = a.victim(0).unwrap();
        a.install(v, 0, Msi::M, Box::new([0; 64]));
        a.slot_mut(v).locked = true;
        assert!(a.victim(64).is_none());
    }

    #[test]
    fn line_read_write_helpers() {
        let mut line = [0u8; 64];
        write_to_line(&mut line, 0x1008, 8, 0x1122_3344_5566_7788);
        assert_eq!(read_from_line(&line, 0x1008, 8), 0x1122_3344_5566_7788);
        assert_eq!(read_from_line(&line, 0x1008, 2), 0x7788);
        write_to_line(&mut line, 0x100c, 1, 0xff);
        assert_eq!(read_from_line(&line, 0x1008, 8), 0x1122_33ff_5566_7788);
    }

    /// Serves grants by hand to unit-test the L1 in isolation.
    fn grant(l1: &mut L1Cache, line: u64, state: Msi, fill: u8) {
        l1.from_parent
            .push_back(ParentToChild::Grant(crate::msg::ParentResp {
                line,
                state,
                data: Box::new([fill; 64]),
            }));
    }

    #[test]
    fn load_miss_then_hit() {
        let mut l1 = L1Cache::new(
            0,
            L1Config {
                size_bytes: 4096,
                ways: 2,
                mshrs: 4,
                hit_latency: 1,
            },
        );
        l1.request(CoreReq::Ld {
            tag: 7,
            addr: 0x1000,
            bytes: 8,
        })
        .unwrap();
        l1.tick(0);
        assert_eq!(l1.stats.misses, 1);
        assert!(matches!(
            l1.to_parent_req.pop_front(),
            Some(ChildReq::GetS { line: 0x1000, .. })
        ));
        grant(&mut l1, 0x1000, Msi::S, 0xab);
        l1.tick(1);
        let r = l1.pop_resp(2).expect("load response");
        assert_eq!(
            r,
            CoreResp::Ld {
                tag: 7,
                data: 0xabab_abab_abab_abab
            }
        );
        // Second load hits.
        l1.request(CoreReq::Ld {
            tag: 8,
            addr: 0x1008,
            bytes: 4,
        })
        .unwrap();
        l1.tick(2);
        assert_eq!(l1.stats.hits, 2);
    }

    #[test]
    fn store_needs_m_then_locks_until_write_data() {
        let mut l1 = L1Cache::new(
            0,
            L1Config {
                size_bytes: 4096,
                ways: 2,
                mshrs: 4,
                hit_latency: 1,
            },
        );
        l1.request(CoreReq::St {
            sb_idx: 3,
            line: 0x2000,
        })
        .unwrap();
        l1.tick(0);
        assert!(matches!(
            l1.to_parent_req.pop_front(),
            Some(ChildReq::GetM { line: 0x2000, .. })
        ));
        grant(&mut l1, 0x2000, Msi::M, 0);
        l1.tick(1);
        assert_eq!(l1.pop_resp(2), Some(CoreResp::St { sb_idx: 3 }));
        // Downgrade while locked must be deferred.
        l1.from_parent.push_back(ParentToChild::Down(DownReq {
            line: 0x2000,
            to: Msi::I,
        }));
        l1.tick(2);
        assert!(
            l1.to_parent_msg.is_empty(),
            "downgrade deferred while locked"
        );
        let mut data = [0u8; 64];
        data[0] = 0x5a;
        let mut en = [false; 64];
        en[0] = true;
        l1.write_data(0x2000, &data, &en);
        l1.tick(3);
        match l1.to_parent_msg.pop_front() {
            Some(ChildToParent::DownAck {
                data: Some(d), to, ..
            }) => {
                assert_eq!(d[0], 0x5a);
                assert_eq!(to, Msi::I);
            }
            other => panic!("expected ack with data, got {other:?}"),
        }
        assert_eq!(l1.line_state(0x2000), Msi::I);
    }

    #[test]
    fn sc_without_reservation_fails_fast() {
        let mut l1 = L1Cache::new(0, L1Config::default());
        l1.request(CoreReq::Atomic {
            tag: 1,
            addr: 0x3000,
            bytes: 8,
            op: AtomicOp::Sc(9),
        })
        .unwrap();
        l1.tick(0);
        assert_eq!(l1.pop_resp(10), Some(CoreResp::Atomic { tag: 1, data: 1 }));
    }

    #[test]
    fn lr_then_sc_succeeds_and_amo_applies() {
        let mut l1 = L1Cache::new(
            0,
            L1Config {
                hit_latency: 0,
                ..L1Config::default()
            },
        );
        l1.request(CoreReq::Atomic {
            tag: 1,
            addr: 0x3000,
            bytes: 8,
            op: AtomicOp::Lr,
        })
        .unwrap();
        l1.tick(0);
        grant(&mut l1, 0x3000, Msi::M, 0);
        l1.tick(1);
        assert_eq!(l1.pop_resp(1), Some(CoreResp::Atomic { tag: 1, data: 0 }));
        l1.request(CoreReq::Atomic {
            tag: 2,
            addr: 0x3000,
            bytes: 8,
            op: AtomicOp::Sc(42),
        })
        .unwrap();
        l1.tick(2);
        assert_eq!(l1.pop_resp(2), Some(CoreResp::Atomic { tag: 2, data: 0 }));
        l1.request(CoreReq::Atomic {
            tag: 3,
            addr: 0x3000,
            bytes: 8,
            op: AtomicOp::Amo(riscy_isa::inst::AmoOp::Add, 8),
        })
        .unwrap();
        l1.tick(3);
        assert_eq!(
            l1.pop_resp(3),
            Some(CoreResp::Atomic { tag: 3, data: 42 }),
            "AMO returns the old value"
        );
        l1.request(CoreReq::Ld {
            tag: 4,
            addr: 0x3000,
            bytes: 8,
        })
        .unwrap();
        l1.tick(4);
        assert_eq!(l1.pop_resp(4), Some(CoreResp::Ld { tag: 4, data: 50 }));
    }

    #[test]
    fn eviction_writes_back_dirty_line() {
        // 1-set, 1-way cache: the second line evicts the first.
        let mut l1 = L1Cache::new(
            0,
            L1Config {
                size_bytes: 64,
                ways: 1,
                mshrs: 2,
                hit_latency: 0,
            },
        );
        l1.request(CoreReq::St {
            sb_idx: 0,
            line: 0x1000,
        })
        .unwrap();
        l1.tick(0);
        grant(&mut l1, 0x1000, Msi::M, 0);
        l1.tick(1);
        assert_eq!(l1.pop_resp(1), Some(CoreResp::St { sb_idx: 0 }));
        let mut data = [7u8; 64];
        data[0] = 7;
        l1.write_data(0x1000, &data, &[true; 64]);
        // Now load a conflicting line.
        l1.request(CoreReq::Ld {
            tag: 1,
            addr: 0x2000,
            bytes: 8,
        })
        .unwrap();
        l1.tick(2);
        grant(&mut l1, 0x2000, Msi::S, 1);
        l1.tick(3);
        assert!(matches!(
            l1.to_parent_msg.pop_front(),
            Some(ChildToParent::PutM { line: 0x1000, .. })
        ));
        assert!(l1.evict_notes.contains(&0x1000), "TSO eviction note");
        assert_eq!(l1.stats.writebacks, 1);
    }
}
