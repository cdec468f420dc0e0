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
    /// Data: `None` until a fill installs a line (see [`Slot::data`]).
    data: Option<Box<Line>>,
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

/// What a slot's data reads as before a fill installs a line.
static ZERO_LINE: Line = [0; LINE_BYTES as usize];

/// The empty slot: every way of a set nothing has installed into or
/// written to reads as this one shared slot.
static EMPTY: Slot = Slot {
    line: 0,
    state: Msi::I,
    data: None,
    lru: 0,
    locked: false,
    dirty: false,
    sharers: 0,
    owner: None,
};

impl Slot {
    /// The slot's data: zeros until a fill installs a line.
    #[must_use]
    pub fn data(&self) -> &Line {
        self.data.as_deref().unwrap_or(&ZERO_LINE)
    }

    /// The slot's data, to write in place (a slot no fill has reached gets
    /// its zero line here).
    pub fn data_mut(&mut self) -> &mut Line {
        self.data.get_or_insert_with(|| Box::new(ZERO_LINE))
    }

    /// Replaces the data with `data`, moving the box in.
    pub fn set_data(&mut self, data: Box<Line>) {
        self.data = Some(data);
    }
}

/// A set of `ways` empty slots.
fn empty_set(ways: usize) -> Box<[Slot]> {
    vec![EMPTY.clone(); ways].into_boxed_slice()
}

/// Slots are equal when every field reads the same: data no fill has
/// installed equals a line of zeros.
impl PartialEq for Slot {
    fn eq(&self, o: &Slot) -> bool {
        self.line == o.line
            && self.state == o.state
            && self.data() == o.data()
            && self.lru == o.lru
            && self.locked == o.locked
            && self.dirty == o.dirty
            && self.sharers == o.sharers
            && self.owner == o.owner
    }
}

impl Eq for Slot {}

/// A set-associative array of [`Slot`]s with LRU replacement.
///
/// It holds what was put in it: a set's ways are allocated by the first
/// install or write into the set, and a slot's data by the fill that
/// installs it (the fill's box moves in). A lookup in a set that does not
/// exist yet misses, and reading one of its slots gives the shared empty
/// slot. Slot indices are `set * ways + way` whether or not the set exists.
#[derive(Debug)]
pub struct CacheArray {
    geom: CacheGeom,
    /// `log2(ways)` when the associativity is a power of two: a slot index
    /// then splits by shift and mask instead of a division.
    way_shift: Option<u32>,
    /// Each set's ways, once something has been installed into or written
    /// to the set.
    sets: Vec<Option<Box<[Slot]>>>,
    tick: u64,
}

impl CacheArray {
    /// Creates an empty array: no set is allocated until it is used.
    #[must_use]
    pub fn new(geom: CacheGeom) -> Self {
        CacheArray {
            geom,
            way_shift: geom
                .ways
                .is_power_of_two()
                .then(|| geom.ways.trailing_zeros()),
            sets: Self::no_sets(geom),
            tick: 0,
        }
    }

    fn no_sets(geom: CacheGeom) -> Vec<Option<Box<[Slot]>>> {
        (0..geom.sets).map(|_| None).collect()
    }

    /// The array's geometry.
    #[must_use]
    pub fn geom(&self) -> CacheGeom {
        self.geom
    }

    /// How many sets hold allocated ways: 0 until something is installed.
    #[must_use]
    pub fn resident_sets(&self) -> usize {
        self.sets.iter().filter(|s| s.is_some()).count()
    }

    /// Splits a slot index into (set, way).
    fn split(&self, idx: usize) -> (usize, usize) {
        match self.way_shift {
            Some(sh) => (idx >> sh, idx & (self.geom.ways - 1)),
            None => (idx / self.geom.ways, idx % self.geom.ways),
        }
    }

    /// Set `s`'s ways, allocated empty on first use.
    fn set_mut(&mut self, s: usize) -> &mut [Slot] {
        let ways = self.geom.ways;
        self.sets[s].get_or_insert_with(|| empty_set(ways))
    }

    /// Finds the slot holding `line`, if any.
    #[must_use]
    pub fn lookup(&self, line: u64) -> Option<usize> {
        let s = self.geom.set_of(line);
        let set = self.sets[s].as_deref()?;
        let w = set
            .iter()
            .position(|x| x.state != Msi::I && x.line == line)?;
        Some(s * self.geom.ways + w)
    }

    /// Finds `line` and bumps its LRU: the slot's index and the slot.
    pub fn lookup_touch(&mut self, line: u64) -> Option<(usize, &mut Slot)> {
        let s = self.geom.set_of(line);
        let set = self.sets[s].as_deref_mut()?;
        let w = set
            .iter()
            .position(|x| x.state != Msi::I && x.line == line)?;
        self.tick += 1;
        let slot = &mut set[w];
        slot.lru = self.tick;
        Some((s * self.geom.ways + w, slot))
    }

    /// Chooses a victim slot in `line`'s set: an invalid slot if possible,
    /// otherwise the least-recently-used unlocked one.
    #[must_use]
    pub fn victim(&self, line: u64) -> Option<usize> {
        let s = self.geom.set_of(line);
        let base = s * self.geom.ways;
        let Some(set) = self.sets[s].as_deref() else {
            return Some(base); // every way is empty
        };
        let mut best: Option<usize> = None;
        for (w, slot) in set.iter().enumerate() {
            if slot.locked {
                continue;
            }
            if slot.state == Msi::I {
                return Some(base + w);
            }
            if best.is_none_or(|b| slot.lru < set[b].lru) {
                best = Some(w);
            }
        }
        best.map(|w| base + w)
    }

    /// Direct slot access (the shared empty slot in a set not yet used).
    #[must_use]
    pub fn slot(&self, idx: usize) -> &Slot {
        let (s, w) = self.split(idx);
        self.sets[s].as_deref().map_or(&EMPTY, |set| &set[w])
    }

    /// Direct mutable slot access (allocates the slot's set on first use).
    pub fn slot_mut(&mut self, idx: usize) -> &mut Slot {
        let (s, w) = self.split(idx);
        &mut self.set_mut(s)[w]
    }

    /// Installs `line` in slot `idx` with `state` and `data`, resetting
    /// directory/bookkeeping and touching LRU.
    pub fn install(&mut self, idx: usize, line: u64, state: Msi, data: Box<Line>) {
        self.tick += 1;
        *self.slot_mut(idx) = Slot {
            line,
            state,
            data: Some(data),
            lru: self.tick,
            locked: false,
            dirty: false,
            sharers: 0,
            owner: None,
        };
    }

    /// A free (invalid, unlocked) slot in `line`'s set, if any — used by
    /// functional warming, which must never evict.
    #[must_use]
    pub fn free_slot(&self, line: u64) -> Option<usize> {
        let s = self.geom.set_of(line);
        let base = s * self.geom.ways;
        let Some(set) = self.sets[s].as_deref() else {
            return Some(base);
        };
        let w = set.iter().position(|x| x.state == Msi::I && !x.locked)?;
        Some(base + w)
    }

    /// The slots that differ from the empty slot, by ascending index.
    fn held(&self) -> impl Iterator<Item = (usize, &Slot)> {
        let ways = self.geom.ways;
        self.sets
            .iter()
            .enumerate()
            .filter_map(|(s, set)| Some((s, set.as_deref()?)))
            .flat_map(move |(s, set)| set.iter().enumerate().map(move |(w, x)| (s * ways + w, x)))
            .filter(|(_, x)| **x != EMPTY)
    }
}

impl cmd_core::snap::Snap for Slot {
    /// The fields in declaration order; the data as its 64 bytes (zeros
    /// before a fill).
    fn save(&self, w: &mut cmd_core::snap::SnapWriter) {
        w.put(&self.line);
        w.put(&self.state);
        w.bytes(self.data());
        w.put(&self.lru);
        w.put(&self.locked);
        w.put(&self.dirty);
        w.put(&self.sharers);
        w.put(&self.owner);
    }

    fn load(r: &mut cmd_core::snap::SnapReader<'_>) -> Result<Self, cmd_core::snap::SnapError> {
        Ok(Slot {
            line: r.take()?,
            state: r.take()?,
            data: Some(Box::new(
                r.bytes(LINE_BYTES as usize)?
                    .try_into()
                    .expect("a line's bytes"),
            )),
            lru: r.take()?,
            locked: r.take()?,
            dirty: r.take()?,
            sharers: r.take()?,
            owner: r.take()?,
        })
    }
}

impl cmd_core::snap::Snapshot for CacheArray {
    /// The slot count (`sets * ways`, the design's geometry); then the
    /// slots that differ from the empty slot in any field — an L2 victim
    /// slot can be invalid but locked while its transaction waits — as
    /// records `(index, slot)` by ascending index, after their count; then
    /// the LRU clock.
    fn snap_save(&self, w: &mut cmd_core::snap::SnapWriter) {
        w.put(&(self.geom.sets * self.geom.ways));
        w.len_prefix(self.held().count());
        for (i, slot) in self.held() {
            w.put(&i);
            w.put(slot);
        }
        w.put(&self.tick);
    }

    /// Clears every slot the records do not name. Refuses a slot count
    /// other than the design's ([`SnapError::Mismatch`]), and as corrupt an
    /// index outside the array, indices that do not strictly increase and
    /// a record of the empty slot (`snap_save` writes none of these).
    ///
    /// [`SnapError::Mismatch`]: cmd_core::snap::SnapError::Mismatch
    fn snap_restore(
        &mut self,
        r: &mut cmd_core::snap::SnapReader<'_>,
    ) -> Result<(), cmd_core::snap::SnapError> {
        use cmd_core::snap::SnapError;
        let from = r.position();
        let total = self.geom.sets * self.geom.ways;
        cmd_core::snap::same_len(r.take()?, total, "CacheArray.slots")?;
        let mut sets = Self::no_sets(self.geom);
        let mut prev = None;
        for _ in 0..r.len_prefix()? {
            let i: usize = r.take()?;
            if i >= total {
                return Err(SnapError::Corrupt(format!(
                    "cache slot index {i} outside the array's {total}"
                )));
            }
            if prev.is_some_and(|p| i <= p) {
                return Err(SnapError::Corrupt(
                    "cache slot indices not strictly increasing".into(),
                ));
            }
            prev = Some(i);
            let slot: Slot = r.take()?;
            if slot == EMPTY {
                return Err(SnapError::Corrupt(format!(
                    "cache slot record {i} is the empty slot"
                )));
            }
            let (s, w) = self.split(i);
            sets[s].get_or_insert_with(|| empty_set(self.geom.ways))[w] = slot;
        }
        self.tick = r.take()?;
        self.sets = sets;
        cmd_core::snap::debug_assert_resaves(self, r, from);
        Ok(())
    }
}

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
        let held = slot.data_mut();
        for (i, &en) in byte_en.iter().enumerate() {
            if en {
                held[i] = data[i];
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
                            slot.set_data(g.data);
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
                        Some(Box::new(*slot.data()))
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
            let data = Box::new(*slot.data());
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
                    Some((_, slot)) => {
                        let data = read_from_line(slot.data(), addr, bytes);
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
                    Some((_, slot)) if slot.state >= Msi::E => {
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
                    Some((_, slot)) if slot.state >= Msi::E => {
                        if slot.locked {
                            return false;
                        }
                        slot.state = Msi::M; // silent E→M upgrade
                        let old = read_from_line(slot.data(), addr, bytes);
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
                                write_to_line(slot.data_mut(), addr, bytes, v);
                                slot.dirty = true;
                                self.reservation = None;
                                0
                            }
                            AtomicOp::Amo(aop, v) => {
                                let w = if bytes == 4 { MemWidth::W } else { MemWidth::D };
                                let newv = amo_exec(aop, w, old_ext, v);
                                write_to_line(slot.data_mut(), addr, bytes, newv);
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

    /// How many of the array's sets hold allocated ways (see
    /// [`CacheArray::resident_sets`]).
    #[must_use]
    pub fn resident_sets(&self) -> usize {
        self.array.resident_sets()
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
        Some((s.state, s.data()))
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
    use cmd_core::rng::SplitMix64;
    use cmd_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

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

    /// The reference for [`CacheArray`]: every slot allocated up front, with
    /// the array's replacement rules written over one flat table.
    struct Dense {
        geom: CacheGeom,
        slots: Vec<Slot>,
        tick: u64,
    }

    impl Dense {
        fn new(geom: CacheGeom) -> Self {
            let full = Slot {
                data: Some(Box::new(ZERO_LINE)),
                ..EMPTY.clone()
            };
            Dense {
                geom,
                slots: vec![full; geom.sets * geom.ways],
                tick: 0,
            }
        }

        fn set(&self, line: u64) -> std::ops::Range<usize> {
            let s = self.geom.set_of(line);
            s * self.geom.ways..(s + 1) * self.geom.ways
        }

        fn lookup(&self, line: u64) -> Option<usize> {
            self.set(line)
                .find(|&i| self.slots[i].state != Msi::I && self.slots[i].line == line)
        }

        fn lookup_touch(&mut self, line: u64) -> Option<usize> {
            let i = self.lookup(line)?;
            self.tick += 1;
            self.slots[i].lru = self.tick;
            Some(i)
        }

        fn victim(&self, line: u64) -> Option<usize> {
            let mut best: Option<usize> = None;
            for i in self.set(line) {
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

        fn free_slot(&self, line: u64) -> Option<usize> {
            self.set(line)
                .find(|&i| self.slots[i].state == Msi::I && !self.slots[i].locked)
        }

        fn install(&mut self, i: usize, line: u64, state: Msi, data: Box<Line>) {
            self.tick += 1;
            self.slots[i] = Slot {
                line,
                state,
                data: Some(data),
                lru: self.tick,
                ..EMPTY.clone()
            };
        }
    }

    fn save(a: &CacheArray) -> Vec<u8> {
        let mut w = SnapWriter::new();
        a.snap_save(&mut w);
        w.into_bytes()
    }

    fn restore(a: &mut CacheArray, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        a.snap_restore(&mut r)?;
        r.expect_end()
    }

    /// Every slot of `a` reads as the model's.
    fn same_as(a: &CacheArray, m: &Dense, what: &str) {
        for (i, want) in m.slots.iter().enumerate() {
            assert!(
                a.slot(i) == want,
                "{what}: slot {i}: {:?} vs {want:?}",
                a.slot(i)
            );
        }
    }

    /// Random installs, lookups, victim and free-slot choices and slot
    /// writes (lock, dirty, data, directory, eviction) on the sparse array
    /// and on the dense model agree, for a power-of-two associativity, for
    /// one that is not, and for the 16-way L2's geometry. Snapshots
    /// round-trip byte for byte, and a restore into a used array clears
    /// every slot its snapshot does not name.
    #[test]
    fn cache_array_matches_a_dense_model() {
        let l2 = CacheGeom::from_size(1024 * 1024, 16);
        for (seed, geom) in [
            (1, CacheGeom { sets: 8, ways: 4 }),
            (2, CacheGeom { sets: 8, ways: 3 }),
            (3, l2),
        ] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut a = CacheArray::new(geom);
            let mut m = Dense::new(geom);
            // A handful of sets, each with more candidate lines than ways,
            // so sets fill, evict and stay untouched.
            let hot: Vec<usize> = (0..4).map(|_| rng.range_usize(0, geom.sets)).collect();
            let line = |rng: &mut SplitMix64| {
                let set = *rng.pick(&hot) as u64;
                let tag = rng.range_u64(0, geom.ways as u64 + 3);
                (tag * geom.sets as u64 + set) * LINE_BYTES
            };
            // An array used on other lines, restored into below.
            let mut used = CacheArray::new(geom);
            for _ in 0..200 {
                let l = (rng.range_u64(0, 4 * geom.sets as u64)) * LINE_BYTES;
                if let Some(v) = used.victim(l) {
                    used.install(v, l, Msi::M, Box::new([7; 64]));
                }
                let i = rng.range_usize(0, geom.sets * geom.ways);
                used.slot_mut(i).locked = true;
            }
            for step in 0..4000 {
                let l = line(&mut rng);
                match rng.below(7) {
                    0 => assert_eq!(a.lookup(l), m.lookup(l), "lookup {l:#x}"),
                    1 => assert_eq!(
                        a.lookup_touch(l).map(|(i, _)| i),
                        m.lookup_touch(l),
                        "touch {l:#x}"
                    ),
                    2 | 3 => {
                        let (got, want) = if rng.chance(0.5) {
                            (a.victim(l), m.victim(l))
                        } else {
                            (a.free_slot(l), m.free_slot(l))
                        };
                        assert_eq!(got, want, "victim or free slot {l:#x}");
                        if let Some(v) = got.filter(|_| a.lookup(l).is_none()) {
                            let state = *rng.pick(&[Msi::S, Msi::E, Msi::M]);
                            let data = Box::new([rng.below(256) as u8; 64]);
                            m.install(v, l, state, data.clone());
                            a.install(v, l, state, data);
                        }
                    }
                    _ => {
                        let set = *rng.pick(&hot);
                        let i = set * geom.ways + rng.range_usize(0, geom.ways);
                        let v = rng.next_u64();
                        let (s, t) = (a.slot_mut(i), &mut m.slots[i]);
                        match rng.below(6) {
                            0 => (s.locked, t.locked) = (v & 1 == 1, v & 1 == 1),
                            1 => (s.dirty, t.dirty) = (v & 1 == 1, v & 1 == 1),
                            2 => {
                                let at = (v % 64) as usize;
                                s.data_mut()[at] = (v >> 8) as u8;
                                t.data_mut()[at] = (v >> 8) as u8;
                            }
                            3 => (s.sharers, t.sharers) = (v & 0xf, v & 0xf),
                            4 => {
                                let o = (v & 1 == 1).then_some((v >> 1) as usize % 4);
                                (s.owner, t.owner) = (o, o);
                            }
                            _ => (s.state, t.state) = (Msi::I, Msi::I),
                        }
                    }
                }
                let s = geom.set_of(l);
                for i in s * geom.ways..(s + 1) * geom.ways {
                    assert!(a.slot(i) == &m.slots[i], "step {step}: slot {i}");
                }
                if step % 500 == 499 {
                    same_as(&a, &m, &format!("step {step}"));
                    let bytes = save(&a);
                    let mut fresh = CacheArray::new(geom);
                    restore(&mut fresh, &bytes).expect("a saved array restores");
                    same_as(&fresh, &m, "restored into a fresh array");
                    assert_eq!(save(&fresh), bytes, "save → restore → save");
                    restore(&mut used, &bytes).expect("a saved array restores");
                    same_as(&used, &m, "restored into a used array");
                    assert_eq!(save(&used), bytes, "restored over a used array");
                    assert!(used.resident_sets() <= hot.len());
                }
            }
        }
    }

    /// A fresh array saves no slot; a snapshot naming a slot outside the
    /// array, slots out of order, the empty slot or cut inside a record is
    /// refused, and one of another geometry is a mismatch.
    #[test]
    fn cache_array_snapshots_refuse_what_save_never_writes() {
        let geom = CacheGeom { sets: 4, ways: 2 };
        let fresh = CacheArray::new(geom);
        let empty = save(&fresh);
        assert_eq!(empty.len(), 24, "slot count, record count, LRU clock");
        let mut a = CacheArray::new(geom);
        a.install(1, 0, Msi::S, Box::new([1; 64]));
        a.install(6, 3 * 64, Msi::S, Box::new([2; 64]));
        let bytes = save(&a);
        let rec = (bytes.len() - 24) / 2;
        let index_at = |k: usize| 16 + k * rec;
        let with_index = |k: usize, i: u64| {
            let mut b = bytes.clone();
            b[index_at(k)..index_at(k) + 8].copy_from_slice(&i.to_le_bytes());
            b
        };
        let mut blank = bytes.clone();
        let second = index_at(1) + 8;
        let mut w = SnapWriter::new();
        w.put(&EMPTY);
        blank[second..second + rec - 8].copy_from_slice(&w.into_bytes());
        for (what, bad) in [
            ("an index past the array", with_index(1, 8)),
            ("indices out of order", with_index(1, 0)),
            ("a repeated index", with_index(1, 1)),
            ("a record of the empty slot", blank),
        ] {
            let got = restore(&mut CacheArray::new(geom), &bad);
            assert!(matches!(got, Err(SnapError::Corrupt(_))), "{what}: {got:?}");
        }
        for cut in [index_at(1) + 3, index_at(1) + 20, bytes.len() - 9] {
            let got = restore(&mut CacheArray::new(geom), &bytes[..cut]);
            assert_eq!(got, Err(SnapError::Truncated), "cut at {cut}");
        }
        let got = restore(&mut CacheArray::new(CacheGeom { sets: 8, ways: 2 }), &bytes);
        assert!(matches!(got, Err(SnapError::Mismatch(_))), "{got:?}");
    }

    /// A set exists once something is installed or written into it; a
    /// lookup before then misses and its slots read as the empty slot.
    #[test]
    fn sets_are_allocated_by_use() {
        let mut a = CacheArray::new(CacheGeom::from_size(1024 * 1024, 16));
        assert_eq!(a.resident_sets(), 0);
        assert_eq!(a.lookup(0x8000_0000), None);
        assert_eq!(a.victim(0x8000_0000), a.free_slot(0x8000_0000));
        assert!(a.slot(12_345) == &EMPTY);
        assert_eq!(a.resident_sets(), 0, "reads allocate nothing");
        let v = a.victim(0x8000_0000).expect("an empty set has a victim");
        a.install(v, 0x8000_0000, Msi::S, Box::new([3; 64]));
        a.slot_mut(7 * 16 + 5).locked = true;
        assert_eq!(a.resident_sets(), 2);
        assert_eq!(a.slot(v).data()[0], 3);
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
