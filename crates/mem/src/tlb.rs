//! TLBs and hardware page walking.
//!
//! Reproduces the paper's two TLB microarchitectures:
//!
//! * **RiscyOO-B** — both L1 and L2 TLBs *block* on a miss: one outstanding
//!   miss, and an L1 D TLB miss blocks the memory pipeline.
//! * **RiscyOO-T+** — non-blocking: up to 4 concurrent L1 D TLB misses with
//!   hit-under-miss, up to 2 concurrent L2 TLB misses, plus a **split
//!   translation cache** (24 fully-associative entries per page-walk level,
//!   after Barr et al.) that lets walks skip levels.
//!
//! The paper measures this change at +29% average performance (2× on astar)
//! — `riscy-bench`'s `repro fig15` regenerates that comparison.

use std::collections::VecDeque;

use cmd_core::guard::{Guarded, Stall};
use riscy_isa::csr::Priv;
use riscy_isa::vm::{self, Access, PageFault, Translation};

use crate::l2::{UncachedReq, UncachedResp};

/// A cached translation (one page of any size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Base VA of the page.
    pub va_base: u64,
    /// Base PA of the page.
    pub pa_base: u64,
    /// log2 of the page size (12, 21, or 30).
    pub page_shift: u32,
    /// Leaf PTE (for permission checks).
    pub pte: u64,
    lru: u64,
}

impl TlbEntry {
    fn from_translation(va: u64, t: &Translation) -> Self {
        let shift = 12 + 9 * t.level as u32;
        let mask = (1u64 << shift) - 1;
        TlbEntry {
            va_base: va & !mask,
            pa_base: t.pa & !mask,
            page_shift: shift,
            pte: t.pte,
            lru: 0,
        }
    }

    fn matches(&self, va: u64) -> bool {
        let mask = !((1u64 << self.page_shift) - 1);
        va & mask == self.va_base
    }

    /// Translate a VA within this page and check permissions.
    fn translate(&self, va: u64, access: Access, priv_mode: Priv) -> Result<u64, PageFault> {
        if permits(self.pte, access, priv_mode) {
            let off = va & ((1u64 << self.page_shift) - 1);
            Ok(self.pa_base | off)
        } else {
            Err(PageFault { va, access })
        }
    }
}

fn permits(pte_val: u64, access: Access, priv_mode: Priv) -> bool {
    use riscy_isa::vm::pte;
    let user_page = pte_val & pte::U != 0;
    match priv_mode {
        Priv::U if !user_page => return false,
        Priv::S if user_page => return false,
        _ => {}
    }
    let ok = match access {
        Access::Fetch => pte_val & pte::X != 0,
        Access::Load => pte_val & pte::R != 0,
        Access::Store => pte_val & pte::W != 0,
    };
    ok && pte_val & pte::A != 0 && (access != Access::Store || pte_val & pte::D != 0)
}

/// A fully-associative LRU TLB (the paper's 32-entry L1 I/D TLBs).
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    capacity: usize,
    tick: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Same-cycle lookup: `None` = miss; `Some(Err)` = permission fault.
    pub fn lookup(
        &mut self,
        va: u64,
        access: Access,
        priv_mode: Priv,
    ) -> Option<Result<u64, PageFault>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.iter_mut().find(|e| e.matches(va)) {
            Some(e) => {
                e.lru = tick;
                self.hits += 1;
                Some(e.translate(va, access, priv_mode))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without statistics or LRU effects.
    #[must_use]
    pub fn probe(&self, va: u64) -> Option<&TlbEntry> {
        self.entries.iter().find(|e| e.matches(va))
    }

    /// What [`Tlb::lookup`] would return, without its statistics or LRU
    /// effects.
    #[must_use]
    pub fn peek(&self, va: u64, access: Access, priv_mode: Priv) -> Option<Result<u64, PageFault>> {
        self.probe(va).map(|e| e.translate(va, access, priv_mode))
    }

    /// Inserts a translation (evicting LRU if full).
    pub fn fill(&mut self, va: u64, t: &Translation) {
        if self.probe(va).is_some() {
            return;
        }
        let mut e = TlbEntry::from_translation(va, t);
        self.tick += 1;
        e.lru = self.tick;
        if self.entries.len() < self.capacity {
            self.entries.push(e);
        } else if let Some(victim) = self.entries.iter_mut().min_by_key(|e| e.lru) {
            *victim = e;
        }
    }

    /// Flushes every entry (`sfence.vma`).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Misses per lookup, or 0 when idle.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative L2 TLB (the paper's 2048-entry, 4-way). Caches only
/// 4 KiB translations; superpages live in the L1 TLBs.
#[derive(Debug, Clone)]
pub struct L2Tlb {
    sets: usize,
    ways: usize,
    entries: Vec<Option<TlbEntry>>,
    tick: u64,
    lrus: Vec<u64>,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl L2Tlb {
    /// Creates an L2 TLB with `entries` total entries and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `entries / ways` is a power of two.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "bad L2 TLB geometry");
        L2Tlb {
            sets,
            ways,
            entries: vec![None; entries],
            tick: 0,
            lrus: vec![0; entries],
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, va: u64) -> usize {
        ((va >> 12) as usize) & (self.sets - 1)
    }

    /// Looks up a 4 KiB translation.
    pub fn lookup(&mut self, va: u64) -> Option<TlbEntry> {
        self.tick += 1;
        let s = self.set_of(va);
        for w in 0..self.ways {
            let i = s * self.ways + w;
            if let Some(e) = &self.entries[i] {
                if e.matches(va) {
                    self.lrus[i] = self.tick;
                    self.hits += 1;
                    return Some(*e);
                }
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts a 4 KiB translation; larger pages are ignored (held only in
    /// the L1 TLBs).
    pub fn fill(&mut self, va: u64, t: &Translation) {
        if t.level != 0 {
            return;
        }
        let s = self.set_of(va);
        self.tick += 1;
        let mut victim = s * self.ways;
        for w in 0..self.ways {
            let i = s * self.ways + w;
            match &self.entries[i] {
                None => {
                    victim = i;
                    break;
                }
                Some(e) if e.matches(va) => return,
                Some(_) if self.lrus[i] < self.lrus[victim] => victim = i,
                Some(_) => {}
            }
        }
        let mut e = TlbEntry::from_translation(va, t);
        e.lru = self.tick;
        self.entries[victim] = Some(e);
        self.lrus[victim] = self.tick;
    }

    /// Flushes every entry.
    pub fn flush(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }

    /// Misses per lookup, or 0 when idle.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Split translation cache: per-level pointer caches that let a walk skip
/// levels (Barr et al., cited by the paper for RiscyOO-T+).
#[derive(Debug, Clone)]
pub struct WalkCache {
    /// Maps vpn2 → level-1 table PPN.
    l1_ptrs: Vec<(u64, u64, u64)>, // (key, ppn, lru)
    /// Maps (vpn2, vpn1) → level-0 table PPN.
    l0_ptrs: Vec<(u64, u64, u64)>,
    capacity: usize,
    tick: u64,
}

impl WalkCache {
    /// Creates a walk cache with `capacity` entries per level (paper: 24).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        WalkCache {
            l1_ptrs: Vec::new(),
            l0_ptrs: Vec::new(),
            capacity,
            tick: 0,
        }
    }

    fn key1(va: u64) -> u64 {
        (va >> 30) & 0x1ff
    }
    fn key0(va: u64) -> u64 {
        (va >> 21) & 0x3_ffff
    }

    /// Deepest starting point for a walk of `va`: `(level, table_ppn)`.
    /// Level 2 means start from the root.
    pub fn best_start(&mut self, va: u64, root_ppn: u64) -> (usize, u64) {
        self.tick += 1;
        let t = self.tick;
        if let Some(e) = self.l0_ptrs.iter_mut().find(|e| e.0 == Self::key0(va)) {
            e.2 = t;
            return (0, e.1);
        }
        if let Some(e) = self.l1_ptrs.iter_mut().find(|e| e.0 == Self::key1(va)) {
            e.2 = t;
            return (1, e.1);
        }
        (2, root_ppn)
    }

    /// Records a pointer PTE discovered at `level` during a walk of `va`.
    pub fn record(&mut self, va: u64, level: usize, next_table_ppn: u64) {
        self.tick += 1;
        let t = self.tick;
        let (list, key) = match level {
            2 => (&mut self.l1_ptrs, Self::key1(va)),
            1 => (&mut self.l0_ptrs, Self::key0(va)),
            _ => return,
        };
        if let Some(e) = list.iter_mut().find(|e| e.0 == key) {
            e.1 = next_table_ppn;
            e.2 = t;
            return;
        }
        if list.len() >= self.capacity {
            if let Some(i) = (0..list.len()).min_by_key(|&i| list[i].2) {
                list.swap_remove(i);
            }
        }
        list.push((key, next_table_ppn, t));
    }

    /// Flushes both levels.
    pub fn flush(&mut self) {
        self.l1_ptrs.clear();
        self.l0_ptrs.clear();
    }
}

/// Result of a completed page walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// Client tag.
    pub tag: u64,
    /// The walked VA.
    pub va: u64,
    /// Outcome.
    pub result: Result<Translation, PageFault>,
}

#[derive(Debug, Clone, Copy)]
struct WalkState {
    tag: u64,
    va: u64,
    access: Access,
    priv_mode: Priv,
    level: usize,
    table_ppn: u64,
    outstanding: bool,
}

/// The hardware page walker: issues uncached PTE loads to the L2 cache
/// (paper Fig. 11's page-walk crossbar) and supports configurable
/// concurrency.
#[derive(Debug)]
pub struct PageWalker {
    core: usize,
    max_walks: usize,
    walks: Vec<WalkState>,
    cache: Option<WalkCache>,
    results: VecDeque<WalkResult>,
    next_tag: u64,
    /// PTE loads to the L2 (drained by the crossbar).
    pub to_l2: VecDeque<UncachedReq>,
    /// PTE data from the L2 (filled by the crossbar).
    pub from_l2: VecDeque<UncachedResp>,
    /// Completed walks.
    pub walks_done: u64,
    /// Total PTE loads issued (walk-cache savings show up here).
    pub pte_loads: u64,
}

impl PageWalker {
    /// Creates a walker for `core` with at most `max_walks` concurrent walks
    /// and an optional translation cache.
    #[must_use]
    pub fn new(core: usize, max_walks: usize, cache: Option<WalkCache>) -> Self {
        PageWalker {
            core,
            max_walks,
            walks: Vec::new(),
            cache,
            results: VecDeque::new(),
            next_tag: 0,
            to_l2: VecDeque::new(),
            from_l2: VecDeque::new(),
            walks_done: 0,
            pte_loads: 0,
        }
    }

    /// Whether a new walk can start.
    #[must_use]
    pub fn can_start(&self) -> bool {
        self.walks.len() < self.max_walks
    }

    /// Begins a walk; `tag` identifies it to the client.
    ///
    /// # Errors
    ///
    /// Stalls when the walker is at its concurrency limit.
    pub fn start(
        &mut self,
        tag: u64,
        va: u64,
        root_ppn: u64,
        access: Access,
        priv_mode: Priv,
    ) -> Guarded<()> {
        if !self.can_start() {
            return Err(Stall::new("walker at concurrency limit"));
        }
        if !vm::va_canonical(va) {
            self.results.push_back(WalkResult {
                tag,
                va,
                result: Err(PageFault { va, access }),
            });
            return Ok(());
        }
        let (level, table_ppn) = match &mut self.cache {
            Some(c) => c.best_start(va, root_ppn),
            None => (2, root_ppn),
        };
        self.walks.push(WalkState {
            tag,
            va,
            access,
            priv_mode,
            level,
            table_ppn,
            outstanding: false,
        });
        Ok(())
    }

    /// One cycle: issue PTE loads and consume arrived PTEs.
    pub fn tick(&mut self) {
        // Consume responses.
        while let Some(resp) = self.from_l2.pop_front() {
            let Some(wi) = self
                .walks
                .iter()
                .position(|w| w.outstanding && w.tag == resp.tag)
            else {
                continue;
            };
            self.process_pte(wi, resp.data);
        }
        // Issue loads for walks without an outstanding PTE read.
        for i in 0..self.walks.len() {
            if !self.walks[i].outstanding {
                let w = self.walks[i];
                let vpn = vm::vpns(w.va);
                let pte_pa = (w.table_ppn << 12) + vpn[w.level] * 8;
                self.to_l2.push_back(UncachedReq {
                    core: self.core,
                    tag: w.tag,
                    addr: pte_pa,
                });
                self.pte_loads += 1;
                self.walks[i].outstanding = true;
            }
        }
    }

    fn process_pte(&mut self, wi: usize, pte_val: u64) {
        use riscy_isa::vm::pte;
        let w = self.walks[wi];
        let fault = PageFault {
            va: w.va,
            access: w.access,
        };
        let finish = |walker: &mut Self, wi: usize, result: Result<Translation, PageFault>| {
            let w = walker.walks.swap_remove(wi);
            walker.walks_done += 1;
            walker.results.push_back(WalkResult {
                tag: w.tag,
                va: w.va,
                result,
            });
        };
        if pte_val & pte::V == 0 {
            finish(self, wi, Err(fault));
            return;
        }
        let is_leaf = pte_val & (pte::R | pte::W | pte::X) != 0;
        if !is_leaf {
            if w.level == 0 {
                finish(self, wi, Err(fault));
                return;
            }
            let next = pte_val >> 10;
            if let Some(c) = &mut self.cache {
                c.record(w.va, w.level, next);
            }
            self.walks[wi].level -= 1;
            self.walks[wi].table_ppn = next;
            self.walks[wi].outstanding = false;
            return;
        }
        // Leaf: check alignment and permissions.
        if !permits(pte_val, w.access, w.priv_mode) {
            finish(self, wi, Err(fault));
            return;
        }
        let ppn = pte_val >> 10;
        let align_mask = (1u64 << (9 * w.level)) - 1;
        if ppn & align_mask != 0 {
            finish(self, wi, Err(fault));
            return;
        }
        let shift = 12 + 9 * w.level as u32;
        let pa = ((ppn >> (9 * w.level)) << shift) | (w.va & ((1 << shift) - 1));
        finish(
            self,
            wi,
            Ok(Translation {
                pa,
                pte: pte_val,
                level: w.level,
                steps: 3 - w.level,
            }),
        );
    }

    /// Whether [`PageWalker::tick`] (or draining its queues) would change
    /// anything: a PTE to consume, a load to issue or send, a result to
    /// collect. A walker whose every walk waits on its outstanding PTE load
    /// is idle until the response arrives.
    #[must_use]
    pub fn has_work(&self) -> bool {
        !self.from_l2.is_empty()
            || !self.to_l2.is_empty()
            || !self.results.is_empty()
            || self.walks.iter().any(|w| !w.outstanding)
    }

    /// Pops a completed walk.
    pub fn pop_result(&mut self) -> Option<WalkResult> {
        self.results.pop_front()
    }

    /// Allocates a fresh client tag.
    pub fn alloc_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Flushes the translation cache (`sfence.vma`).
    pub fn flush(&mut self) {
        if let Some(c) = &mut self.cache {
            c.flush();
        }
    }
}

cmd_core::snap_struct!(TlbEntry {
    va_base,
    pa_base,
    page_shift,
    pte,
    lru,
});

cmd_core::snapshot_fields!(Tlb {
    entries: at_most(capacity),
    tick,
    hits,
    misses,
});

cmd_core::snapshot_fields!(L2Tlb {
    entries: same_len,
    lrus: same_len,
    tick,
    hits,
    misses,
});

cmd_core::snapshot_fields!(WalkCache {
    l1_ptrs: at_most(capacity),
    l0_ptrs: at_most(capacity),
    tick,
});

cmd_core::snap_struct!(WalkResult { tag, va, result });

cmd_core::snap_struct!(WalkState {
    tag,
    va,
    access,
    priv_mode,
    level,
    table_ppn,
    outstanding,
});

cmd_core::snapshot_fields!(PageWalker {
    walks: at_most(max_walks),
    cache: modules,
    results,
    next_tag,
    to_l2,
    from_l2,
    walks_done,
    pte_loads,
});

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::vm::{make_leaf, make_pointer, pte};

    const RWX: u64 = pte::R | pte::W | pte::X | pte::A | pte::D;

    fn translation_4k(va: u64, ppn: u64) -> Translation {
        Translation {
            pa: (ppn << 12) | (va & 0xfff),
            pte: make_leaf(ppn, RWX),
            level: 0,
            steps: 3,
        }
    }

    #[test]
    fn tlb_hit_after_fill() {
        let mut t = Tlb::new(4);
        assert!(t.lookup(0x5000, Access::Load, Priv::S).is_none());
        t.fill(0x5000, &translation_4k(0x5000, 0x80));
        let pa = t.lookup(0x5abc, Access::Load, Priv::S).unwrap().unwrap();
        assert_eq!(pa, (0x80 << 12) | 0xabc);
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut t = Tlb::new(2);
        t.fill(0x1000, &translation_4k(0x1000, 1));
        t.fill(0x2000, &translation_4k(0x2000, 2));
        t.lookup(0x1000, Access::Load, Priv::S); // make 0x1000 MRU
        t.fill(0x3000, &translation_4k(0x3000, 3));
        assert!(t.probe(0x1000).is_some(), "MRU survives");
        assert!(t.probe(0x2000).is_none(), "LRU evicted");
    }

    #[test]
    fn tlb_permission_fault_on_hit() {
        let mut t = Tlb::new(2);
        let ro = Translation {
            pa: 0x8000,
            pte: make_leaf(8, pte::R | pte::A),
            level: 0,
            steps: 3,
        };
        t.fill(0x8000, &ro);
        assert!(t.lookup(0x8000, Access::Load, Priv::S).unwrap().is_ok());
        assert!(t.lookup(0x8000, Access::Store, Priv::S).unwrap().is_err());
    }

    #[test]
    fn peek_answers_like_lookup_and_leaves_no_trace() {
        let mut t = Tlb::new(2);
        let ro = Translation {
            pa: 0x8000,
            pte: make_leaf(8, pte::R | pte::A),
            level: 0,
            steps: 3,
        };
        t.fill(0x8000, &ro);
        t.fill(0x9000, &translation_4k(0x9000, 9));
        let before = t.clone();
        for (va, access) in [
            (0x8010, Access::Load),
            (0x8010, Access::Store),
            (0xa000, Access::Load),
        ] {
            assert_eq!(
                t.peek(va, access, Priv::S),
                before.clone().lookup(va, access, Priv::S)
            );
        }
        assert_eq!((t.hits, t.misses, t.tick), (0, 0, before.tick));
        // A peeked 0x8000 is not made MRU: the next fill still evicts it.
        t.fill(0xb000, &translation_4k(0xb000, 11));
        assert!(t.probe(0x8000).is_none());
    }

    #[test]
    fn superpage_entry_spans_2mb() {
        let mut t = Tlb::new(2);
        let two_mb = Translation {
            pa: 0x4000_0000,
            pte: make_leaf(0x4000_0000 >> 12, RWX),
            level: 1,
            steps: 2,
        };
        t.fill(0x4000_0000, &two_mb);
        assert!(t
            .lookup(0x4000_0000 + 0x12_3456, Access::Load, Priv::S)
            .is_some());
    }

    #[test]
    fn l2_tlb_set_associative_fill() {
        let mut l2 = L2Tlb::new(64, 4);
        for i in 0..5u64 {
            // All map to the same set (stride = sets * 4K = 16 * 4K).
            let va = i * 16 * 4096;
            l2.fill(va, &translation_4k(va, 0x100 + i));
        }
        // 4 ways: one of the five was evicted.
        let present = (0..5u64)
            .filter(|i| l2.lookup(i * 16 * 4096).is_some())
            .count();
        assert_eq!(present, 4);
    }

    #[test]
    fn walk_cache_skips_levels() {
        let mut wc = WalkCache::new(4);
        assert_eq!(wc.best_start(0x4000_0000, 99), (2, 99));
        wc.record(0x4000_0000, 2, 7); // level-2 pointer → level-1 table
        assert_eq!(wc.best_start(0x4000_0123, 99), (1, 7));
        wc.record(0x4000_0000, 1, 8); // level-1 pointer → level-0 table
        assert_eq!(wc.best_start(0x4000_0456, 99), (0, 8));
        // Different gigabyte region: no help.
        assert_eq!(wc.best_start(0x8000_0000, 99), (2, 99));
    }

    /// Drives the walker against an in-memory page table.
    fn run_walk(
        walker: &mut PageWalker,
        ptes: &std::collections::HashMap<u64, u64>,
        va: u64,
        root: u64,
    ) -> WalkResult {
        let tag = walker.alloc_tag();
        walker.start(tag, va, root, Access::Load, Priv::S).unwrap();
        for _ in 0..20 {
            walker.tick();
            while let Some(req) = walker.to_l2.pop_front() {
                let data = *ptes.get(&req.addr).unwrap_or(&0);
                walker
                    .from_l2
                    .push_back(UncachedResp { tag: req.tag, data });
            }
            if let Some(r) = walker.pop_result() {
                return r;
            }
        }
        panic!("walk did not complete");
    }

    #[test]
    fn walker_three_level_walk_and_cache_reuse() {
        let mut ptes = std::collections::HashMap::new();
        ptes.insert(1u64 << 12, make_pointer(2));
        ptes.insert(2u64 << 12, make_pointer(3));
        ptes.insert(3u64 << 12, make_leaf(0x80, RWX));
        ptes.insert((3u64 << 12) + 8, make_leaf(0x81, RWX));

        let mut w = PageWalker::new(0, 2, Some(WalkCache::new(8)));
        let r = run_walk(&mut w, &ptes, 0x0000_0123, 1);
        assert_eq!(r.result.unwrap().pa, (0x80 << 12) | 0x123);
        let first_loads = w.pte_loads;
        assert_eq!(first_loads, 3);

        // Second walk in the same 2 MiB region: walk cache skips to level 0.
        let r2 = run_walk(&mut w, &ptes, 0x0000_1040, 1);
        assert_eq!(r2.result.unwrap().pa, (0x81 << 12) | 0x40);
        assert_eq!(w.pte_loads - first_loads, 1, "only the leaf PTE is read");
    }

    #[test]
    fn walker_faults_on_invalid() {
        let ptes = std::collections::HashMap::new();
        let mut w = PageWalker::new(0, 1, None);
        let r = run_walk(&mut w, &ptes, 0x9000, 1);
        assert!(r.result.is_err());
    }

    #[test]
    fn walker_concurrency_limit() {
        let mut w = PageWalker::new(0, 2, None);
        assert!(w.start(1, 0x1000, 1, Access::Load, Priv::S).is_ok());
        assert!(w.start(2, 0x2000, 1, Access::Load, Priv::S).is_ok());
        assert!(w.start(3, 0x3000, 1, Access::Load, Priv::S).is_err());
    }

    #[test]
    fn walker_noncanonical_faults_immediately() {
        let mut w = PageWalker::new(0, 1, None);
        w.start(5, 1 << 45, 1, Access::Load, Priv::S).unwrap();
        let r = w.pop_result().unwrap();
        assert!(r.result.is_err());
        assert!(w.can_start(), "no walk slot consumed");
    }
}
