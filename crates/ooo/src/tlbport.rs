//! Per-core TLB hierarchy: L1 I/D TLBs, the shared-per-core L2 TLB, and the
//! page walker — configurable between the paper's blocking (RiscyOO-B) and
//! non-blocking (RiscyOO-T+) microarchitectures.

use std::collections::VecDeque;

use riscy_isa::csr::Priv;
use riscy_isa::vm::{satp_root_ppn, satp_sv39_enabled, Access, PageFault};
use riscy_mem::l2::{UncachedReq, UncachedResp};
use riscy_mem::tlb::{L2Tlb, PageWalker, Tlb, WalkCache};

use crate::config::TlbConfig;

/// Latency of an L2 TLB lookup.
const L2_TLB_LATENCY: u64 = 4;

/// A parked translation miss.
#[derive(Debug, Clone, Copy)]
struct Parked {
    id: u64,
    va: u64,
    access: Access,
    priv_mode: Priv,
    /// Waiting for the L2 TLB lookup to finish at this cycle.
    l2_ready_at: Option<u64>,
    /// A page walk has been started for this entry.
    walking: bool,
    walk_tag: u64,
}

/// A finished translation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbResp {
    /// Client id passed to `request`.
    pub id: u64,
    /// Physical address or fault.
    pub result: Result<u64, PageFault>,
}

/// Per-core TLB hierarchy (paper Fig. 9 "L1 D TLB" + Fig. 11 "L2 TLB").
pub struct TlbHier {
    /// L1 instruction TLB.
    pub itlb: Tlb,
    /// L1 data TLB.
    pub dtlb: Tlb,
    /// Unified second-level TLB.
    pub l2: L2Tlb,
    walker: PageWalker,
    d_parked: Vec<Parked>,
    i_parked: Vec<Parked>,
    d_resps: VecDeque<TlbResp>,
    cfg: TlbConfig,
    /// Completed page walks (Fig. 16's "L2TLB" misses).
    pub walks: u64,
}

impl TlbHier {
    /// Builds the hierarchy for `core`.
    #[must_use]
    pub fn new(core: usize, cfg: TlbConfig) -> Self {
        let cache = if cfg.walk_cache_entries > 0 {
            Some(WalkCache::new(cfg.walk_cache_entries))
        } else {
            None
        };
        TlbHier {
            itlb: Tlb::new(cfg.l1_entries),
            dtlb: Tlb::new(cfg.l1_entries),
            l2: L2Tlb::new(cfg.l2_entries, cfg.l2_ways),
            walker: PageWalker::new(core, cfg.l2_miss_slots, cache),
            d_parked: Vec::new(),
            i_parked: Vec::new(),
            d_resps: VecDeque::new(),
            cfg,
            walks: 0,
        }
    }

    /// Whether translation is active (Sv39 on and not in M-mode).
    #[must_use]
    pub fn active(satp: u64, priv_mode: Priv) -> bool {
        priv_mode != Priv::M && satp_sv39_enabled(satp)
    }

    /// Same-cycle L1 D TLB lookup. `None` = miss (park with
    /// [`TlbHier::request_d`]).
    pub fn lookup_d(
        &mut self,
        va: u64,
        access: Access,
        satp: u64,
        priv_mode: Priv,
    ) -> Option<Result<u64, PageFault>> {
        if !Self::active(satp, priv_mode) {
            return Some(Ok(va));
        }
        self.dtlb.lookup(va, access, priv_mode)
    }

    /// Same-cycle L1 I TLB lookup.
    pub fn lookup_i(
        &mut self,
        va: u64,
        satp: u64,
        priv_mode: Priv,
    ) -> Option<Result<u64, PageFault>> {
        if !Self::active(satp, priv_mode) {
            return Some(Ok(va));
        }
        self.itlb.lookup(va, Access::Fetch, priv_mode)
    }

    /// What [`TlbHier::lookup_d`] would return, with none of its effects:
    /// the decision a stall path may take.
    #[must_use]
    pub fn peek_d(
        &self,
        va: u64,
        access: Access,
        satp: u64,
        priv_mode: Priv,
    ) -> Option<Result<u64, PageFault>> {
        if !Self::active(satp, priv_mode) {
            return Some(Ok(va));
        }
        self.dtlb.peek(va, access, priv_mode)
    }

    /// What [`TlbHier::lookup_i`] would return, with none of its effects.
    #[must_use]
    pub fn peek_i(&self, va: u64, satp: u64, priv_mode: Priv) -> Option<Result<u64, PageFault>> {
        if !Self::active(satp, priv_mode) {
            return Some(Ok(va));
        }
        self.itlb.peek(va, Access::Fetch, priv_mode)
    }

    /// Whether the D side can accept another miss. When this is false the
    /// memory pipeline stalls (RiscyOO-B blocks here with 1 slot).
    #[must_use]
    pub fn can_park_d(&self) -> bool {
        self.d_parked.len() < self.cfg.l1d_miss_slots
    }

    /// Whether hits may proceed while misses are outstanding
    /// (RiscyOO-T+ only).
    #[must_use]
    pub fn hit_under_miss(&self) -> bool {
        self.cfg.l1d_miss_slots > 1
    }

    /// Whether any D-side miss is outstanding.
    #[must_use]
    pub fn d_miss_pending(&self) -> bool {
        !self.d_parked.is_empty()
    }

    /// Parks a D-side miss; the response arrives via
    /// [`TlbHier::pop_d_resp`].
    ///
    /// # Panics
    ///
    /// Panics when no slot is free — guard with [`TlbHier::can_park_d`].
    pub fn request_d(&mut self, now: u64, id: u64, va: u64, access: Access, priv_mode: Priv) {
        assert!(self.can_park_d(), "no free D TLB miss slot");
        self.d_parked.push(Parked {
            id,
            va,
            access,
            priv_mode,
            l2_ready_at: Some(now + L2_TLB_LATENCY),
            walking: false,
            walk_tag: 0,
        });
    }

    /// Parks the (single) I-side miss.
    pub fn request_i(&mut self, now: u64, id: u64, va: u64, priv_mode: Priv) {
        self.i_parked.push(Parked {
            id,
            va,
            access: Access::Fetch,
            priv_mode,
            l2_ready_at: Some(now + L2_TLB_LATENCY),
            walking: false,
            walk_tag: 0,
        });
    }

    /// Whether the I side has a miss outstanding (fetch stalls).
    #[must_use]
    pub fn i_miss_pending(&self) -> bool {
        !self.i_parked.is_empty()
    }

    /// Pops a finished D-side translation.
    pub fn pop_d_resp(&mut self) -> Option<TlbResp> {
        self.d_resps.pop_front()
    }

    /// Drains PTE loads for the memory system.
    pub fn drain_walker_reqs(&mut self) -> Vec<UncachedReq> {
        self.walker.to_l2.drain(..).collect()
    }

    /// Delivers a PTE load response.
    pub fn push_walker_resp(&mut self, r: UncachedResp) {
        self.walker.from_l2.push_back(r);
    }

    /// Flushes everything (`sfence.vma`).
    pub fn flush(&mut self) {
        self.itlb.flush();
        self.dtlb.flush();
        self.l2.flush();
        self.walker.flush();
    }

    /// The first cycle, at or after `now`, at which [`TlbHier::tick`] — or
    /// the substrate draining this hierarchy's queues — may change it: the
    /// earliest `l2_ready_at` of a parked miss not yet walking, or `now`
    /// while the walker has work. `u64::MAX` when every miss waits on a PTE
    /// load in the memory system.
    #[must_use]
    pub fn next_event(&self, now: u64) -> u64 {
        if self.walker.has_work() {
            return now;
        }
        self.d_parked
            .iter()
            .chain(&self.i_parked)
            .filter(|p| !p.walking)
            .filter_map(|p| p.l2_ready_at)
            .min()
            .map_or(u64::MAX, |t| t.max(now))
    }

    /// One cycle: advance L2 lookups and walks for both sides. Returns the
    /// VA of the I-side miss whose walk faulted this cycle, if any.
    pub fn tick(&mut self, now: u64, satp: u64) -> Option<u64> {
        self.walker.tick();
        let root = satp_root_ppn(satp);

        // Collect finished walks once, apply to both sides.
        let mut walk_results = Vec::new();
        while let Some(r) = self.walker.pop_result() {
            walk_results.push(r);
        }

        let mut i_fault = None;
        for side in 0..2 {
            // A filled I-side miss needs no response: fetch retries through
            // the I TLB once the miss is no longer parked. A faulting walk
            // fills nothing, so its VA is returned for fetch instead.
            let (parked, mut resps, l1) = if side == 0 {
                (&mut self.d_parked, Some(&mut self.d_resps), &mut self.dtlb)
            } else {
                (&mut self.i_parked, None, &mut self.itlb)
            };
            let mut respond = |r: TlbResp| {
                if let Some(q) = resps.as_mut() {
                    q.push_back(r);
                }
            };

            let mut i = 0;
            while i < parked.len() {
                let p = parked[i];
                // Walk completion for this entry?
                if p.walking {
                    if let Some(r) = walk_results.iter().find(|r| r.tag == p.walk_tag) {
                        let result = match &r.result {
                            Ok(t) => {
                                l1.fill(p.va, t);
                                self.l2.fill(p.va, t);
                                // Re-check permissions via the L1 entry.
                                l1.lookup(p.va, p.access, p.priv_mode).expect("just filled")
                            }
                            Err(_) => {
                                if side == 1 {
                                    i_fault = Some(p.va);
                                }
                                Err(PageFault {
                                    va: p.va,
                                    access: p.access,
                                })
                            }
                        };
                        respond(TlbResp { id: p.id, result });
                        parked.swap_remove(i);
                        continue;
                    }
                    i += 1;
                    continue;
                }
                // L2 TLB lookup finishing this cycle?
                if let Some(t) = p.l2_ready_at {
                    if t <= now {
                        // Another parked entry's fill may already cover us.
                        if let Some(r) = l1.lookup(p.va, p.access, p.priv_mode) {
                            respond(TlbResp {
                                id: p.id,
                                result: r,
                            });
                            parked.swap_remove(i);
                            continue;
                        }
                        if let Some(e) = self.l2.lookup(p.va) {
                            // Refill L1 from L2.
                            let t = riscy_isa::vm::Translation {
                                pa: e.pa_base | (p.va & ((1 << e.page_shift) - 1)),
                                pte: e.pte,
                                level: ((e.page_shift - 12) / 9) as usize,
                                steps: 0,
                            };
                            l1.fill(p.va, &t);
                            let result =
                                l1.lookup(p.va, p.access, p.priv_mode).expect("just filled");
                            respond(TlbResp { id: p.id, result });
                            parked.swap_remove(i);
                            continue;
                        }
                        // L2 miss: start a walk if a slot is free.
                        if self.walker.can_start() {
                            let tag = self.walker.alloc_tag();
                            self.walker
                                .start(tag, p.va, root, p.access, p.priv_mode)
                                .expect("can_start checked");
                            self.walks += 1;
                            parked[i].walking = true;
                            parked[i].walk_tag = tag;
                            parked[i].l2_ready_at = None;
                        }
                        // else: retry next cycle (stay parked, l2_ready_at
                        // keeps firing).
                    }
                }
                i += 1;
            }
        }
        i_fault
    }
}

cmd_core::snap_struct!(Parked {
    id,
    va,
    access,
    priv_mode,
    l2_ready_at,
    walking,
    walk_tag,
});

cmd_core::snap_struct!(TlbResp { id, result });

cmd_core::snapshot_fields!(TlbHier {
    itlb: module,
    dtlb: module,
    l2: module,
    walker: module,
    d_parked: at_most(cfg.l1d_miss_slots),
    i_parked,
    d_resps,
    walks,
});

#[cfg(test)]
mod tests {
    use super::*;
    use riscy_isa::vm::{make_leaf, make_pointer, pte, SATP_MODE_SV39};
    use std::collections::HashMap;

    const RWX: u64 = pte::R | pte::W | pte::X | pte::A | pte::D;

    /// A page table mapping VA 0..2 MiB identity-ish to PPNs 0x100+.
    fn page_table() -> (HashMap<u64, u64>, u64) {
        let mut m = HashMap::new();
        m.insert(1u64 << 12, make_pointer(2));
        m.insert(2u64 << 12, make_pointer(3));
        for i in 0..16u64 {
            m.insert((3u64 << 12) + i * 8, make_leaf(0x100 + i, RWX));
        }
        let satp = (SATP_MODE_SV39 << 60) | 1;
        (m, satp)
    }

    fn run_until_resp(
        h: &mut TlbHier,
        ptes: &HashMap<u64, u64>,
        satp: u64,
        start: u64,
    ) -> (TlbResp, u64) {
        for now in start..start + 200 {
            h.tick(now, satp);
            for req in h.drain_walker_reqs() {
                let data = *ptes.get(&req.addr).unwrap_or(&0);
                h.push_walker_resp(UncachedResp { tag: req.tag, data });
            }
            if let Some(r) = h.pop_d_resp() {
                return (r, now);
            }
        }
        panic!("no TLB response");
    }

    #[test]
    fn machine_mode_bypasses_translation() {
        let mut h = TlbHier::new(0, TlbConfig::blocking());
        assert_eq!(
            h.lookup_d(0x8000_0000, Access::Load, 0, Priv::M),
            Some(Ok(0x8000_0000))
        );
    }

    #[test]
    fn miss_walk_fill_hit() {
        let (ptes, satp) = page_table();
        let mut h = TlbHier::new(0, TlbConfig::nonblocking());
        assert!(h.lookup_d(0x1234, Access::Load, satp, Priv::S).is_none());
        h.request_d(0, 7, 0x1234, Access::Load, Priv::S);
        let (r, _) = run_until_resp(&mut h, &ptes, satp, 0);
        assert_eq!(r.id, 7);
        assert_eq!(r.result.unwrap(), (0x101 << 12) | 0x234);
        // Now it hits in the same cycle.
        assert_eq!(
            h.lookup_d(0x1238, Access::Load, satp, Priv::S),
            Some(Ok((0x101 << 12) | 0x238))
        );
        assert_eq!(h.walks, 1);
    }

    #[test]
    fn l2_tlb_refills_without_a_walk() {
        let (ptes, satp) = page_table();
        let mut h = TlbHier::new(0, TlbConfig::nonblocking());
        h.request_d(0, 1, 0x1000, Access::Load, Priv::S);
        run_until_resp(&mut h, &ptes, satp, 0);
        // Force the L1 entry out by filling with many other pages.
        for i in 1..16u64 {
            h.request_d(100, 1 + i, i << 12, Access::Load, Priv::S);
            run_until_resp(&mut h, &ptes, satp, 100 + i * 50);
        }
        let walks_before = h.walks;
        if h.lookup_d(0x1000, Access::Load, satp, Priv::S).is_none() {
            h.request_d(5000, 99, 0x1000, Access::Load, Priv::S);
            let (r, _) = run_until_resp(&mut h, &ptes, satp, 5000);
            assert!(r.result.is_ok());
            assert_eq!(h.walks, walks_before, "L2 TLB hit avoids the walk");
        }
    }

    #[test]
    fn blocking_config_has_one_slot() {
        let (_, _satp) = page_table();
        let mut h = TlbHier::new(0, TlbConfig::blocking());
        assert!(h.can_park_d());
        h.request_d(0, 1, 0x1000, Access::Load, Priv::S);
        assert!(!h.can_park_d(), "B config blocks at one miss");
        assert!(!h.hit_under_miss());
        let mut t = TlbHier::new(0, TlbConfig::nonblocking());
        t.request_d(0, 1, 0x1000, Access::Load, Priv::S);
        assert!(t.can_park_d(), "T+ config allows 4");
        assert!(t.hit_under_miss());
    }

    #[test]
    fn fault_response_for_unmapped_page() {
        let (ptes, satp) = page_table();
        let mut h = TlbHier::new(0, TlbConfig::nonblocking());
        h.request_d(0, 3, 0x40_0000, Access::Load, Priv::S); // vpn1=2 unmapped
        let (r, _) = run_until_resp(&mut h, &ptes, satp, 0);
        assert!(r.result.is_err());
    }

    #[test]
    fn two_concurrent_walks_in_t_plus() {
        let (ptes, satp) = page_table();
        let mut h = TlbHier::new(0, TlbConfig::nonblocking());
        h.request_d(0, 1, 0x1000, Access::Load, Priv::S);
        h.request_d(0, 2, 0x2000, Access::Load, Priv::S);
        let mut got = 0;
        for now in 0..300 {
            h.tick(now, satp);
            for req in h.drain_walker_reqs() {
                let data = *ptes.get(&req.addr).unwrap_or(&0);
                h.push_walker_resp(UncachedResp { tag: req.tag, data });
            }
            while h.pop_d_resp().is_some() {
                got += 1;
            }
            if got == 2 {
                return;
            }
        }
        panic!("both misses must resolve, got {got}");
    }

    #[test]
    fn flush_empties_all_levels() {
        let (ptes, satp) = page_table();
        let mut h = TlbHier::new(0, TlbConfig::nonblocking());
        h.request_d(0, 1, 0x1000, Access::Load, Priv::S);
        run_until_resp(&mut h, &ptes, satp, 0);
        h.flush();
        assert!(h.lookup_d(0x1000, Access::Load, satp, Priv::S).is_none());
    }
}
