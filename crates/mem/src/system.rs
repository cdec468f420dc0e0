//! The assembled memory system: per-core L1 I/D caches, crossbars, the
//! shared L2, DRAM, and the page-walk crossbar (paper Fig. 11).

use cmd_core::chaos::{FaultEngine, LinkFault};
use riscy_isa::mem::SparseMem;

use crate::cache::{L1Cache, L1Config};
use crate::l2::{L2Config, UncachedReq, UncachedResp, L2};
use crate::msg::{ChildReq, ChildToParent, ParentToChild, LINE_BYTES};
use crate::queue::TimedQueue;

/// Configuration of the whole memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Per-core L1 instruction cache.
    pub l1i: L1Config,
    /// Per-core L1 data cache.
    pub l1d: L1Config,
    /// Shared L2 + DRAM.
    pub l2: L2Config,
    /// One-way crossbar latency in cycles.
    pub xbar_latency: u64,
    /// Additional L2 pipeline latency applied to L2→L1 responses.
    pub l2_pipe_latency: u64,
}

impl Default for MemConfig {
    /// The paper's RiscyOO-B memory system.
    fn default() -> Self {
        MemConfig {
            l1i: L1Config::default(),
            l1d: L1Config::default(),
            l2: L2Config::default(),
            xbar_latency: 2,
            l2_pipe_latency: 8,
        }
    }
}

/// A configuration field the model cannot simulate: which field, its value
/// and the bound the code needs it to meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The field's path in the configuration (`width`, `l1d.mshrs`).
    pub field: &'static str,
    /// The refused value.
    pub value: usize,
    /// What the value must satisfy.
    pub bound: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "config field `{}` = {} is out of range: must be {}",
            self.field, self.value, self.bound
        )
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// `Ok` when `ok` holds, else the error naming `field`, `value` and
    /// `bound`.
    ///
    /// # Errors
    ///
    /// When `ok` is false.
    pub fn require(
        ok: bool,
        field: &'static str,
        value: usize,
        bound: &'static str,
    ) -> Result<(), ConfigError> {
        if ok {
            Ok(())
        } else {
            Err(ConfigError {
                field,
                value,
                bound,
            })
        }
    }
}

/// A cache geometry's fields, checked: at least one way, and a size that
/// divides into a power-of-two number of sets of `ways` lines.
fn check_geometry(
    size_bytes: usize,
    ways: usize,
    fields: [&'static str; 2],
) -> Result<(), ConfigError> {
    ConfigError::require(ways >= 1, fields[1], ways, ">= 1")?;
    let sets = size_bytes / (ways * LINE_BYTES as usize);
    ConfigError::require(
        sets.is_power_of_two(),
        fields[0],
        size_bytes,
        "a power-of-two number of sets of `ways` 64-byte lines",
    )
}

impl MemConfig {
    /// Checks every field against what the memory system needs: cache
    /// geometries that index by a power-of-two set count, at least one
    /// request slot per cache and at most 255 per L1 (a core sees an L1's
    /// free slots as a `u8` credit), and room for at least one L2
    /// transaction and one DRAM request.
    ///
    /// # Errors
    ///
    /// The first field out of range.
    pub fn check(&self) -> Result<(), ConfigError> {
        let l1s = [
            (&self.l1i, ["l1i.size_bytes", "l1i.ways", "l1i.mshrs"]),
            (&self.l1d, ["l1d.size_bytes", "l1d.ways", "l1d.mshrs"]),
        ];
        for (l1, [size, ways, mshrs]) in l1s {
            check_geometry(l1.size_bytes, l1.ways, [size, ways])?;
            ConfigError::require(
                (1..=usize::from(u8::MAX)).contains(&l1.mshrs),
                mshrs,
                l1.mshrs,
                "in 1..=255",
            )?;
        }
        check_geometry(
            self.l2.size_bytes,
            self.l2.ways,
            ["l2.size_bytes", "l2.ways"],
        )?;
        ConfigError::require(
            self.l2.max_trans >= 1,
            "l2.max_trans",
            self.l2.max_trans,
            ">= 1",
        )?;
        let dram = self.l2.dram.max_outstanding;
        ConfigError::require(dram >= 1, "l2.dram.max_outstanding", dram, ">= 1")
    }
}

/// The shared memory system for `n` cores.
///
/// Child-id convention: core `c`'s D cache is child `2c`, its I cache is
/// child `2c + 1`. Instruction fetches are fully coherent, as in the paper.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    /// Backing physical memory.
    pub mem: SparseMem,
    l1d: Vec<L1Cache>,
    l1i: Vec<L1Cache>,
    /// The shared L2.
    pub l2: L2,
    c2p_req: TimedQueue<ChildReq>,
    c2p_msg: TimedQueue<ChildToParent>,
    /// Single ordered parent→child channel (see [`ParentToChild`]).
    p2c: TimedQueue<(usize, ParentToChild)>,
    walk_req: TimedQueue<UncachedReq>,
    walk_resp: TimedQueue<(usize, UncachedResp)>,
    now: u64,
    chaos: Option<FaultEngine>,
}

/// Pushes `v` onto `q`, first consulting the fault engine: the message may
/// be dropped, delayed, or duplicated. The named `site` keys the
/// deterministic fault decision and appears in the campaign log.
fn chaos_push<T: Clone>(
    chaos: Option<&FaultEngine>,
    q: &mut TimedQueue<T>,
    site: &str,
    now: u64,
    v: T,
) {
    match chaos.and_then(|e| e.link_fault(site, now)) {
        Some(LinkFault::Drop) => {}
        Some(LinkFault::Delay(extra)) => {
            let _ = q.push_delayed(now, extra, v);
        }
        Some(LinkFault::Dup) => {
            // Best effort: the duplicate is silently lost on a full queue.
            let _ = q.push(now, v.clone());
            let _ = q.push(now, v);
        }
        None => {
            let _ = q.push(now, v);
        }
    }
}

impl MemSystem {
    /// Builds the memory system for `num_cores` cores.
    #[must_use]
    pub fn new(cfg: MemConfig, num_cores: usize, mem: SparseMem) -> Self {
        let children = 2 * num_cores;
        MemSystem {
            cfg,
            mem,
            l1d: (0..num_cores)
                .map(|c| L1Cache::new(2 * c, cfg.l1d))
                .collect(),
            l1i: (0..num_cores)
                .map(|c| L1Cache::new(2 * c + 1, cfg.l1i))
                .collect(),
            l2: L2::new(cfg.l2, children, num_cores),
            c2p_req: TimedQueue::new(cfg.xbar_latency, 4096),
            c2p_msg: TimedQueue::new(cfg.xbar_latency, 4096),
            p2c: TimedQueue::new(cfg.xbar_latency + cfg.l2_pipe_latency, 4096),
            walk_req: TimedQueue::new(cfg.xbar_latency, 1024),
            walk_resp: TimedQueue::new(cfg.xbar_latency + cfg.l2_pipe_latency, 1024),
            now: 0,
            chaos: None,
        }
    }

    /// Attaches a fault-injection engine to the interconnect queues.
    ///
    /// Instrumented sites (usable as `FaultPlan` patterns, e.g.
    /// `msg_drop("mem.p2c", rate)` or `msg_delay("mem.*", rate, extra)`):
    ///
    /// * `mem.c2p_req` — L1→L2 cache requests
    /// * `mem.c2p_msg` — L1→L2 coherence messages (writebacks, downgrade acks)
    /// * `mem.p2c` — L2→L1 grants and downgrade requests
    /// * `mem.walk_req` / `mem.walk_resp` — page-walker traffic
    ///
    /// Dropped coherence traffic typically wedges the affected miss, which
    /// surfaces as a cycle-budget error at the SoC level — never a panic.
    pub fn set_chaos(&mut self, engine: &FaultEngine) {
        self.chaos = Some(engine.clone());
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Core `c`'s data cache.
    pub fn dcache(&mut self, core: usize) -> &mut L1Cache {
        &mut self.l1d[core]
    }

    /// Core `c`'s instruction cache.
    pub fn icache(&mut self, core: usize) -> &mut L1Cache {
        &mut self.l1i[core]
    }

    /// Read-only view of core `c`'s data cache.
    #[must_use]
    pub fn dcache_ref(&self, core: usize) -> &L1Cache {
        &self.l1d[core]
    }

    /// Read-only view of core `c`'s instruction cache.
    #[must_use]
    pub fn icache_ref(&self, core: usize) -> &L1Cache {
        &self.l1i[core]
    }

    /// Submits a page-walker PTE load.
    pub fn push_walker_req(&mut self, req: UncachedReq) {
        let now = self.now;
        let chaos = self.chaos.clone();
        chaos_push(chaos.as_ref(), &mut self.walk_req, "mem.walk_req", now, req);
    }

    /// Pops a page-walker PTE response for `core`.
    pub fn pop_walker_resp(&mut self, core: usize) -> Option<UncachedResp> {
        // Only the head is inspected; per-core fairness is not an issue at
        // walker request rates.
        match self.walk_resp.peek_ready(self.now) {
            Some((c, _)) if *c == core => self.walk_resp.pop_ready(self.now).map(|(_, r)| r),
            _ => None,
        }
    }

    /// The first cycle, at or after [`MemSystem::now`], in which
    /// [`MemSystem::tick`] (or a page-walker response pop) may change
    /// anything but the cycle count: the earliest crossbar-queue head,
    /// DRAM issue or completion, or `now` whenever untimed work is pending
    /// in a cache. `u64::MAX` when the whole system is waiting on nothing.
    /// Until then [`MemSystem::skip`] stands for ticking.
    #[must_use]
    pub fn next_event(&self) -> u64 {
        let now = self.now;
        let heads = [
            self.c2p_req.head_due(),
            self.c2p_msg.head_due(),
            self.p2c.head_due(),
            self.walk_req.head_due(),
            self.walk_resp.head_due(),
        ];
        let mut t = heads.into_iter().flatten().min().unwrap_or(u64::MAX);
        for l1 in self.l1d.iter().chain(&self.l1i) {
            t = t.min(l1.next_event(now));
        }
        t.min(self.l2.next_event(now)).max(now)
    }

    /// Advances the clock `n` cycles with nothing else happening: the same
    /// state as `n` calls of [`MemSystem::tick`] when
    /// `now + n <= next_event()`.
    pub fn skip(&mut self, n: u64) {
        debug_assert!(self.now + n <= self.next_event(), "skip past an event");
        self.now += n;
    }

    /// Advances the entire memory system one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        // L1s tick and emit.
        let chaos = self.chaos.clone();
        for l1 in self.l1d.iter_mut().chain(self.l1i.iter_mut()) {
            l1.tick(now);
            while let Some(r) = l1.to_parent_req.pop_front() {
                chaos_push(chaos.as_ref(), &mut self.c2p_req, "mem.c2p_req", now, r);
            }
            while let Some(m) = l1.to_parent_msg.pop_front() {
                chaos_push(chaos.as_ref(), &mut self.c2p_msg, "mem.c2p_msg", now, m);
            }
        }
        // Deliver to L2.
        while let Some(r) = self.c2p_req.pop_ready(now) {
            self.l2.req_in.push_back(r);
        }
        while let Some(m) = self.c2p_msg.pop_ready(now) {
            self.l2.msg_in.push_back(m);
        }
        while let Some(w) = self.walk_req.pop_ready(now) {
            self.l2.uncached_in.push_back(w);
        }
        // L2 ticks and emits.
        self.l2.tick(now, &mut self.mem);
        for child in 0..self.l1d.len() * 2 {
            while let Some(r) = self.l2.resp_out[child].pop_front() {
                chaos_push(
                    chaos.as_ref(),
                    &mut self.p2c,
                    "mem.p2c",
                    now,
                    (child, ParentToChild::Grant(r)),
                );
            }
            while let Some(d) = self.l2.down_out[child].pop_front() {
                chaos_push(
                    chaos.as_ref(),
                    &mut self.p2c,
                    "mem.p2c",
                    now,
                    (child, ParentToChild::Down(d)),
                );
            }
        }
        for core in 0..self.l1d.len() {
            while let Some(u) = self.l2.uncached_out[core].pop_front() {
                chaos_push(
                    chaos.as_ref(),
                    &mut self.walk_resp,
                    "mem.walk_resp",
                    now,
                    (core, u),
                );
            }
        }
        // Deliver to L1s, preserving per-child order.
        while let Some((child, m)) = self.p2c.pop_ready(now) {
            self.child_mut(child).from_parent.push_back(m);
        }
        self.now += 1;
    }

    fn child_mut(&mut self, child: usize) -> &mut L1Cache {
        if child.is_multiple_of(2) {
            &mut self.l1d[child / 2]
        } else {
            &mut self.l1i[child / 2]
        }
    }

    /// Reads `bytes` (≤ 8, little-endian) at physical address `addr`
    /// through the coherence hierarchy **without** perturbing it: no LRU
    /// touches, no statistics, no messages. The freshest copy wins — an
    /// L1 D line in M state shadows the L2, which shadows DRAM — so after
    /// a run has quiesced this returns the architectural memory value even
    /// when the line is dirty in some core's cache.
    ///
    /// This is the litmus harness's final-state observation hook; it is
    /// only meaningful when the system is idle ([`MemSystem::is_idle`]),
    /// since an in-flight transaction may hold the line's data in a
    /// message queue that this peek cannot see.
    #[must_use]
    pub fn peek_coherent(&self, addr: u64, bytes: u8) -> u64 {
        use crate::cache::read_from_line;
        use crate::msg::{line_of, Msi};
        let line = line_of(addr);
        for l1 in &self.l1d {
            if let Some((Msi::M, data)) = l1.peek_line(line) {
                return read_from_line(data, addr, bytes);
            }
        }
        if let Some(data) = self.l2.peek_line(line) {
            return read_from_line(data, addr, bytes);
        }
        self.mem.read_le(addr, u64::from(bytes))
    }

    /// Whether every component is quiescent (test helper).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.l2.is_idle()
            && self.c2p_req.is_empty()
            && self.c2p_msg.is_empty()
            && self.p2c.is_empty()
            && self.l1d.iter().all(L1Cache::is_idle)
            && self.l1i.iter().all(L1Cache::is_idle)
    }

    /// A deterministic fingerprint of the memory configuration, embedded in
    /// snapshots so a restore into a differently shaped system fails with a
    /// structured error instead of silently corrupting state.
    #[must_use]
    pub fn config_digest(&self) -> String {
        format!("cores={} {:?}", self.l1d.len(), self.cfg)
    }

    /// Functional-warming fill (fast-forward): makes `line` resident in S
    /// state in core `core`'s L1 (I or D side) and the L2, with the data
    /// read from backing memory. Inclusive and eviction-free: the fill
    /// happens only when both levels already hold the line or have a free
    /// way, so no coherence traffic and no displacement of warmer lines.
    /// Returns whether the line is resident after the call.
    pub fn warm_line(&mut self, line: u64, core: usize, icache: bool) -> bool {
        let l1 = if icache {
            &self.l1i[core]
        } else {
            &self.l1d[core]
        };
        if !l1.warm_room(line) || !self.l2.warm_room(line) {
            return false;
        }
        let data = self.mem.read_line(line);
        let child = if icache { 2 * core + 1 } else { 2 * core };
        let in_l2 = self.l2.warm_insert(line, &data, Some(child));
        let l1 = if icache {
            &mut self.l1i[core]
        } else {
            &mut self.l1d[core]
        };
        let in_l1 = l1.warm_insert(line, &data);
        debug_assert!(in_l2 && in_l1, "warm_room said both levels had room");
        in_l2 && in_l1
    }

    /// Functional-warming fill of the L2 level alone (no L1 copy): used
    /// for the colder portion of the fast-forward recency window, whose
    /// lines would long since have been evicted from the tiny L1s but
    /// still occupy the L2 in a real run. The child's sharer bit is set
    /// anyway: L1s drop S lines silently, so in a real run the directory
    /// still names the old sharer and every later eviction of the line
    /// pays a recall round trip. Warming without the stale bit made
    /// post-handoff evictions unrealistically cheap until the whole L2
    /// had churned. Same eviction-free discipline as
    /// [`MemSystem::warm_line`]. Returns whether the line is resident in
    /// the L2 afterwards.
    pub fn warm_line_l2(&mut self, line: u64, core: usize, icache: bool) -> bool {
        if !self.l2.warm_room(line) {
            return false;
        }
        let data = self.mem.read_line(line);
        let child = if icache { 2 * core + 1 } else { 2 * core };
        self.l2.warm_insert(line, &data, Some(child))
    }
}

cmd_core::snapshot_fields!(MemSystem {
    mem,
    l1d: modules,
    l1i: modules,
    l2: module,
    c2p_req: module,
    c2p_msg: module,
    p2c: module,
    walk_req: module,
    walk_resp: module,
    now,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{AtomicOp, CoreReq, CoreResp, Msi};
    use riscy_isa::mem::DRAM_BASE;

    fn sys(cores: usize) -> MemSystem {
        let mut mem = SparseMem::new();
        for i in 0..1024 {
            mem.write_u64(DRAM_BASE + 8 * i, i);
        }
        let cfg = MemConfig {
            l2: L2Config {
                dram: crate::dram::DramConfig {
                    latency: 20,
                    max_outstanding: 8,
                    cycles_per_line: 2,
                },
                ..L2Config::default()
            },
            ..MemConfig::default()
        };
        MemSystem::new(cfg, cores, mem)
    }

    /// Runs until the D-cache of `core` produces a response.
    fn wait_resp(s: &mut MemSystem, core: usize, max: u64) -> CoreResp {
        for _ in 0..max {
            let now = s.now();
            if let Some(r) = s.dcache(core).pop_resp(now) {
                return r;
            }
            s.tick();
        }
        panic!("no response within {max} cycles");
    }

    #[test]
    fn load_miss_roundtrip_latency() {
        let mut s = sys(1);
        s.dcache(0)
            .request(CoreReq::Ld {
                tag: 1,
                addr: DRAM_BASE + 16,
                bytes: 8,
            })
            .unwrap();
        let start = s.now();
        let r = wait_resp(&mut s, 0, 500);
        assert_eq!(r, CoreResp::Ld { tag: 1, data: 2 });
        let lat = s.now() - start;
        assert!(lat >= 20, "must include DRAM latency, got {lat}");
        // Second access to the same line hits quickly.
        s.dcache(0)
            .request(CoreReq::Ld {
                tag: 2,
                addr: DRAM_BASE + 24,
                bytes: 8,
            })
            .unwrap();
        let start = s.now();
        let r = wait_resp(&mut s, 0, 50);
        assert_eq!(r, CoreResp::Ld { tag: 2, data: 3 });
        assert!(s.now() - start <= 5, "hit must be fast");
    }

    #[test]
    fn store_and_read_back_through_hierarchy() {
        let mut s = sys(1);
        let line = DRAM_BASE;
        s.dcache(0)
            .request(CoreReq::St { sb_idx: 0, line })
            .unwrap();
        let r = wait_resp(&mut s, 0, 500);
        assert_eq!(r, CoreResp::St { sb_idx: 0 });
        let mut data = [0u8; 64];
        let mut en = [false; 64];
        data[0] = 0xcd;
        en[0] = true;
        s.dcache(0).write_data(line, &data, &en);
        s.dcache(0)
            .request(CoreReq::Ld {
                tag: 9,
                addr: line,
                bytes: 1,
            })
            .unwrap();
        let r = wait_resp(&mut s, 0, 100);
        assert_eq!(r, CoreResp::Ld { tag: 9, data: 0xcd });
    }

    #[test]
    fn coherence_migrates_dirty_line_between_cores() {
        let mut s = sys(2);
        let line = DRAM_BASE + 0x400;
        // Core 0 writes.
        s.dcache(0)
            .request(CoreReq::St { sb_idx: 0, line })
            .unwrap();
        let r = wait_resp(&mut s, 0, 500);
        assert_eq!(r, CoreResp::St { sb_idx: 0 });
        let mut data = [0u8; 64];
        let mut en = [false; 64];
        data[5] = 0x77;
        en[5] = true;
        s.dcache(0).write_data(line, &data, &en);
        assert_eq!(s.dcache_ref(0).line_state(line), Msi::M);
        // Core 1 reads and must see core 0's store.
        s.dcache(1)
            .request(CoreReq::Ld {
                tag: 3,
                addr: line + 5,
                bytes: 1,
            })
            .unwrap();
        let r = wait_resp(&mut s, 1, 500);
        assert_eq!(r, CoreResp::Ld { tag: 3, data: 0x77 });
        // Core 0 is demoted to S.
        assert_eq!(s.dcache_ref(0).line_state(line), Msi::S);
        assert_eq!(s.dcache_ref(1).line_state(line), Msi::S);
    }

    #[test]
    fn write_write_migration() {
        let mut s = sys(2);
        let line = DRAM_BASE + 0x800;
        for core in 0..2 {
            s.dcache(core)
                .request(CoreReq::St {
                    sb_idx: core as u32,
                    line,
                })
                .unwrap();
            let r = wait_resp(&mut s, core, 500);
            assert_eq!(
                r,
                CoreResp::St {
                    sb_idx: core as u32
                }
            );
            let mut data = [0u8; 64];
            let mut en = [false; 64];
            data[core] = 0xa0 + core as u8;
            en[core] = true;
            s.dcache(core).write_data(line, &data, &en);
        }
        assert_eq!(s.dcache_ref(0).line_state(line), Msi::I, "invalidated");
        assert_eq!(s.dcache_ref(1).line_state(line), Msi::M);
        // Core 0 loads back: must see both writes.
        s.dcache(0)
            .request(CoreReq::Ld {
                tag: 1,
                addr: line,
                bytes: 2,
            })
            .unwrap();
        let r = wait_resp(&mut s, 0, 500);
        assert_eq!(
            r,
            CoreResp::Ld {
                tag: 1,
                data: 0xa1a0
            }
        );
    }

    #[test]
    fn amo_counter_across_cores_is_atomic() {
        let mut s = sys(2);
        let addr = DRAM_BASE + 0xc00;
        for round in 0..5u64 {
            for core in 0..2 {
                s.dcache(core)
                    .request(CoreReq::Atomic {
                        tag: 1,
                        addr,
                        bytes: 8,
                        op: AtomicOp::Amo(riscy_isa::inst::AmoOp::Add, 1),
                    })
                    .unwrap();
                let r = wait_resp(&mut s, core, 1000);
                // The fixture initializes this word to its index (0xc00/8).
                let init = 384;
                match r {
                    CoreResp::Atomic { data, .. } => {
                        assert_eq!(data, init + round * 2 + core as u64);
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn lr_sc_broken_by_remote_write() {
        let mut s = sys(2);
        let addr = DRAM_BASE + 0x1000;
        // Core 0: LR.
        s.dcache(0)
            .request(CoreReq::Atomic {
                tag: 1,
                addr,
                bytes: 8,
                op: AtomicOp::Lr,
            })
            .unwrap();
        wait_resp(&mut s, 0, 500);
        // Core 1: store to the same line (invalidates core 0).
        s.dcache(1)
            .request(CoreReq::St {
                sb_idx: 0,
                line: addr,
            })
            .unwrap();
        let r = wait_resp(&mut s, 1, 500);
        assert_eq!(r, CoreResp::St { sb_idx: 0 });
        s.dcache(1).write_data(addr, &[0u8; 64], &[true; 64]);
        // Core 0: SC must fail.
        s.dcache(0)
            .request(CoreReq::Atomic {
                tag: 2,
                addr,
                bytes: 8,
                op: AtomicOp::Sc(5),
            })
            .unwrap();
        let r = wait_resp(&mut s, 0, 500);
        assert_eq!(r, CoreResp::Atomic { tag: 2, data: 1 });
    }

    #[test]
    fn icache_fetch_and_eviction_note_on_remote_write() {
        let mut s = sys(1);
        let line = DRAM_BASE;
        s.icache(0)
            .request(CoreReq::Ld {
                tag: 0,
                addr: line,
                bytes: 8,
            })
            .unwrap();
        for _ in 0..300 {
            let now = s.now();
            if s.icache(0).pop_resp(now).is_some() {
                break;
            }
            s.tick();
        }
        assert_eq!(s.icache_ref(0).line_state(line), Msi::S);
        // D-side write to the same line invalidates the I copy (coherent
        // fetches).
        s.dcache(0)
            .request(CoreReq::St { sb_idx: 0, line })
            .unwrap();
        let r = wait_resp(&mut s, 0, 500);
        assert_eq!(r, CoreResp::St { sb_idx: 0 });
        s.dcache(0).write_data(line, &[1u8; 64], &[true; 64]);
        for _ in 0..50 {
            s.tick();
        }
        assert_eq!(s.icache_ref(0).line_state(line), Msi::I);
        assert!(s.icache(0).evict_notes.contains(&line));
    }

    #[test]
    fn many_outstanding_misses_pipeline() {
        let mut s = sys(1);
        // 8 loads to distinct lines all outstanding at once.
        for i in 0..8u64 {
            s.dcache(0)
                .request(CoreReq::Ld {
                    tag: i as u32,
                    addr: DRAM_BASE + 64 * i,
                    bytes: 8,
                })
                .unwrap();
        }
        let start = s.now();
        let mut got = 0;
        let mut finish = 0;
        while got < 8 {
            let now = s.now();
            while s.dcache(0).pop_resp(now).is_some() {
                got += 1;
                finish = now;
            }
            s.tick();
            assert!(s.now() - start < 1000, "deadlock");
        }
        let total = finish - start;
        // Serial latency would be ≥ 8 × (20 + overhead); overlap must beat it.
        assert!(total < 8 * 25, "misses must overlap: {total}");
    }

    #[test]
    fn peek_coherent_reads_dirty_lines_without_perturbing() {
        let mut s = sys(2);
        let line = DRAM_BASE + 0x400;
        s.dcache(0)
            .request(CoreReq::St { sb_idx: 0, line })
            .unwrap();
        let r = wait_resp(&mut s, 0, 500);
        assert_eq!(r, CoreResp::St { sb_idx: 0 });
        let mut data = [0u8; 64];
        let mut en = [false; 64];
        data[8..16].copy_from_slice(&0xdead_beef_0bad_cafeu64.to_le_bytes());
        for e in &mut en[8..16] {
            *e = true;
        }
        s.dcache(0).write_data(line, &data, &en);
        assert_eq!(s.dcache_ref(0).line_state(line), Msi::M);
        let before = (
            s.dcache_ref(0).stats.hits,
            s.dcache_ref(0).stats.misses,
            s.l2.stats.hits,
            s.l2.stats.misses,
        );
        // The dirty M-state value is visible without any coherence action.
        assert_eq!(s.peek_coherent(line + 8, 8), 0xdead_beef_0bad_cafe);
        // A never-cached address falls through to backing memory.
        assert_eq!(s.peek_coherent(DRAM_BASE + 8 * 7, 8), 7);
        let after = (
            s.dcache_ref(0).stats.hits,
            s.dcache_ref(0).stats.misses,
            s.l2.stats.hits,
            s.l2.stats.misses,
        );
        assert_eq!(before, after, "peek must not touch statistics");
        assert_eq!(s.dcache_ref(0).line_state(line), Msi::M, "state unchanged");
    }

    #[test]
    fn walker_reads_route_through_l2() {
        let mut s = sys(1);
        s.mem.write_u64(DRAM_BASE + 0x2000, 0xfeed);
        s.push_walker_req(UncachedReq {
            core: 0,
            tag: 4,
            addr: DRAM_BASE + 0x2000,
        });
        for _ in 0..300 {
            if let Some(r) = s.pop_walker_resp(0) {
                assert_eq!(
                    r,
                    UncachedResp {
                        tag: 4,
                        data: 0xfeed
                    }
                );
                return;
            }
            s.tick();
        }
        panic!("walker response never arrived");
    }
}
