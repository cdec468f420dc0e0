//! The SoC: one or more RiscyOO cores composed with the shared memory
//! system (paper Figs. 9 and 11), plus the MMIO devices and the run loop.

use std::cell::RefCell;
use std::rc::Rc;

use cmd_core::cell::Ehr;
use cmd_core::chaos::FaultEngine;
use cmd_core::clock::Clock;
use cmd_core::guard::Guarded;
use cmd_core::journal::EhrDeque;
use cmd_core::prof::ChromeTrace;
use cmd_core::sched::{Horizon, SchedulerMode, Wakeup};
use cmd_core::sim::{RuleId, RuleStats, Sim, SimError};
use riscy_isa::asm::Program;
use riscy_isa::csr::{CsrFile, Priv};
use riscy_isa::interp::Machine;
use riscy_isa::mem::{MMIO_EXIT, MMIO_PUTCHAR, MMIO_ROI};
use riscy_mem::cache::L1Cache;
use riscy_mem::msg::{CoreReq, CoreResp, Line};
use riscy_mem::system::{MemConfig, MemSystem};

use crate::config::CoreConfig;
use crate::core::CoreState;
use crate::frontend::{Btb, Ras, Tournament};
use crate::iq::{IssueQueue, IQ_FULL};
use crate::lsq::Lsq;
use crate::pipetrace::PipeTrace;
use crate::prf::{Bypass, Prf};
use crate::rename::{RenameTable, SpecManager};
use crate::rob::{Rob, ROB_FULL};
use crate::sb::StoreBuffer;
use crate::tlbport::{TlbHier, TlbResp};
use crate::tma::{TmaBuckets, TmaState};

/// Per-core performance counters (sources for Figs. 15–20).
///
/// `PartialEq`/`Eq` let tests assert the observability invariant: a traced
/// run and an untraced run produce identical counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions committed.
    pub committed: u64,
    /// Conditional branches + indirect jumps committed.
    pub branches: u64,
    /// Mispredictions (exec-time redirects).
    pub mispredicts: u64,
    /// Commit-time flushes due to load-speculation kills.
    pub ld_kill_flushes: u64,
    /// Commit-time flushes due to exceptions/system instructions.
    pub system_flushes: u64,
    /// L1 D TLB misses (parked requests).
    pub dtlb_misses: u64,
    /// Cycles inside the region of interest.
    pub roi_cycles: u64,
    /// Instructions committed inside the region of interest.
    pub roi_insts: u64,
    /// Rename stalls because the target issue queue was full.
    pub iq_full_stalls: u64,
    /// Rename stalls because the ROB was full.
    pub rob_full_stalls: u64,
    /// Load issues that stayed in the LQ to retry later (blocked by the
    /// store buffer / unknown older store data — paper Fig. 10's stalled
    /// loads).
    pub lsq_replays: u64,
    /// Store-buffer entries drained to the L1 D cache (WMM).
    pub sb_drains: u64,
    /// Sum of start-of-cycle ROB occupancy over `occ_cycles` samples.
    pub rob_occ_sum: u64,
    /// Sum of start-of-cycle total-IQ occupancy over `occ_cycles` samples.
    pub iq_occ_sum: u64,
    /// Occupancy samples taken (one per cycle).
    pub occ_cycles: u64,
}

impl CoreStats {
    /// Mean ROB occupancy per cycle.
    #[must_use]
    pub fn rob_occ_avg(&self) -> f64 {
        if self.occ_cycles == 0 {
            0.0
        } else {
            self.rob_occ_sum as f64 / self.occ_cycles as f64
        }
    }

    /// Mean total issue-queue occupancy per cycle.
    #[must_use]
    pub fn iq_occ_avg(&self) -> f64 {
        if self.occ_cycles == 0 {
            0.0
        } else {
            self.iq_occ_sum as f64 / self.occ_cycles as f64
        }
    }
}

/// Memory-mapped devices shared by all cores (HTIF substitute).
#[derive(Debug)]
pub struct Devices {
    /// Exit codes, one cell per core; `Some` once halted. A cell, so the
    /// exit is written inside the committing rule's transaction and wakes
    /// a `fetch` sleeping on it.
    pub exited: Vec<Ehr<Option<u64>>>,
    /// Console bytes.
    pub console: Vec<u8>,
}

impl Devices {
    /// Handles an MMIO store performed at commit by `core`.
    /// Returns `true` when the address hit a device.
    pub fn store(&mut self, pa: u64, value: u64) -> bool {
        if (MMIO_EXIT..MMIO_EXIT + 8 * 8).contains(&pa) {
            let target = ((pa - MMIO_EXIT) / 8) as usize;
            if let Some(slot) = self.exited.get(target) {
                slot.write(Some(value));
            }
            true
        } else if pa == MMIO_PUTCHAR {
            self.console.push(value as u8);
            true
        } else {
            pa == MMIO_ROI // handled by the core's ROI bookkeeping
        }
    }
}

/// The assembled system under simulation.
pub struct Soc {
    /// Shared core configuration.
    pub cfg: CoreConfig,
    /// The coherent memory system (owns physical memory).
    pub mem: MemSystem,
    /// The cores.
    pub cores: Vec<CoreState>,
    /// MMIO devices.
    pub devices: Devices,
    /// Optional golden model for lock-step commit checking (single-core).
    pub golden: Option<Machine>,
    /// Co-simulation mismatches (fatal in tests).
    pub cosim_errors: Vec<String>,
    /// The kernel clock (`mdExec` names its countdown's end with it).
    pub clk: Clock,
}

/// One core's boundary to the memory system (paper §V): the FIFOs and
/// credits its rules use instead of the plain [`L1Cache`]s and [`TlbHier`]
/// behind them. Core rules push requests and store data and pop
/// responses, evictions and translations, all transactionally; the
/// substrate moves what they handed over into the caches before the tick
/// that serves it, and what the ticks produced out after them, and mirrors
/// each L1's free request slots and each TLB side's miss status. So every
/// guard reads only cells, and a core rule's read of the memory system
/// sleeps and wakes like any other.
pub struct MemPort {
    /// Requests to the L1 D, in issue order.
    pub d_req: EhrDeque<CoreReq>,
    /// Store data for lines the L1 D locked: `(line, data, byte enables)`.
    pub d_write: EhrDeque<(u64, Line, [bool; 64])>,
    /// The L1 D's free request slots after the last tick: it is full for
    /// the rest of the cycle once `d_req` holds that many.
    pub d_free: Ehr<u8>,
    /// L1 D responses that have arrived.
    pub d_resp: EhrDeque<CoreResp>,
    /// Lines that left the L1 D (the TSO load kills of `cacheEvict`).
    pub evict: EhrDeque<u64>,
    /// Fetch requests to the L1 I.
    pub i_req: EhrDeque<CoreReq>,
    /// The L1 I's free request slots after the last tick.
    pub i_free: Ehr<u8>,
    /// L1 I responses that have arrived.
    pub i_resp: EhrDeque<CoreResp>,
    /// Finished D-side translations.
    pub dtlb_resp: EhrDeque<TlbResp>,
    /// An I-side translation miss is outstanding.
    pub itlb_busy: Ehr<bool>,
    /// The VA of the I-side miss whose page walk faulted, until `fetch`
    /// takes it (a faulting walk leaves the I TLB without an entry).
    pub itlb_fault: Ehr<Option<u64>>,
    /// A D-side translation miss is outstanding.
    pub dtlb_busy: Ehr<bool>,
}

impl MemPort {
    fn new(clk: &Clock, d: &L1Cache, i: &L1Cache) -> Self {
        MemPort {
            d_req: EhrDeque::new(clk, 8),
            d_write: EhrDeque::new(clk, 2),
            d_free: Ehr::new(clk, credit(d)),
            d_resp: EhrDeque::new(clk, 8),
            evict: EhrDeque::new(clk, 8),
            i_req: EhrDeque::new(clk, 1),
            i_free: Ehr::new(clk, credit(i)),
            i_resp: EhrDeque::new(clk, 4),
            dtlb_resp: EhrDeque::new(clk, 4),
            itlb_busy: Ehr::new(clk, false),
            itlb_fault: Ehr::new(clk, None),
            dtlb_busy: Ehr::new(clk, false),
        }
    }

    /// Whether the L1 D takes no more requests this cycle.
    pub(crate) fn d_full(&self) -> bool {
        self.d_req.len() >= usize::from(self.d_free.read())
    }

    /// Whether the L1 I takes no more requests this cycle.
    pub(crate) fn i_full(&self) -> bool {
        self.i_req.len() >= usize::from(self.i_free.read())
    }

    /// Whether no request, store data or response is between the core and
    /// its L1s.
    pub(crate) fn is_idle(&self) -> bool {
        self.d_req.is_empty()
            && self.d_write.is_empty()
            && self.d_resp.is_empty()
            && self.i_req.is_empty()
            && self.i_resp.is_empty()
    }
}

/// `l1`'s free request slots, as the boundary's credit cells hold them.
pub(crate) fn credit(l1: &L1Cache) -> u8 {
    u8::try_from(l1.free_slots()).expect("an L1 takes at most 255 requests")
}

impl Soc {
    /// Builds a `num_cores`-core SoC running `program`.
    #[must_use]
    pub fn new(
        clk: &Clock,
        cfg: CoreConfig,
        mem_cfg: MemConfig,
        num_cores: usize,
        program: &Program,
    ) -> Self {
        let mut pmem = riscy_isa::mem::SparseMem::new();
        program.load(&mut pmem);
        let mem = MemSystem::new(mem_cfg, num_cores, pmem);
        let cores = (0..num_cores)
            .map(|id| CoreState::new(clk, id, &cfg, program.entry, &mem))
            .collect();
        Soc {
            cfg,
            mem,
            cores,
            devices: Devices {
                exited: (0..num_cores).map(|_| Ehr::new(clk, None)).collect(),
                console: Vec::new(),
            },
            golden: None,
            cosim_errors: Vec::new(),
            clk: clk.clone(),
        }
    }

    /// Enables lock-step golden-model checking (single-core only).
    ///
    /// # Panics
    ///
    /// Panics when called on a multi-core SoC.
    pub fn enable_cosim(&mut self, program: &Program) {
        assert_eq!(self.cores.len(), 1, "co-simulation is single-core");
        self.golden = Some(Machine::with_program(1, program));
    }

    /// Whether every core has written its exit device.
    #[must_use]
    pub fn all_exited(&self) -> bool {
        self.devices.exited.iter().all(|e| e.read().is_some())
    }

    /// Current cycle (the memory system's clock is the global one).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.mem.now()
    }
}

impl Horizon for Soc {
    /// Cycles until the substrate may write a boundary cell: the memory
    /// system's and the TLBs' next events, and the cycle before an L1
    /// response arrives (the substrate delivers what has arrived by the end
    /// of its tick, `now + 1`). The clock jumps only after a cycle in which
    /// no core rule fired, so nothing waits to cross towards memory and no
    /// TLB miss was launched since the tick mirrored the busy cells.
    fn horizon(&self) -> u64 {
        let now = self.mem.now();
        let mut next = self.mem.next_event();
        for (c, core) in self.cores.iter().enumerate() {
            let p = &core.port;
            debug_assert!(
                p.d_req.is_empty() && p.d_write.is_empty() && p.i_req.is_empty(),
                "core {c} has memory traffic waiting at a clock jump"
            );
            debug_assert!(
                p.itlb_busy.read() == core.tlb.i_miss_pending()
                    && p.dtlb_busy.read() == core.tlb.d_miss_pending(),
                "core {c}'s TLB busy cells lag its TLB at a clock jump"
            );
            next = next.min(core.tlb.next_event(now));
            for l1 in [self.mem.dcache_ref(c), self.mem.icache_ref(c)] {
                if let Some(t) = l1.next_resp_after(now) {
                    next = next.min(t - 1);
                }
            }
        }
        next - now
    }

    /// The substrate's per-cycle bulk: the memory clock and the occupancy
    /// samples of `CoreStats`.
    fn skip(&mut self, n: u64) {
        self.mem.skip(n);
        for core in &mut self.cores {
            core.stats.rob_occ_sum += core.rob.len() as u64 * n;
            core.stats.iq_occ_sum += core.iqs.iter().map(IssueQueue::len).sum::<usize>() as u64 * n;
            core.stats.occ_cycles += n;
        }
    }
}

/// Why a [`SocSim`] run stopped before every core exited.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The CMD scheduler failed: a diagnosed deadlock (with wait graph) or
    /// an undeclared register conflict.
    Sim(SimError),
    /// The golden model disagreed with a committed instruction.
    Cosim(String),
    /// The cycle budget ran out while rules were still firing.
    Budget {
        /// The exhausted budget.
        max_cycles: u64,
        /// Instructions committed per core when the budget expired.
        committed: Vec<u64>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::Cosim(e) => write!(f, "co-simulation mismatch: {e}"),
            RunError::Budget {
                max_cycles,
                committed,
            } => write!(
                f,
                "cycle budget {max_cycles} exhausted; committed {committed:?}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// A fully wired simulation of a [`Soc`]: builds the rule schedule in the
/// canonical order and runs it.
pub struct SocSim {
    sim: Sim<Soc>,
    chaos: Option<FaultEngine>,
    /// The Chrome trace exporter, while [`SocSim::enable_chrome_trace`]'s
    /// trace has not been collected.
    chrome: Option<Rc<RefCell<ChromeTrace>>>,
}

/// Retired-instruction spans a core keeps for its Chrome trace track
/// before it starts dropping them (keeps the artifact bounded).
const CHROME_SPAN_CAP: usize = 100_000;

impl SocSim {
    /// Builds the SoC and registers every rule.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::config::ConfigError) of a
    /// configuration that [`CoreConfig::check`] or [`MemConfig::check`]
    /// refuses; check first to handle it.
    #[must_use]
    pub fn new(cfg: CoreConfig, mem_cfg: MemConfig, num_cores: usize, program: &Program) -> Self {
        if let Err(e) = cfg.check().and_then(|()| mem_cfg.check()) {
            panic!("{e}");
        }
        let clk = Clock::new();
        let soc = Soc::new(&clk, cfg, mem_cfg, num_cores, program);
        let mut sim = Sim::new(clk, soc);
        // Substrate first: cache/TLB/DRAM responses become visible to the
        // core rules of the same cycle. It always fires (it is the clock of
        // the memory system, not a guarded pipeline stage), so it must not
        // count as forward progress for the scheduler watchdog.
        let substrate = sim.rule("substrate", |s: &mut Soc| {
            s.rule_substrate();
            Ok(())
        });
        sim.exempt_from_watchdog(substrate);
        // A full miss chain (DTLB walk → L2 miss → DRAM, 120-cycle DRAM
        // latency, bandwidth-queued behind other cores) can legitimately
        // silence every core rule for hundreds of cycles, so the SoC uses a
        // far larger quiet window than the kernel default before declaring
        // deadlock.
        sim.set_watchdog(Some(10_000));
        // Every core rule sleeps on the cells its stalling path read
        // (`Wakeup::Inferred`, see `docs/SCHEDULING.md` §"Waking the SoC"),
        // the memory system's included: a core reaches it only through its
        // `MemPort` cells. A statistic counted on every stalled cycle is a
        // stall callback (`Sim::on_stall`), not a mutation in the body, and
        // the one stall that waits on time (`mdExec`'s countdown) names its
        // wake cycle with `Clock::wake_at`.
        fn rule(
            sim: &mut Sim<Soc>,
            c: usize,
            name: &str,
            body: impl FnMut(&mut Soc) -> Guarded<()> + 'static,
        ) -> RuleId {
            let id = sim.rule(format!("c{c}.{name}"), body);
            sim.set_wakeup(id, Wakeup::Inferred);
            id
        }
        for c in 0..num_cores {
            for k in 0..cfg.width {
                rule(&mut sim, c, &format!("commit{k}"), move |s| {
                    s.rule_commit(c)
                });
            }
            rule(&mut sim, c, "cacheEvict", move |s| s.rule_cache_evict(c));
            for p in 0..cfg.alu_pipes {
                rule(&mut sim, c, &format!("aluWb{p}"), move |s| {
                    s.rule_alu_writeback(c, p)
                });
            }
            rule(&mut sim, c, "mdWb", move |s| s.rule_md_writeback(c));
            rule(&mut sim, c, "respLd", move |s| s.rule_resp_ld(c));
            rule(&mut sim, c, "forward", move |s| s.rule_forward(c));
            for p in 0..cfg.alu_pipes {
                rule(&mut sim, c, &format!("aluExec{p}"), move |s| {
                    s.rule_alu_exec(c, p)
                });
            }
            rule(&mut sim, c, "mdExec", move |s| s.rule_md_exec(c));
            rule(&mut sim, c, "addrCalc", move |s| s.rule_addr_calc(c));
            rule(&mut sim, c, "updateLsq", move |s| s.rule_update_lsq(c));
            rule(&mut sim, c, "issueLd", move |s| s.rule_issue_ld(c));
            rule(&mut sim, c, "deqLd", move |s| s.rule_deq_ld(c));
            rule(&mut sim, c, "deqSt", move |s| s.rule_deq_st(c));
            rule(&mut sim, c, "sbIssue", move |s| s.rule_sb_issue(c));
            rule(&mut sim, c, "respSt", move |s| s.rule_resp_st(c));
            for p in 0..cfg.alu_pipes {
                rule(&mut sim, c, &format!("issueAlu{p}"), move |s| {
                    s.rule_issue_alu(c, p)
                });
            }
            rule(&mut sim, c, "issueMd", move |s| s.rule_issue_md(c));
            rule(&mut sim, c, "issueMem", move |s| s.rule_issue_mem(c));
            for k in 0..cfg.width {
                let id = rule(&mut sim, c, &format!("rename{k}"), move |s| {
                    s.rule_rename(c)
                });
                sim.on_stall(id, move |s: &mut Soc, reason| {
                    let stats = &mut s.cores[c].stats;
                    match reason {
                        IQ_FULL => stats.iq_full_stalls += 1,
                        ROB_FULL => stats.rob_full_stalls += 1,
                        _ => {}
                    }
                });
            }
            rule(&mut sim, c, "fetchResp", move |s| s.rule_fetch_resp(c));
            rule(&mut sim, c, "decode", move |s| s.rule_decode(c));
            rule(&mut sim, c, "fetch", move |s| s.rule_fetch(c));
        }
        SocSim {
            sim,
            chaos: None,
            chrome: None,
        }
    }

    /// The SoC under simulation.
    #[must_use]
    pub fn soc(&self) -> &Soc {
        self.sim.state()
    }

    /// Mutable access (test setup, e.g. enabling co-simulation).
    pub fn soc_mut(&mut self) -> &mut Soc {
        self.sim.state_mut()
    }

    /// Runs one cycle.
    pub fn cycle(&mut self) {
        self.sim.cycle();
    }

    /// Cycles executed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.sim.cycles()
    }

    /// Attaches a fault-injection engine to the whole SoC: scheduler-level
    /// faults (forced guard stalls, rule aborts) on every core rule,
    /// bit flips on each core's architectural anchor cells (`c{c}.fetch_pc`,
    /// `c{c}.epoch`), and drop/delay/duplicate faults on the memory
    /// interconnect (`mem.*` sites, see
    /// [`MemSystem::set_chaos`](riscy_mem::system::MemSystem::set_chaos)).
    pub fn attach_chaos(&mut self, engine: &FaultEngine) {
        for (c, core) in self.sim.state().cores.iter().enumerate() {
            engine.register_ehr_u64(format!("c{c}.fetch_pc"), &core.fetch_pc);
            engine.register_ehr_u64(format!("c{c}.epoch"), &core.epoch);
        }
        self.sim.state_mut().mem.set_chaos(engine);
        self.sim.attach_chaos(engine);
        self.chaos = Some(engine.clone());
    }

    /// Selects the rule scheduler (see [`cmd_core::sched`] and
    /// `docs/SCHEDULING.md`). The default is [`SchedulerMode::Fast`];
    /// [`SchedulerMode::Reference`] re-enables the one-rule-at-a-time oracle
    /// for equivalence checking.
    ///
    /// Core rules sleep on the cells their stalling path read, the
    /// boundary cells to the memory system included, which the substrate
    /// writes when what is behind them changes;
    /// [`SocSim::run_to_completion`] jumps over cycles in which every core
    /// rule sleeps. Both modes stay cycle- and
    /// counter-identical; the equivalence suites in `tests/` assert it.
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.sim.set_scheduler(mode);
    }

    /// The active scheduler mode.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerMode {
        self.sim.scheduler()
    }

    /// Overrides the scheduler watchdog's quiet-cycle threshold
    /// (`None` disables it).
    pub fn set_watchdog(&mut self, threshold: Option<u64>) {
        self.sim.set_watchdog(threshold);
    }

    /// The current wait graph (what every stalled rule is waiting on).
    #[must_use]
    pub fn wait_graph(&self) -> cmd_core::sim::DeadlockReport {
        self.sim.wait_graph()
    }

    /// Runs until every core exits. Under the fast scheduler, stretches in
    /// which every core rule sleeps on the memory system are jumped over
    /// ([`Sim::try_advance`]), with the same result as stepping them.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Budget`] when the cycle budget is exhausted
    /// first, [`RunError::Cosim`] on a golden-model mismatch, and
    /// [`RunError::Sim`] when the scheduler watchdog diagnoses a deadlock
    /// or a rule commits an undeclared register conflict.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Result<u64, RunError> {
        let mut ran = 0;
        while ran < max_cycles {
            if self.soc().all_exited() {
                return Ok(self.cycles());
            }
            if let Some(e) = self.soc().cosim_errors.first() {
                return Err(RunError::Cosim(e.clone()));
            }
            ran += self.sim.try_advance(max_cycles - ran)?;
        }
        if self.soc().all_exited() {
            Ok(self.cycles())
        } else {
            Err(RunError::Budget {
                max_cycles,
                committed: self.soc().cores.iter().map(|c| c.stats.committed).collect(),
            })
        }
    }

    /// The per-core exit codes (`None` entries have not exited).
    #[must_use]
    pub fn exit_codes(&self) -> Vec<Option<u64>> {
        self.soc().devices.exited.iter().map(Ehr::read).collect()
    }

    /// Runs up to `max_extra` additional cycles until every architectural
    /// store has landed: all LSQs, store buffers and boundary FIFOs empty
    /// and the memory system idle. Returns `true` once quiesced.
    ///
    /// Cores stop fetching after their exit-device store, so after
    /// [`SocSim::run_to_completion`] succeeds only in-flight stores remain;
    /// this drains them so
    /// [`MemSystem::peek_coherent`](riscy_mem::system::MemSystem::peek_coherent)
    /// observes the final memory state. Scheduler-watchdog "deadlocks"
    /// during the drain (every rule idle once drained) are expected and
    /// ignored.
    pub fn drain_memory(&mut self, max_extra: u64) -> bool {
        let quiesced = |soc: &Soc| {
            soc.mem.is_idle()
                && soc
                    .cores
                    .iter()
                    .all(|c| c.lsq.is_empty() && c.sb.is_empty() && c.port.is_idle())
        };
        for _ in 0..max_extra {
            if quiesced(self.soc()) {
                return true;
            }
            self.sim.cycle();
        }
        quiesced(self.soc())
    }

    /// The scheduling report of the underlying CMD simulation, followed by
    /// a per-core microarchitectural summary (IPC, occupancies, TLB and
    /// cache miss rates).
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = self.sim.report();
        let soc = self.soc();
        let cycles = self.cycles().max(1);
        for core in &soc.cores {
            let s = &core.stats;
            out.push_str(&format!(
                "core {}: committed {} (ipc {:.3})  branches {}  mispredicts {}  \
                 rob-occ {:.1}  iq-occ {:.1}\n",
                core.id,
                s.committed,
                s.committed as f64 / cycles as f64,
                s.branches,
                s.mispredicts,
                s.rob_occ_avg(),
                s.iq_occ_avg(),
            ));
            out.push_str(&format!(
                "  stalls: iq-full {}  rob-full {}  lsq-replays {}  sb-drains {}\n",
                s.iq_full_stalls, s.rob_full_stalls, s.lsq_replays, s.sb_drains
            ));
            let i1 = &soc.mem.icache_ref(core.id).stats;
            let d1 = &soc.mem.dcache_ref(core.id).stats;
            out.push_str(&format!(
                "  l1i {}/{} miss {:.4}  l1d {}/{} miss {:.4}  \
                 itlb {}/{}  dtlb {}/{}  l2tlb {}/{}  walks {}\n",
                i1.misses,
                i1.hits + i1.misses,
                i1.miss_rate(),
                d1.misses,
                d1.hits + d1.misses,
                d1.miss_rate(),
                core.tlb.itlb.misses,
                core.tlb.itlb.hits + core.tlb.itlb.misses,
                core.tlb.dtlb.misses,
                core.tlb.dtlb.hits + core.tlb.dtlb.misses,
                core.tlb.l2.misses,
                core.tlb.l2.hits + core.tlb.l2.misses,
                core.tlb.walks,
            ));
        }
        let l2 = &soc.mem.l2.stats;
        out.push_str(&format!(
            "l2: {}/{} miss {:.4}  writebacks {}  downgrades {}\n",
            l2.misses,
            l2.hits + l2.misses,
            l2.miss_rate(),
            l2.writebacks,
            l2.downgrades
        ));
        out
    }

    /// Attaches a structured-event tracer (scheduler + clock events, see
    /// [`cmd_core::trace`]). Purely observational.
    pub fn set_tracer(&mut self, tracer: cmd_core::trace::Tracer) {
        self.sim.set_tracer(tracer);
    }

    /// The kernel's rule-table totals ([`Sim::rule_totals`]): the stats
    /// JSON's `"scheduler"` object and the `sim.*` telemetry columns.
    #[must_use]
    pub fn rule_totals(&self) -> RuleStats {
        self.sim.rule_totals()
    }

    /// Enables per-instruction pipeline tracing on every core. Retired
    /// instructions are exported in the O3PipeView format; collect the text
    /// with [`SocSim::pipe_trace`]. Sequence numbers of different cores are
    /// offset so the concatenated trace stays Konata-loadable.
    pub fn enable_pipe_trace(&mut self) {
        let rob_entries = self.soc().cfg.rob_entries;
        for core in &mut self.sim.state_mut().cores {
            core.pipe
                .enable(rob_entries, core.id as u64 * 1_000_000_000);
        }
    }

    /// The concatenated O3PipeView trace of every core (empty unless
    /// [`SocSim::enable_pipe_trace`] was called before running).
    #[must_use]
    pub fn pipe_trace(&self) -> String {
        let mut out = String::new();
        for core in &self.soc().cores {
            out.push_str(&core.pipe.text());
        }
        out
    }

    /// A machine-readable stats snapshot: top-level `ipc` and `cycles`,
    /// one object per core (IPC, occupancies, stall counters, TLB and L1
    /// hit/miss counts), the shared L2, and the scheduler counters. Written
    /// by every `fig*` binary's `--stats-json`; see `docs/OBSERVABILITY.md`
    /// for the schema.
    #[must_use]
    pub fn stats_json(&self) -> String {
        use cmd_core::trace::json::JsonWriter;
        let soc = self.soc();
        let cycles = self.cycles();
        let total_committed: u64 = soc.cores.iter().map(|c| c.stats.committed).sum();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.schema_version();
        w.field_f64(
            "ipc",
            if cycles == 0 {
                0.0
            } else {
                total_committed as f64 / cycles as f64
            },
        );
        w.field_u64("cycles", cycles);
        w.field_u64("committed", total_committed);
        w.key("cores");
        w.begin_array();
        for core in &soc.cores {
            let s = &core.stats;
            w.begin_object();
            w.field_u64("id", core.id as u64);
            w.field_u64("committed", s.committed);
            w.field_f64(
                "ipc",
                if cycles == 0 {
                    0.0
                } else {
                    s.committed as f64 / cycles as f64
                },
            );
            w.field_u64("roi_insts", s.roi_insts);
            w.field_u64("roi_cycles", s.roi_cycles);
            w.field_u64("branches", s.branches);
            w.field_u64("mispredicts", s.mispredicts);
            w.field_u64("ld_kill_flushes", s.ld_kill_flushes);
            w.field_u64("system_flushes", s.system_flushes);
            w.field_f64("rob_occ_avg", s.rob_occ_avg());
            w.field_f64("iq_occ_avg", s.iq_occ_avg());
            w.field_u64("iq_full_stalls", s.iq_full_stalls);
            w.field_u64("rob_full_stalls", s.rob_full_stalls);
            w.field_u64("lsq_replays", s.lsq_replays);
            w.field_u64("sb_drains", s.sb_drains);
            for (name, hits, misses) in [
                ("itlb", core.tlb.itlb.hits, core.tlb.itlb.misses),
                ("dtlb", core.tlb.dtlb.hits, core.tlb.dtlb.misses),
                ("l2tlb", core.tlb.l2.hits, core.tlb.l2.misses),
            ] {
                w.key(name);
                w.begin_object();
                w.field_u64("hits", hits);
                w.field_u64("misses", misses);
                w.field_f64(
                    "miss_rate",
                    if hits + misses == 0 {
                        0.0
                    } else {
                        misses as f64 / (hits + misses) as f64
                    },
                );
                w.end_object();
            }
            w.field_u64("page_walks", core.tlb.walks);
            for (name, st) in [
                ("l1i", &soc.mem.icache_ref(core.id).stats),
                ("l1d", &soc.mem.dcache_ref(core.id).stats),
            ] {
                w.key(name);
                w.begin_object();
                w.field_u64("hits", st.hits);
                w.field_u64("misses", st.misses);
                w.field_f64("miss_rate", st.miss_rate());
                w.field_u64("writebacks", st.writebacks);
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        w.key("l2");
        w.begin_object();
        let l2 = &soc.mem.l2.stats;
        w.field_u64("hits", l2.hits);
        w.field_u64("misses", l2.misses);
        w.field_f64("miss_rate", l2.miss_rate());
        w.field_u64("writebacks", l2.writebacks);
        w.end_object();
        w.key("scheduler");
        w.begin_object();
        for (name, value) in self.sim.rule_totals().columns() {
            w.field_u64(name, value);
        }
        w.end_object();
        if let Some(engine) = &self.chaos {
            w.key("chaos");
            w.begin_object();
            w.field_u64("total", engine.fault_count() as u64);
            w.key("sites");
            w.begin_object();
            for (site, count) in engine.site_counts() {
                w.field_u64(&site, count);
            }
            w.end_object();
            w.end_object();
        }
        w.end_object();
        w.finish()
    }

    /// Turns on the causal profiler: per-rule host-time attribution and
    /// critical-path edges in the CMD kernel (see [`cmd_core::prof`]) plus
    /// per-core top-down (TMA) cycle accounting. Purely observational —
    /// cycles, counters, and traces are identical to an unprofiled run.
    pub fn enable_profiling(&mut self) {
        self.sim.enable_profiling();
        for core in &mut self.sim.state_mut().cores {
            core.tma = Some(TmaState::default());
        }
    }

    /// Turns on windowed telemetry: every `window` cycles the kernel
    /// snapshots its counters (plus the SoC columns below) into a bounded
    /// ring of at most `cap` windows (see [`cmd_core::telemetry`]). Purely
    /// observational — cycles and counters are identical to an
    /// uninstrumented run. The SoC contributes per-core architectural
    /// columns (`c<i>.committed`, `c<i>.roi_insts`, `c<i>.mispredicts`)
    /// and, when profiling is also on, the five per-core TMA buckets.
    ///
    /// Because the column layout freezes at the first window boundary,
    /// enable profiling (if wanted) *before* the first `window` cycles run.
    pub fn enable_telemetry(&mut self, window: u64, cap: usize) {
        self.sim.set_telemetry_tap(Box::new(|soc: &Soc| {
            let mut cols = Vec::new();
            for core in &soc.cores {
                let i = core.id;
                cols.push((format!("c{i}.committed"), core.stats.committed));
                cols.push((format!("c{i}.roi_insts"), core.stats.roi_insts));
                cols.push((format!("c{i}.mispredicts"), core.stats.mispredicts));
                if let Some(t) = &core.tma {
                    let b = t.buckets;
                    cols.push((format!("c{i}.tma.retiring"), b.retiring));
                    cols.push((format!("c{i}.tma.frontend_bound"), b.frontend_bound));
                    cols.push((format!("c{i}.tma.bad_speculation"), b.bad_speculation));
                    cols.push((format!("c{i}.tma.backend_core"), b.backend_core));
                    cols.push((format!("c{i}.tma.backend_memory"), b.backend_memory));
                }
            }
            cols
        }));
        self.sim.enable_telemetry(window, cap);
    }

    /// The kernel's telemetry ring, when [`SocSim::enable_telemetry`] was
    /// called.
    #[must_use]
    pub fn telemetry(&self) -> Option<&cmd_core::telemetry::Telemetry> {
        self.sim.telemetry()
    }

    /// The windowed time-series as deterministic JSON (empty ring when
    /// telemetry is off). Written by every `fig*` binary's
    /// `--telemetry-json`.
    #[must_use]
    pub fn telemetry_json(&self) -> String {
        self.sim.telemetry_json()
    }

    /// Per-core TMA buckets (`None` entries mean profiling was off).
    #[must_use]
    pub fn tma_buckets(&self) -> Vec<Option<TmaBuckets>> {
        self.soc()
            .cores
            .iter()
            .map(|c| c.tma.map(|t| t.buckets))
            .collect()
    }

    /// A human-readable top-down breakdown, one line per core: the share of
    /// sampled cycles spent retiring, frontend-bound, in bad speculation,
    /// backend-core-bound, and backend-memory-bound. Empty when profiling
    /// is off.
    #[must_use]
    pub fn tma_table(&self) -> String {
        let mut out = String::new();
        for core in &self.soc().cores {
            let Some(t) = &core.tma else { continue };
            let b = t.buckets;
            let total = b.total().max(1) as f64;
            if out.is_empty() {
                out.push_str("top-down cycle accounting (share of sampled cycles):\n");
            }
            out.push_str(&format!(
                "core {}: retiring {:5.1}%  frontend {:5.1}%  bad-spec {:5.1}%  \
                 backend-core {:5.1}%  backend-mem {:5.1}%  (cycles {})\n",
                core.id,
                100.0 * b.retiring as f64 / total,
                100.0 * b.frontend_bound as f64 / total,
                100.0 * b.bad_speculation as f64 / total,
                100.0 * b.backend_core as f64 / total,
                100.0 * b.backend_memory as f64 / total,
                b.total(),
            ));
        }
        out
    }

    /// A machine-readable profile: the CMD kernel's per-rule host-time and
    /// critical-path report under `"sim"` (see [`cmd_core::sim::Sim::profile_json`])
    /// plus the per-core top-down buckets under `"tma"`. Written by every
    /// `fig*` binary's `--profile-json`.
    #[must_use]
    pub fn profile_json(&self) -> String {
        use cmd_core::trace::json::JsonWriter;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.schema_version();
        w.key("sim");
        w.raw(&self.sim.profile_json());
        w.key("tma");
        w.begin_array();
        for core in &self.soc().cores {
            let Some(t) = &core.tma else { continue };
            let b = t.buckets;
            w.begin_object();
            w.field_u64("core", core.id as u64);
            w.field_u64("retiring", b.retiring);
            w.field_u64("frontend_bound", b.frontend_bound);
            w.field_u64("bad_speculation", b.bad_speculation);
            w.field_u64("backend_core", b.backend_core);
            w.field_u64("backend_memory", b.backend_memory);
            w.field_u64("total", b.total());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Attaches a Chrome trace-event (Perfetto) exporter: the scheduler's
    /// event stream through a [`ChromeTrace`] tracer, plus each core's
    /// retired-instruction spans (at most 100,000 a core) for its `core{n}`
    /// instruction track. Composes with [`SocSim::enable_pipe_trace`].
    /// Collect the JSON with [`SocSim::chrome_trace_json`] after the run.
    pub fn enable_chrome_trace(&mut self) {
        let rob_entries = self.soc().cfg.rob_entries;
        for core in &mut self.sim.state_mut().cores {
            core.pipe
                .enable_spans(rob_entries, core.id as u64 * 1_000_000_000, CHROME_SPAN_CAP);
        }
        let trace = Rc::new(RefCell::new(ChromeTrace::new()));
        self.sim
            .set_tracer(cmd_core::trace::Tracer::new(trace.clone()));
        self.chrome = Some(trace);
    }

    /// Finishes the Chrome trace of [`SocSim::enable_chrome_trace`]: copies
    /// every core's instruction spans onto its track and renders the JSON.
    /// `None` when no trace was enabled or it was already collected; call
    /// it once, after the run.
    pub fn chrome_trace_json(&mut self) -> Option<String> {
        let trace = self.chrome.take()?;
        let mut t = trace.borrow_mut();
        for core in &self.soc().cores {
            let tid = u32::try_from(core.id).expect("core id fits u32");
            t.set_inst_track(tid, &format!("core{}", core.id));
            for s in core.pipe.spans() {
                t.add_span(tid, s.mnemonic, s.fetch, s.retire, s.pc, s.seq);
            }
        }
        Some(t.finish_json())
    }
}

impl CoreState {
    /// Builds a reset core; its boundary cells, adopted after the rest,
    /// start with `mem`'s L1 credits.
    #[must_use]
    pub fn new(clk: &Clock, id: usize, cfg: &CoreConfig, entry: u64, mem: &MemSystem) -> Self {
        let num_iqs = cfg.alu_pipes + 2; // + mem + muldiv
        CoreState {
            id,
            cfg: *cfg,
            rt: RenameTable::new(clk, cfg.phys_regs),
            sm: SpecManager::new(clk, cfg.spec_tags),
            prf: Prf::new(clk, cfg.phys_regs),
            rob: Rob::new(clk, cfg.rob_entries),
            iqs: (0..num_iqs)
                .map(|_| IssueQueue::new(clk, cfg.iq_entries, cfg.phys_regs))
                .collect(),
            lsq: Lsq::new(clk, cfg.lq_entries, cfg.sq_entries),
            sb: StoreBuffer::new(clk, cfg.sb_entries),
            bypass: Bypass::new(clk, cfg.alu_pipes + 3),
            fetch_pc: Ehr::new(clk, entry),
            epoch: Ehr::new(clk, 0),
            fetch_seq: Ehr::new(clk, 0),
            fetch_expect: Ehr::new(clk, 0),
            inflight_fetch: EhrDeque::new(clk, 4),
            fetch_buf: EhrDeque::new(clk, 8),
            fetch_q: EhrDeque::new(clk, 4 * cfg.width),
            serialize: Ehr::new(clk, false),
            alu_ex: (0..cfg.alu_pipes).map(|_| Ehr::new(clk, None)).collect(),
            alu_wb: (0..cfg.alu_pipes).map(|_| Ehr::new(clk, None)).collect(),
            md_unit: Ehr::new(clk, None),
            md_wb: Ehr::new(clk, None),
            mem_ex: Ehr::new(clk, None),
            mem_wait_tlb: EhrDeque::new(clk, 4),
            forward_q: EhrDeque::new(clk, 4),
            btb: Btb::new(cfg.bp.btb_entries),
            tour: Tournament::new(cfg.bp),
            ras: Ras::new(cfg.bp.ras_entries),
            tlb: TlbHier::new(id, cfg.tlb),
            csr: CsrFile::new(id as u64),
            priv_mode: Priv::M,
            next_tlb_id: 1,
            roi_start: None,
            stats: CoreStats::default(),
            pipe: PipeTrace::disabled(),
            tma: None,
            port: MemPort::new(clk, mem.dcache_ref(id), mem.icache_ref(id)),
        }
    }
}

// Re-exported for the crate root.
pub use crate::core::CoreState as Core;

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

/// Version of the SoC snapshot byte format. Bumped whenever the encoding of
/// any serialized module changes; old snapshots are refused with
/// [`cmd_core::snap::SnapError::VersionMismatch`] instead of being
/// misinterpreted. v2 added the kernel telemetry section (a presence flag
/// plus the windowed ring when telemetry is enabled); v3 made speculation
/// snapshots heap-free (inline rename map, free list as a ring whose
/// snapshot is its head position — see [`crate::rename`]); v4 saves every
/// cell through the kernel's walk over the clock's registry (a count, then
/// one length-framed record per cell in adoption order, the occupancy
/// masks included), so the SoC section holds plain state only; v5 replaced
/// the speculation masks with rename order (a sequence number in every
/// micro-op, LSQ entry and speculation snapshot, and the ROB's next one in
/// a cell; an IQ entry's age is its micro-op's number) and added the LSQ's
/// oldest-load and oldest-store cells; v6 added each core's boundary to
/// the memory system ([`MemPort`]: eleven cells adopted after the core's
/// others) and dropped the per-core memory digests; v7 orders the LSQ by
/// rename sequence number alone (no LQ/SQ entry age, no next-age cell, a
/// tagged forwarding source instead of a source age), and dropped the LQ's
/// bound value and at-commit flag, the SQ's ROB index, the I TLB's
/// response queue and the never-written `l2tlb_misses` statistic; v8 saves
/// every module from its field list (`snapshot_fields!`): the memory
/// system writes the L1 D and L1 I counts each before its caches where it
/// wrote one core count, a page walker writes its walk-cache count where
/// it wrote a presence flag, and the kernel no longer writes a counter
/// registry after the rule table; v9 moved each core's exit code into a
/// cell adopted after every core's (the SoC section no longer writes
/// `devices.exited`); v10 added each core's `itlb_fault` cell after its
/// `itlb_busy`; v11 writes each frame of physical memory (the SoC's and the
/// golden model's) as a kind byte and then a page, or a line's index and
/// its 64 bytes for a frame with one written line; v12 writes each cache
/// array (every L1 and the L2) as its slot count and then only the slots
/// that differ from the empty slot, as ascending `(index, slot)` records.
pub const SOC_SNAP_VERSION: u32 = 12;

cmd_core::snap_struct!(CoreStats {
    committed,
    branches,
    mispredicts,
    ld_kill_flushes,
    system_flushes,
    dtlb_misses,
    roi_cycles,
    roi_insts,
    iq_full_stalls,
    rob_full_stalls,
    lsq_replays,
    sb_drains,
    rob_occ_sum,
    iq_occ_sum,
    occ_cycles,
});

// The SoC's plain state: the memory system, each core's plain state and
// the devices. Its cells are the kernel's to save.
cmd_core::snapshot_fields!(Soc {
    mem: module,
    cores: modules,
    devices.console,
} check Soc::check_cells);

impl Soc {
    /// The post-restore check: every core's cells agree with each other
    /// and with the restored memory system.
    fn check_cells(&self) -> Result<(), cmd_core::snap::SnapError> {
        self.cores.iter().try_for_each(|c| c.check_cells(&self.mem))
    }
}

impl SocSim {
    /// The configuration fingerprint embedded in every snapshot: core
    /// configuration plus memory-system geometry, then the attachments that
    /// change the run: ` | cosim` with the golden model, ` | chaos <plan>`
    /// with a fault engine (its [`FaultPlan::to_repro_string`]). Restore
    /// refuses snapshots whose fingerprint differs from the live design's.
    ///
    /// [`FaultPlan::to_repro_string`]: cmd_core::chaos::FaultPlan::to_repro_string
    #[must_use]
    pub fn config_digest(&self) -> String {
        let soc = self.soc();
        let mut digest = format!("{:?} | {}", soc.cfg, soc.mem.config_digest());
        if soc.golden.is_some() {
            digest.push_str(" | cosim");
        }
        if let Some(engine) = &self.chaos {
            digest.push_str(" | chaos ");
            digest.push_str(&engine.plan().to_repro_string());
        }
        digest
    }

    /// Serializes the complete simulation — kernel (cycle counts, rule
    /// statistics, telemetry) and SoC (cores, caches, TLBs, DRAM, devices),
    /// then the golden model with its mismatches and the fault log when
    /// they are attached — at a cycle boundary. Observers (tracer, Chrome
    /// trace, profiler, TMA, pipe trace) are not saved and a restore leaves
    /// them alone, so in a freshly built simulation they record from the
    /// restored cycle on. The bytes are deterministic: saving the same
    /// state twice yields identical buffers, and a restored run is
    /// bit-identical to the uninterrupted one under every
    /// [`cmd_core::sched::SchedulerMode`]. See `docs/CHECKPOINT.md`.
    ///
    /// # Errors
    ///
    /// None: every simulation saves, whatever is attached.
    pub fn save_snapshot(&mut self) -> Result<Vec<u8>, SimError> {
        use cmd_core::snap::{write_header, Snap as _, SnapWriter};
        let mut w = SnapWriter::new();
        write_header(&mut w, SOC_SNAP_VERSION);
        self.config_digest().save(&mut w);
        self.sim.save_kernel(&mut w);
        let soc = self.soc();
        cmd_core::snap::Snapshot::snap_save(soc, &mut w);
        if let Some(golden) = &soc.golden {
            golden.save(&mut w);
            soc.cosim_errors.save(&mut w);
        }
        if let Some(engine) = &self.chaos {
            engine.log().save(&mut w);
        }
        Ok(w.into_bytes())
    }

    /// Restores a snapshot produced by [`SocSim::save_snapshot`] into a
    /// freshly built simulation with the same configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] wrapping the structured decode error:
    /// [`cmd_core::snap::SnapError::BadMagic`] /
    /// [`cmd_core::snap::SnapError::VersionMismatch`] on header skew,
    /// [`cmd_core::snap::SnapError::Mismatch`] if the embedded
    /// configuration fingerprint (attachments included, see
    /// [`SocSim::config_digest`]) or any module topology differs,
    /// [`cmd_core::snap::SnapError::Truncated`] /
    /// [`cmd_core::snap::SnapError::Corrupt`] on malformed bytes. On error
    /// the simulation may be partially restored and must be discarded.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        use cmd_core::snap::{check_header, Snap, SnapError, SnapReader};
        let mut r = SnapReader::new(bytes);
        check_header(&mut r, SOC_SNAP_VERSION)?;
        let digest = String::load(&mut r)?;
        let live = self.config_digest();
        if digest != live {
            return Err(SimError::Snapshot(SnapError::Mismatch(format!(
                "snapshot configuration `{digest}` does not match live design `{live}`"
            ))));
        }
        self.sim.restore_kernel(&mut r)?;
        let soc = self.sim.state_mut();
        cmd_core::snap::Snapshot::snap_restore(soc, &mut r)?;
        // The digest matched, so the snapshot carries exactly the
        // attachments this simulation has.
        if soc.golden.is_some() {
            soc.golden = Some(Machine::load(&mut r)?);
            soc.cosim_errors = Snap::load(&mut r)?;
        }
        if let Some(engine) = &self.chaos {
            engine.restore_log(Snap::load(&mut r)?);
        }
        Ok(r.expect_end()?)
    }
}
