//! The rule scheduler: fires every rule once per cycle, in a fixed canonical
//! order, with atomic commit/abort and conflict-matrix enforcement.
//!
//! The canonical order corresponds to the EHR port assignment in the
//! paper's hardware compilation: if rule *A* precedes rule *B* in the
//! schedule and both fire in a cycle, the cycle's net effect is *A then B*.
//! A rule fails to fire in a cycle when
//!
//! * one of its guards stalls ([`crate::guard::Stall`]), or
//! * its method calls are incompatible — per some module's
//!   [`crate::cm::ConflictMatrix`] — with a rule that already fired this
//!   cycle (a [`CmViolation`]).
//!
//! Either way the rule has *no effect whatsoever* this cycle, preserving the
//! paper's atomicity guarantee, and the scheduler records the outcome in
//! per-rule statistics so CM choices show up as measurable performance
//! differences (paper §IV-C/D).
//!
//! # Two schedulers, one semantics
//!
//! [`Sim`] ships two per-cycle loops selected by [`Sim::set_scheduler`]:
//!
//! * [`SchedulerMode::Reference`] — the literal loop described above:
//!   every guard evaluated every cycle, every successful rule fully
//!   CM-scanned against everything fired before it. Slow, obviously
//!   correct; kept as the oracle.
//! * [`SchedulerMode::Fast`] (default) — the same observable behavior via
//!   two short-circuits: a precise *fired-forbidden* bit probe that lets
//!   rules whose calls cannot conflict with anything fired so far commit
//!   without a dynamic CM scan, and a *wakeup layer*
//!   ([`Sim::set_wakeup`]) that skips re-evaluating a stalled guard until
//!   one of the state cells it read publishes a committed write. Skipped
//!   evaluations are accounted as guard stalls with the cached reason, so
//!   statistics, counters, and trace streams are identical to the
//!   reference scheduler (property-tested in `tests/sched_equivalence.rs`).
//!
//! See `docs/SCHEDULING.md` for the full design and equivalence argument.
//!
//! # Watchdog and structured errors
//!
//! The scheduler remembers *why* each rule last failed to fire. When no
//! (non-exempt) rule fires for [`DEFAULT_WATCHDOG_THRESHOLD`] consecutive
//! cycles, the fallible entry points ([`Sim::try_cycle`], [`Sim::try_run`],
//! [`Sim::run_until`]) return [`SimError::Deadlock`] carrying a
//! [`DeadlockReport`] — a wait graph naming every stalled rule and the
//! guard or CM edge it is waiting on. This turns the classic
//! "simulation just spins forever" symptom (e.g. the IQ wakeup race of
//! paper §IV-A) into an actionable diagnostic. The legacy infallible
//! entry points ([`Sim::cycle`], [`Sim::run`]) are unchanged: a quiescent
//! design may legitimately idle under them.
//!
//! # Fault injection
//!
//! Attach a [`FaultEngine`] with
//! [`Sim::attach_chaos`] and the scheduler consults it each cycle: rules
//! may be force-stalled or transiently aborted, and registered state cells
//! suffer bit flips at cycle boundaries. With an empty
//! [`FaultPlan`](crate::chaos::FaultPlan) the instrumented scheduler is
//! cycle-for-cycle identical to the plain one.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

use crate::chaos::{FaultEngine, RuleFault, CHAOS_ABORT_REASON, CHAOS_STALL_REASON};
use crate::clock::{Clock, CmViolation};
use crate::guard::Guarded;
use crate::prof::{CausalEdge, EdgeKind, Profiler};
use crate::sched::{BitSet, RuleSched, SchedulerMode, Sleep, Wakeup};
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter, Snapshot};
use crate::telemetry::{Telemetry, TelemetryTap};
use crate::trace::json::JsonWriter;
use crate::trace::{Counter, Counters, TraceEvent, Tracer};

/// Guard-stall reason recorded when a commit is refused over an undeclared
/// `Reg` write conflict (see [`SimError::RegConflict`]).
const REG_CONFLICT_REASON: &str = "aborted: undeclared Reg write conflict";

/// Consecutive all-quiet cycles before the watchdog declares a deadlock.
///
/// 64 cycles is far beyond any legitimate stall in the in-tree designs
/// (cache misses resolve in ~30 cycles end-to-end) while still triggering
/// well inside typical cycle budgets.
pub const DEFAULT_WATCHDOG_THRESHOLD: u64 = 64;

/// Identifier of a registered rule, returned by [`Sim::rule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(usize);

impl RuleId {
    /// Index of this rule in the canonical schedule.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Outcome counters for one rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Cycles in which the rule fired (committed).
    pub fired: u64,
    /// Cycles in which a guard stalled the rule.
    pub guard_stalls: u64,
    /// Cycles in which a conflict-matrix check stalled the rule.
    pub cm_stalls: u64,
}

/// Why a rule most recently failed to fire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitCause {
    /// A guard stalled, with the designer-supplied reason string.
    Guard(&'static str),
    /// A conflict-matrix edge with an already-fired rule.
    Cm(CmViolation),
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitCause::Guard(reason) => write!(f, "guard \"{reason}\""),
            WaitCause::Cm(v) => write!(f, "cm edge [{v}]"),
        }
    }
}

/// One node of the deadlock wait graph: a rule and what it waits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleWait {
    /// The stalled rule's name.
    pub rule: String,
    /// The guard or CM edge it last stalled on.
    pub cause: WaitCause,
}

impl fmt::Display for RuleWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.rule, self.cause)
    }
}

/// Diagnostic produced by the scheduler watchdog: every rule that is
/// stalled, and the guard/CM edge each waits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// How many consecutive cycles fired no (non-exempt) rule.
    pub stalled_for: u64,
    /// The wait graph, in schedule order.
    pub waits: Vec<RuleWait>,
}

impl DeadlockReport {
    /// Does the report name `rule` as stalled?
    #[must_use]
    pub fn names_rule(&self, rule: &str) -> bool {
        self.waits.iter().any(|w| w.rule == rule)
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no rule fired for {} consecutive cycles; wait graph:",
            self.stalled_for
        )?;
        for w in &self.waits {
            writeln!(f, "  {w}")?;
        }
        Ok(())
    }
}

/// Structured failure of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The watchdog saw no rule fire for too many consecutive cycles.
    Deadlock {
        /// Total cycles executed when the watchdog tripped.
        cycle: u64,
        /// The wait graph at that point.
        report: DeadlockReport,
    },
    /// `run_until`'s predicate never held within the cycle budget (but
    /// rules were still firing — livelock or simply not enough cycles).
    CycleLimit {
        /// The exhausted budget.
        max_cycles: u64,
    },
    /// Two rules wrote the same `Reg` in one cycle without declaring the
    /// conflict; the second writer was aborted instead of panicking.
    RegConflict {
        /// Cycle of the offense.
        cycle: u64,
        /// The rule whose commit was refused.
        rule: String,
        /// The register both rules wrote.
        reg: &'static str,
    },
    /// Saving or restoring a checkpoint failed (see
    /// [`crate::snap::SnapError`]); malformed snapshot bytes surface here
    /// instead of panicking.
    Snapshot(crate::snap::SnapError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, report } => {
                write!(f, "scheduler deadlock at cycle {cycle}: {report}")
            }
            SimError::CycleLimit { max_cycles } => {
                write!(
                    f,
                    "cycle budget of {max_cycles} exhausted before completion"
                )
            }
            SimError::RegConflict { cycle, rule, reg } => write!(
                f,
                "two rules wrote Reg `{reg}` in the same cycle (undeclared conflict); \
                 rule `{rule}` aborted at cycle {cycle}"
            ),
            SimError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl Error for SimError {}

impl From<crate::snap::SnapError> for SimError {
    fn from(e: crate::snap::SnapError) -> Self {
        SimError::Snapshot(e)
    }
}

/// A rule body: mutates the design state or stalls.
type RuleBody<S> = Box<dyn FnMut(&mut S) -> Guarded<()>>;

struct RuleEntry<S> {
    name: String,
    body: RuleBody<S>,
    stats: RuleStats,
    /// Why the rule most recently failed to fire (`None` after a fire).
    last_wait: Option<WaitCause>,
    /// Exempt rules don't count as activity for the watchdog (e.g. an
    /// always-firing substrate-tick rule that would mask real deadlocks).
    exempt: bool,
    /// Per-guard-reason stall histogram. Guard reasons are `&'static str`
    /// by construction, so counting them costs no allocation. Only
    /// maintained after [`Sim::enable_stall_histograms`].
    guard_reasons: BTreeMap<&'static str, u64>,
    /// Per-CM-edge stall histogram, keyed by the rendered violation. Only
    /// maintained after [`Sim::enable_stall_histograms`].
    cm_reasons: BTreeMap<String, u64>,
    /// Fast-scheduler state: wakeup policy and sleep hysteresis.
    sched: RuleSched,
}

/// Records one failed firing exactly as the reference scheduler does:
/// stats, optional histogram, counter, wait cause, trace event.
fn account_guard_stall<S>(
    entry: &mut RuleEntry<S>,
    tracer: &Tracer,
    tracing: bool,
    hist: bool,
    ctr: &Counter,
    now: u64,
    reason: &'static str,
) {
    entry.stats.guard_stalls += 1;
    if hist {
        *entry.guard_reasons.entry(reason).or_insert(0) += 1;
    }
    ctr.inc();
    entry.last_wait = Some(WaitCause::Guard(reason));
    if tracing {
        tracer.emit(
            now,
            &TraceEvent::GuardStalled {
                rule: &entry.name,
                reason,
            },
        );
    }
}

fn account_cm_stall<S>(
    entry: &mut RuleEntry<S>,
    tracer: &Tracer,
    tracing: bool,
    hist: bool,
    ctr: &Counter,
    now: u64,
    v: &CmViolation,
) {
    entry.stats.cm_stalls += 1;
    if hist {
        *entry.cm_reasons.entry(v.to_string()).or_insert(0) += 1;
    }
    ctr.inc();
    entry.last_wait = Some(WaitCause::Cm(v.clone()));
    if tracing {
        tracer.emit(
            now,
            &TraceEvent::CmOrdering {
                rule: &entry.name,
                module: &v.module,
                earlier: &v.earlier_method,
                later: &v.later_method,
            },
        );
    }
}

/// Adds a sleeping rule's unsettled skipped cycles (`sleep.since..now`,
/// each a guard stall with the cached reason) into its statistics and
/// advances the marker. Called at every point where batched sleep
/// accounting must become exact: wake, chaos verdict, sleep clearing.
/// The global stall *counter* is not touched here — it is maintained
/// cycle-exactly by the schedulers (one shared `Cell` bump is cheap; the
/// expensive part batching avoids is walking every sleeping rule's entry).
fn settle_sleep<S>(entry: &mut RuleEntry<S>, now: u64) {
    if let Some(sleep) = &mut entry.sched.sleep {
        entry.stats.guard_stalls += now - sleep.since;
        sleep.since = now;
    }
}

/// A rule's statistics with any unsettled sleep deficit folded in — the
/// read-only view the public accessors expose, exact at any cycle
/// boundary without forcing the hot loop to touch sleeping rules.
fn effective_stats<S>(entry: &RuleEntry<S>, now: u64) -> RuleStats {
    let mut s = entry.stats;
    if let Some(sleep) = &entry.sched.sleep {
        s.guard_stalls += now - sleep.since;
    }
    s
}

fn account_fired<S>(
    entry: &mut RuleEntry<S>,
    tracer: &Tracer,
    tracing: bool,
    ctr: &Counter,
    now: u64,
) {
    entry.stats.fired += 1;
    ctr.inc();
    entry.last_wait = None;
    entry.sched.note_fire();
    if tracing {
        tracer.emit(now, &TraceEvent::RuleFired { rule: &entry.name });
    }
}

/// Moves freshly published cell ids into wake flags: every watcher whose
/// sleep generation is still current is marked awake and its entry
/// consumed. Costs one `Cell` read when nothing has been published since
/// the previous drain — the common case on the sleeping-rule hot path,
/// which is why the check is force-inlined and the drain body lives in a
/// separate `#[cold]` function (keeping it out of the per-sleeper loop is
/// worth ~2× on the ring64 wakeup benchmark).
#[inline(always)]
fn drain_wakeups(
    clk: &Clock,
    watchers: &mut [Vec<(u32, u32)>],
    sleep_gens: &[u32],
    wake_flags: &mut [bool],
    pub_seen: &mut u64,
    prof: &mut Option<Box<Profiler>>,
    now: u64,
) {
    if clk.publish_count() == *pub_seen {
        return;
    }
    drain_wakeups_slow(clk, watchers, sleep_gens, wake_flags, pub_seen, prof, now);
}

#[cold]
fn drain_wakeups_slow(
    clk: &Clock,
    watchers: &mut [Vec<(u32, u32)>],
    sleep_gens: &[u32],
    wake_flags: &mut [bool],
    pub_seen: &mut u64,
    prof: &mut Option<Box<Profiler>>,
    now: u64,
) {
    *pub_seen = clk.publish_count();
    clk.drain_publishes(|id, publisher| {
        if let Some(ws) = watchers.get_mut(id as usize) {
            // The list is consumed whole, so the publish filter closes for
            // this cell until someone re-registers.
            clk.clear_cell_watched(id);
            for (rule, gen) in ws.drain(..) {
                if sleep_gens[rule as usize] == gen {
                    wake_flags[rule as usize] = true;
                    // Publish→wake causality, recorded only while the
                    // profiler is on and the publish is attributable to a
                    // rule (not a poke or the end-of-cycle latch).
                    if let Some(p) = prof.as_mut() {
                        if publisher != u32::MAX {
                            p.causal.push(CausalEdge {
                                cycle: now,
                                from: publisher,
                                to: rule,
                                kind: EdgeKind::PublishWake,
                            });
                        }
                    }
                }
            }
        }
    });
}

/// Records a method-stall→blocker causality edge for the profiler: rule
/// `to` was just CM-stalled, and the clock remembers which global method
/// was the `earlier` side of the violation; this cycle's owner table maps
/// that method back to the rule that committed it (`u32::MAX` = unknown,
/// e.g. a poke — no edge then).
fn push_cm_edge(p: &mut Profiler, clk: &Clock, owners: &[u32], to: usize, now: u64) {
    let earlier = clk.last_cm_earlier_global() as usize;
    let from = owners.get(earlier).copied().unwrap_or(u32::MAX);
    if from != u32::MAX {
        p.causal.push(CausalEdge {
            cycle: now,
            from,
            to: u32::try_from(to).expect("rule index"),
            kind: EdgeKind::CmBlock,
        });
    }
}

/// The cached forward conflict row of global method `m` as a bitmask:
/// every method that can no longer fire this cycle once `m` has. Built
/// lazily on first use (rows are static per
/// [`crate::cm::ConflictMatrix`]).
fn forbid_mask<'a>(rows: &'a mut Vec<Option<BitSet>>, clk: &Clock, m: u32) -> &'a BitSet {
    let idx = m as usize;
    if idx >= rows.len() {
        rows.resize_with(idx + 1, || None);
    }
    rows[idx].get_or_insert_with(|| {
        let mut bs = BitSet::new();
        clk.for_each_bad_later(m, |c| bs.set(c));
        bs
    })
}

/// Registers rule `rule` (at sleep generation `gen`) as a watcher of
/// `cell`. Entries from earlier sleeps go stale when the generation bumps;
/// they are compacted away once a cell's list outgrows the rule count, so
/// pathological sleep/wake churn cannot grow the lists without bound.
fn add_watcher(
    clk: &Clock,
    watchers: &mut Vec<Vec<(u32, u32)>>,
    sleep_gens: &[u32],
    cap: usize,
    cell: u32,
    rule: u32,
    gen: u32,
) {
    let idx = cell as usize;
    if idx >= watchers.len() {
        watchers.resize_with(idx + 1, Vec::new);
    }
    let ws = &mut watchers[idx];
    if ws.len() > cap {
        ws.retain(|&(r, g)| sleep_gens[r as usize] == g);
    }
    ws.push((rule, gen));
    // Open the clock-side publish filter for this cell (see
    // `Clock::set_cell_watched`): only watched cells reach the log.
    clk.set_cell_watched(cell);
}

/// A complete CMD design: user state `S` (the module tree), a [`Clock`], and
/// the registered rules.
///
/// # Examples
///
/// A one-register counter incremented by a rule:
///
/// ```
/// use cmd_core::clock::Clock;
/// use cmd_core::cell::Ehr;
/// use cmd_core::sim::Sim;
///
/// struct Counter { n: Ehr<u64> }
///
/// let clk = Clock::new();
/// let state = Counter { n: Ehr::new(&clk, 0) };
/// let mut sim = Sim::new(clk, state);
/// sim.rule("tick", |s: &mut Counter| {
///     s.n.update(|v| *v += 1);
///     Ok(())
/// });
/// sim.run(10);
/// assert_eq!(sim.state().n.read(), 10);
/// ```
pub struct Sim<S> {
    clk: Clock,
    state: S,
    rules: Vec<RuleEntry<S>>,
    cycles: u64,
    last_violation: Option<CmViolation>,
    quiet_cycles: u64,
    watchdog: Option<u64>,
    chaos: Option<FaultEngine>,
    tracer: Tracer,
    counters: Counters,
    ctr_fired: Counter,
    ctr_guard: Counter,
    ctr_cm: Counter,
    mode: SchedulerMode,
    /// Whether per-rule stall-reason histograms are maintained (off the hot
    /// path by default; see [`Sim::enable_stall_histograms`]).
    collect_hist: bool,
    /// Union of the forward conflict rows of every method committed so far
    /// this cycle (fast mode): a rule's calls are violation-free iff none
    /// of them is in this set, making the per-rule conflict check one bit
    /// test per call. Precise, not conservative — it encodes exactly the
    /// condition [`Clock::check_cm`] scans for.
    fired_forbidden: BitSet,
    /// Lazily cached per-method forward conflict rows (see [`forbid_mask`]).
    forbid_rows: Vec<Option<BitSet>>,
    calls_scratch: Vec<u32>,
    reads_scratch: Vec<u32>,
    /// Per-cell watcher lists, indexed by cell id: `(rule index, sleep
    /// generation)` pairs registered when a rule goes to sleep.
    watchers: Vec<Vec<(u32, u32)>>,
    /// Set when a drained publish hits a current-generation watcher;
    /// consumed at the sleeping rule's next schedule slot.
    wake_flags: Vec<bool>,
    /// Bumped whenever a rule's sleep is cleared, invalidating watcher
    /// entries registered for the previous sleep.
    sleep_gens: Vec<u32>,
    /// Publish-log entries drained so far (compared against
    /// [`Clock::publish_count`] to skip no-op drains).
    pub_seen: u64,
    /// Mirrors the wake-log condition of [`Sim::sync_wake_log`]: some rule
    /// has a non-default wakeup. When false the fast loop skips the wakeup
    /// layer entirely — the publish log is off and can never wake anyone.
    any_wakeup: bool,
    /// The causal profiler, when enabled (see [`Sim::enable_profiling`]).
    /// Boxed so the disabled case costs one pointer on the struct.
    prof: Option<Box<Profiler>>,
    /// The windowed telemetry sampler, when enabled (see
    /// [`Sim::enable_telemetry`]). Boxed for the same reason as `prof`:
    /// the disabled case costs one pointer and one branch per cycle.
    tel: Option<Box<Telemetry>>,
    /// Design-supplied extra telemetry columns (see
    /// [`Sim::set_telemetry_tap`]): called at each window boundary with
    /// the design state, appended after the registry-counter columns.
    tel_tap: Option<TelemetryTap<S>>,
    /// Per-cycle map from global method index to the rule that committed it
    /// (u32::MAX = nobody yet). Maintained only while profiling, to turn a
    /// CM stall into a rule→rule causality edge.
    owner_scratch: Vec<u32>,
}

impl<S> Sim<S> {
    /// Wraps a design state and its clock. All state cells inside `state`
    /// must have been created from `clk`.
    #[must_use]
    pub fn new(clk: Clock, state: S) -> Self {
        let counters = Counters::default();
        let ctr_fired = counters.counter("sim.rules_fired");
        let ctr_guard = counters.counter("sim.guard_stalls");
        let ctr_cm = counters.counter("sim.cm_stalls");
        Sim {
            clk,
            state,
            rules: Vec::new(),
            cycles: 0,
            last_violation: None,
            quiet_cycles: 0,
            watchdog: Some(DEFAULT_WATCHDOG_THRESHOLD),
            chaos: None,
            tracer: Tracer::disabled(),
            counters,
            ctr_fired,
            ctr_guard,
            ctr_cm,
            mode: SchedulerMode::default(),
            collect_hist: false,
            fired_forbidden: BitSet::new(),
            forbid_rows: Vec::new(),
            calls_scratch: Vec::new(),
            reads_scratch: Vec::new(),
            watchers: Vec::new(),
            wake_flags: Vec::new(),
            sleep_gens: Vec::new(),
            pub_seen: 0,
            any_wakeup: false,
            prof: None,
            tel: None,
            tel_tap: None,
            owner_scratch: Vec::new(),
        }
    }

    /// Attaches a tracer: the scheduler emits [`TraceEvent::RuleFired`],
    /// [`TraceEvent::GuardStalled`], and [`TraceEvent::CmOrdering`] events,
    /// and the clock emits [`TraceEvent::MethodCalled`] for every committed
    /// method call. Pass [`Tracer::disabled`] to turn tracing back off.
    ///
    /// Tracing is strictly observational: a traced run executes the same
    /// rules in the same cycles as an untraced one.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.clk.set_tracer(tracer.clone());
        // Sleeping rules report cached stall reasons, which can drift from
        // the fresh reason an every-cycle evaluation would produce. Wake
        // everything so a traced run evaluates (and reports) exactly.
        if self.tracer.is_enabled() != tracer.is_enabled() {
            for i in 0..self.rules.len() {
                self.clear_sleep(i);
            }
        }
        self.tracer = tracer;
    }

    /// The counter registry shared by this scheduler.
    ///
    /// The scheduler itself maintains `sim.rules_fired`, `sim.guard_stalls`,
    /// and `sim.cm_stalls`; design code may register additional counters and
    /// gauges on the same registry (clones share storage, see
    /// [`Counters`]).
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Registers a rule at the end of the canonical schedule.
    ///
    /// Earlier-registered rules appear to execute before later ones when
    /// both fire in a cycle, so registration order is the designer's chosen
    /// rule ordering (paper §IV-C discusses how this choice interacts with
    /// module CMs).
    pub fn rule(
        &mut self,
        name: impl Into<String>,
        body: impl FnMut(&mut S) -> Guarded<()> + 'static,
    ) -> RuleId {
        let id = RuleId(self.rules.len());
        self.rules.push(RuleEntry {
            name: name.into(),
            body: Box::new(body),
            stats: RuleStats::default(),
            last_wait: None,
            exempt: false,
            guard_reasons: BTreeMap::new(),
            cm_reasons: BTreeMap::new(),
            sched: RuleSched::new(),
        });
        self.wake_flags.push(false);
        self.sleep_gens.push(0);
        id
    }

    /// Selects which per-cycle loop runs (see the module docs). Switching
    /// modes clears every rule's sleep state, so the wakeup layer restarts
    /// from a clean slate and the oracle never skips an evaluation.
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.mode = mode;
        self.sync_wake_log();
        for i in 0..self.rules.len() {
            self.clear_sleep(i);
        }
    }

    /// Keeps the clock's publish logging in sync with whether anyone could
    /// consume it: only the fast loop drains the log, and only rules with a
    /// non-default wakeup policy can sleep on it. In every other
    /// configuration logging would tax each committed write to grow a
    /// buffer nobody reads.
    fn sync_wake_log(&mut self) {
        let on = self.mode == SchedulerMode::Fast
            && self
                .rules
                .iter()
                .any(|r| !matches!(r.sched.wakeup, Wakeup::EveryCycle));
        self.any_wakeup = on;
        self.clk.set_wake_log(on);
        self.pub_seen = self.clk.publish_count();
    }

    /// Wakes rule `i` (if asleep) and invalidates its registered watcher
    /// entries by bumping its sleep generation.
    fn clear_sleep(&mut self, i: usize) {
        settle_sleep(&mut self.rules[i], self.clk.cycle());
        self.rules[i].sched.sleep = None;
        self.sleep_gens[i] = self.sleep_gens[i].wrapping_add(1);
        self.wake_flags[i] = false;
    }

    /// The active scheduler mode.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerMode {
        self.mode
    }

    /// Whether the kernel is in a snapshottable configuration.
    ///
    /// Chaos injection, tracing, profiling, and stall histograms all carry
    /// observer state this codec does not serialize (and chaos perturbs
    /// the run itself), so snapshots are refused while any is attached
    /// rather than silently producing a checkpoint that would not resume
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] naming the offending attachment.
    pub fn snapshot_supported(&self) -> Result<(), SnapError> {
        if self.chaos.is_some() {
            return Err(SnapError::Unsupported("chaos fault injection is attached"));
        }
        if self.tracer.is_enabled() {
            return Err(SnapError::Unsupported("a tracer is attached"));
        }
        if self.prof.is_some() {
            return Err(SnapError::Unsupported("the profiler is enabled"));
        }
        if self.collect_hist {
            return Err(SnapError::Unsupported("stall histograms are enabled"));
        }
        Ok(())
    }

    /// Saves the kernel's observable state — cycle counts, per-rule firing
    /// statistics, and the counter registry — at a cycle boundary.
    ///
    /// Scheduler sleep state is *not* saved: any unsettled batched sleep
    /// deficit is settled into the statistics first (so the bytes are
    /// exact), and [`Sim::restore_kernel`] wakes every rule. The sleep
    /// layer is observation-invariant (see `docs/SCHEDULING.md`), so a
    /// resumed run re-derives it without disturbing results.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] per [`Sim::snapshot_supported`].
    pub fn save_kernel(&mut self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.snapshot_supported()?;
        let now = self.clk.cycle();
        for e in &mut self.rules {
            settle_sleep(e, now);
        }
        w.u64(self.cycles);
        w.u64(now);
        w.u64(self.quiet_cycles);
        w.len_prefix(self.rules.len());
        for e in &self.rules {
            e.name.save(w);
            w.u64(e.stats.fired);
            w.u64(e.stats.guard_stalls);
            w.u64(e.stats.cm_stalls);
        }
        self.counters.snap_save(w);
        // Telemetry, unlike the other instruments, IS serialized: its ring
        // holds only simulated quantities, so a resumed run continues the
        // series exactly (in-flight partial windows included).
        match self.tel.as_deref() {
            Some(t) => {
                true.save(w);
                t.save(w);
            }
            None => false.save(w),
        }
        Ok(())
    }

    /// Restores kernel state saved by [`Sim::save_kernel`] into a freshly
    /// constructed design with the same rule schedule and counter registry.
    ///
    /// All rules wake and the wakeup layer restarts from a clean slate —
    /// the same template scheduler switching uses, already proven
    /// observation-invariant.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] if the snapshot's rule schedule, counter
    /// registry or telemetry columns differ from this design's;
    /// [`SnapError::Truncated`] / [`SnapError::Corrupt`] on malformed bytes.
    /// On error the kernel may be partially restored and must be discarded.
    pub fn restore_kernel(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snapshot_supported()?;
        let cycles = r.u64()?;
        let clk_cycle = r.u64()?;
        let quiet = r.u64()?;
        let n = r.len_prefix()?;
        if n != self.rules.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n} rules, design has {}",
                self.rules.len()
            )));
        }
        let mut stats = Vec::with_capacity(n);
        for e in &self.rules {
            let name = String::load(r)?;
            if name != e.name {
                return Err(SnapError::Mismatch(format!(
                    "snapshot rule `{name}` does not match design rule `{}`",
                    e.name
                )));
            }
            stats.push(RuleStats {
                fired: r.u64()?,
                guard_stalls: r.u64()?,
                cm_stalls: r.u64()?,
            });
        }
        self.counters.snap_restore(r)?;
        let had_tel = bool::load(r)?;
        match (had_tel, self.tel.is_some()) {
            (false, false) => {}
            (true, true) => {
                let loaded = Telemetry::load(r)?;
                // The ring is positional: a snapshot whose frozen columns
                // are not the ones this design samples (an older build, a
                // different tap) must be refused here, not at the next
                // window boundary.
                let snap = loaded.columns();
                if !snap.is_empty() {
                    let here = self.telemetry_columns();
                    let here: Vec<&String> = here.iter().map(|(n, _)| n).collect();
                    let n = snap.len().max(here.len());
                    if let Some(i) = (0..n).find(|&i| snap.get(i) != here.get(i).copied()) {
                        return Err(SnapError::Mismatch(format!(
                            "telemetry column {i} differs: snapshot has {:?}, this design samples {:?}",
                            snap.get(i),
                            here.get(i),
                        )));
                    }
                }
                self.tel
                    .as_mut()
                    .expect("telemetry enabled")
                    .adopt(loaded)?;
            }
            (true, false) => {
                return Err(SnapError::Mismatch(
                    "snapshot carries telemetry but telemetry is not enabled here".into(),
                ));
            }
            (false, true) => {
                return Err(SnapError::Mismatch(
                    "telemetry is enabled but the snapshot carries none".into(),
                ));
            }
        }
        // Wake everything *before* overwriting stats: clearing a live sleep
        // settles its deficit into the old stats, which are discarded next.
        for i in 0..self.rules.len() {
            self.clear_sleep(i);
        }
        for (e, s) in self.rules.iter_mut().zip(stats) {
            e.stats = s;
            e.last_wait = None;
        }
        self.cycles = cycles;
        self.quiet_cycles = quiet;
        self.clk.restore_cycle(clk_cycle);
        self.last_violation = None;
        self.sync_wake_log();
        Ok(())
    }

    /// Turns on per-rule stall-reason histograms (the `N × guard "…"` lines
    /// of [`Sim::report`]). Off by default: maintaining them puts a map
    /// insert on the hot path of every stall, which is pure overhead for
    /// runs that never ask for a report.
    pub fn enable_stall_histograms(&mut self) {
        if !self.collect_hist {
            // Same reasoning as `set_tracer`: histogram buckets must count
            // fresh reasons, so sleeping is off while histograms are live.
            for i in 0..self.rules.len() {
                self.clear_sleep(i);
            }
        }
        self.collect_hist = true;
    }

    /// Turns on the causal profiler with default window and causal-log
    /// capacity (see [`crate::prof`]): per-rule host-time attribution,
    /// publish→wake and CM-block causality edges, and per-window counter
    /// snapshots. Purely observational — a profiled run is cycle- and
    /// counter-identical to an unprofiled one; the cost is two monotonic
    /// timestamps per rule evaluation.
    pub fn enable_profiling(&mut self) {
        self.enable_profiling_with(crate::prof::DEFAULT_WINDOW, crate::prof::DEFAULT_CAUSAL_CAP);
    }

    /// [`Sim::enable_profiling`] with an explicit critical-path window (in
    /// cycles; clamped to ≥ 1) and causal-ring capacity (in edges).
    pub fn enable_profiling_with(&mut self, window: u64, causal_cap: usize) {
        self.prof = Some(Box::new(Profiler::new(window, causal_cap)));
    }

    /// The causal profiler, when enabled.
    #[must_use]
    pub fn profiler(&self) -> Option<&Profiler> {
        self.prof.as_deref()
    }

    /// Turns on windowed telemetry sampling (see [`crate::telemetry`]):
    /// every `window` cycles the sampler closes a window of per-column
    /// deltas — registry counters plus any tap columns — into a ring of at
    /// most `cap` windows. Purely observational: an enabled run is cycle-
    /// and counter-identical to a disabled one, and the disabled cost is
    /// one branch per cycle.
    ///
    /// Enable telemetry (and any instrument that contributes columns,
    /// like the tap) *before* running: the column layout freezes at the
    /// first window boundary.
    pub fn enable_telemetry(&mut self, window: u64, cap: usize) {
        self.tel = Some(Box::new(Telemetry::new(window, cap)));
    }

    /// [`Sim::enable_telemetry`] restricted to registry counters whose
    /// names start with one of `prefixes` (tap columns are always kept).
    pub fn enable_telemetry_filtered(&mut self, window: u64, cap: usize, prefixes: &[&str]) {
        self.tel = Some(Box::new(Telemetry::new(window, cap).with_filter(prefixes)));
    }

    /// Registers a design tap contributing extra telemetry columns (e.g.
    /// per-core committed-instruction counts, TMA buckets). Called once
    /// per window boundary with the design state; must return the same
    /// columns in the same order every call — telemetry rings are
    /// positional. The tap is not serialized with snapshots: re-register
    /// it (by re-enabling telemetry the same way) before restoring.
    pub fn set_telemetry_tap(&mut self, tap: TelemetryTap<S>) {
        self.tel_tap = Some(tap);
    }

    /// The telemetry sampler, when enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tel.as_deref()
    }

    /// The telemetry ring as a JSON document (empty-windowed but valid
    /// when telemetry is off).
    #[must_use]
    pub fn telemetry_json(&self) -> String {
        self.tel.as_deref().map_or_else(
            || Telemetry::new(1, 1).to_json(self.cycles),
            |t| t.to_json(self.cycles),
        )
    }

    /// Assembles the cumulative telemetry column vector: the (sorted)
    /// registry-counter snapshot under the sampler's prefix filter, then
    /// the tap's columns.
    fn telemetry_columns(&self) -> Vec<(String, u64)> {
        let tel = self.tel.as_deref().expect("telemetry enabled");
        let mut cols: Vec<(String, u64)> = self
            .counters
            .snapshot()
            .into_iter()
            .filter(|(n, _)| tel.keeps(n))
            .collect();
        if let Some(tap) = &self.tel_tap {
            cols.extend(tap(&self.state));
        }
        cols
    }

    /// Critical paths over the recorded causality edges, with rule indices
    /// resolved to names: `(window_start, names constrainer-first)`.
    /// Empty when profiling is off or no edges were recorded.
    #[must_use]
    pub fn critical_path_names(&self) -> Vec<(u64, Vec<String>)> {
        let Some(p) = self.prof.as_deref() else {
            return Vec::new();
        };
        p.causal()
            .critical_paths(p.window())
            .into_iter()
            .map(|cp| {
                let names = cp
                    .rules
                    .iter()
                    .map(|&r| {
                        self.rules
                            .get(r as usize)
                            .map_or_else(|| format!("rule#{r}"), |e| e.name.clone())
                    })
                    .collect();
                (cp.window_start, names)
            })
            .collect()
    }

    /// The profiling snapshot as a JSON document: per-rule fire/stall
    /// counts and host-time attribution, critical paths per window,
    /// causal-edge totals, and the last few per-window counter deltas.
    /// Usable with profiling off (host-time fields are then zero).
    #[must_use]
    pub fn profile_json(&self) -> String {
        let prof = self.prof.as_deref();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.schema_version();
        w.field_u64("cycles", self.cycles);
        w.field_str(
            "scheduler",
            match self.mode {
                SchedulerMode::Reference => "reference",
                SchedulerMode::Fast => "fast",
            },
        );
        w.key("profiling");
        w.boolean(prof.is_some());
        w.key("rules");
        w.begin_array();
        let now = self.clk.cycle();
        for (i, r) in self.rules.iter().enumerate() {
            let rp = prof.map(|p| p.rule(i)).unwrap_or_default();
            let stats = effective_stats(r, now);
            w.begin_object();
            w.field_str("name", &r.name);
            w.field_u64("fired", stats.fired);
            w.field_u64("guard_stalls", stats.guard_stalls);
            w.field_u64("cm_stalls", stats.cm_stalls);
            w.field_u64("evals", rp.evals);
            w.field_u64("skipped", rp.skipped);
            w.field_u64("body_ns", rp.body_ns);
            w.field_u64("fired_ns", rp.fired_ns);
            w.field_u64("stall_ns", rp.stall_ns);
            w.field_u64("total_ns", rp.total_ns());
            w.end_object();
        }
        w.end_array();
        if let Some(p) = prof {
            w.key("critical_paths");
            w.begin_array();
            let paths = p.causal().critical_paths(p.window());
            // Keep the JSON bounded on long runs: the most recent windows
            // are the interesting ones.
            let start = paths.len().saturating_sub(64);
            for cp in &paths[start..] {
                w.begin_object();
                w.field_u64("window_start", cp.window_start);
                w.field_u64("window_end", cp.window_end);
                w.field_u64("length", cp.len as u64);
                w.key("rules");
                w.begin_array();
                for &r in &cp.rules {
                    match self.rules.get(r as usize) {
                        Some(e) => w.string(&e.name),
                        None => w.string(&format!("rule#{r}")),
                    }
                }
                w.end_array();
                w.end_object();
            }
            w.end_array();
            w.key("causal_edges");
            w.begin_object();
            w.field_u64("recorded", p.causal().recorded());
            w.field_u64("dropped", p.causal().dropped());
            w.end_object();
            w.field_u64("window", p.window());
            w.key("windows");
            w.begin_array();
            let marks: Vec<_> = p.marks().collect();
            let start = marks.len().saturating_sub(9);
            for pair in marks[start..].windows(2) {
                w.begin_object();
                w.field_u64("from_cycle", pair[0].cycle());
                w.field_u64("to_cycle", pair[1].cycle());
                w.key("deltas");
                w.begin_object();
                for (name, v) in pair[1].delta_since(pair[0]) {
                    w.field_u64(&name, v);
                }
                w.end_object();
                w.end_object();
            }
            w.end_array();
        }
        w.end_object();
        w.finish()
    }

    /// Declares when a stalled `rule` is re-evaluated (fast scheduler only;
    /// the reference oracle evaluates every rule every cycle regardless).
    ///
    /// [`Wakeup::Inferred`] and [`Wakeup::Watch`] require the rule body to
    /// be a pure function of clocked cell state — see the contract in
    /// [`crate::sched`]. Clears any current sleep of the rule.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this `Sim`.
    pub fn set_wakeup(&mut self, id: RuleId, wakeup: Wakeup) {
        self.rules[id.0].sched.wakeup = wakeup;
        self.clear_sleep(id.0);
        self.sync_wake_log();
    }

    /// Excludes a rule from the watchdog's notion of forward progress.
    ///
    /// Use for substrate rules that fire unconditionally every cycle (e.g.
    /// a memory-system tick): they would otherwise keep resetting the
    /// quiet-cycle counter and hide a genuinely deadlocked design.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this `Sim`.
    pub fn exempt_from_watchdog(&mut self, id: RuleId) {
        self.rules[id.0].exempt = true;
    }

    /// Sets the watchdog threshold (consecutive all-quiet cycles before
    /// [`SimError::Deadlock`]); `None` disables the watchdog.
    pub fn set_watchdog(&mut self, threshold: Option<u64>) {
        self.watchdog = threshold;
    }

    /// Attaches a fault-injection engine. The scheduler consults it for
    /// per-rule faults each cycle and applies registered bit flips at every
    /// cycle boundary. An engine with an empty plan changes nothing.
    pub fn attach_chaos(&mut self, engine: &FaultEngine) {
        engine.bind_clock(&self.clk);
        self.chaos = Some(engine.clone());
    }

    /// Executes one clock cycle: attempts every rule once, in order.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] — the watchdog saw no (non-exempt) rule
    ///   fire for the threshold number of consecutive cycles. The cycle
    ///   itself still executed.
    /// * [`SimError::RegConflict`] — a rule's commit was refused because it
    ///   double-wrote a `Reg`; the rule was aborted and the cycle finished.
    pub fn try_cycle(&mut self) -> Result<(), SimError> {
        match self.mode {
            SchedulerMode::Reference => self.cycle_reference(),
            SchedulerMode::Fast => self.cycle_fast(),
        }
    }

    /// The oracle loop: every guard evaluated, every Ok-rule fully
    /// CM-scanned, every cycle. The profiler check is hoisted out of the
    /// per-rule loop by monomorphizing the body on `PROF` — an unprofiled
    /// reference run carries no disabled-profiler branches (previously a
    /// measured ~8% tax on guard-heavy designs).
    fn cycle_reference(&mut self) -> Result<(), SimError> {
        if self.prof.is_some() {
            self.cycle_reference_impl::<true>()
        } else {
            self.cycle_reference_impl::<false>()
        }
    }

    fn cycle_reference_impl<const PROF: bool>(&mut self) -> Result<(), SimError> {
        let now = self.clk.cycle();
        let chaos = self.chaos.clone();
        let mut fired_any = false;
        let mut conflict: Option<SimError> = None;
        let tracing = self.tracer.is_enabled();
        let hist = self.collect_hist;
        let total_methods = self.clk.total_methods() as usize;
        if PROF && total_methods > 0 {
            self.owner_scratch.clear();
            self.owner_scratch.resize(total_methods, u32::MAX);
        }
        let mut calls = std::mem::take(&mut self.calls_scratch);
        for (i, entry) in self.rules.iter_mut().enumerate() {
            match chaos.as_ref().and_then(|e| e.rule_fault(&entry.name, now)) {
                Some(RuleFault::ForceStall) => {
                    account_guard_stall(
                        entry,
                        &self.tracer,
                        tracing,
                        hist,
                        &self.ctr_guard,
                        now,
                        CHAOS_STALL_REASON,
                    );
                    continue;
                }
                Some(RuleFault::Abort) => {
                    // The body runs (reads propagate, guards evaluate) but
                    // its effects are vetoed — a transient arbitration loss.
                    self.clk.begin_rule();
                    let _ = (entry.body)(&mut self.state);
                    self.clk.abort_rule();
                    account_guard_stall(
                        entry,
                        &self.tracer,
                        tracing,
                        hist,
                        &self.ctr_guard,
                        now,
                        CHAOS_ABORT_REASON,
                    );
                    continue;
                }
                None => {}
            }
            let t0 = if PROF { Some(Instant::now()) } else { None };
            self.clk.begin_rule();
            let outcome = (entry.body)(&mut self.state);
            let t_body = if PROF { Some(Instant::now()) } else { None };
            let mut fired_now = false;
            match outcome {
                Ok(()) => {
                    if let Some(v) = self.clk.check_cm() {
                        self.clk.abort_rule();
                        account_cm_stall(entry, &self.tracer, tracing, hist, &self.ctr_cm, now, &v);
                        if PROF {
                            if let Some(p) = self.prof.as_mut() {
                                push_cm_edge(p, &self.clk, &self.owner_scratch, i, now);
                            }
                        }
                        self.last_violation = Some(v);
                    } else {
                        if PROF && total_methods > 0 {
                            // Commit drains the call list, so capture it
                            // first for method→owner attribution.
                            self.clk.calls_global(&mut calls);
                        }
                        match self.clk.try_commit_rule() {
                            Ok(()) => {
                                if PROF && total_methods > 0 {
                                    let rule = u32::try_from(i).expect("rule index");
                                    for &c in &calls {
                                        self.owner_scratch[c as usize] = rule;
                                    }
                                }
                                account_fired(entry, &self.tracer, tracing, &self.ctr_fired, now);
                                fired_now = true;
                                if !entry.exempt {
                                    fired_any = true;
                                }
                            }
                            Err(reg) => {
                                account_guard_stall(
                                    entry,
                                    &self.tracer,
                                    tracing,
                                    hist,
                                    &self.ctr_guard,
                                    now,
                                    REG_CONFLICT_REASON,
                                );
                                // Remember the first offense but finish the
                                // schedule so the cycle stays well-formed.
                                if conflict.is_none() {
                                    conflict = Some(SimError::RegConflict {
                                        cycle: self.cycles,
                                        rule: entry.name.clone(),
                                        reg,
                                    });
                                }
                            }
                        }
                    }
                }
                Err(stall) => {
                    self.clk.abort_rule();
                    account_guard_stall(
                        entry,
                        &self.tracer,
                        tracing,
                        hist,
                        &self.ctr_guard,
                        now,
                        stall.reason(),
                    );
                }
            }
            if PROF {
                if let (Some(t0), Some(t1)) = (t0, t_body) {
                    if let Some(p) = self.prof.as_mut() {
                        p.record_eval(i, t0, t1, fired_now);
                    }
                }
            }
        }
        self.calls_scratch = calls;
        self.finish_cycle(fired_any, conflict, chaos.as_ref(), now)
    }

    /// The fast loop: same observable behavior as [`Sim::cycle_reference`]
    /// via the fired-forbidden probe and wakeup short-circuits (see module
    /// docs and `docs/SCHEDULING.md` for the equivalence argument).
    ///
    /// One body, two instantiations, picked per cycle from what is attached:
    /// with a chaos engine, tracer, stall histograms or the profiler live the
    /// cycle runs `OBS = true`; otherwise `OBS = false` compiles every
    /// observer branch out (chaos verdicts, timestamps, publisher tagging,
    /// skip records, histogram inserts, trace emits) — the lane plain runs
    /// take, monomorphized the way [`Sim::cycle_reference`] is on `PROF`.
    fn cycle_fast(&mut self) -> Result<(), SimError> {
        if self.chaos.is_some()
            || self.tracer.is_enabled()
            || self.collect_hist
            || self.prof.is_some()
        {
            self.cycle_fast_impl::<true>()
        } else {
            self.cycle_fast_impl::<false>()
        }
    }

    fn cycle_fast_impl<const OBS: bool>(&mut self) -> Result<(), SimError> {
        let now = self.clk.cycle();
        let chaos = if OBS { self.chaos.clone() } else { None };
        let mut fired_any = false;
        let mut conflict: Option<SimError> = None;
        let tracing = OBS && self.tracer.is_enabled();
        let hist = OBS && self.collect_hist;
        let prof_on = OBS && self.prof.is_some();
        // A design that registered no CM-checked modules has nothing to
        // conflict: skip the whole conflict-probe apparatus (call
        // collection, probe, forbid-set unions). This is what keeps Fast
        // from losing to Reference on CM-free designs like the RiscyOO SoC,
        // whose modules enforce ordering through EHR port choice instead of
        // conflict matrices.
        let no_cm = self.clk.total_methods() == 0;
        if !no_cm {
            self.fired_forbidden
                .reset(self.clk.total_methods() as usize);
        }
        if prof_on && !no_cm {
            self.owner_scratch.clear();
            self.owner_scratch
                .resize(self.clk.total_methods() as usize, u32::MAX);
        }
        let mut calls = std::mem::take(&mut self.calls_scratch);
        let mut reads = std::mem::take(&mut self.reads_scratch);
        let nrules = self.rules.len();
        // Drain once per cycle regardless of sleepers, so the publish log
        // stays bounded even in designs where no rule ever sleeps — but
        // only when the wake log is live at all (some rule opted into a
        // non-default wakeup); otherwise nothing is ever published and the
        // drain would be pure per-cycle overhead.
        if self.any_wakeup {
            drain_wakeups(
                &self.clk,
                &mut self.watchers,
                &self.sleep_gens,
                &mut self.wake_flags,
                &mut self.pub_seen,
                &mut self.prof,
                now,
            );
        }
        for (i, entry) in self.rules.iter_mut().enumerate() {
            // Chaos verdicts come first so an injected fault lands on the
            // same cycle whether or not the rule is asleep.
            match chaos.as_ref().and_then(|e| e.rule_fault(&entry.name, now)) {
                Some(RuleFault::ForceStall) => {
                    // The chaos stall replaces this cycle's batched cached-
                    // reason stall: settle the sleep deficit up to `now`,
                    // account the chaos verdict, and resume batching after.
                    settle_sleep(entry, now);
                    if let Some(sleep) = &mut entry.sched.sleep {
                        sleep.since = now + 1;
                    }
                    account_guard_stall(
                        entry,
                        &self.tracer,
                        tracing,
                        hist,
                        &self.ctr_guard,
                        now,
                        CHAOS_STALL_REASON,
                    );
                    continue;
                }
                Some(RuleFault::Abort) => {
                    // The oracle runs the body and vetoes its effects. A
                    // sleeping rule's body is a pure function of cells that
                    // have not changed, so skipping it is unobservable; an
                    // awake rule may touch plain state and must run exactly
                    // like the oracle.
                    if entry.sched.sleep.is_none() {
                        self.clk.begin_rule();
                        let _ = (entry.body)(&mut self.state);
                        self.clk.abort_rule();
                    }
                    settle_sleep(entry, now);
                    if let Some(sleep) = &mut entry.sched.sleep {
                        sleep.since = now + 1;
                    }
                    account_guard_stall(
                        entry,
                        &self.tracer,
                        tracing,
                        hist,
                        &self.ctr_guard,
                        now,
                        CHAOS_ABORT_REASON,
                    );
                    continue;
                }
                None => {}
            }
            if entry.sched.sleep.is_some() {
                // Lazy drain: an earlier rule may have committed a watched
                // write *this* cycle (a schedule-order bypass the reference
                // loop would observe), so re-check the publish count — one
                // Cell read in the common nothing-new case.
                drain_wakeups(
                    &self.clk,
                    &mut self.watchers,
                    &self.sleep_gens,
                    &mut self.wake_flags,
                    &mut self.pub_seen,
                    &mut self.prof,
                    now,
                );
                if self.wake_flags[i] {
                    self.wake_flags[i] = false;
                    self.sleep_gens[i] = self.sleep_gens[i].wrapping_add(1);
                    settle_sleep(entry, now);
                    entry.sched.sleep = None;
                    entry.sched.just_woke = true;
                } else {
                    // Still asleep: nothing the guard read has published, so
                    // it would stall with the same reason. The per-rule
                    // statistics are *batched* (settled from `Sleep::since`
                    // at wake or observation — tracing and histograms force
                    // full re-evaluation instead of sleeping, so only the
                    // plain stall count is ever deferred); the shared stall
                    // counter stays cycle-exact, it is one Cell bump. With
                    // the profiler live, account per cycle so its skip
                    // counts stay exact too.
                    self.ctr_guard.inc();
                    if OBS {
                        if let Some(p) = self.prof.as_mut() {
                            settle_sleep(entry, now);
                            entry.stats.guard_stalls += 1;
                            if let Some(sleep) = &mut entry.sched.sleep {
                                sleep.since = now + 1;
                            }
                            p.record_skip(i);
                        }
                    }
                    continue;
                }
            }
            let infer = matches!(
                entry.sched.wakeup,
                Wakeup::Inferred | Wakeup::InferredPlus(_)
            );
            let t0 = if prof_on {
                // Tag publishes from this rule's commit so a later wake can
                // be attributed back to it.
                self.clk.set_cur_rule(u32::try_from(i).expect("rule index"));
                Some(Instant::now())
            } else {
                None
            };
            // Evaluate untraced: the read set is only needed when the rule
            // goes to sleep, and that case re-evaluates the (pure, by the
            // sleep eligibility rules) guard with tracing on — so firing
            // rules never pay the per-read trace push.
            self.clk.begin_rule();
            let outcome = (entry.body)(&mut self.state);
            let t_body = if prof_on { Some(Instant::now()) } else { None };
            let mut fired_now = false;
            match outcome {
                Ok(()) => {
                    let violation = if no_cm {
                        None
                    } else {
                        self.clk.calls_global(&mut calls);
                        // Precise conflict test, one bit probe per call: a
                        // violation exists iff some call is in the forbidden
                        // set accumulated from everything committed earlier
                        // this cycle — exactly the condition `check_cm`
                        // scans for, so the O(calls × fired) scan only runs
                        // to *name* a violation that certainly exists.
                        if calls.iter().any(|&c| self.fired_forbidden.contains(c)) {
                            self.clk.check_cm()
                        } else {
                            None
                        }
                    };
                    if let Some(v) = violation {
                        self.clk.abort_rule();
                        account_cm_stall(entry, &self.tracer, tracing, hist, &self.ctr_cm, now, &v);
                        if OBS {
                            if let Some(p) = self.prof.as_mut() {
                                push_cm_edge(p, &self.clk, &self.owner_scratch, i, now);
                            }
                        }
                        self.last_violation = Some(v);
                    } else {
                        match self.clk.try_commit_rule() {
                            Ok(()) => {
                                if !no_cm {
                                    for &c in &calls {
                                        self.fired_forbidden.union_with(forbid_mask(
                                            &mut self.forbid_rows,
                                            &self.clk,
                                            c,
                                        ));
                                    }
                                    if prof_on {
                                        let rule = u32::try_from(i).expect("rule index");
                                        for &c in &calls {
                                            self.owner_scratch[c as usize] = rule;
                                        }
                                    }
                                }
                                account_fired(entry, &self.tracer, tracing, &self.ctr_fired, now);
                                fired_now = true;
                                if !entry.exempt {
                                    fired_any = true;
                                }
                            }
                            Err(reg) => {
                                account_guard_stall(
                                    entry,
                                    &self.tracer,
                                    tracing,
                                    hist,
                                    &self.ctr_guard,
                                    now,
                                    REG_CONFLICT_REASON,
                                );
                                if conflict.is_none() {
                                    conflict = Some(SimError::RegConflict {
                                        cycle: self.cycles,
                                        rule: entry.name.clone(),
                                        reg,
                                    });
                                }
                            }
                        }
                    }
                }
                Err(stall) => {
                    self.clk.abort_rule();
                    account_guard_stall(
                        entry,
                        &self.tracer,
                        tracing,
                        hist,
                        &self.ctr_guard,
                        now,
                        stall.reason(),
                    );
                    // Never sleep while a tracer or stall histograms are
                    // live: a sleeping rule would report its *cached* stall
                    // reason, but the fresh reason the oracle reports can
                    // change while the guard stays false (e.g. "queue full"
                    // becoming "core exited"). Exact-observability runs
                    // forfeit the tier-2 speedup and re-evaluate every
                    // cycle; cycles and counters are unaffected either way.
                    // A sleep-eligible stall is pure (that is what makes
                    // sleeping on it sound), so the watch set for inferred
                    // wakeups comes from re-evaluating the guard with read
                    // tracing on — one extra evaluation per sleep episode
                    // instead of a per-read trace push on every evaluation.
                    // If the second evaluation disagrees (fires, or taints
                    // itself), the guard is not as pure as advertised:
                    // don't sleep, and let the next cycle re-evaluate.
                    let sleepable = !matches!(entry.sched.wakeup, Wakeup::EveryCycle)
                        && !self.clk.eval_tainted()
                        && !tracing
                        && !hist
                        && entry.sched.note_stall_should_sleep()
                        && (!infer || {
                            self.clk.begin_rule();
                            self.clk.begin_read_trace();
                            let second = (entry.body)(&mut self.state);
                            self.clk.end_read_trace(&mut reads);
                            self.clk.abort_rule();
                            second.is_err() && !self.clk.eval_tainted()
                        });
                    if sleepable {
                        // Drain *before* registering the watchers: publishes
                        // that predate this evaluation were already visible
                        // to the guard and must not wake it.
                        drain_wakeups(
                            &self.clk,
                            &mut self.watchers,
                            &self.sleep_gens,
                            &mut self.wake_flags,
                            &mut self.pub_seen,
                            &mut self.prof,
                            now,
                        );
                        let gen = self.sleep_gens[i];
                        let rule = u32::try_from(i).expect("rule index");
                        let mut watch = |cell: u32| {
                            add_watcher(
                                &self.clk,
                                &mut self.watchers,
                                &self.sleep_gens,
                                nrules,
                                cell,
                                rule,
                                gen,
                            );
                        };
                        // Traced reads if the policy infers, then the
                        // explicit cells if it names any.
                        if infer {
                            reads.sort_unstable();
                            reads.dedup();
                            reads.iter().copied().for_each(&mut watch);
                        }
                        if let Wakeup::Watch(ids) | Wakeup::InferredPlus(ids) = &entry.sched.wakeup
                        {
                            ids.iter().map(|c| c.0).for_each(&mut watch);
                        }
                        entry.sched.sleep = Some(Sleep { since: now + 1 });
                    }
                }
            }
            if let (Some(t0), Some(t1)) = (t0, t_body) {
                if let Some(p) = self.prof.as_mut() {
                    p.record_eval(i, t0, t1, fired_now);
                }
            }
        }
        if prof_on {
            self.clk.set_cur_rule(u32::MAX);
        }
        self.calls_scratch = calls;
        self.reads_scratch = reads;
        self.finish_cycle(fired_any, conflict, chaos.as_ref(), now)
    }

    /// Shared cycle tail: boundary publish, chaos bit flips, watchdog.
    fn finish_cycle(
        &mut self,
        fired_any: bool,
        conflict: Option<SimError>,
        chaos: Option<&FaultEngine>,
        now: u64,
    ) -> Result<(), SimError> {
        self.clk.end_cycle();
        if let Some(e) = chaos {
            e.apply_cycle_faults(now);
        }
        self.cycles += 1;
        if let Some(p) = self.prof.as_mut() {
            if self.cycles.is_multiple_of(p.window) {
                p.push_mark(self.counters.snapshot_at(self.cycles));
            }
        }
        if let Some(window) = self.tel.as_deref().map(Telemetry::window) {
            if self.cycles.is_multiple_of(window) {
                let cols = self.telemetry_columns();
                self.tel
                    .as_mut()
                    .expect("telemetry enabled")
                    .sample(self.cycles, &cols);
            }
        }
        if let Some(err) = conflict {
            return Err(err);
        }
        if fired_any {
            self.quiet_cycles = 0;
        } else if self.rules.iter().any(|r| !r.exempt) {
            self.quiet_cycles += 1;
            if let Some(threshold) = self.watchdog {
                if self.quiet_cycles >= threshold {
                    return Err(SimError::Deadlock {
                        cycle: self.cycles,
                        report: self.wait_graph(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Executes one clock cycle, ignoring watchdog deadlock signals (a
    /// quiescent design may legitimately idle under manual cycling).
    ///
    /// # Panics
    ///
    /// Panics on non-deadlock errors (e.g. an undeclared `Reg` write
    /// conflict) — use [`Sim::try_cycle`] for graceful handling.
    pub fn cycle(&mut self) {
        match self.try_cycle() {
            Ok(()) | Err(SimError::Deadlock { .. }) => {}
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `n` cycles.
    ///
    /// # Panics
    ///
    /// As [`Sim::cycle`].
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.cycle();
        }
    }

    /// Runs up to `n` cycles, stopping early on the first error.
    ///
    /// Returns the number of cycles executed by this call.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] from [`Sim::try_cycle`].
    pub fn try_run(&mut self, n: u64) -> Result<u64, SimError> {
        for _ in 0..n {
            self.try_cycle()?;
        }
        Ok(n)
    }

    /// Runs until `done` holds (checked between cycles), up to `max_cycles`.
    ///
    /// Returns the number of cycles executed by this call.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] — the scheduler watchdog tripped: no rule
    ///   fired for many consecutive cycles. The report names each stalled
    ///   rule and its blocking guard/CM edge (e.g. the IQ wakeup race of
    ///   paper §IV-A).
    /// * [`SimError::CycleLimit`] — the budget ran out while rules were
    ///   still firing.
    /// * Any other error propagated from [`Sim::try_cycle`].
    pub fn run_until(
        &mut self,
        mut done: impl FnMut(&S) -> bool,
        max_cycles: u64,
    ) -> Result<u64, SimError> {
        for c in 0..max_cycles {
            if done(&self.state) {
                return Ok(c);
            }
            self.try_cycle()?;
        }
        if done(&self.state) {
            Ok(max_cycles)
        } else {
            Err(SimError::CycleLimit { max_cycles })
        }
    }

    /// The current wait graph: every non-exempt rule that failed to fire
    /// on its most recent attempt, with its blocking cause. Useful for
    /// ad-hoc "why is nothing happening?" inspection even before the
    /// watchdog trips.
    #[must_use]
    pub fn wait_graph(&self) -> DeadlockReport {
        let waits = self
            .rules
            .iter()
            .filter(|r| !r.exempt)
            .filter_map(|r| {
                r.last_wait.clone().map(|cause| RuleWait {
                    rule: r.name.clone(),
                    cause,
                })
            })
            .collect();
        DeadlockReport {
            stalled_for: self.quiet_cycles,
            waits,
        }
    }

    /// Total cycles executed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The design state (module tree).
    #[must_use]
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Mutable access to the design state, for test pokes and result
    /// extraction.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// The clock driving this design.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        &self.clk
    }

    /// Statistics for one rule.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this `Sim`.
    #[must_use]
    pub fn rule_stats(&self, id: RuleId) -> RuleStats {
        effective_stats(&self.rules[id.0], self.clk.cycle())
    }

    /// Name of one rule.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this `Sim`.
    #[must_use]
    pub fn rule_name(&self, id: RuleId) -> &str {
        &self.rules[id.0].name
    }

    /// Iterator over `(name, stats)` pairs in schedule order.
    pub fn all_rule_stats(&self) -> impl Iterator<Item = (&str, RuleStats)> + '_ {
        let now = self.clk.cycle();
        self.rules
            .iter()
            .map(move |r| (r.name.as_str(), effective_stats(r, now)))
    }

    /// The most recent conflict-matrix violation, if any — useful when
    /// debugging an unexpectedly low firing rate.
    #[must_use]
    pub fn last_violation(&self) -> Option<&CmViolation> {
        self.last_violation.as_ref()
    }

    /// A formatted multi-line scheduling report: rules sorted by fire count
    /// (busiest first; ties keep schedule order), each followed by its
    /// stall-reason histogram so a deadlocked or underperforming rule shows
    /// *what* it was waiting on, not just how often. With profiling enabled
    /// each rule line also carries its host-time attribution (self = rule
    /// body, total = body + scheduling) in the same table.
    #[must_use]
    pub fn report(&self) -> String {
        let prof = self.prof.as_deref();
        let mut out = String::new();
        out.push_str(&format!("cycles: {}\n", self.cycles));
        let now = self.clk.cycle();
        let mut order: Vec<(usize, &RuleEntry<S>)> = self.rules.iter().enumerate().collect();
        order.sort_by_key(|(_, r)| std::cmp::Reverse(r.stats.fired));
        for (i, r) in order {
            let stats = effective_stats(r, now);
            let total = stats.fired + stats.guard_stalls + stats.cm_stalls;
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * stats.fired as f64 / total as f64
            };
            out.push_str(&format!(
                "  {:<24} fired {:>10} ({:5.1}%)  guard-stall {:>10}  cm-stall {:>10}",
                r.name, stats.fired, pct, stats.guard_stalls, stats.cm_stalls
            ));
            if let Some(p) = prof {
                let rp = p.rule(i);
                out.push_str(&format!(
                    "  self {:>9.3}ms  total {:>9.3}ms  evals {:>10}",
                    rp.self_ns() as f64 / 1e6,
                    rp.total_ns() as f64 / 1e6,
                    rp.evals,
                ));
            }
            out.push('\n');
            let mut reasons: Vec<(String, u64)> = r
                .guard_reasons
                .iter()
                .map(|(k, v)| (format!("guard \"{k}\""), *v))
                .chain(r.cm_reasons.iter().map(|(k, v)| (format!("cm [{k}]"), *v)))
                .collect();
            reasons.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (reason, count) in reasons {
                out.push_str(&format!("      {count:>10} × {reason}\n"));
            }
        }
        out
    }
}

impl<S> fmt::Debug for Sim<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("cycles", &self.cycles)
            .field("rules", &self.rules.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Ehr, Reg};
    use crate::clock::ModuleIfc;
    use crate::cm::ConflictMatrix;
    use crate::guard::Stall;

    struct Two {
        a: Ehr<u32>,
        b: Ehr<u32>,
    }

    #[test]
    fn rules_fire_in_order_and_see_prior_effects() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.rule("inc_a", |s: &mut Two| {
            s.a.update(|v| *v += 1);
            Ok(())
        });
        sim.rule("copy_a_to_b", |s: &mut Two| {
            s.b.write(s.a.read());
            Ok(())
        });
        sim.run(3);
        // Each cycle b copies the already-incremented a (EHR bypass).
        assert_eq!(sim.state().a.read(), 3);
        assert_eq!(sim.state().b.read(), 3);
    }

    #[test]
    fn guard_stall_aborts_whole_rule() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        let r = sim.rule("partial", |s: &mut Two| {
            s.a.write(99); // buffered...
            Err(Stall::new("always stalls")) // ...then the rule aborts
        });
        sim.run(5);
        assert_eq!(sim.state().a.read(), 0, "no partial update may survive");
        assert_eq!(sim.rule_stats(r).guard_stalls, 5);
        assert_eq!(sim.rule_stats(r).fired, 0);
    }

    struct CmState {
        ifc: ModuleIfc,
        x: Ehr<u32>,
    }

    #[test]
    fn cm_stall_forces_retry_next_cycle() {
        let clk = Clock::new();
        // Single method conflicting with itself: only one of the two rules
        // can fire per cycle.
        let ifc = clk.module("m", &["bump"], ConflictMatrix::builder(1).build());
        let st = CmState {
            ifc,
            x: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        let r1 = sim.rule("first", |s: &mut CmState| {
            s.ifc.record(0);
            s.x.update(|v| *v += 1);
            Ok(())
        });
        let r2 = sim.rule("second", |s: &mut CmState| {
            s.ifc.record(0);
            s.x.update(|v| *v += 1);
            Ok(())
        });
        sim.run(10);
        assert_eq!(sim.state().x.read(), 10, "exactly one bump per cycle");
        assert_eq!(sim.rule_stats(r1).fired, 10);
        assert_eq!(sim.rule_stats(r2).cm_stalls, 10);
        assert!(sim.last_violation().is_some());
    }

    #[test]
    fn run_until_detects_completion_and_cycle_limit() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.rule("inc", |s: &mut Two| {
            s.a.update(|v| *v += 1);
            Ok(())
        });
        assert_eq!(sim.run_until(|s| s.a.read() == 4, 100), Ok(4));
        // The rule keeps firing, so the watchdog stays silent and the
        // budget runs out instead.
        assert_eq!(
            sim.run_until(|s| s.a.read() == 0, 10),
            Err(SimError::CycleLimit { max_cycles: 10 })
        );
    }

    #[test]
    fn watchdog_reports_wait_graph_on_deadlock() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        // Two rules each waiting on a condition only the other could
        // establish: a circular wait, forever quiet.
        sim.rule("needs_b", |s: &mut Two| {
            if s.b.read() == 0 {
                return Err(Stall::new("b still zero"));
            }
            s.a.write(1);
            Ok(())
        });
        sim.rule("needs_a", |s: &mut Two| {
            if s.a.read() == 0 {
                return Err(Stall::new("a still zero"));
            }
            s.b.write(1);
            Ok(())
        });
        let err = sim.run_until(|s| s.a.read() == 1, 10_000).unwrap_err();
        match err {
            SimError::Deadlock { cycle, report } => {
                assert_eq!(cycle, DEFAULT_WATCHDOG_THRESHOLD);
                assert_eq!(report.stalled_for, DEFAULT_WATCHDOG_THRESHOLD);
                assert!(report.names_rule("needs_b"));
                assert!(report.names_rule("needs_a"));
                assert_eq!(
                    report.waits[0].cause,
                    WaitCause::Guard("b still zero"),
                    "the report carries each rule's guard reason"
                );
                let shown = format!("{report}");
                assert!(
                    shown.contains("needs_a -> guard \"a still zero\""),
                    "{shown}"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_reports_cm_waits_too() {
        let clk = Clock::new();
        let ifc = clk.module("m", &["put"], ConflictMatrix::builder(1).build());
        let st = CmState {
            ifc,
            x: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        let winner = sim.rule("winner", |s: &mut CmState| {
            s.ifc.record(0);
            Ok(())
        });
        sim.rule("loser", |s: &mut CmState| {
            s.ifc.record(0);
            Ok(())
        });
        // The winner fires every cycle, so there is no deadlock — but the
        // wait graph still names the loser's CM edge.
        sim.exempt_from_watchdog(winner);
        sim.run(3);
        let graph = sim.wait_graph();
        assert!(graph.names_rule("loser"));
        assert!(matches!(graph.waits[0].cause, WaitCause::Cm(_)));
    }

    #[test]
    fn exempt_rules_do_not_feed_the_watchdog() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        let tick = sim.rule("substrate_tick", |s: &mut Two| {
            s.b.update(|v| *v = v.wrapping_add(1));
            Ok(())
        });
        sim.rule("stuck", |_s: &mut Two| Err(Stall::new("stuck forever")));
        sim.exempt_from_watchdog(tick);
        let err = sim.run_until(|s| s.a.read() == 1, 10_000).unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock { .. }),
            "the always-firing substrate rule must not mask the deadlock: {err}"
        );
    }

    #[test]
    fn disabled_watchdog_spins_to_cycle_limit() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.rule("stuck", |_s: &mut Two| Err(Stall::new("never")));
        sim.set_watchdog(None);
        assert_eq!(
            sim.run_until(|s| s.a.read() == 1, 200),
            Err(SimError::CycleLimit { max_cycles: 200 })
        );
        assert_eq!(sim.cycles(), 200);
    }

    #[test]
    fn undeclared_reg_conflict_degrades_to_error() {
        struct One {
            r: Reg<u32>,
        }
        let clk = Clock::new();
        let st = One {
            r: Reg::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.rule("w1", |s: &mut One| {
            s.r.write(1);
            Ok(())
        });
        sim.rule("w2", |s: &mut One| {
            s.r.write(2);
            Ok(())
        });
        let err = sim.try_cycle().unwrap_err();
        match err {
            SimError::RegConflict { rule, .. } => assert_eq!(rule, "w2"),
            other => panic!("expected RegConflict, got {other:?}"),
        }
        // The first writer won; the second was aborted, not committed.
        assert_eq!(sim.state().r.read(), 1);
        // The design remains usable afterwards.
        assert!(sim.try_cycle().is_err(), "still conflicting next cycle");
    }

    #[test]
    fn second_write_to_a_reg_inside_one_rule_degrades_to_error() {
        let clk = Clock::new();
        let r = Reg::named(&clk, "pc", 0u32);
        let mut sim = Sim::new(clk, r);
        sim.rule("twice", |r: &mut Reg<u32>| {
            r.write(1);
            r.write(2);
            Ok(())
        });
        match sim.try_cycle().unwrap_err() {
            SimError::RegConflict { rule, reg, .. } => {
                assert_eq!((rule.as_str(), reg), ("twice", "pc"));
            }
            other => panic!("expected RegConflict, got {other:?}"),
        }
        assert_eq!(sim.state().read(), 0, "the refused rule latched nothing");
    }

    #[test]
    fn reg_based_rules_exchange_values_without_bypass() {
        struct Swap {
            x: Reg<u32>,
            y: Reg<u32>,
        }
        let clk = Clock::new();
        let st = Swap {
            x: Reg::new(&clk, 1),
            y: Reg::new(&clk, 2),
        };
        let mut sim = Sim::new(clk, st);
        // Classic hardware swap: both rules read start-of-cycle values.
        sim.rule("x_gets_y", |s: &mut Swap| {
            s.x.write(s.y.read());
            Ok(())
        });
        sim.rule("y_gets_x", |s: &mut Swap| {
            s.y.write(s.x.read());
            Ok(())
        });
        sim.run(1);
        assert_eq!(sim.state().x.read(), 2);
        assert_eq!(sim.state().y.read(), 1);
        sim.run(1);
        assert_eq!(sim.state().x.read(), 1);
        assert_eq!(sim.state().y.read(), 2);
    }

    #[test]
    fn report_lists_every_rule() {
        let clk = Clock::new();
        let st = ();
        let mut sim = Sim::new(clk, st);
        sim.rule("nop", |_s: &mut ()| Ok(()));
        sim.run(2);
        let rep = sim.report();
        assert!(rep.contains("nop"));
        assert!(rep.contains("cycles: 2"));
    }

    #[test]
    fn report_sorts_by_fire_count_and_shows_stall_reasons() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.enable_stall_histograms();
        // Registered first but never fires; `busy` fires every cycle and
        // must be listed first in the sorted report.
        sim.rule("idle", |s: &mut Two| {
            if s.a.read() < 2 {
                return Err(Stall::new("warming up"));
            }
            Err(Stall::new("queue empty"))
        });
        sim.rule("busy", |s: &mut Two| {
            s.a.update(|v| *v += 1);
            Ok(())
        });
        sim.run(6);
        let rep = sim.report();
        let busy_at = rep.find("busy").expect("busy listed");
        let idle_at = rep.find("idle").expect("idle listed");
        assert!(busy_at < idle_at, "sorted by fire count:\n{rep}");
        // Both distinct guard reasons appear with their counts.
        assert!(rep.contains("2 × guard \"warming up\""), "{rep}");
        assert!(rep.contains("4 × guard \"queue empty\""), "{rep}");
    }

    #[test]
    fn report_includes_cm_stall_histogram() {
        let clk = Clock::new();
        let ifc = clk.module("m", &["bump"], ConflictMatrix::builder(1).build());
        let st = CmState {
            ifc,
            x: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.enable_stall_histograms();
        sim.rule("first", |s: &mut CmState| {
            s.ifc.record(0);
            Ok(())
        });
        sim.rule("second", |s: &mut CmState| {
            s.ifc.record(0);
            Ok(())
        });
        sim.run(3);
        let rep = sim.report();
        assert!(rep.contains("3 × cm [m.bump"), "{rep}");
    }

    #[test]
    fn histograms_are_off_by_default() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        let r = sim.rule("stuck", |_s: &mut Two| Err(Stall::new("never")));
        sim.set_watchdog(None);
        sim.run(3);
        // Stats and wait causes are always maintained; only the report's
        // reason histogram is gated.
        assert_eq!(sim.rule_stats(r).guard_stalls, 3);
        assert!(sim.wait_graph().names_rule("stuck"));
        assert!(!sim.report().contains("× guard"), "{}", sim.report());
    }

    #[test]
    fn scheduler_emits_structured_events() {
        use crate::trace::VecSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let clk = Clock::new();
        let ifc = clk.module("m", &["bump"], ConflictMatrix::builder(1).build());
        let st = CmState {
            ifc,
            x: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.rule("winner", |s: &mut CmState| {
            s.ifc.record(0);
            Ok(())
        });
        sim.rule("loser", |s: &mut CmState| {
            s.ifc.record(0);
            Ok(())
        });
        sim.rule("stuck", |_s: &mut CmState| Err(Stall::new("never ready")));
        let sink = Rc::new(RefCell::new(VecSink::default()));
        sim.set_tracer(Tracer::new(sink.clone()));
        sim.run(1);
        let r = sink.borrow().rendered();
        assert_eq!(
            r,
            vec![
                "[0] method m.bump".to_string(),
                "[0] rule-fired winner".to_string(),
                "[0] cm-blocked loser: m.bump already fired, m.bump must come first".to_string(),
                "[0] guard-stalled stuck: never ready".to_string(),
            ]
        );
        // Detach: no further events.
        sim.set_tracer(Tracer::disabled());
        sim.run(1);
        assert_eq!(sink.borrow().events.len(), 4);
    }

    fn build_mixed_sim(mode: SchedulerMode) -> (Sim<CmState>, [RuleId; 3]) {
        let clk = Clock::new();
        let ifc = clk.module("m", &["bump"], ConflictMatrix::builder(1).build());
        let st = CmState {
            ifc,
            x: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.set_scheduler(mode);
        let r1 = sim.rule("first", |s: &mut CmState| {
            s.ifc.record(0);
            s.x.update(|v| *v += 1);
            Ok(())
        });
        let r2 = sim.rule("second", |s: &mut CmState| {
            s.ifc.record(0);
            s.x.update(|v| *v += 1);
            Ok(())
        });
        let r3 = sim.rule("gated", |s: &mut CmState| {
            if s.x.read() < 5 {
                return Err(Stall::new("x too small"));
            }
            Ok(())
        });
        sim.set_wakeup(r3, Wakeup::Inferred);
        (sim, [r1, r2, r3])
    }

    #[test]
    fn fast_scheduler_matches_reference() {
        let (mut fast, fr) = build_mixed_sim(SchedulerMode::Fast);
        let (mut reference, rr) = build_mixed_sim(SchedulerMode::Reference);
        fast.run(10);
        reference.run(10);
        assert_eq!(fast.cycles(), reference.cycles());
        assert_eq!(fast.state().x.read(), reference.state().x.read());
        for (f, r) in fr.iter().zip(rr.iter()) {
            assert_eq!(
                fast.rule_stats(*f),
                reference.rule_stats(*r),
                "stats diverge for {}",
                fast.rule_name(*f)
            );
        }
        assert_eq!(fast.counters().snapshot(), reference.counters().snapshot());
    }

    #[test]
    fn sleeping_rule_skips_evaluation_until_watched_write() {
        use std::cell::Cell as StdCell;
        use std::rc::Rc;

        struct Gated {
            gate: Ehr<u32>,
        }
        let clk = Clock::new();
        let st = Gated {
            gate: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        let evals = Rc::new(StdCell::new(0u32));
        let evals2 = evals.clone();
        let r = sim.rule("waiter", move |s: &mut Gated| {
            evals2.set(evals2.get() + 1);
            if s.gate.read() == 0 {
                return Err(Stall::new("gate closed"));
            }
            Ok(())
        });
        sim.set_wakeup(r, Wakeup::Inferred);
        sim.run(5);
        // Falling asleep costs exactly two evaluations (the stalling one
        // plus the read-traced retry that collects the watch set); the
        // remaining four cycles are skipped-but-accounted.
        assert_eq!(evals.get(), 2, "sleeping guard must not be re-evaluated");
        assert_eq!(sim.rule_stats(r).guard_stalls, 5);
        assert_eq!(
            sim.wait_graph().waits[0].cause,
            WaitCause::Guard("gate closed")
        );
        // An out-of-rule poke to the watched cell wakes the rule.
        sim.state_mut().gate.write(1);
        sim.run(1);
        assert_eq!(evals.get(), 3);
        assert_eq!(sim.rule_stats(r).fired, 1);
    }

    #[test]
    fn explicit_watch_set_wakes_rule() {
        struct Gated {
            gate: Ehr<u32>,
        }
        let clk = Clock::new();
        let st = Gated {
            gate: Ehr::new(&clk, 0),
        };
        let watch = vec![st.gate.watch_id()];
        let mut sim = Sim::new(clk, st);
        let r = sim.rule("waiter", |s: &mut Gated| {
            if s.gate.read() == 0 {
                return Err(Stall::new("gate closed"));
            }
            Ok(())
        });
        sim.set_wakeup(r, Wakeup::Watch(watch));
        sim.run(3);
        assert_eq!(sim.rule_stats(r).guard_stalls, 3);
        sim.state_mut().gate.write(7);
        sim.run(1);
        assert_eq!(sim.rule_stats(r).fired, 1);
    }

    #[test]
    fn set_scheduler_clears_sleep_state() {
        struct Gated {
            gate: Ehr<u32>,
        }
        let clk = Clock::new();
        let st = Gated {
            gate: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        assert_eq!(sim.scheduler(), SchedulerMode::Fast, "fast is the default");
        let r = sim.rule("waiter", |s: &mut Gated| {
            if s.gate.read() == 0 {
                return Err(Stall::new("gate closed"));
            }
            Ok(())
        });
        sim.set_wakeup(r, Wakeup::Inferred);
        sim.run(2);
        sim.set_scheduler(SchedulerMode::Reference);
        // The oracle re-evaluates every cycle — no stale sleep may linger.
        sim.state_mut().gate.write(1);
        sim.run(1);
        assert_eq!(sim.rule_stats(r).fired, 1);
    }

    #[test]
    fn restore_refuses_a_telemetry_column_skew() {
        let build = |tap: bool| {
            let clk = Clock::new();
            let n = Ehr::new(&clk, 0u64);
            let mut sim = Sim::new(clk, n);
            sim.rule("tick", |n: &mut Ehr<u64>| {
                n.update(|v| *v += 1);
                Ok(())
            });
            sim.enable_telemetry(4, 8);
            if tap {
                sim.set_telemetry_tap(Box::new(|n: &Ehr<u64>| {
                    vec![("design.n".to_string(), n.read())]
                }));
            }
            sim
        };
        let mut saved = build(true);
        saved.run(6); // past the first boundary: the column names are frozen
        let mut w = SnapWriter::new();
        saved.save_kernel(&mut w).expect("save");
        let bytes = w.into_bytes();
        // The same design minus the tap's column must be refused up front,
        // not panic at its next window boundary.
        let err = build(false)
            .restore_kernel(&mut SnapReader::new(&bytes))
            .expect_err("column skew");
        assert!(
            matches!(&err, SnapError::Mismatch(m) if m.contains("design.n")),
            "{err}"
        );
        let mut same = build(true);
        same.restore_kernel(&mut SnapReader::new(&bytes))
            .expect("matching columns restore");
        same.run(6);
    }

    #[test]
    fn scheduler_counters_track_outcomes() {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        sim.rule("fires", |s: &mut Two| {
            s.a.update(|v| *v += 1);
            Ok(())
        });
        sim.rule("stalls", |_s: &mut Two| Err(Stall::new("no")));
        sim.run(4);
        let snap = sim.counters().snapshot();
        assert!(snap.contains(&("sim.rules_fired".to_string(), 4)));
        assert!(snap.contains(&("sim.guard_stalls".to_string(), 4)));
        assert!(snap.contains(&("sim.cm_stalls".to_string(), 0)));
    }
}
