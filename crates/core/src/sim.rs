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
//! # Stall callbacks
//!
//! A design statistic that recurs on every cycle a rule stalls (rename's
//! "IQ full" count) does not belong in the rule body, where bumping plain
//! state would make the stall impure and keep the rule awake. The design
//! registers it with [`Sim::on_stall`] instead, and the kernel calls it once
//! for every cycle the rule guard-stalls, with the reason the reference
//! scheduler would report: after an awake evaluation stalls, on every
//! skipped cycle of a sleep (with the cached reason), and when a chaos
//! `Abort` vetoes an evaluation that would itself have stalled. It is never
//! called for a chaos `ForceStall` (the body does not run), a CM stall or a
//! `Reg` conflict (the body succeeded).
//!
//! # Jumping the clock
//!
//! When a fast cycle ends with every non-exempt rule asleep, no wake flag
//! pending and every exempt rule fired, the next cycles repeat it until the
//! exempt rules change something a guard reads — and a design implementing
//! [`Horizon`] knows when that is. [`Sim::try_advance`] steps one cycle and
//! then jumps over those cycles in one move, accounting them exactly as
//! stepping would: exempt rules fired, sleepers guard-stalled (their stall
//! callbacks called once per cycle), the design's bulk effects applied
//! through [`Horizon::skip`]. The jump stops short of the cycle in which the
//! watchdog would trip and lands at most on the next telemetry window edge;
//! the reference loop, chaos, tracing, histograms and the profiler never
//! jump.
//!
//! See `docs/SCHEDULING.md` for the full design and equivalence argument.
//! This file holds the rule table and the two cycle loops; the error and
//! wait-graph types, the kernel snapshot and the reports live in the
//! sibling files under `sim/`, and who sleeps on what in `crate::wake`.
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
use std::fmt;
use std::time::Instant;

use crate::chaos::{FaultEngine, RuleFault, CHAOS_ABORT_REASON, CHAOS_STALL_REASON};
use crate::clock::{Clock, CmViolation};
use crate::guard::Guarded;
use crate::prof::{CausalEdge, EdgeKind, Profiler};
use crate::sched::{BitSet, Horizon, RuleSched, SchedulerMode, Sleep, Wakeup};
use crate::telemetry::{Telemetry, TelemetryTap};
use crate::trace::{Counter, Counters, TraceEvent, Tracer};

mod error;
mod report;
mod snapshot;

pub use error::{DeadlockReport, RuleWait, SimError, WaitCause};

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

/// A rule body: mutates the design state or stalls.
type RuleBody<S> = Box<dyn FnMut(&mut S) -> Guarded<()>>;

/// A stall callback (see [`Sim::on_stall`]): one call per guard-stalled
/// cycle, with the stall reason.
type StallHook<S> = Box<dyn FnMut(&mut S, &'static str)>;

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
    /// The design's stall callback, if any (see [`Sim::on_stall`]).
    on_stall: Option<StallHook<S>>,
    /// Fast-scheduler state: wakeup policy and sleep record.
    sched: RuleSched,
}

/// What recording a rule's outcome needs besides the rule, fixed for one
/// cycle: both loops account through it, so their statistics, counters,
/// wait causes and trace events cannot differ.
struct Acct<'a> {
    tracer: &'a Tracer,
    tracing: bool,
    hist: bool,
    fired: &'a Counter,
    guard: &'a Counter,
    cm: &'a Counter,
    now: u64,
}

impl Acct<'_> {
    fn guard_stall<S>(&self, entry: &mut RuleEntry<S>, reason: &'static str) {
        entry.stats.guard_stalls += 1;
        if self.hist {
            *entry.guard_reasons.entry(reason).or_insert(0) += 1;
        }
        self.guard.inc();
        entry.last_wait = Some(WaitCause::Guard(reason));
        if self.tracing {
            let rule = &entry.name;
            self.tracer
                .emit(self.now, &TraceEvent::GuardStalled { rule, reason });
        }
    }

    fn cm_stall<S>(&self, entry: &mut RuleEntry<S>, v: &CmViolation) {
        entry.stats.cm_stalls += 1;
        if self.hist {
            *entry.cm_reasons.entry(v.to_string()).or_insert(0) += 1;
        }
        self.cm.inc();
        entry.last_wait = Some(WaitCause::Cm(v.clone()));
        if self.tracing {
            self.tracer.emit(
                self.now,
                &TraceEvent::CmOrdering {
                    rule: &entry.name,
                    module: &v.module,
                    earlier: &v.earlier_method,
                    later: &v.later_method,
                },
            );
        }
    }

    fn fired<S>(&self, entry: &mut RuleEntry<S>) {
        entry.stats.fired += 1;
        self.fired.inc();
        entry.last_wait = None;
        if self.tracing {
            self.tracer
                .emit(self.now, &TraceEvent::RuleFired { rule: &entry.name });
        }
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

/// Calls `entry`'s stall callback, if it has one, for one guard-stalled
/// cycle.
#[inline]
fn on_stalled<S>(entry: &mut RuleEntry<S>, state: &mut S, reason: &'static str) {
    if let Some(f) = entry.on_stall.as_mut() {
        f(state, reason);
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
            on_stall: None,
            sched: RuleSched::default(),
        });
        self.clk.wake().add_rule();
        id
    }

    /// Registers `f` as `id`'s stall callback: the kernel calls it with the
    /// design state and the stall reason once for every cycle the rule
    /// guard-stalls, whether its body ran or it was skipped asleep, in both
    /// scheduler modes (see the module docs for the exact cases). This is
    /// where a statistic that recurs on every stalled cycle belongs: bumped
    /// in the body it would be a plain-state mutation on the stall path,
    /// which keeps the rule from ever sleeping. `f` runs outside any rule
    /// transaction and must touch only plain state no guard reads. Over a
    /// jump ([`Sim::try_advance`]) each sleeper's calls for the skipped
    /// cycles come back to back, so callbacks of different rules must
    /// commute. Replaces any earlier callback of the rule.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this `Sim`.
    pub fn on_stall(&mut self, id: RuleId, f: impl FnMut(&mut S, &'static str) + 'static) {
        self.rules[id.0].on_stall = Some(Box::new(f));
    }

    /// Selects which per-cycle loop runs (see the module docs). Switching
    /// modes clears every rule's sleep state, so the wake layer restarts
    /// from a clean slate and the oracle never skips an evaluation.
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.mode = mode;
        for i in 0..self.rules.len() {
            self.clear_sleep(i);
        }
    }

    /// Wakes rule `i` (if asleep), settling its batched stall deficit.
    fn clear_sleep(&mut self, i: usize) {
        settle_sleep(&mut self.rules[i], self.clk.cycle());
        self.rules[i].sched.sleep = None;
        self.clk.wake().forget(i);
    }

    /// The active scheduler mode.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerMode {
        self.mode
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
    /// counter-identical to an unprofiled one; the cost is three monotonic
    /// clock reads per timed evaluation (a rule's first and one in
    /// [`crate::prof::TIMING_STRIDE`] after it).
    pub fn enable_profiling(&mut self) {
        self.prof = Some(Box::new(Profiler::new(
            crate::prof::DEFAULT_WINDOW,
            crate::prof::DEFAULT_CAUSAL_CAP,
        )));
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

    /// Declares when a stalled `rule` is re-evaluated (fast scheduler only;
    /// the reference oracle evaluates every rule every cycle regardless).
    ///
    /// [`Wakeup::Inferred`] requires every stalling path of the rule body to
    /// be a pure function of what it reads through clocked cells — see the
    /// contract in [`crate::sched`]. Clears any current sleep of the rule.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this `Sim`.
    pub fn set_wakeup(&mut self, id: RuleId, wakeup: Wakeup) {
        self.rules[id.0].sched.wakeup = wakeup;
        self.clear_sleep(id.0);
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
        let acct = Acct {
            tracer: &self.tracer,
            tracing: self.tracer.is_enabled(),
            hist: self.collect_hist,
            fired: &self.ctr_fired,
            guard: &self.ctr_guard,
            cm: &self.ctr_cm,
            now,
        };
        let total_methods = self.clk.total_methods() as usize;
        if PROF && total_methods > 0 {
            self.owner_scratch.clear();
            self.owner_scratch.resize(total_methods, u32::MAX);
        }
        let mut calls = std::mem::take(&mut self.calls_scratch);
        for (i, entry) in self.rules.iter_mut().enumerate() {
            match chaos.as_ref().and_then(|e| e.rule_fault(&entry.name, now)) {
                Some(RuleFault::ForceStall) => {
                    acct.guard_stall(entry, CHAOS_STALL_REASON);
                    continue;
                }
                Some(RuleFault::Abort) => {
                    // The body runs (reads propagate, guards evaluate) but
                    // its effects are vetoed — a transient arbitration loss.
                    self.clk.begin_rule();
                    let outcome = (entry.body)(&mut self.state);
                    self.clk.abort_rule();
                    acct.guard_stall(entry, CHAOS_ABORT_REASON);
                    if let Err(stall) = outcome {
                        on_stalled(entry, &mut self.state, stall.reason());
                    }
                    continue;
                }
                None => {}
            }
            let t0 = if PROF && self.prof.as_ref().is_some_and(|p| p.times_next(i)) {
                Some(Instant::now())
            } else {
                None
            };
            self.clk.begin_rule();
            let outcome = (entry.body)(&mut self.state);
            let t_body = t0.map(|_| Instant::now());
            let mut fired_now = false;
            match outcome {
                Ok(()) => {
                    if let Some(v) = self.clk.check_cm() {
                        self.clk.abort_rule();
                        acct.cm_stall(entry, &v);
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
                                acct.fired(entry);
                                fired_now = true;
                                if !entry.exempt {
                                    fired_any = true;
                                }
                            }
                            Err(reg) => {
                                acct.guard_stall(entry, REG_CONFLICT_REASON);
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
                    acct.guard_stall(entry, stall.reason());
                    on_stalled(entry, &mut self.state, stall.reason());
                }
            }
            if PROF {
                if let Some(p) = self.prof.as_mut() {
                    p.record_eval(i, t0.zip(t_body), fired_now);
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
        if self.observed() {
            self.cycle_fast_impl::<true>()
        } else {
            self.cycle_fast_impl::<false>()
        }
    }

    /// Whether an observer that needs every cycle run is attached: a chaos
    /// engine, a tracer, stall histograms or the profiler.
    fn observed(&self) -> bool {
        self.chaos.is_some() || self.tracer.is_enabled() || self.collect_hist || self.prof.is_some()
    }

    fn cycle_fast_impl<const OBS: bool>(&mut self) -> Result<(), SimError> {
        let now = self.clk.cycle();
        let chaos = if OBS { self.chaos.clone() } else { None };
        let mut fired_any = false;
        let mut conflict: Option<SimError> = None;
        let acct = Acct {
            tracer: &self.tracer,
            tracing: OBS && self.tracer.is_enabled(),
            hist: OBS && self.collect_hist,
            fired: &self.ctr_fired,
            guard: &self.ctr_guard,
            cm: &self.ctr_cm,
            now,
        };
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
        let wake = self.clk.wake();
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
                    acct.guard_stall(entry, CHAOS_STALL_REASON);
                    continue;
                }
                Some(RuleFault::Abort) => {
                    // The oracle runs the body and vetoes its effects. A
                    // sleeping rule's body is a pure function of cells that
                    // have not changed, so skipping it is unobservable (it
                    // would stall with the cached reason); an awake rule —
                    // one woken this cycle included — may reach a path
                    // that succeeds or touches plain state, and must run
                    // exactly like the oracle.
                    if entry.sched.sleep.is_some() && wake.take_wake(i) {
                        settle_sleep(entry, now);
                        entry.sched.sleep = None;
                    }
                    let stalled = match &entry.sched.sleep {
                        Some(sleep) => Some(sleep.reason),
                        None => {
                            self.clk.begin_rule();
                            let outcome = (entry.body)(&mut self.state);
                            self.clk.abort_rule();
                            outcome.err().map(|stall| stall.reason())
                        }
                    };
                    settle_sleep(entry, now);
                    if let Some(sleep) = &mut entry.sched.sleep {
                        sleep.since = now + 1;
                    }
                    acct.guard_stall(entry, CHAOS_ABORT_REASON);
                    if let Some(reason) = stalled {
                        on_stalled(entry, &mut self.state, reason);
                    }
                    continue;
                }
                None => {}
            }
            if let Some(reason) = entry.sched.sleep.as_ref().map(|s| s.reason) {
                // One flag read: a publish marks its watchers awake on the
                // spot, so a watched write committed by an earlier rule
                // *this* cycle (a schedule-order bypass the reference loop
                // would observe) is already visible here.
                if wake.take_wake(i) {
                    settle_sleep(entry, now);
                    entry.sched.sleep = None;
                } else {
                    // Still asleep: nothing the guard read has published, so
                    // it would stall with the same reason. The per-rule
                    // statistics are *batched* (settled from `Sleep::since`
                    // at wake or observation — tracing and histograms force
                    // full re-evaluation instead of sleeping, so only the
                    // plain stall count is ever deferred); the shared stall
                    // counter stays cycle-exact, it is one Cell bump, and
                    // so do the design's stall callback and the profiler's
                    // skip count.
                    acct.guard.inc();
                    on_stalled(entry, &mut self.state, reason);
                    if OBS {
                        if let Some(p) = self.prof.as_mut() {
                            p.record_skip(i);
                        }
                    }
                    continue;
                }
            }
            let t0 = if prof_on {
                // Tag publishes from this rule's commit so the wakes they
                // cause are attributed back to it.
                wake.publisher
                    .set(Some(u32::try_from(i).expect("rule index")));
                self.prof
                    .as_ref()
                    .is_some_and(|p| p.times_next(i))
                    .then(Instant::now)
            } else {
                None
            };
            // Evaluate untraced: the read set is only needed when the rule
            // goes to sleep, and that case re-evaluates the (pure, by the
            // sleep eligibility rules) guard with tracing on — so firing
            // rules never pay the per-read trace push.
            self.clk.begin_rule();
            let outcome = (entry.body)(&mut self.state);
            let t_body = t0.map(|_| Instant::now());
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
                        acct.cm_stall(entry, &v);
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
                                acct.fired(entry);
                                fired_now = true;
                                if !entry.exempt {
                                    fired_any = true;
                                }
                            }
                            Err(reg) => {
                                acct.guard_stall(entry, REG_CONFLICT_REASON);
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
                    acct.guard_stall(entry, stall.reason());
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
                    // If the second evaluation disagrees (fires, stalls for
                    // another reason — the one the sleep caches for the
                    // stall callback — or taints itself), the guard is not
                    // as pure as advertised: don't sleep, and let the next
                    // cycle re-evaluate.
                    let sleepable = entry.sched.wakeup == Wakeup::Inferred
                        && !wake.taint.get()
                        && !acct.tracing
                        && !acct.hist
                        && {
                            self.clk.begin_rule();
                            let second = wake.trace_reads(|| (entry.body)(&mut self.state));
                            self.clk.abort_rule();
                            second == Err(stall) && !wake.taint.get()
                        };
                    if sleepable {
                        // Registered only now, so nothing published up to
                        // here — all of it already visible to the guard —
                        // can wake the rule.
                        wake.sleep_on_reads(i);
                        entry.sched.sleep = Some(Sleep {
                            since: now + 1,
                            reason: stall.reason(),
                        });
                    }
                    on_stalled(entry, &mut self.state, stall.reason());
                }
            }
            if prof_on {
                if let Some(p) = self.prof.as_mut() {
                    p.record_eval(i, t0.zip(t_body), fired_now);
                    // Publish→wake causality, recorded by the wake layer
                    // while this rule was tagged as the publisher.
                    wake.take_edges(|(from, to)| {
                        p.causal.push(CausalEdge {
                            cycle: now,
                            from,
                            to,
                            kind: EdgeKind::PublishWake,
                        });
                    });
                }
            }
        }
        if prof_on {
            wake.publisher.set(None);
        }
        self.calls_scratch = calls;
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
        self.sample_at_window_edge();
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

    /// Closes a telemetry window when the cycle count has just reached its
    /// edge.
    fn sample_at_window_edge(&mut self) {
        if let Some(window) = self.tel.as_deref().map(Telemetry::window) {
            if self.cycles.is_multiple_of(window) {
                let cols = self.telemetry_columns();
                self.tel
                    .as_mut()
                    .expect("telemetry enabled")
                    .sample(self.cycles, &cols);
            }
        }
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
}

impl<S: Horizon> Sim<S> {
    /// Executes one cycle, like [`Sim::try_cycle`], and then jumps over
    /// every following cycle that would repeat it, up to `limit` cycles in
    /// all (see "Jumping the clock" in the module docs). Returns the cycles
    /// advanced: `0` only when `limit` is `0`. The state, statistics,
    /// counters, stall callbacks and telemetry after the call are exactly
    /// those of stepping [`Sim::try_cycle`] as many times.
    ///
    /// # Errors
    ///
    /// As [`Sim::try_cycle`], from the stepped cycle; the jump itself never
    /// fails and never crosses the cycle in which the watchdog would trip.
    pub fn try_advance(&mut self, limit: u64) -> Result<u64, SimError> {
        if limit == 0 {
            return Ok(0);
        }
        self.try_cycle()?;
        let n = self.jump_span(limit - 1);
        if n > 0 {
            self.jump(n);
        }
        Ok(1 + n)
    }

    /// How many cycles the next jump may cover: none unless the cycle just
    /// run was quiescent, then the design's horizon, clamped to `limit`,
    /// the watchdog slack and the next telemetry window edge.
    fn jump_span(&self, limit: u64) -> u64 {
        if !self.quiescent() {
            return 0;
        }
        let mut cap = limit;
        if let Some(threshold) = self.watchdog {
            // The cycle the watchdog trips in is stepped, so it reports the
            // same cycle and wait graph.
            cap = cap.min(threshold.saturating_sub(self.quiet_cycles + 1));
        }
        if let Some(window) = self.tel.as_deref().map(Telemetry::window) {
            cap = cap.min(window - self.cycles % window);
        }
        if cap == 0 {
            return 0;
        }
        self.state.horizon().min(cap)
    }

    /// Whether the cycle just run repeats until the design's horizon: it
    /// ran the unobserved fast loop, no non-exempt rule fired (the watchdog
    /// counted it quiet), every non-exempt rule ended it asleep with no
    /// wake pending, every exempt rule fired, and no end-of-cycle hook
    /// runs. Read after the cycle, so the loop itself pays nothing.
    fn quiescent(&self) -> bool {
        self.quiet_cycles > 0
            && self.mode == SchedulerMode::Fast
            && !self.observed()
            && !self.clk.wake().any_pending()
            && !self.clk.has_cycle_hooks()
            && self.rules.iter().all(|r| {
                if r.exempt {
                    r.last_wait.is_none()
                } else {
                    r.sched.sleep.is_some()
                }
            })
    }

    /// Accounts `n` quiescent cycles at once.
    fn jump(&mut self, n: u64) {
        let mut exempt = 0;
        for entry in &mut self.rules {
            if entry.exempt {
                entry.stats.fired += n;
                exempt += 1;
            } else if let (Some(f), Some(sleep)) = (entry.on_stall.as_mut(), &entry.sched.sleep) {
                // Guard stalls themselves are batched by `Sleep::since`.
                for _ in 0..n {
                    f(&mut self.state, sleep.reason);
                }
            }
        }
        let asleep = self.rules.len() as u64 - exempt;
        self.ctr_fired.add(n * exempt);
        self.ctr_guard.add(n * asleep);
        self.state.skip(n);
        self.clk.skip_cycles(n);
        self.cycles += n;
        self.quiet_cycles += n;
        self.sample_at_window_edge();
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
mod tests;
