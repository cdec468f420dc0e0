//! The transactional clock: cycle/rule boundaries, atomic commit, and
//! dynamic conflict-matrix enforcement.
//!
//! A [`Clock`] is shared (cheaply, via `Rc`) by every state cell and module
//! interface of a design. The scheduler ([`crate::sim::Sim`]) drives it:
//!
//! 1. [`Clock::begin_rule`] opens a transaction;
//! 2. the rule body runs: cells write in place, journal what they
//!    overwrote and enlist themselves; interfaces record method calls;
//! 3. [`Clock::check_cm`] asks whether the recorded calls are compatible
//!    (per every module's [`ConflictMatrix`]) with the rules that already
//!    fired this cycle;
//! 4. [`Clock::commit_rule`] drops the journals and publishes the touched
//!    cells, or [`Clock::abort_rule`] rolls every enlisted cell back;
//! 5. [`Clock::end_cycle`] canonicalizes registers and clears wires.
//!
//! This realizes the paper's execution model: hardware behaves as if multiple
//! rules execute every cycle, yet the behavior is always expressible as rules
//! executing one-by-one (§I).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::cm::{ConflictMatrix, Rel};
use crate::trace::{TraceEvent, Tracer};

/// Identity of a state cell, assigned by its clock at construction.
///
/// Cell ids key the scheduler's wakeup layer: every committed write to a
/// cell *publishes* the id to the clock's publish log, and a rule sleeping
/// on a watched set of ids is only re-evaluated once one of them publishes
/// (see [`crate::sched::Wakeup`]). [`crate::cell::Ehr::watch_id`] and friends
/// expose the id of a cell; FIFOs expose the id of their backing storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index of this cell in its clock's registry.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A state cell as the clock sees it. Every cell is registered with its
/// clock at construction (the registry index is its [`CellId`]), so the
/// open rule's transaction is a plain list of ids: enlisting a cell costs
/// one `u32` push, never a reference-count round trip.
///
/// Cells write **in place** and keep what they overwrote; a cell enlists
/// itself on a rule's first touch and hears back exactly once, through
/// `commit` or `abort`. Implemented by the inner storage of
/// [`crate::cell::Ehr`], [`crate::cell::Reg`], [`crate::cell::Wire`] and the
/// element-granular cells of [`crate::journal`].
pub(crate) trait TxnCell {
    /// The enlisting rule committed: forget the undo record. Returns
    /// whether the touch is *observable* this cycle (so the clock logs the
    /// id for the wakeup layer); a `Reg` returns `false` because its write
    /// only becomes visible at the end-of-cycle latch.
    fn commit(&self) -> bool;
    /// The enlisting rule aborted: restore the state it found.
    fn abort(&self);
    /// Cycle boundary, for cells registered with `at_boundary` (registers
    /// latch, wires clear). Returns whether observable state changed.
    fn end_cycle(&self) -> bool {
        false
    }
}

/// Storage behind [`Clock::signal_cell`]: an id with nothing to roll back.
struct Signal(u32);

impl TxnCell for Signal {
    fn commit(&self) -> bool {
        false
    }
    fn abort(&self) {}
}

/// A same-cycle concurrency violation: firing the current rule would require
/// an ordering the module's conflict matrix forbids.
///
/// The scheduler treats this exactly as BSV-generated hardware does: the
/// offending rule does not fire this cycle and retries on the next one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmViolation {
    /// Module whose CM was violated.
    pub module: String,
    /// Method already committed earlier this cycle.
    pub earlier_method: String,
    /// Method the current rule tried to call.
    pub later_method: String,
    /// The declared relation between them.
    pub rel: Rel,
}

impl fmt::Display for CmViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{} {} {}.{}: cannot fire in the same cycle after it",
            self.module, self.earlier_method, self.rel, self.module, self.later_method
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct MethodCall {
    module: u32,
    method: u16,
}

struct ModuleInfo {
    name: String,
    methods: Vec<&'static str>,
    cm: ConflictMatrix,
    /// First global method index of this module (see
    /// [`Clock::calls_global`]): method `m` of this module has global index
    /// `base + m`, unique across every module on the clock.
    base: u32,
}

/// Shared clock/transaction state. See the module docs.
pub struct Clock {
    inner: Rc<ClockInner>,
}

impl Clone for Clock {
    fn clone(&self) -> Self {
        Clock {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clock")
            .field("cycle", &self.inner.cycle.get())
            .field("in_rule", &self.inner.in_rule.get())
            .finish()
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

pub(crate) struct ClockInner {
    cycle: Cell<u64>,
    in_rule: Cell<bool>,
    // Every cell on this clock, indexed by cell id. Strong references: a
    // cell lives as long as its clock, which is what lets `dirty` and `eoc`
    // hold bare ids. (Cells hold no clock, so this is not a cycle.)
    cells: RefCell<Vec<Rc<dyn TxnCell>>>,
    // Ids of the cells the open rule has touched, in first-touch order.
    dirty: RefCell<Vec<u32>>,
    // Ids of the cells with cycle-boundary work, in registration order.
    eoc: RefCell<Vec<u32>>,
    // Name of a `Reg` the open rule wrote although a write to it was
    // already pending this cycle (by an earlier rule or by this one).
    reg_conflict: Cell<Option<&'static str>>,
    calls: RefCell<Vec<MethodCall>>,
    fired_calls: RefCell<Vec<MethodCall>>,
    modules: RefCell<Vec<ModuleInfo>>,
    eoc_hooks: RefCell<Vec<Rc<dyn Fn()>>>,
    // `tracing` mirrors `tracer.is_enabled()` so the commit hot path pays a
    // single Cell read when tracing is off.
    tracing: Cell<bool>,
    tracer: RefCell<Tracer>,
    // --- wakeup layer (see crate::sim) ---
    // Publish log: ids of cells whose observable state changed, in publish
    // order, awaiting a scheduler drain. `publishes` counts entries ever
    // pushed (monotonic, never reset), so "did the count change?" is a
    // one-Cell-read test for "anything published since I last drained".
    // Only maintained while `wake_log` is set: the fast scheduler enables
    // it, while the reference oracle never sleeps a rule and logging for it
    // would only grow a buffer nobody reads. Each entry is
    // `(cell id, publishing rule)`; the publisher is `cur_rule` at publish
    // time (`u32::MAX` outside any attributed rule, e.g. the end-of-cycle
    // latch) and feeds the causal profiler's publish→wake edges.
    publish_log: RefCell<Vec<(u32, u32)>>,
    publishes: Cell<u64>,
    wake_log: Cell<bool>,
    // Bitset over cell ids with at least one (possibly stale) watcher
    // entry in the scheduler's per-cell lists. Publishes of unwatched
    // cells are dropped before touching the log: on a design where only a
    // few narrow-guard rules sleep, the overwhelming majority of committed
    // writes and end-of-cycle latches publish cells nobody watches, and
    // logging those taxes every *firing* rule to feed drains that find
    // nothing. Maintained by the scheduler (set on watcher registration,
    // cleared when a cell's watcher list drains empty); bits may be stale
    // in the set direction, which only costs a logged-then-ignored entry.
    watched_cells: RefCell<Vec<u64>>,
    // Scheduler-maintained index of the rule currently executing, for
    // publish attribution. Only kept accurate while profiling; stale values
    // are harmless because nothing reads them when the profiler is off.
    cur_rule: Cell<u32>,
    // Global method index of the `earlier` side of the last violation
    // `check_cm` reported, for the causal profiler's CM-block edges.
    cm_earlier: Cell<u32>,
    // Read tracing: while enabled, every cell read logs its id so the
    // scheduler can infer a stalling rule's watch set.
    read_trace: Cell<bool>,
    read_log: RefCell<Vec<u32>>,
    // Per-evaluation impurity taint: cleared by `begin_rule`, set by
    // `Clock::taint_eval` when a rule body touches state the wakeup layer
    // cannot watch (the cycle counter, un-poked plain state, stat counters
    // mutated on a stall path). A tainted stalling evaluation is never
    // slept — the scheduler re-evaluates it next cycle as if it were
    // `Wakeup::EveryCycle`.
    eval_taint: Cell<bool>,
    total_methods: Cell<u32>,
}

impl ClockInner {
    /// Appends `id` to the publish log — a no-op unless logging is enabled
    /// (see [`Clock::set_wake_log`]).
    #[inline]
    fn publish(&self, id: u32) {
        if !self.wake_log.get() {
            return;
        }
        {
            let watched = self.watched_cells.borrow();
            let hit = watched
                .get((id / 64) as usize)
                .is_some_and(|w| w & (1u64 << (id % 64)) != 0);
            if !hit {
                return;
            }
        }
        self.publish_log
            .borrow_mut()
            .push((id, self.cur_rule.get()));
        self.publishes.set(self.publishes.get() + 1);
    }
}

impl Clock {
    /// Creates a fresh clock at cycle 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use cmd_core::clock::Clock;
    /// let clk = Clock::new();
    /// assert_eq!(clk.cycle(), 0);
    /// ```
    #[must_use]
    pub fn new() -> Self {
        Clock {
            inner: Rc::new(ClockInner {
                cycle: Cell::new(0),
                in_rule: Cell::new(false),
                cells: RefCell::new(Vec::new()),
                dirty: RefCell::new(Vec::new()),
                eoc: RefCell::new(Vec::new()),
                reg_conflict: Cell::new(None),
                calls: RefCell::new(Vec::new()),
                fired_calls: RefCell::new(Vec::new()),
                modules: RefCell::new(Vec::new()),
                eoc_hooks: RefCell::new(Vec::new()),
                tracing: Cell::new(false),
                tracer: RefCell::new(Tracer::disabled()),
                publish_log: RefCell::new(Vec::new()),
                publishes: Cell::new(0),
                wake_log: Cell::new(false),
                watched_cells: RefCell::new(Vec::new()),
                cur_rule: Cell::new(u32::MAX),
                cm_earlier: Cell::new(u32::MAX),
                read_trace: Cell::new(false),
                read_log: RefCell::new(Vec::new()),
                eval_taint: Cell::new(false),
                total_methods: Cell::new(0),
            }),
        }
    }

    /// Registers the cell `make` builds around its freshly allocated id
    /// (every `Ehr`/`Reg`/`Wire`/collection cell does this at
    /// construction). The id keys the open rule's transaction, the wakeup
    /// layer's publish log and the scheduler's per-cell watcher lists;
    /// `at_boundary` cells also get [`TxnCell::end_cycle`] every cycle.
    pub(crate) fn adopt<C: TxnCell + 'static>(
        &self,
        at_boundary: bool,
        make: impl FnOnce(u32) -> C,
    ) -> Rc<C> {
        let mut cells = self.inner.cells.borrow_mut();
        let id = u32::try_from(cells.len()).expect("too many state cells");
        let cell = Rc::new(make(id));
        cells.push(cell.clone());
        if at_boundary {
            self.inner.eoc.borrow_mut().push(id);
        }
        cell
    }

    /// Logs a cell read while read tracing is enabled (a no-op otherwise —
    /// one branch on a `Cell<bool>`).
    #[inline]
    pub(crate) fn note_read(&self, id: u32) {
        if self.inner.read_trace.get() {
            self.inner.read_log.borrow_mut().push(id);
        }
    }

    /// Starts logging cell reads (scheduler use, around a rule body whose
    /// watch set is being inferred).
    pub(crate) fn begin_read_trace(&self) {
        self.inner.read_log.borrow_mut().clear();
        self.inner.read_trace.set(true);
    }

    /// Stops logging and moves the logged ids (duplicates included) into
    /// `out`.
    pub(crate) fn end_read_trace(&self, out: &mut Vec<u32>) {
        self.inner.read_trace.set(false);
        out.clear();
        out.append(&mut self.inner.read_log.borrow_mut());
    }

    /// Total publish-log entries ever pushed (monotonic, survives drains).
    /// One `Cell` read: the scheduler compares this against its drained-up-to
    /// mark to decide whether a drain is needed at all.
    pub(crate) fn publish_count(&self) -> u64 {
        self.inner.publishes.get()
    }

    /// Drains the publish log, calling `f` with each `(published cell id,
    /// publishing rule)` pair in publish order (duplicates included). The
    /// publisher is `u32::MAX` when the publish happened outside an
    /// attributed rule (see [`Clock::set_cur_rule`]).
    pub(crate) fn drain_publishes(&self, mut f: impl FnMut(u32, u32)) {
        for (id, publisher) in self.inner.publish_log.borrow_mut().drain(..) {
            f(id, publisher);
        }
    }

    /// Tags subsequent publishes with rule index `rule` (`u32::MAX` to
    /// clear). The scheduler only bothers while the causal profiler is on.
    #[inline]
    pub(crate) fn set_cur_rule(&self, rule: u32) {
        self.inner.cur_rule.set(rule);
    }

    /// Global method index of the `earlier` side of the most recent
    /// violation returned by [`Clock::check_cm`] (`u32::MAX` before any).
    /// Lets the profiler map a CM stall back to the rule that committed the
    /// blocking method, via its per-cycle method-owner table.
    pub(crate) fn last_cm_earlier_global(&self) -> u32 {
        self.inner.cm_earlier.get()
    }

    /// Enables or disables publish logging (and empties the log either way).
    /// The fast scheduler turns logging on; while off — the default, and the
    /// reference oracle — committed writes skip the log entirely so it
    /// cannot grow unread.
    pub(crate) fn set_wake_log(&self, on: bool) {
        self.inner.wake_log.set(on);
        self.inner.publish_log.borrow_mut().clear();
    }

    /// Marks cell `id` as having a scheduler watcher, so its publishes
    /// reach the log (see `ClockInner::watched_cells`).
    pub(crate) fn set_cell_watched(&self, id: u32) {
        let mut w = self.inner.watched_cells.borrow_mut();
        let idx = (id / 64) as usize;
        if idx >= w.len() {
            w.resize(idx + 1, 0);
        }
        w[idx] |= 1u64 << (id % 64);
    }

    /// Clears cell `id`'s watched bit (its watcher list drained empty).
    pub(crate) fn clear_cell_watched(&self, id: u32) {
        let mut w = self.inner.watched_cells.borrow_mut();
        let idx = (id / 64) as usize;
        if let Some(word) = w.get_mut(idx) {
            *word &= !(1u64 << (id % 64));
        }
    }

    /// Records an observable change of cell `id` outside any rule commit
    /// (an initialization write or test poke) so any sleeping observer sees
    /// the change.
    pub(crate) fn mark_poked(&self, id: u32) {
        self.inner.publish(id);
    }

    /// Allocates a bare *signal cell*: a [`CellId`] with no storage behind
    /// it, for bridging non-cell state into the wakeup layer. A substrate
    /// rule that owns plain Rust state (a memory system, a device) calls
    /// [`Clock::poke`] on the signal whenever that state changes observably;
    /// rules whose guards read the plain state watch the signal via
    /// [`crate::sched::Wakeup::Watch`] or
    /// [`crate::sched::Wakeup::InferredPlus`].
    #[must_use]
    pub fn signal_cell(&self) -> CellId {
        CellId(self.adopt(false, Signal).0)
    }

    /// Publishes `cell` as changed, waking any rule sleeping on it. Safe at
    /// any time (inside or outside a rule); the publish is immediate, not
    /// transactional, so only poke for changes that are already visible.
    pub fn poke(&self, cell: CellId) {
        self.inner.publish(cell.0);
    }

    /// Marks the current rule evaluation as *impure*: it read or wrote
    /// something the wakeup layer cannot watch (the cycle counter, plain
    /// state with no covering signal cell, statistics mutated on a stall
    /// path). If the evaluation stalls, the scheduler will re-evaluate it
    /// every cycle instead of sleeping it — making `Wakeup::Inferred` /
    /// `Wakeup::InferredPlus` sound per-evaluation on rules with a few
    /// impure stall paths. Cleared automatically at `begin_rule`.
    pub fn taint_eval(&self) {
        self.inner.eval_taint.set(true);
    }

    /// Whether [`Clock::taint_eval`] was called since the last `begin_rule`.
    pub(crate) fn eval_tainted(&self) -> bool {
        self.inner.eval_taint.get()
    }

    /// Current cycle number.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.inner.cycle.get()
    }

    /// Rewinds/advances the cycle counter while restoring a snapshot.
    /// Only meaningful at a cycle boundary with no rule open.
    pub(crate) fn restore_cycle(&self, c: u64) {
        debug_assert!(!self.in_rule(), "restore_cycle inside a rule");
        self.inner.cycle.set(c);
    }

    /// Whether a rule transaction is currently open.
    #[must_use]
    pub fn in_rule(&self) -> bool {
        self.inner.in_rule.get()
    }

    /// Registers a module interface with `methods` participating in CM
    /// checking.
    ///
    /// # Panics
    ///
    /// Panics if `cm` does not cover exactly `methods.len()` methods or if it
    /// is internally inconsistent.
    #[must_use]
    pub fn module(&self, name: &str, methods: &[&'static str], cm: ConflictMatrix) -> ModuleIfc {
        assert_eq!(
            cm.len(),
            methods.len(),
            "conflict matrix size must match method count for module {name}"
        );
        cm.validate()
            .unwrap_or_else(|(a, b)| panic!("inconsistent CM for {name}: methods {a},{b}"));
        let mut modules = self.inner.modules.borrow_mut();
        let id = u32::try_from(modules.len()).expect("too many modules");
        let base = self.inner.total_methods.get();
        let count = u32::try_from(methods.len()).expect("too many methods");
        self.inner.total_methods.set(base + count);
        modules.push(ModuleInfo {
            name: name.to_string(),
            methods: methods.to_vec(),
            cm,
            base,
        });
        ModuleIfc {
            clk: self.clone(),
            id,
        }
    }

    /// Total CM-checked methods registered across every module — the size of
    /// the global method index space used by [`Clock::calls_global`].
    pub(crate) fn total_methods(&self) -> u32 {
        self.inner.total_methods.get()
    }

    /// Writes the *global* method indices (module base + method) recorded by
    /// the current rule into `out`. Scheduler use: the fired-forbidden
    /// probe and method→rule attribution.
    pub(crate) fn calls_global(&self, out: &mut Vec<u32>) {
        out.clear();
        let modules = self.inner.modules.borrow();
        for call in self.inner.calls.borrow().iter() {
            out.push(modules[call.module as usize].base + u32::from(call.method));
        }
    }

    /// Calls `f` with every global method index that can no longer be
    /// called this cycle once global method `m` has fired — the forward
    /// conflict row the fast scheduler folds into its fired-forbidden set
    /// at commit time. Only methods of `m`'s own module can qualify
    /// (cross-module methods are CM-free).
    pub(crate) fn for_each_bad_later(&self, m: u32, mut f: impl FnMut(u32)) {
        let modules = self.inner.modules.borrow();
        for info in modules.iter() {
            let count = u32::try_from(info.methods.len()).expect("method count");
            if !(info.base..info.base + count).contains(&m) {
                continue;
            }
            let local = (m - info.base) as usize;
            for c in 0..count {
                if !info.cm.rel(local, c as usize).allows_earlier_first() {
                    f(info.base + c);
                }
            }
            return;
        }
    }

    /// Adds cell `id` to the open rule's transaction. Cells call this on
    /// the rule's first touch only (they keep their own enlisted flag).
    #[inline]
    pub(crate) fn enlist(&self, id: u32) {
        debug_assert!(
            self.inner.in_rule.get(),
            "state cell enlisted outside of a rule"
        );
        self.inner.dirty.borrow_mut().push(id);
    }

    /// The cells the open rule has touched so far, in first-touch order —
    /// exactly the cells a commit would publish (`Reg`s latch later) and an
    /// abort would roll back. Empty outside a rule. For tests and
    /// diagnostics: "this method touched nothing" is `is_empty()`.
    #[must_use]
    pub fn enlisted_cells(&self) -> Vec<CellId> {
        self.inner
            .dirty
            .borrow()
            .iter()
            .map(|&id| CellId(id))
            .collect()
    }

    /// Records that the open rule wrote `Reg` `name` while a write to it
    /// was already pending this cycle. The rule can no longer commit:
    /// [`Clock::try_commit_rule`] aborts it and reports the name.
    pub(crate) fn flag_reg_conflict(&self, name: &'static str) {
        if self.inner.reg_conflict.get().is_none() {
            self.inner.reg_conflict.set(Some(name));
        }
    }

    /// Registers a callback run at every cycle boundary, *after* registers
    /// have latched and wires have cleared.
    ///
    /// Library modules use this for cycle-boundary bookkeeping (e.g. the
    /// conflict-free FIFO snapshots its occupancy); it is also handy for
    /// per-cycle statistics sampling. Writes performed inside the callback
    /// apply immediately, like initialization writes.
    pub fn at_end_of_cycle(&self, f: impl Fn() + 'static) {
        self.inner.eoc_hooks.borrow_mut().push(Rc::new(f));
    }

    /// Opens a rule transaction.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin_rule(&self) {
        assert!(!self.inner.in_rule.get(), "nested rules are not allowed");
        self.inner.in_rule.set(true);
        self.inner.eval_taint.set(false);
    }

    /// Checks the current rule's recorded method calls against every method
    /// committed earlier this cycle, returning the first violation.
    #[must_use]
    pub fn check_cm(&self) -> Option<CmViolation> {
        let calls = self.inner.calls.borrow();
        let fired = self.inner.fired_calls.borrow();
        let modules = self.inner.modules.borrow();
        for cur in calls.iter() {
            for prev in fired.iter() {
                if prev.module != cur.module {
                    continue;
                }
                let info = &modules[prev.module as usize];
                let rel = info.cm.rel(prev.method as usize, cur.method as usize);
                if !rel.allows_earlier_first() {
                    self.inner
                        .cm_earlier
                        .set(info.base + u32::from(prev.method));
                    return Some(CmViolation {
                        module: info.name.clone(),
                        earlier_method: info.methods[prev.method as usize].to_string(),
                        later_method: info.methods[cur.method as usize].to_string(),
                        rel,
                    });
                }
            }
        }
        None
    }

    /// Attaches `tracer` to this clock. Every subsequent committed method
    /// call emits a [`TraceEvent::MethodCalled`] event. Pass
    /// [`Tracer::disabled`] to detach.
    ///
    /// [`crate::sim::Sim::set_tracer`] calls this automatically; use it
    /// directly only when driving a clock by hand.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.tracing.set(tracer.is_enabled());
        *self.inner.tracer.borrow_mut() = tracer;
    }

    /// Atomically commits the current rule: every cell it touched drops its
    /// undo record and is published, and its method calls are recorded as
    /// fired-this-cycle.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open, or if the rule wrote a `Reg` that
    /// already had a write pending this cycle (an undeclared conflict; the
    /// scheduler uses [`Clock::try_commit_rule`] to refuse gracefully). The
    /// offending rule is aborted before the panic, so a harness that
    /// catches it finds the clock closed and reusable.
    pub fn commit_rule(&self) {
        assert!(self.inner.in_rule.get(), "commit outside of a rule");
        if let Some(name) = self.inner.reg_conflict.get() {
            self.abort_rule();
            panic!("Reg `{name}` written twice in the same cycle (undeclared conflict)");
        }
        {
            // Every observable change publishes the touched cell's id so
            // sleeping observers get re-evaluated (see the wakeup layer in
            // `crate::sim`); `publish` is a no-op unless a fast scheduler
            // is draining the log.
            let cells = self.inner.cells.borrow();
            for id in self.inner.dirty.borrow_mut().drain(..) {
                if cells[id as usize].commit() {
                    self.inner.publish(id);
                }
            }
        }
        if self.inner.tracing.get() {
            let tracer = self.inner.tracer.borrow();
            let modules = self.inner.modules.borrow();
            let cycle = self.cycle();
            for call in self.inner.calls.borrow().iter() {
                let info = &modules[call.module as usize];
                tracer.emit(
                    cycle,
                    &TraceEvent::MethodCalled {
                        module: &info.name,
                        method: info.methods[call.method as usize],
                    },
                );
            }
        }
        self.inner
            .fired_calls
            .borrow_mut()
            .extend(self.inner.calls.borrow_mut().drain(..));
        self.inner.in_rule.set(false);
    }

    /// Like [`Clock::commit_rule`], but refuses gracefully when the rule
    /// wrote a `Reg` that already had a write pending this cycle (an
    /// undeclared conflict with an earlier rule, or a second write by this
    /// one): the rule is aborted instead and the offending register's name
    /// is returned. The scheduler uses this to turn what would be a panic
    /// into a structured [`SimError`](crate::sim::SimError).
    ///
    /// # Errors
    ///
    /// The name of the doubly-written register; the rule has been aborted.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn try_commit_rule(&self) -> Result<(), &'static str> {
        assert!(self.inner.in_rule.get(), "commit outside of a rule");
        if let Some(name) = self.inner.reg_conflict.get() {
            self.abort_rule();
            return Err(name);
        }
        self.commit_rule();
        Ok(())
    }

    /// Rolls back everything the current rule touched and forgets its
    /// method calls: the rule has no effect, as if it never ran.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn abort_rule(&self) {
        assert!(self.inner.in_rule.get(), "abort outside of a rule");
        {
            let cells = self.inner.cells.borrow();
            for id in self.inner.dirty.borrow_mut().drain(..) {
                cells[id as usize].abort();
            }
        }
        self.inner.reg_conflict.set(None);
        self.inner.calls.borrow_mut().clear();
        self.inner.in_rule.set(false);
    }

    /// Ends the cycle: registers latch their next values, wires clear, and
    /// the fired-method history resets.
    ///
    /// # Panics
    ///
    /// Panics if a rule transaction is still open.
    pub fn end_cycle(&self) {
        assert!(
            !self.inner.in_rule.get(),
            "end_cycle during an open rule transaction"
        );
        self.inner.fired_calls.borrow_mut().clear();
        {
            // The cycle boundary publishes too: registers latch (their
            // writes become visible *now*, not at rule commit) and driven
            // wires clear back to their idle value.
            let cells = self.inner.cells.borrow();
            for &id in self.inner.eoc.borrow().iter() {
                if cells[id as usize].end_cycle() {
                    self.inner.publish(id);
                }
            }
        }
        // Index-based iteration so a hook may register further hooks without
        // a RefCell borrow conflict, and without cloning the whole list.
        let mut i = 0;
        loop {
            let hook = {
                let hooks = self.inner.eoc_hooks.borrow();
                match hooks.get(i) {
                    Some(h) => Rc::clone(h),
                    None => break,
                }
            };
            hook();
            i += 1;
        }
        self.inner.cycle.set(self.inner.cycle.get() + 1);
    }
}

/// A registered module interface; records method calls for CM enforcement.
///
/// Modules built in this framework hold a `ModuleIfc` and call
/// [`ModuleIfc::record`] at the top of each interface method that
/// participates in concurrency checking.
#[derive(Debug, Clone)]
pub struct ModuleIfc {
    clk: Clock,
    id: u32,
}

impl ModuleIfc {
    /// Records that the current rule called method `method` (the index used
    /// when the CM was declared).
    ///
    /// Outside of a rule (e.g. when a module is poked directly in a unit
    /// test) the call is ignored.
    pub fn record(&self, method: usize) {
        if !self.clk.inner.in_rule.get() {
            return;
        }
        self.clk.inner.calls.borrow_mut().push(MethodCall {
            module: self.id,
            method: u16::try_from(method).expect("method index too large"),
        });
    }

    /// The clock this interface is registered on.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        &self.clk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::ConflictMatrix;

    #[test]
    fn cycle_advances_on_end_cycle() {
        let clk = Clock::new();
        assert_eq!(clk.cycle(), 0);
        clk.end_cycle();
        clk.end_cycle();
        assert_eq!(clk.cycle(), 2);
    }

    #[test]
    #[should_panic(expected = "nested rules")]
    fn nested_begin_rule_panics() {
        let clk = Clock::new();
        clk.begin_rule();
        clk.begin_rule();
    }

    #[test]
    #[should_panic(expected = "end_cycle during an open rule")]
    fn end_cycle_mid_rule_panics() {
        let clk = Clock::new();
        clk.begin_rule();
        clk.end_cycle();
    }

    #[test]
    fn cm_violation_detected_across_rules() {
        let clk = Clock::new();
        // Two methods: 0 = a, 1 = b with a < b (so calling a after b fired is illegal).
        let cm = ConflictMatrix::builder(2).seq(&[0, 1]).build();
        let ifc = clk.module("m", &["a", "b"], cm);

        // Rule 1 calls b and commits.
        clk.begin_rule();
        ifc.record(1);
        assert!(clk.check_cm().is_none());
        clk.commit_rule();

        // Rule 2 calls a: a < b means b-then-a is forbidden this cycle.
        clk.begin_rule();
        ifc.record(0);
        let v = clk.check_cm().expect("must be a violation");
        assert_eq!(v.earlier_method, "b");
        assert_eq!(v.later_method, "a");
        clk.abort_rule();

        // Next cycle it is fine.
        clk.end_cycle();
        clk.begin_rule();
        ifc.record(0);
        assert!(clk.check_cm().is_none());
        clk.commit_rule();
    }

    #[test]
    fn conflicting_methods_cannot_share_cycle_in_either_order() {
        let clk = Clock::new();
        let cm = ConflictMatrix::builder(2).build(); // all C
        let ifc = clk.module("m", &["x", "y"], cm);

        clk.begin_rule();
        ifc.record(0);
        clk.commit_rule();

        clk.begin_rule();
        ifc.record(1);
        assert!(clk.check_cm().is_some());
        clk.abort_rule();
    }

    #[test]
    fn free_methods_share_cycle() {
        let clk = Clock::new();
        let ifc = clk.module("m", &["x", "y"], ConflictMatrix::all_free(2));
        clk.begin_rule();
        ifc.record(0);
        ifc.record(1);
        clk.commit_rule();
        clk.begin_rule();
        ifc.record(0);
        ifc.record(1);
        assert!(clk.check_cm().is_none());
        clk.commit_rule();
    }

    #[test]
    fn aborted_rule_leaves_no_call_history() {
        let clk = Clock::new();
        let cm = ConflictMatrix::builder(1).build();
        let ifc = clk.module("m", &["only"], cm);

        clk.begin_rule();
        ifc.record(0);
        clk.abort_rule();

        // Same cycle: method `only` conflicts with itself, but the earlier
        // call was aborted, so this must pass.
        clk.begin_rule();
        ifc.record(0);
        assert!(clk.check_cm().is_none());
        clk.commit_rule();
    }

    #[test]
    fn record_outside_rule_is_ignored() {
        let clk = Clock::new();
        let ifc = clk.module("m", &["only"], ConflictMatrix::builder(1).build());
        ifc.record(0); // must not panic or poison later checks
        clk.begin_rule();
        ifc.record(0);
        assert!(clk.check_cm().is_none());
        clk.commit_rule();
    }

    #[test]
    fn committed_calls_emit_method_events_aborted_ones_do_not() {
        use crate::trace::VecSink;

        let clk = Clock::new();
        let ifc = clk.module("fifo", &["enq", "deq"], ConflictMatrix::all_free(2));
        let sink = Rc::new(RefCell::new(VecSink::default()));
        clk.set_tracer(Tracer::new(sink.clone()));

        clk.begin_rule();
        ifc.record(0);
        clk.commit_rule();

        clk.begin_rule();
        ifc.record(1);
        clk.abort_rule();

        let r = sink.borrow().rendered();
        assert_eq!(r, vec!["[0] method fifo.enq".to_string()]);

        // Detaching stops emission.
        clk.set_tracer(Tracer::disabled());
        clk.begin_rule();
        ifc.record(1);
        clk.commit_rule();
        assert_eq!(sink.borrow().events.len(), 1);
    }

    #[test]
    fn a_commit_publishes_exactly_the_touched_cells_in_first_touch_order() {
        use crate::cell::{Ehr, Reg};
        use crate::journal::EhrDeque;

        let clk = Clock::new();
        let a = Ehr::new(&clk, 0u32);
        let b = Ehr::new(&clk, 0u32);
        let r = Reg::new(&clk, 0u32);
        let q: EhrDeque<u32> = EhrDeque::new(&clk, 2);
        clk.set_wake_log(true);
        for id in 0..4 {
            clk.set_cell_watched(id);
        }
        let drained = |clk: &Clock| {
            let mut ids = Vec::new();
            clk.drain_publishes(|id, _| ids.push(id));
            ids
        };

        clk.begin_rule();
        q.push_back(1);
        b.write(1);
        assert!(!a.update_if(|v| *v == 9, |v| *v = 0)); // a miss: untouched
        assert_eq!(q.pop_front(), Some(1));
        r.write(5);
        b.write(2);
        clk.commit_rule();
        assert_eq!(
            drained(&clk),
            vec![q.watch_id().0, b.watch_id().0],
            "once each, first-touch order; the Reg waits for the latch"
        );

        clk.begin_rule();
        a.write(1);
        clk.abort_rule();
        assert!(drained(&clk).is_empty(), "an abort publishes nothing");

        clk.end_cycle();
        assert_eq!(drained(&clk), vec![r.watch_id().0], "the latch publishes");
    }

    #[test]
    fn violation_display_mentions_module_and_methods() {
        let v = CmViolation {
            module: "IQ".into(),
            earlier_method: "enter".into(),
            later_method: "issue".into(),
            rel: Rel::After,
        };
        let s = v.to_string();
        assert!(s.contains("IQ.enter"));
        assert!(s.contains("IQ.issue"));
    }
}
