//! The transactional clock: cycle/rule boundaries, atomic commit, and
//! dynamic conflict-matrix enforcement.
//!
//! A [`Clock`] is shared (cheaply, via `Rc`) by every state cell and module
//! interface of a design. The scheduler ([`crate::sim::Sim`]) drives it:
//!
//! 1. [`Clock::begin_rule`] opens a transaction and gives it a fresh
//!    serial number;
//! 2. the rule body runs: cells write in place; a cell's first touch in the
//!    transaction stamps it with the serial, saves what it overwrote and
//!    enlists its id; interfaces record method calls;
//! 3. [`Clock::check_cm`] asks whether the recorded calls are compatible
//!    (per every module's [`ConflictMatrix`]) with the rules that already
//!    fired this cycle;
//! 4. [`Clock::commit_rule`] publishes the enlisted ids and visits no cell:
//!    the undo records stay behind, stale as soon as the next transaction's
//!    serial no longer matches their stamps. [`Clock::abort_rule`] rolls
//!    every enlisted cell back, one call per cell;
//! 5. [`Clock::end_cycle`] latches the registers written and clears the
//!    wires driven this cycle — only those, filed as they were driven.
//!
//! A publish is where the wake layer hangs: the clock owns the record of
//! which sleeping rule watches which cell, so publishing a cell wakes its
//! watchers then and there (see [`crate::sched::Wakeup`]).
//!
//! This realizes the paper's execution model: hardware behaves as if multiple
//! rules execute every cycle, yet the behavior is always expressible as rules
//! executing one-by-one (§I).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::{Rc, Weak};

use crate::cm::{ConflictMatrix, Rel};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::trace::{TraceEvent, Tracer};
use crate::wake::Wake;

/// Identity of a state cell, assigned by its clock at construction.
///
/// Cell ids key the scheduler's wake layer: every committed write to a cell
/// *publishes* its id, and a rule asleep on a set of ids is only re-evaluated
/// once one of them publishes (see [`crate::sched::Wakeup`]).
/// [`crate::cell::Ehr::watch_id`] and friends expose the id of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index of this cell in its clock's registry: its position in
    /// a snapshot's cell section.
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
/// itself on a rule's first touch ([`Clock::enlist`]). A commit needs
/// nothing from the cell — the clock publishes its id, and its undo record
/// goes stale with the next transaction — so the clock calls a cell only to
/// roll back an aborted rule's writes, at the boundary of a cycle in which
/// the cell was driven, and to snapshot its committed value. Implemented by
/// the inner storage of [`crate::cell::Ehr`], [`crate::cell::Reg`],
/// [`crate::cell::Wire`] and the element-granular cells of
/// [`crate::journal`].
pub(crate) trait TxnCell {
    /// The enlisting rule aborted: restore the state it found.
    fn abort(&self);
    /// Cycle boundary, for cells filed with [`Clock::drive`] this cycle
    /// (registers latch, wires clear). Returns whether observable state
    /// changed.
    fn end_cycle(&self) -> bool {
        false
    }
    /// Appends the committed value, at a cycle boundary.
    fn save(&self, w: &mut SnapWriter);
    /// Replaces the committed value with one [`TxnCell::save`] wrote.
    fn restore(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Tag on a dirty-list id whose cell is a `Reg`: an abort rolls it back,
/// a commit does not publish it (the end-of-cycle latch does).
const LATCHED: u32 = 1 << 31;

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
    // Serial of the open (or last) transaction, bumped by `begin_rule`. A
    // cell is enlisted in the open transaction iff its stamp equals it.
    serial: Cell<u64>,
    // Every cell on this clock, indexed by cell id. Strong references: a
    // cell lives as long as its clock, which is what lets `dirty` and
    // `driven` hold bare ids. (Cells hold no clock, so this is not a cycle.)
    cells: RefCell<Vec<Rc<dyn TxnCell>>>,
    // Ids of the cells the open rule has touched, in first-touch order;
    // `Reg` ids carry the `LATCHED` tag.
    dirty: RefCell<Vec<u32>>,
    // Ids of the registers written and the wires driven from idle this
    // cycle (an id may repeat): the cells the boundary visits.
    driven: RefCell<Vec<u32>>,
    // Name of a `Reg` the open rule wrote although a write to it was
    // already pending this cycle (by an earlier rule or by this one).
    reg_conflict: Cell<Option<&'static str>>,
    calls: RefCell<Vec<MethodCall>>,
    fired_calls: RefCell<Vec<MethodCall>>,
    modules: RefCell<Vec<ModuleInfo>>,
    // Held weakly: a hook owns cell handles, and every handle holds the
    // clock, so a strong list would keep the clock and all its cells alive.
    eoc_hooks: RefCell<Vec<Weak<dyn Fn()>>>,
    // `tracing` mirrors `tracer.is_enabled()` so the commit hot path pays a
    // single Cell read when tracing is off.
    tracing: Cell<bool>,
    tracer: RefCell<Tracer>,
    // Who sleeps on which cell, and who has been woken (see `crate::wake`).
    wake: Wake,
    // Global method index of the `earlier` side of the last violation
    // `check_cm` reported, for the causal profiler's CM-block edges.
    cm_earlier: Cell<u32>,
    total_methods: Cell<u32>,
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
                serial: Cell::new(0),
                cells: RefCell::new(Vec::new()),
                dirty: RefCell::new(Vec::new()),
                driven: RefCell::new(Vec::new()),
                reg_conflict: Cell::new(None),
                calls: RefCell::new(Vec::new()),
                fired_calls: RefCell::new(Vec::new()),
                modules: RefCell::new(Vec::new()),
                eoc_hooks: RefCell::new(Vec::new()),
                tracing: Cell::new(false),
                tracer: RefCell::new(Tracer::disabled()),
                wake: Wake::default(),
                cm_earlier: Cell::new(u32::MAX),
                total_methods: Cell::new(0),
            }),
        }
    }

    /// Registers the cell `make` builds around its freshly allocated id
    /// (every `Ehr`/`Reg`/`Wire`/collection cell does this at
    /// construction). The id keys the open rule's transaction, the cycle
    /// boundary's driven list and the wake layer's per-cell watcher lists.
    pub(crate) fn adopt<C: TxnCell + 'static>(&self, make: impl FnOnce(u32) -> C) -> Rc<C> {
        let mut cells = self.inner.cells.borrow_mut();
        let id = u32::try_from(cells.len())
            .ok()
            .filter(|&id| id < LATCHED)
            .expect("too many state cells");
        let cell = Rc::new(make(id));
        cells.push(cell.clone());
        cell
    }

    /// The wake layer: cells log reads and out-of-rule writes here, the
    /// scheduler puts rules to sleep and checks for wakes.
    #[inline]
    pub(crate) fn wake(&self) -> &Wake {
        &self.inner.wake
    }

    /// A weak reference to the shared state, so a test can check that
    /// nothing keeps a dropped design's clock alive.
    #[cfg(test)]
    pub(crate) fn downgrade(&self) -> Weak<ClockInner> {
        Rc::downgrade(&self.inner)
    }

    /// Global method index of the `earlier` side of the most recent
    /// violation returned by [`Clock::check_cm`] (`u32::MAX` before any).
    /// Lets the profiler map a CM stall back to the rule that committed the
    /// blocking method, via its per-cycle method-owner table.
    pub(crate) fn last_cm_earlier_global(&self) -> u32 {
        self.inner.cm_earlier.get()
    }

    /// Declares that the open evaluation's outcome may change at `cycle`
    /// (a [`Clock::cycle`] value) without any cell it read changing: a
    /// stall that depends on time says when. If the evaluation stalls and
    /// its rule sleeps, the sleep ends at that cycle's schedule slot as if
    /// a publish had woken it, and a clock jump never crosses it. Several
    /// calls keep the earliest cycle; the next [`Clock::begin_rule`]
    /// forgets it. The reference scheduler, which evaluates every cycle,
    /// ignores it.
    pub fn wake_at(&self, cycle: u64) {
        let until = &self.inner.wake.until;
        until.set(until.get().min(cycle));
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

    /// Writes the committed value of every cell, in adoption order: the
    /// count, then one length-framed record per cell. Only meaningful at a
    /// cycle boundary, where wires hold nothing (their records are empty).
    pub(crate) fn save_cells(&self, w: &mut SnapWriter) {
        let cells = self.inner.cells.borrow();
        w.len_prefix(cells.len());
        for cell in cells.iter() {
            w.framed(|w| cell.save(w));
        }
    }

    /// Restores what [`Clock::save_cells`] wrote into a clock whose design
    /// adopted the same cells in the same order.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] for a different cell count or an array of
    /// another length, [`SnapError::Corrupt`] naming the cell (by
    /// [`CellId::index`]) whose record does not consume exactly its frame.
    /// On error the cells may be partially restored.
    pub(crate) fn restore_cells(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let cells = self.inner.cells.borrow();
        let n = r.u64()?;
        if n != cells.len() as u64 {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n} cells, design has {}",
                cells.len()
            )));
        }
        for (i, cell) in cells.iter().enumerate() {
            let len = r.len_prefix()?;
            let mut rec = SnapReader::new(r.bytes(len)?);
            let why = match cell.restore(&mut rec) {
                Ok(()) if rec.remaining() == 0 => continue,
                Err(SnapError::Mismatch(why)) => {
                    return Err(SnapError::Mismatch(format!("cell {i}: {why}")))
                }
                Err(SnapError::Corrupt(why)) => why,
                // Bytes left over, or a record cut short by its frame.
                _ => "record does not fill its frame".into(),
            };
            return Err(SnapError::Corrupt(format!("cell {i}: {why}")));
        }
        Ok(())
    }

    /// Moves the cycle counter `n` cycles on without running the cycle
    /// boundary: legal only over cycles in which no rule commits, so
    /// nothing is driven (see [`crate::sim::Sim::try_advance`]), and only
    /// with no live [`Clock::at_end_of_cycle`] hook.
    pub(crate) fn skip_cycles(&self, n: u64) {
        debug_assert!(!self.in_rule(), "skip_cycles inside a rule");
        debug_assert!(!self.has_cycle_hooks());
        debug_assert!(
            self.inner.driven.borrow().is_empty(),
            "skip_cycles over a driven cell"
        );
        self.inner.cycle.set(self.inner.cycle.get() + n);
    }

    /// Whether a live [`Clock::at_end_of_cycle`] hook is registered: a
    /// cycle boundary then does work even when no rule fired.
    pub(crate) fn has_cycle_hooks(&self) -> bool {
        self.inner
            .eoc_hooks
            .borrow()
            .iter()
            .any(|h| h.strong_count() > 0)
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

    /// Whether the cell stamped `stamp` is enlisted in the open rule's
    /// transaction (outside a rule: in the last one). A stale stamp means
    /// the cell's undo record belongs to a finished transaction.
    #[inline]
    pub(crate) fn enlisted(&self, stamp: &Cell<u64>) -> bool {
        stamp.get() == self.inner.serial.get()
    }

    /// Adds cell `id`, stamped `stamp`, to the open rule's transaction
    /// unless it is already enlisted. Returns whether this was the
    /// transaction's first touch of the cell: the cell then saves its undo
    /// record, overwriting whatever a finished transaction left there.
    #[inline]
    pub(crate) fn enlist(&self, stamp: &Cell<u64>, id: u32) -> bool {
        debug_assert!(
            self.inner.in_rule.get(),
            "state cell enlisted outside of a rule"
        );
        if self.enlisted(stamp) {
            return false;
        }
        stamp.set(self.inner.serial.get());
        self.inner.dirty.borrow_mut().push(id);
        true
    }

    /// Adds `Reg` `id` to the open rule's transaction and files it for
    /// this cycle's latch. A rule enlists a register once at most (a second
    /// write is a conflict), so it needs no stamp.
    pub(crate) fn enlist_latched(&self, id: u32) {
        debug_assert!(
            self.inner.in_rule.get(),
            "register enlisted outside of a rule"
        );
        self.inner.dirty.borrow_mut().push(id | LATCHED);
        self.drive(id);
    }

    /// Files cell `id` for this cycle's boundary: a register written, a
    /// wire driven from idle. The boundary visits exactly these cells.
    #[inline]
    pub(crate) fn drive(&self, id: u32) {
        self.inner.driven.borrow_mut().push(id);
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
            .map(|&id| CellId(id & !LATCHED))
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
    /// have latched and wires have cleared, for as long as the returned
    /// handle lives. The clock keeps the hook only weakly: the owner holds
    /// the handle, so a hook that captures cell handles (which hold the
    /// clock) does not keep the clock and its cells alive.
    ///
    /// Library modules use this for cycle-boundary bookkeeping (e.g. the
    /// conflict-free FIFO snapshots its occupancy). Writes performed inside
    /// the callback apply immediately, like initialization writes.
    #[must_use = "the hook runs only while the returned handle lives"]
    pub fn at_end_of_cycle(&self, f: impl Fn() + 'static) -> Rc<dyn Fn()> {
        let hook: Rc<dyn Fn()> = Rc::new(f);
        self.inner.eoc_hooks.borrow_mut().push(Rc::downgrade(&hook));
        hook
    }

    /// Opens a rule transaction.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    #[inline]
    pub fn begin_rule(&self) {
        assert!(!self.inner.in_rule.get(), "nested rules are not allowed");
        self.inner.in_rule.set(true);
        self.inner.serial.set(self.inner.serial.get() + 1);
        self.inner.wake.until.set(u64::MAX);
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
    /// [`Tracer::disabled`] to detach. [`crate::sim::Sim::set_tracer`] is
    /// the one way in.
    pub(crate) fn set_tracer(&self, tracer: Tracer) {
        self.inner.tracing.set(tracer.is_enabled());
        *self.inner.tracer.borrow_mut() = tracer;
    }

    /// Atomically commits the current rule: every cell it touched is
    /// published (a `Reg` at its latch instead), and its method calls are
    /// recorded as fired-this-cycle. No cell is visited: the writes already
    /// are the new state, and closing the transaction un-enlists them all.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open, or if the rule wrote a `Reg` that
    /// already had a write pending this cycle (an undeclared conflict; the
    /// scheduler uses [`Clock::try_commit_rule`] to refuse gracefully). The
    /// offending rule is aborted before the panic, so a harness that
    /// catches it finds the clock closed and reusable.
    #[inline]
    pub fn commit_rule(&self) {
        assert!(self.inner.in_rule.get(), "commit outside of a rule");
        if let Some(name) = self.inner.reg_conflict.get() {
            self.abort_rule();
            panic!("Reg `{name}` written twice in the same cycle (undeclared conflict)");
        }
        {
            // Every touch publishes the cell's id so rules asleep on it get
            // re-evaluated (see `crate::wake`).
            let mut dirty = self.inner.dirty.borrow_mut();
            self.inner
                .wake
                .publish_all(dirty.iter().copied().filter(|&id| id & LATCHED == 0));
            dirty.clear();
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
        let mut calls = self.inner.calls.borrow_mut();
        if !calls.is_empty() {
            self.inner.fired_calls.borrow_mut().extend(calls.drain(..));
        }
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
    #[inline]
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
    #[inline]
    pub fn abort_rule(&self) {
        assert!(self.inner.in_rule.get(), "abort outside of a rule");
        {
            let cells = self.inner.cells.borrow();
            for id in self.inner.dirty.borrow_mut().drain(..) {
                cells[(id & !LATCHED) as usize].abort();
            }
        }
        self.inner.reg_conflict.set(None);
        self.inner.calls.borrow_mut().clear();
        self.inner.in_rule.set(false);
    }

    /// Ends the cycle: the registers written this cycle latch their next
    /// values, the wires driven this cycle clear, and the fired-method
    /// history resets.
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
            // wires clear back to their idle value. A cell filed by a rule
            // that then aborted has nothing to do and publishes nothing.
            let cells = self.inner.cells.borrow();
            for id in self.inner.driven.borrow_mut().drain(..) {
                if cells[id as usize].end_cycle() {
                    self.inner.wake.publish(id);
                }
            }
        }
        // Index-based iteration so a hook may register further hooks without
        // a RefCell borrow conflict, and without cloning the whole list.
        let mut i = 0;
        let mut dropped = false;
        loop {
            let hook = {
                let hooks = self.inner.eoc_hooks.borrow();
                match hooks.get(i) {
                    Some(h) => h.upgrade(),
                    None => break,
                }
            };
            match hook {
                Some(hook) => hook(),
                None => dropped = true,
            }
            i += 1;
        }
        if dropped {
            self.inner
                .eoc_hooks
                .borrow_mut()
                .retain(|h| h.strong_count() > 0);
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
        let cells = [a.watch_id(), b.watch_id(), r.watch_id(), q.watch_id()];
        // One sleeping rule per cell, rule `i` on `cells[i]`; publishes are
        // tagged as rule 9's, so the edge list is who woke, in wake order.
        let wake = clk.wake();
        for _ in 0..cells.len() {
            wake.add_rule();
        }
        wake.publisher.set(Some(9));
        let sleep_all = || {
            for (rule, &cell) in cells.iter().enumerate() {
                wake.forget(rule);
                wake.trace_reads(|| wake.note_read(cell.0));
                wake.sleep_on_reads(rule);
            }
        };
        let woken = || {
            let mut rules = Vec::new();
            wake.take_edges(|(from, to)| {
                assert_eq!(from, 9);
                rules.push(to as usize);
            });
            let flagged: Vec<usize> = (0..cells.len()).filter(|&i| wake.take_wake(i)).collect();
            let mut sorted = rules.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, flagged, "an edge per wake, a wake per edge");
            rules
        };

        sleep_all();
        clk.begin_rule();
        q.push_back(1);
        b.write(1);
        assert!(!a.update_if(|v| *v == 9, |v| *v = 0)); // a miss: untouched
        assert_eq!(q.pop_front(), Some(1));
        r.write(5);
        b.write(2);
        clk.commit_rule();
        assert_eq!(
            woken(),
            vec![3, 1],
            "q's watcher then b's, once each; a was not touched, the Reg waits for the latch"
        );

        sleep_all();
        clk.begin_rule();
        a.write(1);
        clk.abort_rule();
        assert!(woken().is_empty(), "an abort publishes nothing");

        clk.end_cycle();
        assert_eq!(woken(), vec![2], "the latch publishes");

        // A publish reaches the rules registered before it, and only those.
        clk.begin_rule();
        a.write(2);
        clk.commit_rule();
        assert_eq!(woken(), vec![0]);
        sleep_all();
        assert!(woken().is_empty(), "a sleeper is not woken by what it saw");
    }

    #[test]
    fn a_cycle_hook_runs_while_its_handle_lives() {
        let clk = Clock::new();
        let runs = Rc::new(Cell::new(0));
        let hook = {
            let runs = runs.clone();
            clk.at_end_of_cycle(move || runs.set(runs.get() + 1))
        };
        assert!(clk.has_cycle_hooks());
        clk.end_cycle();
        drop(hook);
        assert!(!clk.has_cycle_hooks(), "a dropped hook does not count");
        clk.end_cycle();
        assert_eq!(runs.get(), 1);
        assert!(clk.inner.eoc_hooks.borrow().is_empty(), "and is pruned");
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
