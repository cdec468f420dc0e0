//! Transactional state cells: [`Ehr`], [`Reg`], and [`Wire`].
//!
//! All module state in a CMD design lives in these cells (and in the
//! element-granular collection cells of [`crate::journal`]). A write inside
//! a rule lands **in place**; the first touch of a cell in a rule stamps it
//! with the transaction's serial, saves the value it found in the cell's
//! undo slot and enlists the cell with the clock. Commit publishes the cell
//! without visiting it — the slot keeps a stale value that the next first
//! touch overwrites — and abort puts the old value back. This is what makes
//! rules atomic: a rule either successfully updates the state of all the
//! modules it calls, or it does nothing. A cell transaction therefore costs
//! what the rule *changes*; reads never look anywhere but the one live
//! value.
//!
//! The two register flavors differ in *intra-cycle visibility*, mirroring
//! Bluespec:
//!
//! * [`Ehr`] — an *ephemeral history register* (Rosenband \[2\]): a read
//!   observes the writes committed by rules earlier in the same cycle (and,
//!   within a rule, the rule's own earlier write). The canonical rule order
//!   of the scheduler plays the role of EHR port numbering.
//! * [`Reg`] — a plain D flip-flop: a read always observes the
//!   start-of-cycle value; a write waits in the register's `next` slot and
//!   becomes visible at the end-of-cycle latch. Two writes to the same
//!   `Reg` in one cycle are a design error (BSV would reject the schedule):
//!   the scheduler refuses the second rule's commit with a structured
//!   error, a hand-driven [`Clock::commit_rule`] panics.
//! * [`Wire`] — a same-cycle-only value (RWire): set by an earlier rule,
//!   readable until the cycle ends, automatically cleared.
//!
//! The cycle boundary visits only the registers written and the wires
//! driven from idle that cycle: each files its id with the clock as it is
//! driven.
//!
//! Outside of any rule (e.g. during construction or direct test pokes),
//! writes apply immediately; this substitutes for BSV's reset values.
//!
//! A snapshot saves every cell's committed value through its clock (see
//! [`crate::snap`]), so the constructors of `Ehr` and `Reg` ask for a
//! [`Snap`] value type; a `Wire` is empty at every cycle boundary and asks
//! for none.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::clock::{CellId, Clock, TxnCell};
use crate::guard::{Guarded, Stall};
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

// ---------------------------------------------------------------------------
// Ehr
// ---------------------------------------------------------------------------

struct EhrInner<T> {
    id: u32,
    cur: RefCell<T>,
    /// What the transaction stamped `stamp` found here; stale once that
    /// transaction has finished.
    undo: RefCell<Option<T>>,
    stamp: Cell<u64>,
}

impl<T> EhrInner<T> {
    fn new(id: u32, init: T) -> Self {
        EhrInner {
            id,
            cur: RefCell::new(init),
            undo: RefCell::new(None),
            stamp: Cell::new(0),
        }
    }

    /// Replaces the value: in place inside a rule (journaling the old value
    /// on the rule's first touch), immediately outside one.
    fn write(&self, clk: &Clock, v: T) {
        let old = self.cur.replace(v);
        if !clk.in_rule() {
            clk.wake().publish(self.id);
        } else if clk.enlist(&self.stamp, self.id) {
            *self.undo.borrow_mut() = Some(old);
        }
    }

    /// Puts back the value the enlisting rule found (shared with `Wire`).
    fn roll_back(&self) {
        if let Some(old) = self.undo.borrow_mut().take() {
            *self.cur.borrow_mut() = old;
        }
    }
}

impl<T: Snap> TxnCell for EhrInner<T> {
    fn abort(&self) {
        self.roll_back();
    }

    fn save(&self, w: &mut SnapWriter) {
        self.cur.borrow().save(w);
    }

    fn restore(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self.cur.borrow_mut() = T::load(r)?;
        Ok(())
    }
}

/// An ephemeral history register: sequential (bypassed) intra-cycle
/// visibility.
///
/// # Examples
///
/// ```
/// use cmd_core::clock::Clock;
/// use cmd_core::cell::Ehr;
///
/// let clk = Clock::new();
/// let x = Ehr::new(&clk, 1u32);
///
/// clk.begin_rule();
/// x.write(5);
/// assert_eq!(x.read(), 5); // rule sees its own write
/// clk.commit_rule();
///
/// clk.begin_rule();
/// assert_eq!(x.read(), 5); // later rule in the same cycle sees it too
/// clk.abort_rule();
/// ```
pub struct Ehr<T: 'static> {
    inner: Rc<EhrInner<T>>,
    clk: Clock,
}

impl<T: 'static> Clone for Ehr<T> {
    /// Clones the *handle*: both handles refer to the same state, like two
    /// references to one hardware register.
    fn clone(&self) -> Self {
        Ehr {
            inner: Rc::clone(&self.inner),
            clk: self.clk.clone(),
        }
    }
}

impl<T: Snap + Clone + 'static> Ehr<T> {
    /// Creates an `Ehr` with the given reset value.
    #[must_use]
    pub fn new(clk: &Clock, init: T) -> Self {
        Ehr {
            inner: clk.adopt(|id| EhrInner::new(id, init)),
            clk: clk.clone(),
        }
    }
}

impl<T: Clone + 'static> Ehr<T> {
    /// This cell's identity for the scheduler's wakeup layer (see
    /// [`crate::sched::Wakeup`]).
    #[must_use]
    pub fn watch_id(&self) -> CellId {
        CellId(self.inner.id)
    }

    /// Reads the latest value: this rule's own write if any, otherwise the
    /// value committed by earlier rules (this cycle or before).
    #[must_use]
    pub fn read(&self) -> T {
        self.clk.wake().note_read(self.inner.id);
        self.inner.cur.borrow().clone()
    }

    /// Applies `f` to a borrow of the latest value without cloning.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.clk.wake().note_read(self.inner.id);
        f(&self.inner.cur.borrow())
    }

    /// Replaces the value; inside a rule the old one comes back if the rule
    /// aborts. Outside a rule the write applies immediately
    /// (initialization).
    pub fn write(&self, v: T) {
        self.inner.write(&self.clk, v);
    }

    /// Read-modify-write in place. The rule's first touch of the cell saves
    /// a clone of the value for rollback, so this always opens a
    /// transaction on the cell — when `f` may leave the value as it is, use
    /// [`Ehr::update_if`].
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.clk.wake().note_read(self.inner.id);
        self.modify(f)
    }

    /// Conditional read-modify-write: `pred` decides on a borrow, and only
    /// when it holds is the cell journaled, enlisted, mutated by `f` and
    /// (at commit) published. Returns whether `f` ran.
    ///
    /// This is the primitive for broadcast methods (`wakeup`, `wrongSpec`,
    /// a store's kill search) that visit every slot of a structure but
    /// change few: a slot the broadcast does not concern costs one borrow,
    /// not a transaction.
    pub fn update_if(&self, pred: impl FnOnce(&T) -> bool, f: impl FnOnce(&mut T)) -> bool {
        self.clk.wake().note_read(self.inner.id);
        let hit = pred(&self.inner.cur.borrow());
        if hit {
            self.modify(f);
        }
        hit
    }

    fn modify<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let inner = &*self.inner;
        if !self.clk.in_rule() {
            let r = f(&mut inner.cur.borrow_mut());
            self.clk.wake().publish(inner.id);
            return r;
        }
        if self.clk.enlist(&inner.stamp, inner.id) {
            *inner.undo.borrow_mut() = Some(inner.cur.borrow().clone());
        }
        f(&mut inner.cur.borrow_mut())
    }
}

impl<T: Clone + 'static> Ehr<Vec<T>> {
    /// Element read for array-shaped state (e.g. a register file).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize) -> T {
        self.with(|v| v[i].clone())
    }

    /// Element write for array-shaped state. The rule's first touch clones
    /// the whole vector for rollback; hot arrays belong in an
    /// [`EhrArray`](crate::journal::EhrArray), which journals one element.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&self, i: usize, val: T) {
        self.update(|v| v[i] = val);
    }
}

impl<T: Clone + fmt::Debug + 'static> fmt::Debug for Ehr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Ehr").field(&self.read()).finish()
    }
}

// ---------------------------------------------------------------------------
// Reg
// ---------------------------------------------------------------------------

struct RegInner<T> {
    id: u32,
    name: &'static str,
    at_start: RefCell<T>,
    /// This cycle's write, waiting for the end-of-cycle latch. A rule only
    /// enlists a `Reg` whose slot it found empty (anything else is a
    /// conflict), so rollback is just clearing it. A committed write is
    /// not published until the latch: publishing it at commit would wake
    /// sleeping rules a cycle early.
    next: RefCell<Option<T>>,
}

impl<T: Snap> TxnCell for RegInner<T> {
    fn abort(&self) {
        *self.next.borrow_mut() = None;
    }

    fn save(&self, w: &mut SnapWriter) {
        debug_assert!(self.next.borrow().is_none(), "save before the latch");
        self.at_start.borrow().save(w);
    }

    fn restore(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self.at_start.borrow_mut() = T::load(r)?;
        Ok(())
    }

    fn end_cycle(&self) -> bool {
        match self.next.borrow_mut().take() {
            Some(v) => {
                *self.at_start.borrow_mut() = v;
                true
            }
            None => false,
        }
    }
}

/// A plain register: reads observe the start-of-cycle value; writes become
/// visible next cycle.
///
/// # Examples
///
/// ```
/// use cmd_core::clock::Clock;
/// use cmd_core::cell::Reg;
///
/// let clk = Clock::new();
/// let r = Reg::new(&clk, 7u32);
///
/// clk.begin_rule();
/// r.write(9);
/// assert_eq!(r.read(), 7); // still the old value this cycle
/// clk.commit_rule();
/// clk.end_cycle();
/// assert_eq!(r.read(), 9);
/// ```
pub struct Reg<T: 'static> {
    inner: Rc<RegInner<T>>,
    clk: Clock,
}

impl<T: 'static> Clone for Reg<T> {
    /// Clones the *handle*: both handles refer to the same register.
    fn clone(&self) -> Self {
        Reg {
            inner: Rc::clone(&self.inner),
            clk: self.clk.clone(),
        }
    }
}

impl<T: Snap + Clone + 'static> Reg<T> {
    /// Creates a register with the given reset value.
    #[must_use]
    pub fn new(clk: &Clock, init: T) -> Self {
        Self::named(clk, "", init)
    }

    /// Creates a named register; the name appears in conflict diagnostics.
    #[must_use]
    pub fn named(clk: &Clock, name: &'static str, init: T) -> Self {
        Reg {
            inner: clk.adopt(|id| RegInner {
                id,
                name,
                at_start: RefCell::new(init),
                next: RefCell::new(None),
            }),
            clk: clk.clone(),
        }
    }
}

impl<T: Clone + 'static> Reg<T> {
    /// This cell's identity for the scheduler's wakeup layer (see
    /// [`crate::sched::Wakeup`]).
    #[must_use]
    pub fn watch_id(&self) -> CellId {
        CellId(self.inner.id)
    }

    /// Reads the start-of-cycle value.
    #[must_use]
    pub fn read(&self) -> T {
        self.clk.wake().note_read(self.inner.id);
        self.inner.at_start.borrow().clone()
    }

    /// Applies `f` to a borrow of the start-of-cycle value without cloning.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.clk.wake().note_read(self.inner.id);
        f(&self.inner.at_start.borrow())
    }

    /// Writes the value to take effect next cycle; outside a rule the write
    /// applies immediately (initialization).
    ///
    /// A second write in one cycle — by another rule or by the same one —
    /// is an undeclared conflict: the write is dropped and the rule is
    /// marked uncommittable (see [`Clock::try_commit_rule`]).
    pub fn write(&self, v: T) {
        let inner = &*self.inner;
        if !self.clk.in_rule() {
            *inner.at_start.borrow_mut() = v;
            self.clk.wake().publish(inner.id);
            return;
        }
        let mut next = inner.next.borrow_mut();
        if next.is_some() {
            self.clk.flag_reg_conflict(inner.name);
            return;
        }
        *next = Some(v);
        self.clk.enlist_latched(inner.id);
    }
}

impl<T: Clone + fmt::Debug + 'static> fmt::Debug for Reg<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Reg").field(&self.read()).finish()
    }
}

// ---------------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------------

/// An `Ehr<Option<T>>` that empties itself at the cycle boundary, so a
/// snapshot finds nothing in it.
struct WireInner<T>(EhrInner<Option<T>>);

impl<T> TxnCell for WireInner<T> {
    fn abort(&self) {
        self.0.roll_back();
    }

    fn save(&self, _: &mut SnapWriter) {
        debug_assert!(self.0.cur.borrow().is_none(), "save of a driven wire");
    }

    fn restore(&self, _: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }

    fn end_cycle(&self) -> bool {
        // Clearing a driven wire is an observable change (a `get` that
        // succeeded this cycle would stall next cycle).
        self.0.cur.borrow_mut().take().is_some()
    }
}

/// A same-cycle wire (RWire): carries a value from an earlier rule to a
/// later one within a single cycle, then clears.
///
/// This is the primitive under the paper's *Bypass* structure (§V-A), whose
/// `set` and `get` methods satisfy `set < get`.
///
/// # Examples
///
/// ```
/// use cmd_core::clock::Clock;
/// use cmd_core::cell::Wire;
///
/// let clk = Clock::new();
/// let w: Wire<u32> = Wire::new(&clk);
///
/// clk.begin_rule();
/// w.set(3);
/// clk.commit_rule();
///
/// clk.begin_rule();
/// assert_eq!(w.get(), Ok(3));
/// clk.commit_rule();
/// clk.end_cycle();
///
/// clk.begin_rule();
/// assert!(w.get().is_err()); // cleared at the cycle boundary
/// clk.abort_rule();
/// ```
pub struct Wire<T: 'static> {
    inner: Rc<WireInner<T>>,
    clk: Clock,
}

impl<T: 'static> Clone for Wire<T> {
    /// Clones the *handle*: both handles refer to the same wire.
    fn clone(&self) -> Self {
        Wire {
            inner: Rc::clone(&self.inner),
            clk: self.clk.clone(),
        }
    }
}

impl<T: Clone + 'static> Wire<T> {
    /// Creates an empty wire.
    #[must_use]
    pub fn new(clk: &Clock) -> Self {
        Wire {
            inner: clk.adopt(|id| WireInner(EhrInner::new(id, None))),
            clk: clk.clone(),
        }
    }

    /// This cell's identity for the scheduler's wakeup layer (see
    /// [`crate::sched::Wakeup`]).
    #[must_use]
    pub fn watch_id(&self) -> CellId {
        CellId(self.inner.0.id)
    }

    /// Drives the wire for the remainder of this cycle.
    pub fn set(&self, v: T) {
        let idle = self.inner.0.cur.borrow().is_none();
        self.inner.0.write(&self.clk, Some(v));
        if idle {
            self.clk.drive(self.inner.0.id);
        }
    }

    /// Reads the wire.
    ///
    /// # Errors
    ///
    /// Stalls if nothing drove the wire this cycle.
    pub fn get(&self) -> Guarded<T> {
        self.peek().ok_or(Stall::new("wire not set"))
    }

    /// Reads the wire as an `Option` (no stall).
    #[must_use]
    pub fn peek(&self) -> Option<T> {
        self.clk.wake().note_read(self.inner.0.id);
        self.inner.0.cur.borrow().clone()
    }
}

impl<T: Clone + fmt::Debug + 'static> fmt::Debug for Wire<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Wire").field(&self.peek()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ehr_abort_discards_write() {
        let clk = Clock::new();
        let x = Ehr::new(&clk, 1u32);
        clk.begin_rule();
        x.write(2);
        clk.abort_rule();
        assert_eq!(x.read(), 1);
    }

    #[test]
    fn ehr_commit_publishes_to_later_rules_same_cycle() {
        let clk = Clock::new();
        let x = Ehr::new(&clk, 1u32);
        clk.begin_rule();
        x.write(2);
        clk.commit_rule();
        clk.begin_rule();
        assert_eq!(x.read(), 2);
        x.update(|v| *v += 10);
        assert_eq!(x.read(), 12);
        clk.commit_rule();
        clk.end_cycle();
        assert_eq!(x.read(), 12);
    }

    #[test]
    fn ehr_update_after_abort_starts_from_committed_value() {
        let clk = Clock::new();
        let x = Ehr::new(&clk, 5u32);
        clk.begin_rule();
        x.update(|v| *v = 100);
        clk.abort_rule();
        clk.begin_rule();
        x.update(|v| *v += 1);
        clk.commit_rule();
        assert_eq!(x.read(), 6);
    }

    #[test]
    fn ehr_vec_helpers() {
        let clk = Clock::new();
        let rf = Ehr::new(&clk, vec![0u64; 4]);
        clk.begin_rule();
        rf.set(2, 99);
        assert_eq!(rf.get(2), 99);
        clk.commit_rule();
        assert_eq!(rf.get(2), 99);
        assert_eq!(rf.get(0), 0);
    }

    #[test]
    fn reg_read_is_start_of_cycle() {
        let clk = Clock::new();
        let r = Reg::new(&clk, 1u32);
        clk.begin_rule();
        r.write(2);
        assert_eq!(r.read(), 1);
        clk.commit_rule();
        clk.begin_rule();
        assert_eq!(r.read(), 1); // later rule, same cycle: still old value
        clk.abort_rule();
        clk.end_cycle();
        assert_eq!(r.read(), 2);
    }

    #[test]
    #[should_panic(expected = "same cycle")]
    fn reg_double_write_two_rules_panics() {
        let clk = Clock::new();
        let r = Reg::named(&clk, "pc", 0u32);
        clk.begin_rule();
        r.write(1);
        clk.commit_rule();
        clk.begin_rule();
        r.write(2);
        clk.commit_rule();
    }

    #[test]
    fn a_caught_double_write_panic_leaves_the_clock_reusable() {
        let clk = Clock::new();
        let r = Reg::named(&clk, "pc", 0u32);
        let x = Ehr::new(&clk, 0u32);
        clk.begin_rule();
        r.write(1);
        clk.commit_rule();
        clk.begin_rule();
        x.write(9);
        r.write(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| clk.commit_rule()));
        let msg = *caught
            .expect_err("a double write still panics")
            .downcast::<String>()
            .expect("formatted message");
        assert_eq!(
            msg,
            "Reg `pc` written twice in the same cycle (undeclared conflict)"
        );
        // The rule was aborted before the panic: transaction closed, its
        // other writes rolled back, the flag gone.
        assert!(!clk.in_rule());
        assert!(clk.enlisted_cells().is_empty());
        assert_eq!(x.read(), 0);
        clk.begin_rule();
        x.write(3);
        clk.commit_rule();
        clk.end_cycle();
        assert_eq!((r.read(), x.read()), (1, 3), "the first write latched");
    }

    #[test]
    fn reg_double_write_same_rule_is_refused_gracefully() {
        let clk = Clock::new();
        let r = Reg::named(&clk, "pc", 0u32);
        clk.begin_rule();
        r.write(1);
        r.write(2);
        assert_eq!(clk.try_commit_rule(), Err("pc"));
        // The refusal aborted the rule: neither write latches, and the
        // register is free for the next rule.
        assert!(!clk.in_rule());
        clk.begin_rule();
        r.write(3);
        assert_eq!(clk.try_commit_rule(), Ok(()));
        clk.end_cycle();
        assert_eq!(r.read(), 3);
    }

    #[test]
    fn reg_conflict_flag_dies_with_an_aborted_rule() {
        let clk = Clock::new();
        let r = Reg::named(&clk, "pc", 0u32);
        clk.begin_rule();
        r.write(1);
        clk.commit_rule();
        clk.begin_rule();
        r.write(2); // conflicts, but the rule stalls anyway
        clk.abort_rule();
        clk.begin_rule();
        assert_eq!(clk.try_commit_rule(), Ok(()));
        clk.end_cycle();
        assert_eq!(r.read(), 1);
    }

    #[test]
    fn update_if_touches_the_cell_only_when_the_predicate_holds() {
        let clk = Clock::new();
        let x = Ehr::new(&clk, 4u32);
        clk.begin_rule();
        assert!(!x.update_if(|v| *v > 10, |v| *v = 0));
        assert!(
            clk.enlisted_cells().is_empty(),
            "a miss opens no transaction"
        );
        assert!(x.update_if(|v| *v == 4, |v| *v += 1));
        assert_eq!(clk.enlisted_cells(), vec![x.watch_id()]);
        assert_eq!(x.read(), 5, "rule reads its own write");
        clk.abort_rule();
        assert_eq!(x.read(), 4, "abort restores the journaled value");
    }

    #[test]
    fn second_write_in_a_rule_keeps_the_first_undo_value() {
        let clk = Clock::new();
        let x = Ehr::new(&clk, 1u32);
        clk.begin_rule();
        x.write(2);
        x.update(|v| *v += 10);
        x.write(7);
        assert_eq!(clk.enlisted_cells().len(), 1, "enlisted once");
        clk.abort_rule();
        assert_eq!(x.read(), 1);
    }

    #[test]
    fn reg_aborted_write_frees_the_slot() {
        let clk = Clock::new();
        let r = Reg::new(&clk, 0u32);
        clk.begin_rule();
        r.write(1);
        clk.abort_rule();
        clk.begin_rule();
        r.write(2);
        clk.commit_rule();
        clk.end_cycle();
        assert_eq!(r.read(), 2);
    }

    #[test]
    fn wire_clears_each_cycle() {
        let clk = Clock::new();
        let w: Wire<u8> = Wire::new(&clk);
        clk.begin_rule();
        w.set(1);
        clk.commit_rule();
        assert_eq!(w.peek(), Some(1));
        clk.end_cycle();
        assert_eq!(w.peek(), None);
        assert!(w.get().is_err());
    }

    #[test]
    fn wire_aborted_set_is_invisible() {
        let clk = Clock::new();
        let w: Wire<u8> = Wire::new(&clk);
        clk.begin_rule();
        w.set(1);
        clk.abort_rule();
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn init_writes_outside_rules_apply_immediately() {
        let clk = Clock::new();
        let x = Ehr::new(&clk, 0u32);
        let r = Reg::new(&clk, 0u32);
        x.write(7);
        r.write(8);
        assert_eq!(x.read(), 7);
        assert_eq!(r.read(), 8);
    }

    #[test]
    fn dropped_handles_leave_the_clock_consistent() {
        let clk = Clock::new();
        {
            let r = Reg::new(&clk, 0u32);
            let w: Wire<u8> = Wire::new(&clk);
            clk.begin_rule();
            r.write(1);
            w.set(2);
            // Handles dropped mid-rule: the clock's registry keeps the
            // storage alive, so commit and the latch still find it.
        }
        clk.commit_rule();
        clk.end_cycle();
        clk.end_cycle();
    }
}
