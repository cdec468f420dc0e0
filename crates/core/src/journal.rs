//! Element-granular cells for collection-shaped state: [`EhrArray`] and
//! [`EhrDeque`].
//!
//! An [`Ehr`](crate::cell::Ehr) rolls back by keeping the whole old value,
//! which for an `Ehr<Vec<T>>` means cloning the vector on a rule's first
//! touch. These cells have `Ehr` visibility (a rule sees its own writes,
//! later rules see committed ones, one [`CellId`] publishes per touched
//! collection) but journal the *inverse of each operation* instead:
//! `set(i, v)` remembers `(i, old)`, `push_back` remembers "pop it again".
//! Abort replays the journal backwards; commit does not visit the cell at
//! all, so the journal goes stale, and the next transaction to change the
//! cell (its stamp older than that transaction's serial) clears it before
//! logging. The journal's buffer is reused from rule to rule, so a
//! steady-state cycle neither copies the collection nor allocates.
//!
//! Two shapes cover what the processor models keep in collections: an
//! indexed array (rename tables, per-tag snapshots) and a queue with
//! occasional out-of-order removal (FIFO storage, fetch/translate buffers).
//! A snapshot saves both exactly like the `Vec`/`VecDeque` they hold; an
//! array restores only into an array of the same length.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::clock::{CellId, Clock, TxnCell};
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// A journal entry: the inverse of one operation on a collection `C`.
trait Inverse<C> {
    fn undo(self, on: &mut C);
}

/// Storage shared by both cells: the live collection `C` plus the inverse
/// operations `U`, oldest first, of the transaction stamped `stamp`.
struct Journaled<C, U> {
    id: u32,
    cur: RefCell<C>,
    log: RefCell<Vec<U>>,
    stamp: Cell<u64>,
}

impl<C, U> Journaled<C, U> {
    fn new(id: u32, init: C) -> Self {
        Journaled {
            id,
            cur: RefCell::new(init),
            log: RefCell::new(Vec::new()),
            stamp: Cell::new(0),
        }
    }

    fn read<R>(&self, clk: &Clock, f: impl FnOnce(&C) -> R) -> R {
        clk.wake().note_read(self.id);
        f(&self.cur.borrow())
    }

    /// Runs one mutating operation. `op` changes the collection in place
    /// and pushes the inverse of what it did; an operation that pushes
    /// nothing changed nothing and does not touch the transaction.
    fn mutate<R>(&self, clk: &Clock, op: impl FnOnce(&mut C, &mut Vec<U>) -> R) -> R {
        clk.wake().note_read(self.id);
        let mut log = self.log.borrow_mut();
        let in_rule = clk.in_rule();
        if in_rule && !clk.enlisted(&self.stamp) {
            // What is logged belongs to a finished transaction.
            log.clear();
        }
        let before = log.len();
        let r = op(&mut self.cur.borrow_mut(), &mut log);
        if log.len() == before {
            return r;
        }
        if in_rule {
            clk.enlist(&self.stamp, self.id);
        } else {
            // Initialization / restore: nothing to roll back to.
            log.clear();
            clk.wake().publish(self.id);
        }
        r
    }
}

/// A collection as a snapshot restores it.
trait Collection: Snap {
    /// Takes the contents of `saved`, or refuses a shape this cell was not
    /// built with.
    fn restore_from(&mut self, saved: Self) -> Result<(), SnapError>;
}

impl<T: Snap> Collection for Vec<T> {
    fn restore_from(&mut self, saved: Self) -> Result<(), SnapError> {
        if saved.len() != self.len() {
            return Err(SnapError::Mismatch(format!(
                "an array of {} elements restored into one of {}",
                saved.len(),
                self.len()
            )));
        }
        *self = saved;
        Ok(())
    }
}

impl<T: Snap> Collection for VecDeque<T> {
    /// Refills the live storage, which keeps the capacity the queue was
    /// built with.
    fn restore_from(&mut self, saved: Self) -> Result<(), SnapError> {
        self.clear();
        self.extend(saved);
        Ok(())
    }
}

impl<C: Collection, U: Inverse<C>> TxnCell for Journaled<C, U> {
    fn abort(&self) {
        let mut cur = self.cur.borrow_mut();
        for u in self.log.borrow_mut().drain(..).rev() {
            u.undo(&mut cur);
        }
    }

    fn save(&self, w: &mut SnapWriter) {
        self.cur.borrow().save(w);
    }

    fn restore(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cur.borrow_mut().restore_from(C::load(r)?)
    }
}

// ---------------------------------------------------------------------------
// EhrArray
// ---------------------------------------------------------------------------

enum ArrayUndo<T> {
    Set(usize, T),
    Replace(Vec<T>),
}

impl<T> Inverse<Vec<T>> for ArrayUndo<T> {
    fn undo(self, a: &mut Vec<T>) {
        match self {
            ArrayUndo::Set(i, old) => a[i] = old,
            ArrayUndo::Replace(old) => *a = old,
        }
    }
}

/// A fixed-length array cell whose element writes journal `(index, old
/// element)`.
///
/// # Examples
///
/// ```
/// use cmd_core::clock::Clock;
/// use cmd_core::journal::EhrArray;
///
/// let clk = Clock::new();
/// let rat = EhrArray::new(&clk, vec![0u16; 32]);
///
/// clk.begin_rule();
/// rat.set(5, 40);
/// assert_eq!(rat.get(5), 40); // rule sees its own write
/// clk.abort_rule();
/// assert_eq!(rat.get(5), 0); // one element was journaled, and restored
/// ```
pub struct EhrArray<T: 'static> {
    inner: Rc<Journaled<Vec<T>, ArrayUndo<T>>>,
    clk: Clock,
}

impl<T: 'static> Clone for EhrArray<T> {
    /// Clones the *handle*: both handles refer to the same array.
    fn clone(&self) -> Self {
        EhrArray {
            inner: Rc::clone(&self.inner),
            clk: self.clk.clone(),
        }
    }
}

impl<T: Snap + Clone + 'static> EhrArray<T> {
    /// Creates the cell holding `init`.
    #[must_use]
    pub fn new(clk: &Clock, init: Vec<T>) -> Self {
        EhrArray {
            inner: clk.adopt(|id| Journaled::new(id, init)),
            clk: clk.clone(),
        }
    }
}

impl<T: Clone + 'static> EhrArray<T> {
    /// This cell's identity for the scheduler's wakeup layer: one id for
    /// the whole array, as for an `Ehr<Vec<T>>`.
    #[must_use]
    pub fn watch_id(&self) -> CellId {
        CellId(self.inner.id)
    }

    /// Reads element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize) -> T {
        self.with(|a| a[i].clone())
    }

    /// Applies `f` to a borrow of the whole array.
    pub fn with<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        self.inner.read(&self.clk, |a| f(a))
    }

    /// Writes element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&self, i: usize, v: T) {
        self.inner.mutate(&self.clk, |a, log| {
            log.push(ArrayUndo::Set(i, std::mem::replace(&mut a[i], v)));
        });
    }

    /// Element-wise conditional read-modify-write (see
    /// [`Ehr::update_if`](crate::cell::Ehr::update_if)): journals and
    /// mutates element `i` only when `pred` holds for it. Returns whether
    /// `f` ran.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn update_if(
        &self,
        i: usize,
        pred: impl FnOnce(&T) -> bool,
        f: impl FnOnce(&mut T),
    ) -> bool {
        self.inner.mutate(&self.clk, |a, log| {
            let hit = pred(&a[i]);
            if hit {
                log.push(ArrayUndo::Set(i, a[i].clone()));
                f(&mut a[i]);
            }
            hit
        })
    }

    /// Replaces the whole array (flush paths); the old one moves into the
    /// journal.
    pub fn replace(&self, v: Vec<T>) {
        self.inner.mutate(&self.clk, |a, log| {
            log.push(ArrayUndo::Replace(std::mem::replace(a, v)));
        });
    }
}

impl<T: Clone + fmt::Debug + 'static> fmt::Debug for EhrArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with(|a| f.debug_tuple("EhrArray").field(&a).finish())
    }
}

// ---------------------------------------------------------------------------
// EhrDeque
// ---------------------------------------------------------------------------

enum DequeUndo<T> {
    PushBack,
    PopFront(T),
    Remove(usize, T),
    Set(usize, T),
}

impl<T> Inverse<VecDeque<T>> for DequeUndo<T> {
    fn undo(self, q: &mut VecDeque<T>) {
        match self {
            DequeUndo::PushBack => {
                q.pop_back();
            }
            DequeUndo::PopFront(v) => q.push_front(v),
            DequeUndo::Remove(i, v) => q.insert(i, v),
            DequeUndo::Set(i, old) => q[i] = old,
        }
    }
}

/// A queue cell whose operations journal their inverses: FIFO traffic
/// (`push_back` / `pop_front`) plus the positional `set` / `remove` that
/// reorder-tolerant buffers need.
///
/// # Examples
///
/// ```
/// use cmd_core::clock::Clock;
/// use cmd_core::journal::EhrDeque;
///
/// let clk = Clock::new();
/// let q: EhrDeque<u32> = EhrDeque::new(&clk, 4);
///
/// clk.begin_rule();
/// q.push_back(1);
/// q.push_back(2);
/// clk.commit_rule();
///
/// clk.begin_rule();
/// assert_eq!(q.pop_front(), Some(1));
/// clk.abort_rule(); // the pop is undone
/// assert_eq!(q.front(), Some(1));
/// assert_eq!(q.len(), 2);
/// ```
pub struct EhrDeque<T: 'static> {
    inner: Rc<Journaled<VecDeque<T>, DequeUndo<T>>>,
    clk: Clock,
}

impl<T: 'static> Clone for EhrDeque<T> {
    /// Clones the *handle*: both handles refer to the same queue.
    fn clone(&self) -> Self {
        EhrDeque {
            inner: Rc::clone(&self.inner),
            clk: self.clk.clone(),
        }
    }
}

impl<T: Snap + Clone + 'static> EhrDeque<T> {
    /// Creates an empty queue with room for `capacity` elements. The bound
    /// is the caller's to enforce (FIFOs stall when full); staying within
    /// it is what keeps pushes allocation-free.
    #[must_use]
    pub fn new(clk: &Clock, capacity: usize) -> Self {
        EhrDeque {
            inner: clk.adopt(|id| Journaled::new(id, VecDeque::with_capacity(capacity))),
            clk: clk.clone(),
        }
    }
}

impl<T: Clone + 'static> EhrDeque<T> {
    /// This cell's identity for the scheduler's wakeup layer: one id for
    /// the whole queue, as for an `Ehr<VecDeque<T>>`.
    #[must_use]
    pub fn watch_id(&self) -> CellId {
        CellId(self.inner.id)
    }

    /// Number of queued elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.with(VecDeque::len)
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The head element, if any.
    #[must_use]
    pub fn front(&self) -> Option<T> {
        self.with(|q| q.front().cloned())
    }

    /// The element at position `i` (0 is the head), if any.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<T> {
        self.with(|q| q.get(i).cloned())
    }

    /// Applies `f` to a borrow of the queue (iteration, searches).
    pub fn with<R>(&self, f: impl FnOnce(&VecDeque<T>) -> R) -> R {
        self.inner.read(&self.clk, f)
    }

    /// Appends at the tail.
    pub fn push_back(&self, v: T) {
        self.inner.mutate(&self.clk, |q, log| {
            q.push_back(v);
            log.push(DequeUndo::PushBack);
        });
    }

    /// Removes and returns the head; `None` (and no transaction) when
    /// empty.
    pub fn pop_front(&self) -> Option<T> {
        self.inner.mutate(&self.clk, |q, log| {
            let v = q.pop_front()?;
            log.push(DequeUndo::PopFront(v.clone()));
            Some(v)
        })
    }

    /// Removes and returns the element at position `i`, keeping the order
    /// of the rest; `None` (and no transaction) when out of range.
    pub fn remove(&self, i: usize) -> Option<T> {
        self.inner.mutate(&self.clk, |q, log| {
            let v = q.remove(i)?;
            log.push(DequeUndo::Remove(i, v.clone()));
            Some(v)
        })
    }

    /// Overwrites the element at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&self, i: usize, v: T) {
        self.inner.mutate(&self.clk, |q, log| {
            log.push(DequeUndo::Set(i, std::mem::replace(&mut q[i], v)));
        });
    }

    /// Empties the queue element by element, so the storage (and its
    /// capacity) stays with the cell. Clearing an empty queue touches
    /// nothing.
    pub fn clear(&self) {
        // `PopFront` entries undo back-to-front, which re-pushes the
        // drained elements in their original order.
        self.inner.mutate(&self.clk, |q, log| {
            log.extend(q.drain(..).map(DequeUndo::PopFront));
        });
    }
}

impl<T: Clone + fmt::Debug + 'static> fmt::Debug for EhrDeque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with(|q| f.debug_tuple("EhrDeque").field(q).finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_abort_restores_sets_updates_and_replace() {
        let clk = Clock::new();
        let a = EhrArray::new(&clk, vec![1u32, 2, 3]);
        clk.begin_rule();
        a.set(0, 10);
        a.set(0, 11);
        assert!(a.update_if(2, |v| *v == 3, |v| *v += 1));
        assert!(!a.update_if(1, |v| *v == 99, |v| *v = 0));
        a.replace(vec![7, 7, 7]);
        a.set(1, 8);
        assert_eq!(a.with(<[u32]>::to_vec), vec![7, 8, 7]);
        assert_eq!(clk.enlisted_cells(), vec![a.watch_id()]);
        clk.abort_rule();
        assert_eq!(a.with(<[u32]>::to_vec), vec![1, 2, 3]);
    }

    #[test]
    fn array_commit_is_visible_to_the_next_rule() {
        let clk = Clock::new();
        let a = EhrArray::new(&clk, vec![0u32; 4]);
        clk.begin_rule();
        a.set(3, 5);
        clk.commit_rule();
        clk.begin_rule();
        assert_eq!(a.get(3), 5);
        clk.abort_rule();
        assert_eq!(a.get(3), 5);
    }

    #[test]
    fn deque_abort_replays_the_journal_backwards() {
        let clk = Clock::new();
        let q: EhrDeque<u32> = EhrDeque::new(&clk, 8);
        for v in [1, 2, 3, 4] {
            q.push_back(v); // outside a rule: immediate
        }
        clk.begin_rule();
        assert_eq!(q.pop_front(), Some(1));
        q.push_back(5);
        assert_eq!(q.remove(1), Some(3));
        q.set(0, 20);
        assert_eq!(
            q.with(|q| q.iter().copied().collect::<Vec<_>>()),
            [20, 4, 5]
        );
        q.clear();
        q.push_back(9);
        clk.abort_rule();
        assert_eq!(
            q.with(|q| q.iter().copied().collect::<Vec<_>>()),
            [1, 2, 3, 4]
        );
    }

    #[test]
    fn noop_operations_open_no_transaction() {
        let clk = Clock::new();
        let q: EhrDeque<u32> = EhrDeque::new(&clk, 2);
        clk.begin_rule();
        assert_eq!(q.pop_front(), None);
        assert_eq!(q.remove(3), None);
        q.clear();
        assert!(clk.enlisted_cells().is_empty());
        q.push_back(1);
        assert_eq!(clk.enlisted_cells(), vec![q.watch_id()]);
        clk.commit_rule();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn steady_state_reuses_the_journal_buffer() {
        let clk = Clock::new();
        let q: EhrDeque<u64> = EhrDeque::new(&clk, 4);
        let mut caps = Vec::new();
        for i in 0..64 {
            clk.begin_rule();
            q.push_back(i);
            if i % 2 == 1 {
                q.pop_front();
                q.pop_front();
            }
            clk.commit_rule();
            caps.push((
                q.inner.log.borrow().capacity(),
                q.inner.cur.borrow().capacity(),
            ));
        }
        assert!(
            caps[8..].windows(2).all(|w| w[0] == w[1]),
            "no buffer grows after warm-up: {caps:?}"
        );
    }
}
