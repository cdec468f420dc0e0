//! The wake layer: a stalled rule sleeps on the cells its guard read, and a
//! publish of one of them wakes it on the spot.
//!
//! In the paper a rule's guard is an implicit condition the hardware
//! re-evaluates for free every cycle; the fast scheduler buys the same
//! semantics by not re-evaluating a stalled guard until something it read
//! has changed. All the state that takes is [`Wake`], owned by the
//! [`Clock`](crate::clock::Clock) so that it sits beside the publish path:
//! the re-run of a stalling evaluation logs the cells it reads,
//! [`Wake::sleep_on_reads`] files the rule under each of them, and
//! [`Wake::publish`] — every committed write, end-of-cycle latch and
//! out-of-rule write — wakes whoever is filed under the published cell. A
//! publish can only wake rules filed before it, so a guard is never woken
//! by a change it has already seen. A stall that depends on time names the
//! cycle it may end at ([`Wake::until`]); the scheduler ends that sleep at
//! the cycle's slot the way a wake does, with [`Wake::forget`].

use std::cell::{Cell, RefCell};

/// What the wake layer keeps per rule.
#[derive(Clone, Copy, Default)]
struct Sleeper {
    /// Bumped whenever the rule's sleep ends, so the watcher entries that
    /// sleep left in other cells' lists are recognised as stale.
    gen: u32,
    /// Set by a publish that hit a current-generation watcher entry;
    /// consumed at the rule's next schedule slot.
    woken: bool,
}

/// The wake layer's state. See the module docs.
#[derive(Default)]
pub(crate) struct Wake {
    /// Per-cell watcher lists, indexed by cell id: `(rule, generation)`.
    /// An empty list is the whole filter: a cell nobody sleeps on costs a
    /// publish one length test.
    watchers: RefCell<Vec<Vec<(u32, u32)>>>,
    /// Indexed by rule.
    sleepers: RefCell<Vec<Sleeper>>,
    /// The rule whose evaluation is running, set by the scheduler while the
    /// profiler wants publish→wake edges; `None` otherwise and between
    /// rules, so the end-of-cycle latch and out-of-rule writes are never
    /// attributed.
    pub publisher: Cell<Option<u32>>,
    /// `(publisher, woken rule)` pairs since [`Wake::take_edges`].
    edges: RefCell<Vec<(u32, u32)>>,
    /// How many rules carry a wake flag not yet consumed at their slot.
    pending: Cell<u32>,
    read_trace: Cell<bool>,
    reads: RefCell<Vec<u32>>,
    /// The earliest cycle the open evaluation asked to be re-run at, see
    /// [`Clock::wake_at`](crate::clock::Clock::wake_at); `u64::MAX` when it
    /// named none. Meaningful only after an evaluation:
    /// [`Clock::begin_rule`](crate::clock::Clock::begin_rule) resets it.
    pub until: Cell<u64>,
}

impl Wake {
    /// Makes room for one more rule (the scheduler calls this as it
    /// registers each rule, so rule indices agree).
    pub fn add_rule(&self) {
        self.sleepers.borrow_mut().push(Sleeper::default());
    }

    /// Logs a read of cell `id` while a read trace is running (one branch
    /// on a `Cell<bool>` otherwise).
    #[inline]
    pub fn note_read(&self, id: u32) {
        if self.read_trace.get() {
            self.reads.borrow_mut().push(id);
        }
    }

    /// Runs `eval` (the re-evaluation of a rule that is about to sleep)
    /// under a fresh read trace; the log stays for [`Wake::sleep_on_reads`].
    pub fn trace_reads<R>(&self, eval: impl FnOnce() -> R) -> R {
        self.reads.borrow_mut().clear();
        self.read_trace.set(true);
        let outcome = eval();
        self.read_trace.set(false);
        outcome
    }

    /// Puts `rule` to sleep on every cell the last read trace logged.
    /// Stale entries are compacted away once a cell's list outgrows the
    /// rule count, so sleep/wake churn on a cell that never publishes
    /// cannot grow its list without bound.
    pub fn sleep_on_reads(&self, rule: usize) {
        let mut reads = self.reads.borrow_mut();
        reads.sort_unstable();
        reads.dedup();
        let mut watchers = self.watchers.borrow_mut();
        let sleepers = self.sleepers.borrow();
        let gen = sleepers[rule].gen;
        let rule = u32::try_from(rule).expect("rule index");
        for &cell in reads.iter() {
            let cell = cell as usize;
            if cell >= watchers.len() {
                watchers.resize_with(cell + 1, Vec::new);
            }
            let ws = &mut watchers[cell];
            if ws.len() > sleepers.len() {
                ws.retain(|&(r, g)| sleepers[r as usize].gen == g);
            }
            ws.push((rule, gen));
        }
    }

    /// Cell `id` changed observably: wakes every rule asleep on it.
    #[inline]
    pub fn publish(&self, id: u32) {
        if let Some(ws) = self.watchers.borrow_mut().get_mut(id as usize) {
            if !ws.is_empty() {
                self.wake_all(ws);
            }
        }
    }

    #[cold]
    fn wake_all(&self, ws: &mut Vec<(u32, u32)>) {
        let mut sleepers = self.sleepers.borrow_mut();
        for (rule, gen) in ws.drain(..) {
            let s = &mut sleepers[rule as usize];
            if s.gen == gen {
                if !s.woken {
                    s.woken = true;
                    self.pending.set(self.pending.get() + 1);
                }
                if let Some(publisher) = self.publisher.get() {
                    self.edges.borrow_mut().push((publisher, rule));
                }
            }
        }
    }

    /// The sleeping rule's check at its schedule slot: whether a publish
    /// has woken it. A wake ends the sleep.
    #[inline]
    pub fn take_wake(&self, rule: usize) -> bool {
        let woken = self.sleepers.borrow()[rule].woken;
        if woken {
            self.forget(rule);
        }
        woken
    }

    /// Ends `rule`'s sleep, if any, without a publish (mode switch, policy
    /// change, observer attach, restore).
    pub fn forget(&self, rule: usize) {
        let s = &mut self.sleepers.borrow_mut()[rule];
        s.gen = s.gen.wrapping_add(1);
        if s.woken {
            s.woken = false;
            self.pending.set(self.pending.get() - 1);
        }
    }

    /// Whether some rule has been woken and not yet reached its slot: the
    /// next cycle has a rule to evaluate.
    #[inline]
    pub fn any_pending(&self) -> bool {
        self.pending.get() != 0
    }

    /// Hands over the edges recorded since the last call, in wake order.
    pub fn take_edges(&self, f: impl FnMut((u32, u32))) {
        self.edges.borrow_mut().drain(..).for_each(f);
    }
}
