//! Fast-path scheduling machinery: the scheduler-mode switch, the two
//! wakeup policies and the per-rule sleep record.
//!
//! The reference scheduler ([`crate::sim::Sim`] in
//! [`SchedulerMode::Reference`]) realizes the paper's §III semantics in the
//! most literal way possible: every cycle it evaluates every rule's guard
//! and runs a full conflict-matrix scan against everything that already
//! fired. That is the correctness oracle — and the slowest possible
//! implementation. [`SchedulerMode::Fast`] reaches the same results through
//! two short-circuits:
//!
//! 1. **Precise conflict probe** — the scheduler keeps, per cycle, the union
//!    of the forward conflict rows of every method committed so far (one
//!    bit set over the clock's global method indices). A rule's calls are
//!    violation-free iff none of them is in that set, so the per-rule
//!    conflict check is one bit test per call; the full
//!    [`crate::cm::ConflictMatrix`] scan only runs to *name* a violation
//!    the probe has already proven to exist.
//!
//! 2. **Wakeup-driven guard evaluation** — a rule registered with
//!    [`Wakeup::Inferred`] that stalls goes to *sleep* on what its stalling
//!    path read: the kernel re-runs the evaluation under a read trace and
//!    registers the rule as a watcher of every cell it read. A committed
//!    write publishes the written cell's [`CellId`](crate::clock::CellId),
//!    which marks that cell's watchers awake on the spot; until then the
//!    sleeping rule is skipped — but accounted exactly as a guard stall
//!    with its cached reason, so statistics, counters, and traces stay
//!    identical to the reference.
//!
//! Wakeup eligibility is a contract on the rule body, path by path: a
//! stalling evaluation must be a pure function of what it read through
//! clocked cells (`Ehr`/`Reg`/`Wire` and the collections and FIFOs built on
//! them). Plain state joins through cells its owner fills: the SoC's
//! caches and TLBs sit behind request, response and credit cells that the
//! memory system's substrate rule moves across, so a core rule's read of
//! the memory system is an ordinary traced cell read, declared where it
//! happens and not in a table beside the rule registration. A statistic
//! bumped on every stalled cycle is not part of the body at all: the
//! design registers it as the rule's stall callback
//! ([`Sim::on_stall`](crate::sim::Sim::on_stall)), which the kernel calls
//! once per guard-stalled cycle whether the rule was evaluated or skipped
//! asleep. A stall that depends on time — a countdown against the cycle
//! counter — says when it may end through
//! [`Clock::wake_at`](crate::clock::Clock::wake_at): the sleep then also
//! ends at that cycle, and a clock jump never crosses it. Those three —
//! cells read, stall callback, wake cycle — are the whole contract; a rule
//! that cannot meet it stays on [`Wakeup::EveryCycle`] (the default), which
//! is always sound. A stall that is eligible to sleep sleeps at once. See
//! `docs/SCHEDULING.md` for the equivalence argument.

/// Which per-cycle loop [`crate::sim::Sim`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// The literal one-rule-at-a-time loop: every guard evaluated every
    /// cycle, every Ok-rule fully CM-scanned. The correctness oracle.
    Reference,
    /// The precise conflict probe plus the wakeup layer. Produces cycle-,
    /// counter-, and trace-identical results to `Reference` (the
    /// equivalence property tests in `tests/` assert this).
    #[default]
    Fast,
}

/// When a stalled rule's guard is re-evaluated (fast scheduler only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wakeup {
    /// Re-evaluate every cycle. Always sound; the only choice for rules
    /// whose bodies read state no publish covers.
    #[default]
    EveryCycle,
    /// Sleep on the cells the stalling evaluation read until one of them
    /// publishes. The kernel infers the set by re-running the evaluation
    /// under a read trace.
    Inferred,
}

/// A design whose watchdog-exempt rules
/// ([`Sim::exempt_from_watchdog`](crate::sim::Sim::exempt_from_watchdog))
/// advance timed plain state — a memory system counting down to its next
/// response — and can say how long they will do nothing else. This is what
/// lets [`Sim::try_advance`](crate::sim::Sim::try_advance) jump the clock
/// over cycles in which every other rule sleeps.
pub trait Horizon {
    /// How many cycles, starting with the next one, the exempt rules are
    /// certain to fire doing nothing but their bulk per-cycle effects: no
    /// write to a cell and no change to anything else a guard reads.
    /// `0` when they may do more in the very next cycle; conservative
    /// answers are always sound, only slower.
    fn horizon(&self) -> u64;

    /// Applies `n` cycles of the exempt rules' bulk effects at once (a
    /// cycle count, occupancy sums), exactly as `n` fired cycles within the
    /// horizon would have.
    fn skip(&mut self, n: u64);
}

/// A sleeping rule: skipped (but accounted with `reason`) until one of the
/// cells it watches publishes a committed write, or until cycle `until`.
/// The watch set itself lives in the wake layer's per-cell watcher lists,
/// registered when the sleep begins.
///
/// A skipped cycle costs the rule's stall callback, if it has one, and
/// nothing else in an unobserved run: the rule's guard-stall count is not a
/// counter but follows from the cycle count (every cycle the rule neither
/// fired nor lost to a CM), and an observer — a tracer, the profiler, a
/// chaos engine — gets the cached `reason` at the rule's slot, exactly as
/// the reference's fresh evaluation would report it.
pub(crate) struct Sleep {
    /// The reason the stalling evaluation gave, which the guard — pure, and
    /// reading only quiet cells — would repeat on every skipped cycle: what
    /// the stall callback and a tracer receive for those cycles.
    pub reason: &'static str,
    /// The cycle whose schedule slot ends the sleep without a publish: the
    /// earliest [`Clock::wake_at`](crate::clock::Clock::wake_at) of the
    /// stalling evaluation, `u64::MAX` when it named none.
    pub until: u64,
}

/// A plain bit set over `u32` indices (global method ids or cell ids).
#[derive(Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Clears every bit and ensures capacity for `bits` indices.
    pub fn reset(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
    }

    pub fn set(&mut self, i: u32) {
        let w = (i / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    pub fn contains(&self, i: u32) -> bool {
        self.words
            .get((i / 64) as usize)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Sets every bit that is set in `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }
}

/// Per-rule fast-path state.
#[derive(Default)]
pub(crate) struct RuleSched {
    pub wakeup: Wakeup,
    pub sleep: Option<Sleep>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_contains_reset() {
        let mut a = BitSet::new();
        a.set(3);
        a.set(130);
        assert!(a.contains(3) && a.contains(130));
        assert!(!a.contains(4) && !a.contains(131));
        a.reset(8);
        assert!(!a.contains(3), "reset clears");
    }

    #[test]
    fn bitset_union_handles_length_mismatch() {
        let mut a = BitSet::new();
        let mut b = BitSet::new();
        a.set(1);
        b.set(500);
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(500), "the shorter side grows");
        b.union_with(&a);
        assert!(b.contains(1) && b.contains(500));
        assert!(!b.contains(2) && !b.contains(499));
    }
}
