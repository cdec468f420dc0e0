//! Latency-insensitive FIFOs with the three classic Bluespec concurrency
//! contracts.
//!
//! FIFOs are the workhorse of latency-insensitive composition (paper §I,
//! §III). What distinguishes the flavors is purely their *conflict matrix*:
//!
//! | flavor | CM | same-cycle behavior |
//! |---|---|---|
//! | [`PipelineFifo`] | `first < deq < enq` | can enqueue into a full FIFO if it is dequeued earlier in the cycle |
//! | [`BypassFifo`] | `enq < first < deq` | can dequeue from an empty FIFO a value enqueued earlier in the cycle |
//! | [`CfFifo`] | `enq CF {first, deq}` | enqueue and dequeue are mutually invisible within a cycle |
//!
//! All three implement [`Fifo`], so a design can swap flavors — changing
//! only concurrency, never functional correctness — which is exactly the
//! modular-refinement story the paper tells.

use std::fmt;
use std::rc::Rc;

use crate::cell::Ehr;
use crate::clock::{Clock, ModuleIfc};
use crate::cm::ConflictMatrix;
use crate::guard::{Guarded, Stall};
use crate::journal::EhrDeque;
use crate::snap::Snap;

/// Method indices shared by every FIFO flavor (used in CM declarations).
mod m {
    pub const ENQ: usize = 0;
    pub const DEQ: usize = 1;
    pub const FIRST: usize = 2;
    pub const CLEAR: usize = 3;
}

const METHODS: [&str; 4] = ["enq", "deq", "first", "clear"];

/// Common interface of all FIFO flavors.
///
/// Methods are guarded: `enq` stalls when full, `deq`/`first` stall when
/// empty — with "full" and "empty" judged according to the flavor's CM.
pub trait Fifo<T> {
    /// Enqueues at the tail.
    ///
    /// # Errors
    ///
    /// Stalls when the FIFO is full (per the flavor's concurrency contract).
    fn enq(&self, v: T) -> Guarded<()>;

    /// Dequeues the head and returns it.
    ///
    /// # Errors
    ///
    /// Stalls when the FIFO is empty (per the flavor's concurrency
    /// contract).
    fn deq(&self) -> Guarded<T>;

    /// Reads the head without removing it.
    ///
    /// # Errors
    ///
    /// Stalls when the FIFO is empty.
    fn first(&self) -> Guarded<T>;

    /// Empties the FIFO (used on pipeline flushes).
    fn clear(&self);

    /// Current canonical occupancy (intended for statistics and tests).
    fn len(&self) -> usize;

    /// Maximum occupancy.
    fn capacity(&self) -> usize;

    /// Whether the canonical state is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the canonical state is at capacity.
    ///
    /// Like [`Fifo::len`], this observes the canonical (start-of-cycle)
    /// state and is intended for statistics — e.g. attributing an upstream
    /// stall to "queue full" in a counter — not for guarding: the flavor's
    /// `enq` already carries the authoritative same-cycle full check.
    fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }
}

/// Queue storage shared by the flavors: an element-granular cell, so an
/// `enq`/`deq` journals one element instead of copying the queue.
fn base_state<T: Snap + Clone + 'static>(clk: &Clock, capacity: usize) -> EhrDeque<T> {
    assert!(capacity > 0, "fifo capacity must be positive");
    EhrDeque::new(clk, capacity)
}

// ---------------------------------------------------------------------------
// PipelineFifo
// ---------------------------------------------------------------------------

/// FIFO with CM `first < deq < enq < clear`: the canonical pipeline stage
/// buffer. A full FIFO accepts an `enq` in the same cycle as a `deq`,
/// because the `deq` appears to happen first.
pub struct PipelineFifo<T: 'static> {
    ifc: ModuleIfc,
    q: EhrDeque<T>,
    cap: usize,
}

impl<T: Snap + Clone + 'static> PipelineFifo<T> {
    /// Creates a pipeline FIFO holding up to `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(clk: &Clock, capacity: usize) -> Self {
        let cm = ConflictMatrix::builder(4)
            .seq(&[m::FIRST, m::DEQ, m::ENQ, m::CLEAR])
            .self_free(m::FIRST)
            .build();
        PipelineFifo {
            ifc: clk.module("PipelineFifo", &METHODS, cm),
            q: base_state(clk, capacity),
            cap: capacity,
        }
    }
}

impl<T: Clone + 'static> Fifo<T> for PipelineFifo<T> {
    fn enq(&self, v: T) -> Guarded<()> {
        self.ifc.record(m::ENQ);
        // Sees earlier-in-cycle deqs (deq < enq), hence "full" is judged
        // after them.
        if self.q.len() >= self.cap {
            return Err(Stall::new("pipeline fifo full"));
        }
        self.q.push_back(v);
        Ok(())
    }

    fn deq(&self) -> Guarded<T> {
        self.ifc.record(m::DEQ);
        self.q.pop_front().ok_or(Stall::new("pipeline fifo empty"))
    }

    fn first(&self) -> Guarded<T> {
        self.ifc.record(m::FIRST);
        self.q.front().ok_or(Stall::new("pipeline fifo empty"))
    }

    fn clear(&self) {
        self.ifc.record(m::CLEAR);
        self.q.clear();
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }
}

impl<T: Clone + fmt::Debug + 'static> fmt::Debug for PipelineFifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineFifo")
            .field("len", &self.len())
            .field("cap", &self.cap)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// BypassFifo
// ---------------------------------------------------------------------------

/// FIFO with CM `enq < first < deq < clear`: a value enqueued this cycle can
/// be observed and dequeued later in the same cycle (zero-latency
/// forwarding).
pub struct BypassFifo<T: 'static> {
    ifc: ModuleIfc,
    q: EhrDeque<T>,
    cap: usize,
}

impl<T: Snap + Clone + 'static> BypassFifo<T> {
    /// Creates a bypass FIFO holding up to `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(clk: &Clock, capacity: usize) -> Self {
        let cm = ConflictMatrix::builder(4)
            .seq(&[m::ENQ, m::FIRST, m::DEQ, m::CLEAR])
            .self_free(m::FIRST)
            .build();
        BypassFifo {
            ifc: clk.module("BypassFifo", &METHODS, cm),
            q: base_state(clk, capacity),
            cap: capacity,
        }
    }
}

impl<T: Clone + 'static> Fifo<T> for BypassFifo<T> {
    fn enq(&self, v: T) -> Guarded<()> {
        self.ifc.record(m::ENQ);
        // Judged before this cycle's deqs (enq < deq): a full bypass FIFO
        // stalls even if someone later dequeues.
        if self.q.len() >= self.cap {
            return Err(Stall::new("bypass fifo full"));
        }
        self.q.push_back(v);
        Ok(())
    }

    fn deq(&self) -> Guarded<T> {
        self.ifc.record(m::DEQ);
        self.q.pop_front().ok_or(Stall::new("bypass fifo empty"))
    }

    fn first(&self) -> Guarded<T> {
        self.ifc.record(m::FIRST);
        self.q.front().ok_or(Stall::new("bypass fifo empty"))
    }

    fn clear(&self) {
        self.ifc.record(m::CLEAR);
        self.q.clear();
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }
}

impl<T: Clone + fmt::Debug + 'static> fmt::Debug for BypassFifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BypassFifo")
            .field("len", &self.len())
            .field("cap", &self.cap)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// CfFifo
// ---------------------------------------------------------------------------

/// FIFO whose `enq` and `{first, deq}` are conflict-free: within a cycle,
/// neither side observes the other. `deq` never sees this cycle's `enq`
/// (latency ≥ 1) and `enq` never benefits from this cycle's `deq`
/// (needs a free slot at cycle start).
///
/// This is the flavor to place between loosely coupled modules (e.g. core ↔
/// memory), because it imposes *no* ordering constraint between producer and
/// consumer rules.
pub struct CfFifo<T: 'static> {
    ifc: ModuleIfc,
    q: EhrDeque<T>,
    /// Occupancy at the start of the cycle (maintained at cycle boundaries).
    snap_len: Ehr<usize>,
    /// Deqs performed so far this cycle.
    deqs: Ehr<usize>,
    /// Enqs performed so far this cycle.
    enqs: Ehr<usize>,
    cap: usize,
    /// The cycle-boundary bookkeeping, which runs while this handle lives
    /// (see [`Clock::at_end_of_cycle`]).
    _roll: Rc<dyn Fn()>,
}

impl<T: Snap + Clone + 'static> CfFifo<T> {
    /// Creates a conflict-free FIFO holding up to `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(clk: &Clock, capacity: usize) -> Self {
        let cm = ConflictMatrix::builder(4)
            .seq(&[m::FIRST, m::DEQ])
            .free(m::ENQ, m::DEQ)
            .free(m::ENQ, m::FIRST)
            .pair(m::ENQ, m::CLEAR, crate::cm::Rel::Before)
            .pair(m::DEQ, m::CLEAR, crate::cm::Rel::Before)
            .pair(m::FIRST, m::CLEAR, crate::cm::Rel::Before)
            .self_free(m::FIRST)
            .build();
        let q = base_state(clk, capacity);
        let snap_len = Ehr::new(clk, 0);
        let deqs = Ehr::new(clk, 0);
        let enqs = Ehr::new(clk, 0);
        let roll = {
            let (q, snap, deqs, enqs) = (q.clone(), snap_len.clone(), deqs.clone(), enqs.clone());
            clk.at_end_of_cycle(move || {
                // Conditional writes: an idle cycle must not republish these
                // cells to the wake layer, or rules sleeping on this FIFO
                // (see crate::sched) would be woken every cycle for nothing.
                let len = q.len();
                if snap.read() != len {
                    snap.write(len);
                }
                if deqs.read() != 0 {
                    deqs.write(0);
                }
                if enqs.read() != 0 {
                    enqs.write(0);
                }
            })
        };
        CfFifo {
            ifc: clk.module("CfFifo", &METHODS, cm),
            q,
            snap_len,
            deqs,
            enqs,
            cap: capacity,
            _roll: roll,
        }
    }
}

impl<T: Clone + 'static> CfFifo<T> {
    fn available_to_deq(&self) -> usize {
        self.snap_len.read().saturating_sub(self.deqs.read())
    }
}

impl<T: Clone + 'static> Fifo<T> for CfFifo<T> {
    fn enq(&self, v: T) -> Guarded<()> {
        self.ifc.record(m::ENQ);
        if self.snap_len.read() + self.enqs.read() >= self.cap {
            return Err(Stall::new("cf fifo full"));
        }
        self.enqs.update(|n| *n += 1);
        self.q.push_back(v);
        Ok(())
    }

    fn deq(&self) -> Guarded<T> {
        self.ifc.record(m::DEQ);
        if self.available_to_deq() == 0 {
            return Err(Stall::new("cf fifo empty"));
        }
        self.deqs.update(|n| *n += 1);
        // invariant: available_to_deq() > 0 implies the queue is non-empty
        // (snap_len counts only elements already physically present).
        Ok(self
            .q
            .pop_front()
            .expect("occupancy accounting guarantees an element"))
    }

    fn first(&self) -> Guarded<T> {
        self.ifc.record(m::FIRST);
        if self.available_to_deq() == 0 {
            return Err(Stall::new("cf fifo empty"));
        }
        // invariant: same occupancy argument as `deq` above.
        Ok(self
            .q
            .front()
            .expect("occupancy accounting guarantees an element"))
    }

    fn clear(&self) {
        self.ifc.record(m::CLEAR);
        self.q.clear();
        self.snap_len.write(0);
        self.deqs.write(0);
        self.enqs.write(0);
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }
}

impl<T: Clone + fmt::Debug + 'static> fmt::Debug for CfFifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CfFifo")
            .field("len", &self.len())
            .field("cap", &self.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;

    fn one_cycle<F: FnOnce()>(clk: &Clock, f: F) {
        clk.begin_rule();
        f();
        clk.commit_rule();
    }

    #[test]
    fn pipeline_full_fifo_accepts_enq_after_deq_same_cycle() {
        let clk = Clock::new();
        let f: PipelineFifo<u32> = PipelineFifo::new(&clk, 1);
        one_cycle(&clk, || f.enq(1).unwrap());
        clk.end_cycle();

        // deq then enq in one cycle: allowed (deq < enq).
        clk.begin_rule();
        assert_eq!(f.deq(), Ok(1));
        clk.commit_rule();
        clk.begin_rule();
        f.enq(2).unwrap();
        assert!(clk.check_cm().is_none());
        clk.commit_rule();
        clk.end_cycle();
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn pipeline_enq_then_deq_same_cycle_is_cm_violation() {
        let clk = Clock::new();
        let f: PipelineFifo<u32> = PipelineFifo::new(&clk, 4);
        one_cycle(&clk, || f.enq(1).unwrap());
        clk.end_cycle();

        clk.begin_rule();
        f.enq(2).unwrap();
        clk.commit_rule();
        clk.begin_rule();
        let _ = f.deq();
        assert!(clk.check_cm().is_some(), "deq after enq must violate CM");
        clk.abort_rule();
        clk.end_cycle();
    }

    #[test]
    fn bypass_empty_fifo_forwards_same_cycle() {
        let clk = Clock::new();
        let f: BypassFifo<u32> = BypassFifo::new(&clk, 1);
        clk.begin_rule();
        f.enq(7).unwrap();
        clk.commit_rule();
        clk.begin_rule();
        assert_eq!(f.deq(), Ok(7));
        assert!(clk.check_cm().is_none());
        clk.commit_rule();
        clk.end_cycle();
        assert!(f.is_empty());
    }

    #[test]
    fn bypass_deq_then_enq_is_cm_violation() {
        let clk = Clock::new();
        let f: BypassFifo<u32> = BypassFifo::new(&clk, 2);
        one_cycle(&clk, || f.enq(1).unwrap());
        clk.end_cycle();
        clk.begin_rule();
        assert_eq!(f.deq(), Ok(1));
        clk.commit_rule();
        clk.begin_rule();
        f.enq(2).unwrap();
        assert!(clk.check_cm().is_some(), "enq after deq must violate CM");
        clk.abort_rule();
        clk.end_cycle();
    }

    #[test]
    fn cf_fifo_deq_never_sees_same_cycle_enq() {
        let clk = Clock::new();
        let f: CfFifo<u32> = CfFifo::new(&clk, 4);
        clk.begin_rule();
        f.enq(1).unwrap();
        clk.commit_rule();
        clk.begin_rule();
        assert!(f.deq().is_err(), "element enqueued this cycle is invisible");
        clk.abort_rule();
        clk.end_cycle();
        clk.begin_rule();
        assert_eq!(f.deq(), Ok(1), "visible next cycle");
        clk.commit_rule();
        clk.end_cycle();
    }

    #[test]
    fn cf_fifo_full_enq_does_not_benefit_from_same_cycle_deq() {
        let clk = Clock::new();
        let f: CfFifo<u32> = CfFifo::new(&clk, 1);
        one_cycle(&clk, || f.enq(1).unwrap());
        clk.end_cycle();
        clk.begin_rule();
        assert_eq!(f.deq(), Ok(1));
        clk.commit_rule();
        clk.begin_rule();
        assert!(f.enq(2).is_err(), "slot frees only at the cycle boundary");
        clk.abort_rule();
        clk.end_cycle();
        clk.begin_rule();
        f.enq(2).unwrap();
        clk.commit_rule();
        clk.end_cycle();
    }

    #[test]
    fn cf_fifo_enq_and_deq_commute_under_scheduler() {
        struct St {
            f: CfFifo<u64>,
            produced: Ehr<u64>,
            consumed: Ehr<Vec<u64>>,
        }
        let clk = Clock::new();
        let st = St {
            f: CfFifo::new(&clk, 2),
            produced: Ehr::new(&clk, 0),
            consumed: Ehr::new(&clk, Vec::new()),
        };
        let mut sim = Sim::new(clk, st);
        // Consumer scheduled FIRST and producer SECOND: with a CF fifo both
        // still fire, proving no ordering constraint exists.
        sim.rule("consume", |s: &mut St| {
            let v = s.f.deq()?;
            s.consumed.update(|c| c.push(v));
            Ok(())
        });
        sim.rule("produce", |s: &mut St| {
            let n = s.produced.read();
            s.f.enq(n)?;
            s.produced.write(n + 1);
            Ok(())
        });
        sim.run(20);
        let consumed = sim.state().consumed.read();
        assert!(consumed.len() >= 18, "steady-state one transfer per cycle");
        assert!(consumed.windows(2).all(|w| w[1] == w[0] + 1), "FIFO order");
    }

    #[test]
    fn cf_fifo_does_not_pin_its_clock() {
        use std::cell::Cell;

        /// A payload that counts how many of its copies have been dropped.
        #[derive(Clone)]
        struct Counted(Rc<Cell<u32>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        /// Never snapshotted; a cell value only has to have a codec.
        impl crate::snap::Snap for Counted {
            fn save(&self, _: &mut crate::snap::SnapWriter) {}
            fn load(_: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
                Err(crate::snap::SnapError::Corrupt("a drop counter".into()))
            }
        }

        let drops = Rc::new(Cell::new(0));
        let clk = Clock::new();
        let f: CfFifo<Counted> = CfFifo::new(&clk, 2);
        let mut sim = Sim::new(clk, f);
        let payload = Counted(drops.clone());
        sim.rule("produce", move |f: &mut CfFifo<Counted>| {
            f.enq(payload.clone())
        });
        sim.run(3); // fills the FIFO, then rolls its bookkeeping while full
        assert_eq!(sim.state().len(), 2);
        let before = drops.get();
        drop(sim);
        // One copy lives in the rule's closure and goes with the `Sim`; the
        // two queued ones live in the clock's cell registry and go only if
        // the clock does.
        assert_eq!(
            drops.get() - before,
            3,
            "the clock and its cells outlived the Sim"
        );
    }

    #[test]
    fn fifo_order_preserved_across_flavors() {
        let clk = Clock::new();
        let flavors: Vec<Box<dyn Fifo<u32>>> = vec![
            Box::new(PipelineFifo::new(&clk, 8)),
            Box::new(BypassFifo::new(&clk, 8)),
            Box::new(CfFifo::new(&clk, 8)),
        ];
        for f in &flavors {
            for i in 0..5 {
                one_cycle(&clk, || f.enq(i).unwrap());
                clk.end_cycle();
            }
            for i in 0..5 {
                clk.begin_rule();
                assert_eq!(f.first(), Ok(i));
                assert_eq!(f.deq(), Ok(i));
                clk.commit_rule();
                clk.end_cycle();
            }
            assert!(f.is_empty());
        }
    }

    #[test]
    fn clear_empties_all_flavors() {
        let clk = Clock::new();
        let p: PipelineFifo<u32> = PipelineFifo::new(&clk, 4);
        let c: CfFifo<u32> = CfFifo::new(&clk, 4);
        one_cycle(&clk, || {
            p.enq(1).unwrap();
            c.enq(1).unwrap();
        });
        clk.end_cycle();
        one_cycle(&clk, || {
            p.clear();
            c.clear();
        });
        clk.end_cycle();
        assert!(p.is_empty());
        assert!(c.is_empty());
        clk.begin_rule();
        assert!(c.deq().is_err());
        clk.abort_rule();
    }

    #[test]
    fn enq_to_full_fifo_stalls() {
        let clk = Clock::new();
        let f: PipelineFifo<u32> = PipelineFifo::new(&clk, 2);
        one_cycle(&clk, || {
            f.enq(1).unwrap();
        });
        clk.end_cycle();
        one_cycle(&clk, || {
            f.enq(2).unwrap();
            assert!(f.enq(3).is_err());
        });
    }

    #[test]
    fn is_full_tracks_canonical_occupancy() {
        let clk = Clock::new();
        let f: PipelineFifo<u32> = PipelineFifo::new(&clk, 2);
        assert!(!f.is_full());
        for v in 0..2 {
            one_cycle(&clk, || f.enq(v).unwrap());
            clk.end_cycle();
        }
        assert!(f.is_full());
        one_cycle(&clk, || {
            let _ = f.deq().unwrap();
        });
        clk.end_cycle();
        assert!(!f.is_full());
    }
}
