//! The paper's instruction-issue-queue case study (§IV, Figs. 5–8).
//!
//! An [`Rdyb`] (physical-register ready bits) and an [`Iq`] (issue queue)
//! are composed by three rules — `doRename`, `doIssue`, `doRegWrite` — and
//! the *conflict matrices* of the two modules determine which rules may fire
//! in the same cycle:
//!
//! * With a **bypassed** `RDYB` (`setReady < {rdy, setNotReady}`) all three
//!   rules fire concurrently (§IV-C).
//! * With a **non-bypassed** `RDYB` (`{rdy, setNotReady} < setReady`),
//!   `doRename` cannot fire in a cycle after `doRegWrite`: strictly less
//!   concurrency, still correct (§IV-C: "less performance, but ... correct").
//! * With a `RDYB` whose *implementation* lacks the bypass but whose CM
//!   *claims* it has one ([`RdybKind::BrokenClaimsBypass`]), the §IV-A race
//!   occurs: an instruction enters the IQ having missed its wakeup and the
//!   machine **deadlocks** — the bug CMD's CM discipline is designed to
//!   make impossible.
//! * Choosing `wakeup < issue` instead of `issue < wakeup` in the IQ lets a
//!   woken instruction issue in the same cycle, saving a cycle on
//!   back-to-back dependent instructions (§IV-D).

use std::rc::Rc;

use crate::cell::Ehr;
use crate::clock::{Clock, ModuleIfc};
use crate::cm::ConflictMatrix;
use crate::fifo::{CfFifo, Fifo};
use crate::guard::{Guarded, Stall};
use crate::sched::{SchedulerMode, Wakeup};
use crate::sim::{Sim, SimError};

/// Number of (physical) registers in the demo.
pub const NUM_REGS: usize = 32;

// ---------------------------------------------------------------------------
// RDYB
// ---------------------------------------------------------------------------

/// Flavors of the ready-bit module (paper Fig. 7's `RDYB`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RdybKind {
    /// Internal bypass: `setReady < {rdy, setNotReady}` — `rdy` observes a
    /// same-cycle `setReady`.
    Bypassed,
    /// No bypass, honestly declared: `{rdy, setNotReady} < setReady` — the
    /// scheduler forbids `rdy` after a same-cycle `setReady`.
    NonBypassed,
    /// No bypass, but the CM *claims* `setReady < rdy`. This mis-declared
    /// module recreates the wakeup/enter race of paper §IV-A and deadlocks
    /// the design. Exists for demonstration and tests only.
    BrokenClaimsBypass,
}

const RDYB_METHODS: [&str; 3] = ["rdy", "setReady", "setNotReady"];
const RDY: usize = 0;
const SET_READY: usize = 1;
const SET_NOT_READY: usize = 2;

/// Ready-bit vector for the physical register file (paper Fig. 7).
#[derive(Clone)]
pub struct Rdyb {
    ifc: ModuleIfc,
    kind: RdybKind,
    bits: Ehr<Vec<bool>>,
    /// Start-of-cycle snapshot, used by the non-bypassed implementations.
    snapshot: Ehr<Vec<bool>>,
    /// The end-of-cycle hook that takes the snapshot, which runs while
    /// this handle lives (see [`Clock::at_end_of_cycle`]).
    _take_snapshot: Rc<dyn Fn()>,
}

impl Rdyb {
    /// Creates the module with all registers ready.
    #[must_use]
    pub fn new(clk: &Clock, kind: RdybKind) -> Self {
        let cm = match kind {
            RdybKind::Bypassed | RdybKind::BrokenClaimsBypass => ConflictMatrix::builder(3)
                .seq(&[SET_READY, RDY, SET_NOT_READY])
                .self_free(RDY)
                .free(SET_READY, SET_NOT_READY)
                .build(),
            RdybKind::NonBypassed => ConflictMatrix::builder(3)
                .seq(&[RDY, SET_NOT_READY, SET_READY])
                .self_free(RDY)
                .build(),
        };
        let bits = Ehr::new(clk, vec![true; NUM_REGS]);
        let snapshot = Ehr::new(clk, vec![true; NUM_REGS]);
        let take_snapshot = {
            let (bits, snap) = (bits.clone(), snapshot.clone());
            clk.at_end_of_cycle(move || {
                // Write only on change: an unconditional write would
                // republish the snapshot cell every cycle and defeat the
                // scheduler's wakeup layer (see crate::sched).
                let b = bits.read();
                if snap.read() != b {
                    snap.write(b);
                }
            })
        };
        Rdyb {
            ifc: clk.module("RDYB", &RDYB_METHODS, cm),
            kind,
            bits,
            snapshot,
            _take_snapshot: take_snapshot,
        }
    }

    /// Checks the presence bit of register `r` (paper's `rdy1`/`rdy2`).
    #[must_use]
    pub fn rdy(&self, r: usize) -> bool {
        self.ifc.record(RDY);
        match self.kind {
            RdybKind::Bypassed => self.bits.get(r),
            // Both non-bypassed implementations read stale state; only the
            // honest one declares it in the CM.
            RdybKind::NonBypassed | RdybKind::BrokenClaimsBypass => self.snapshot.get(r),
        }
    }

    /// Sets the presence bit (on register write-back).
    pub fn set_ready(&self, r: usize) {
        self.ifc.record(SET_READY);
        self.bits.set(r, true);
    }

    /// Clears the presence bit (on renaming a destination).
    pub fn set_not_ready(&self, r: usize) {
        self.ifc.record(SET_NOT_READY);
        self.bits.set(r, false);
    }
}

// ---------------------------------------------------------------------------
// IQ
// ---------------------------------------------------------------------------

/// Rule-ordering strategies for the IQ (paper §IV-C vs §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IqOrdering {
    /// `issue < wakeup < enter` (§IV-C): a woken instruction issues next
    /// cycle.
    IssueBeforeWakeup,
    /// `wakeup < issue < enter` (§IV-D): a woken instruction may issue in
    /// the *same* cycle, saving one cycle on dependent chains.
    WakeupBeforeIssue,
}

const IQ_METHODS: [&str; 3] = ["enter", "wakeup", "issue"];
const ENTER: usize = 0;
const WAKEUP: usize = 1;
const ISSUE: usize = 2;

/// A renamed instruction for the demo: writes `dst`, reads `src1`/`src2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemoInst {
    /// Destination physical register.
    pub dst: usize,
    /// First source register.
    pub src1: usize,
    /// Second source register.
    pub src2: usize,
}

crate::snap_struct!(DemoInst { dst, src1, src2 });

#[derive(Debug, Clone, Copy)]
struct IqEntry {
    inst: DemoInst,
    rdy1: bool,
    rdy2: bool,
    age: u64,
}

crate::snap_struct!(IqEntry {
    inst,
    rdy1,
    rdy2,
    age
});

/// Instruction issue queue (paper Figs. 5–7).
#[derive(Clone)]
pub struct Iq {
    ifc: ModuleIfc,
    slots: Ehr<Vec<Option<IqEntry>>>,
    next_age: Ehr<u64>,
}

impl Iq {
    /// Creates an empty IQ with `size` slots and the given ordering CM.
    #[must_use]
    pub fn new(clk: &Clock, size: usize, ordering: IqOrdering) -> Self {
        let cm = match ordering {
            IqOrdering::IssueBeforeWakeup => ConflictMatrix::builder(3)
                .seq(&[ISSUE, WAKEUP, ENTER])
                .build(),
            IqOrdering::WakeupBeforeIssue => ConflictMatrix::builder(3)
                .seq(&[WAKEUP, ISSUE, ENTER])
                .build(),
        };
        Iq {
            ifc: clk.module("IQ", &IQ_METHODS, cm),
            slots: Ehr::new(clk, vec![None; size]),
            next_age: Ehr::new(clk, 0),
        }
    }

    /// Inserts a renamed instruction with its source-ready bits
    /// (paper Fig. 7 `enter`).
    ///
    /// # Errors
    ///
    /// Stalls when the queue is full.
    pub fn enter(&self, inst: DemoInst, rdy1: bool, rdy2: bool) -> Guarded<()> {
        self.ifc.record(ENTER);
        let free = self
            .slots
            .with(|s| s.iter().position(Option::is_none))
            .ok_or(Stall::new("iq full"))?;
        let age = self.next_age.read();
        self.next_age.write(age + 1);
        self.slots.set(
            free,
            Some(IqEntry {
                inst,
                rdy1,
                rdy2,
                age,
            }),
        );
        Ok(())
    }

    /// Marks every waiting source equal to `dst` as ready (paper Fig. 7
    /// `wakeup`).
    pub fn wakeup(&self, dst: usize) {
        self.ifc.record(WAKEUP);
        self.slots.update(|slots| {
            for e in slots.iter_mut().flatten() {
                if e.inst.src1 == dst {
                    e.rdy1 = true;
                }
                if e.inst.src2 == dst {
                    e.rdy2 = true;
                }
            }
        });
    }

    /// Removes and returns the oldest fully-ready instruction (paper Fig. 7
    /// `issue`).
    ///
    /// # Errors
    ///
    /// Stalls when no instruction is ready.
    pub fn issue(&self) -> Guarded<DemoInst> {
        self.ifc.record(ISSUE);
        let pick = self.slots.with(|slots| {
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().map(|e| (i, e.age, e.rdy1 && e.rdy2)))
                .filter(|&(_, _, ready)| ready)
                .min_by_key(|&(_, age, _)| age)
                .map(|(i, _, _)| i)
        });
        let i = pick.ok_or(Stall::new("no ready instruction"))?;
        let entry = self.slots.with(|s| s[i].expect("slot checked valid"));
        self.slots.set(i, None);
        Ok(entry.inst)
    }

    /// Current number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots
            .with(|s| s.iter().filter(|e| e.is_some()).count())
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Demo harness (paper Fig. 8's rules)
// ---------------------------------------------------------------------------

/// Configuration of one IQ/RDYB experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqDemoConfig {
    /// RDYB flavor.
    pub rdyb: RdybKind,
    /// IQ wakeup/issue ordering.
    pub ordering: IqOrdering,
    /// IQ capacity.
    pub iq_size: usize,
}

impl Default for IqDemoConfig {
    fn default() -> Self {
        IqDemoConfig {
            rdyb: RdybKind::Bypassed,
            ordering: IqOrdering::IssueBeforeWakeup,
            iq_size: 8,
        }
    }
}

/// Result of a completed IQ/RDYB experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqDemoStats {
    /// Cycles to drain the whole program.
    pub cycles: u64,
    /// Instructions completed (equals the program length).
    pub completed: u64,
}

/// The design deadlocked: some instruction missed its wakeup and the
/// program never drained (the failure mode of paper §IV-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Deadlock {
    /// Instructions completed before progress stopped.
    pub completed: u64,
    /// The scheduler's structured diagnosis — for a genuine wakeup race
    /// this is [`SimError::Deadlock`], whose report names the stalled rules
    /// (`doIssue`, `doRegWrite`, `doRename`) and their blocking guards.
    pub error: SimError,
}

impl std::fmt::Display for Deadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "design deadlocked after completing {} instructions: {}",
            self.completed, self.error
        )
    }
}

impl std::error::Error for Deadlock {}

#[derive(Clone)]
struct DemoState {
    rdyb: Rdyb,
    iq: Iq,
    /// Execution pipeline: destination registers in flight (1-cycle
    /// latency, conflict-free so issue/writeback need no mutual ordering).
    exec: Rc<CfFifo<usize>>,
    program: Ehr<Vec<DemoInst>>,
    next: Ehr<usize>,
    completed: Ehr<u64>,
}

/// Runs paper Fig. 8's three rules over `program` under `cfg`.
///
/// The rule order is `doIssue`/`doRegWrite` (per `cfg.ordering`) then
/// `doRename`, matching §IV-C ("doIssue < doRegWrite < doRename") and §IV-D
/// ("doRegWrite < doIssue < doRename").
///
/// # Errors
///
/// Returns [`Deadlock`] when the program fails to drain — which happens
/// exactly for [`RdybKind::BrokenClaimsBypass`] on programs with the
/// §IV-A race.
pub fn run_iq_demo(cfg: IqDemoConfig, program: &[DemoInst]) -> Result<IqDemoStats, Deadlock> {
    run_iq_demo_with_scheduler(cfg, program, SchedulerMode::default())
}

/// [`run_iq_demo`] under an explicit scheduler mode — the equivalence
/// property tests run every configuration under both
/// [`SchedulerMode::Reference`] and [`SchedulerMode::Fast`] and assert
/// identical results.
///
/// # Errors
///
/// As [`run_iq_demo`].
pub fn run_iq_demo_with_scheduler(
    cfg: IqDemoConfig,
    program: &[DemoInst],
    mode: SchedulerMode,
) -> Result<IqDemoStats, Deadlock> {
    let clk = Clock::new();
    let st = DemoState {
        rdyb: Rdyb::new(&clk, cfg.rdyb),
        iq: Iq::new(&clk, cfg.iq_size, cfg.ordering),
        exec: Rc::new(CfFifo::new(&clk, 4)),
        program: Ehr::new(&clk, program.to_vec()),
        next: Ehr::new(&clk, 0),
        completed: Ehr::new(&clk, 0),
    };
    let mut sim = Sim::new(clk, st);

    let do_issue = |s: &mut DemoState| -> Guarded<()> {
        let inst = s.iq.issue()?;
        s.exec.enq(inst.dst)?;
        Ok(())
    };
    let do_reg_write = |s: &mut DemoState| -> Guarded<()> {
        let dst = s.exec.deq()?;
        s.iq.wakeup(dst);
        s.rdyb.set_ready(dst);
        s.completed.update(|c| *c += 1);
        Ok(())
    };

    sim.set_scheduler(mode);
    let (ra, rb) = match cfg.ordering {
        IqOrdering::IssueBeforeWakeup => (
            sim.rule("doIssue", do_issue),
            sim.rule("doRegWrite", do_reg_write),
        ),
        IqOrdering::WakeupBeforeIssue => (
            sim.rule("doRegWrite", do_reg_write),
            sim.rule("doIssue", do_issue),
        ),
    };
    let rc = sim.rule("doRename", |s: &mut DemoState| {
        let idx = s.next.read();
        let inst = s
            .program
            .with(|p| p.get(idx).copied())
            .ok_or(Stall::new("program drained"))?;
        let rdy1 = s.rdyb.rdy(inst.src1);
        let rdy2 = s.rdyb.rdy(inst.src2);
        s.rdyb.set_not_ready(inst.dst);
        s.iq.enter(inst, rdy1, rdy2)?;
        s.next.write(idx + 1);
        Ok(())
    });
    // All three rule bodies are pure functions of clocked cell state
    // (Ehr-backed modules only), so their stalled guards can sleep until a
    // watched cell publishes a write — the demo doubles as the wakeup
    // layer's dogfood.
    for r in [ra, rb, rc] {
        sim.set_wakeup(r, Wakeup::Inferred);
    }

    let n = program.len() as u64;
    let budget = 1_000 + 20 * n;
    match sim.run_until(|s| s.completed.read() == n, budget) {
        Ok(_) => Ok(IqDemoStats {
            cycles: sim.cycles(),
            completed: n,
        }),
        Err(error) => Err(Deadlock {
            completed: sim.state().completed.read(),
            error,
        }),
    }
}

/// A program that triggers the §IV-A race: `f2` renames in the very cycle
/// its producer's write-back fires.
#[must_use]
pub fn race_program() -> Vec<DemoInst> {
    vec![
        DemoInst {
            dst: 5,
            src1: 1,
            src2: 2,
        },
        DemoInst {
            dst: 6,
            src1: 5,
            src2: 5,
        },
        DemoInst {
            dst: 7,
            src1: 5,
            src2: 5,
        },
    ]
}

/// A chain of `n` back-to-back dependent instructions (each reads the
/// previous destination) — the workload where §IV-D's ordering wins.
#[must_use]
pub fn dependent_chain(n: usize) -> Vec<DemoInst> {
    (0..n)
        .map(|i| {
            let dst = 4 + (i + 1) % (NUM_REGS - 4);
            let src = 4 + i % (NUM_REGS - 4);
            DemoInst {
                dst,
                src1: if i == 0 { 1 } else { src },
                src2: 2,
            }
        })
        .collect()
}

/// A program of `n` mutually independent instructions.
#[must_use]
pub fn independent_program(n: usize) -> Vec<DemoInst> {
    (0..n)
        .map(|i| DemoInst {
            dst: 4 + i % (NUM_REGS - 4),
            src1: 1,
            src2: 2,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypassed_rdyb_completes_race_program() {
        let stats = run_iq_demo(IqDemoConfig::default(), &race_program()).unwrap();
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn honest_non_bypassed_rdyb_is_correct_but_slower() {
        let chain = dependent_chain(32);
        let fast = run_iq_demo(
            IqDemoConfig {
                rdyb: RdybKind::Bypassed,
                ..IqDemoConfig::default()
            },
            &chain,
        )
        .unwrap();
        let slow = run_iq_demo(
            IqDemoConfig {
                rdyb: RdybKind::NonBypassed,
                ..IqDemoConfig::default()
            },
            &chain,
        )
        .unwrap();
        assert!(slow.cycles >= fast.cycles, "weaker CM cannot be faster");
        assert_eq!(slow.completed, 32, "but it is still correct");
    }

    #[test]
    fn broken_bypass_claim_deadlocks_on_the_race() {
        let err = run_iq_demo(
            IqDemoConfig {
                rdyb: RdybKind::BrokenClaimsBypass,
                ..IqDemoConfig::default()
            },
            &race_program(),
        )
        .unwrap_err();
        assert!(err.completed < 3, "some instruction must be stuck: {err}");
        // The watchdog must diagnose the §IV-A race structurally: a
        // deadlock (not a mere cycle-budget overrun) whose wait graph names
        // the stalled rules and the guards they are blocked on.
        let SimError::Deadlock { report, .. } = &err.error else {
            panic!("expected SimError::Deadlock, got {:?}", err.error);
        };
        assert!(report.names_rule("doIssue"), "{report}");
        assert!(report.names_rule("doRegWrite"), "{report}");
        assert!(report.names_rule("doRename"), "{report}");
        let shown = format!("{report}");
        assert!(
            shown.contains("doIssue -> guard \"no ready instruction\""),
            "doIssue must be reported waiting on a wakeup that never comes:\n{shown}"
        );
        assert!(
            shown.contains("doRegWrite -> guard \"cf fifo empty\""),
            "doRegWrite must be reported waiting on an empty exec pipe:\n{shown}"
        );
    }

    #[test]
    fn wakeup_before_issue_saves_cycles_on_dependent_chain() {
        let chain = dependent_chain(40);
        let base = run_iq_demo(
            IqDemoConfig {
                ordering: IqOrdering::IssueBeforeWakeup,
                ..IqDemoConfig::default()
            },
            &chain,
        )
        .unwrap();
        let opt = run_iq_demo(
            IqDemoConfig {
                ordering: IqOrdering::WakeupBeforeIssue,
                ..IqDemoConfig::default()
            },
            &chain,
        )
        .unwrap();
        assert!(
            opt.cycles < base.cycles,
            "same-cycle wakeup->issue must shorten the chain: {} vs {}",
            opt.cycles,
            base.cycles
        );
    }

    #[test]
    fn independent_instructions_sustain_throughput() {
        let stats = run_iq_demo(IqDemoConfig::default(), &independent_program(50)).unwrap();
        // 1 rename + 1 issue + 1 writeback per cycle in steady state.
        assert!(
            stats.cycles < 70,
            "independent program should pipeline: {} cycles",
            stats.cycles
        );
    }

    #[test]
    fn a_dropped_sim_frees_its_clock() {
        let clk = Clock::new();
        let inner = clk.downgrade();
        let rdyb = Rdyb::new(&clk, RdybKind::NonBypassed);
        let mut sim = Sim::new(clk, rdyb);
        sim.rule("setNotReady", |r: &mut Rdyb| {
            r.set_not_ready(4);
            Ok(())
        });
        sim.run(3);
        assert!(!sim.state().rdy(4), "the hook took the snapshot");
        drop(sim);
        assert!(
            inner.upgrade().is_none(),
            "the snapshot hook must not keep the clock alive"
        );
    }

    #[test]
    fn iq_enter_stalls_when_full() {
        let clk = Clock::new();
        let iq = Iq::new(&clk, 2, IqOrdering::IssueBeforeWakeup);
        let inst = DemoInst {
            dst: 4,
            src1: 1,
            src2: 2,
        };
        clk.begin_rule();
        iq.enter(inst, true, true).unwrap();
        iq.enter(inst, true, true).unwrap();
        assert!(iq.enter(inst, true, true).is_err());
        clk.commit_rule();
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn iq_issues_oldest_ready_first() {
        let clk = Clock::new();
        let iq = Iq::new(&clk, 4, IqOrdering::IssueBeforeWakeup);
        let a = DemoInst {
            dst: 4,
            src1: 1,
            src2: 2,
        };
        let b = DemoInst {
            dst: 5,
            src1: 1,
            src2: 2,
        };
        clk.begin_rule();
        iq.enter(a, true, true).unwrap();
        iq.enter(b, true, true).unwrap();
        clk.commit_rule();
        clk.end_cycle();
        clk.begin_rule();
        assert_eq!(iq.issue().unwrap(), a);
        clk.commit_rule();
    }

    #[test]
    fn iq_wakeup_sets_both_sources() {
        let clk = Clock::new();
        let iq = Iq::new(&clk, 4, IqOrdering::IssueBeforeWakeup);
        let i = DemoInst {
            dst: 6,
            src1: 5,
            src2: 5,
        };
        clk.begin_rule();
        iq.enter(i, false, false).unwrap();
        clk.commit_rule();
        clk.end_cycle();
        clk.begin_rule();
        assert!(iq.issue().is_err(), "not ready yet");
        clk.abort_rule();
        clk.begin_rule();
        iq.wakeup(5);
        clk.commit_rule();
        clk.end_cycle();
        clk.begin_rule();
        assert_eq!(iq.issue().unwrap(), i);
        clk.commit_rule();
    }
}
