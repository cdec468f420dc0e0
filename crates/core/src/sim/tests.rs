use super::*;
use crate::cell::{Ehr, Reg};
use crate::chaos::{FaultEngine, FaultPlan};
use crate::clock::ModuleIfc;
use crate::cm::ConflictMatrix;
use crate::guard::Stall;
use crate::sched::Horizon;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;

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

/// A sleeping rule that chaos verdicts hit, in a design that then
/// deadlocks: both schedulers trip the watchdog in the same cycle with
/// the same wait graph. The oracle names a verdict's reason only for the
/// cycle it hit and the guard's reason from the next cycle on, so a
/// sleeper must not keep the verdict's.
#[test]
fn a_verdict_on_a_sleeper_leaves_the_same_wait_graph() {
    let run = |mode, seed| {
        let clk = Clock::new();
        let st = Two {
            a: Ehr::new(&clk, 0),
            b: Ehr::new(&clk, 0),
        };
        let mut sim = Sim::new(clk, st);
        // Fires for 40 cycles, then stalls for good.
        sim.rule("count", |s: &mut Two| {
            if s.a.read() == 40 {
                return Err(Stall::new("counted out"));
            }
            s.a.update(|v| *v += 1);
            Ok(())
        });
        let wait = sim.rule("wait", |s: &mut Two| {
            if s.b.read() == 0 {
                return Err(Stall::new("b still zero"));
            }
            Ok(())
        });
        sim.set_wakeup(wait, Wakeup::Inferred);
        sim.set_watchdog(Some(16));
        sim.set_scheduler(mode);
        let engine = FaultEngine::new(
            FaultPlan::new(seed)
                .rule_abort("wait", 0.2)
                .guard_stall("wait", 0.1),
        );
        sim.attach_chaos(&engine);
        let err = sim.run_until(|_| false, 1_000).unwrap_err();
        (err, engine.fault_count())
    };
    let mut named_the_guard = 0;
    for seed in 0..8 {
        let reference = run(SchedulerMode::Reference, seed);
        assert!(reference.1 > 0, "seed {seed}: no verdict hit the sleeper");
        let SimError::Deadlock { report, .. } = &reference.0 else {
            panic!("seed {seed}: expected a deadlock, got {:?}", reference.0);
        };
        named_the_guard += usize::from(
            report
                .waits
                .iter()
                .any(|w| w.rule == "wait" && w.cause == WaitCause::Guard("b still zero")),
        );
        assert_eq!(run(SchedulerMode::Fast, seed), reference, "seed {seed}");
    }
    assert!(named_the_guard > 0, "no run ended on the guard's reason");
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
fn report_sorts_by_fire_count() {
    let clk = Clock::new();
    let st = Two {
        a: Ehr::new(&clk, 0),
        b: Ehr::new(&clk, 0),
    };
    let mut sim = Sim::new(clk, st);
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
}

#[test]
fn stall_counts_and_wait_causes_are_always_kept() {
    let clk = Clock::new();
    let st = Two {
        a: Ehr::new(&clk, 0),
        b: Ehr::new(&clk, 0),
    };
    let mut sim = Sim::new(clk, st);
    let r = sim.rule("stuck", |_s: &mut Two| Err(Stall::new("never")));
    sim.set_watchdog(None);
    sim.run(3);
    // Stats and wait causes are maintained without any observer attached.
    assert_eq!(sim.rule_stats(r).guard_stalls, 3);
    assert!(sim.wait_graph().names_rule("stuck"));
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
fn stall_callback_counts_every_cycle_a_sleeping_rule_skips() {
    struct Gated {
        gate: Ehr<u32>,
        evals: u64,
        stalls: u64,
    }
    let clk = Clock::new();
    let st = Gated {
        gate: Ehr::new(&clk, 0),
        evals: 0,
        stalls: 0,
    };
    let mut sim = Sim::new(clk, st);
    let r = sim.rule("waiter", |s: &mut Gated| {
        s.evals += 1;
        if s.gate.read() == 0 {
            return Err(Stall::new("gate closed"));
        }
        Ok(())
    });
    sim.set_wakeup(r, Wakeup::Inferred);
    sim.on_stall(r, |s: &mut Gated, reason| {
        assert_eq!(reason, "gate closed");
        s.stalls += 1;
    });
    // The first cycle stalls awake and falls asleep: one callback.
    sim.run(1);
    assert_eq!((sim.state().evals, sim.state().stalls), (2, 1));
    for n in 1..=20 {
        sim.run(1);
        assert_eq!(sim.state().stalls, 1 + n, "one callback per skipped cycle");
    }
    assert_eq!(sim.state().evals, 2, "the callback kept the rule awake");
    assert_eq!(sim.rule_stats(r).guard_stalls, 21);
    // A fire is no stall.
    sim.state_mut().gate.write(1);
    sim.run(1);
    assert_eq!(sim.rule_stats(r).fired, 1);
    assert_eq!(sim.state().stalls, 21);
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
    saved.save_kernel(&mut w);
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

/// A timer a jump can cross: the exempt `tick` rule counts cycles and drops
/// a token in `mailbox` at each `due` cycle; the other rules sleep on the
/// mailbox and count their stalls in callbacks, per reason.
struct Timed {
    now: u64,
    due: std::collections::VecDeque<u64>,
    mailbox: Ehr<u64>,
    taken: Ehr<u64>,
    stalls: BTreeMap<&'static str, u64>,
}

impl Horizon for Timed {
    fn horizon(&self) -> u64 {
        self.due.front().map_or(u64::MAX, |&t| t - self.now)
    }

    fn skip(&mut self, n: u64) {
        self.now += n;
    }
}

fn timed_sim() -> Sim<Timed> {
    let clk = Clock::new();
    let st = Timed {
        now: 0,
        // Quiet gaps of up to 45 cycles, then silence until the watchdog.
        due: [3, 4, 30, 31, 32, 77, 120].into(),
        mailbox: Ehr::new(&clk, 0),
        taken: Ehr::new(&clk, 0),
        stalls: BTreeMap::new(),
    };
    let mut sim = Sim::new(clk, st);
    let tick = sim.rule("tick", |s: &mut Timed| {
        if s.due.front() == Some(&s.now) {
            s.due.pop_front();
            s.mailbox.update(|m| *m += 1);
        }
        s.now += 1;
        Ok(())
    });
    sim.exempt_from_watchdog(tick);
    let take = sim.rule("take", |s: &mut Timed| {
        if s.taken.read() == s.mailbox.read() {
            return Err(Stall::new("mailbox empty"));
        }
        s.taken.update(|t| *t += 1);
        Ok(())
    });
    let watch = sim.rule("watch", |s: &mut Timed| {
        Err(Stall::new(if s.taken.read() < 5 {
            "fewer than five taken"
        } else {
            "five taken"
        }))
    });
    for r in [take, watch] {
        sim.set_wakeup(r, Wakeup::Inferred);
        sim.on_stall(r, |s: &mut Timed, reason| {
            *s.stalls.entry(reason).or_insert(0) += 1;
        });
    }
    sim.set_watchdog(Some(50));
    sim.enable_telemetry(16, 64);
    sim.set_telemetry_tap(Box::new(|s: &Timed| {
        vec![("timed.stalls".to_string(), s.stalls.values().sum())]
    }));
    sim
}

/// Everything a jump must account exactly.
fn timed_outcome(sim: &Sim<Timed>, err: SimError) -> impl PartialEq + fmt::Debug {
    (
        err,
        sim.cycles(),
        sim.all_rule_stats()
            .map(|(n, s)| (n.to_string(), s))
            .collect::<Vec<_>>(),
        sim.state().stalls.clone(),
        sim.telemetry_json(),
    )
}

#[test]
fn a_jump_accounts_exactly_what_stepping_does() {
    let mut stepped = timed_sim();
    let stepped_err = loop {
        if let Err(e) = stepped.try_cycle() {
            break e;
        }
    };
    // Any limit holds, and a jump never runs past it.
    for limits in [vec![u64::MAX], vec![1, 3, 17, 1000]] {
        let mut jumped = timed_sim();
        let mut calls = 0;
        let jumped_err = loop {
            let limit = limits[calls % limits.len()];
            calls += 1;
            match jumped.try_advance(limit) {
                Ok(n) => assert!((1..=limit).contains(&n), "advanced {n} of {limit}"),
                Err(e) => break e,
            }
        };
        assert!(
            calls < jumped.cycles() as usize / 2,
            "{calls} calls for {} cycles: the quiet stretches were jumped",
            jumped.cycles()
        );
        assert_eq!(
            timed_outcome(&jumped, jumped_err),
            timed_outcome(&stepped, stepped_err.clone()),
            "limits {limits:?}"
        );
    }
    assert!(
        matches!(stepped_err, SimError::Deadlock { cycle: 171, .. }),
        "{stepped_err}"
    );
}

#[test]
fn observers_and_the_reference_never_jump() {
    let mut reference = timed_sim();
    reference.set_scheduler(SchedulerMode::Reference);
    let mut traced = timed_sim();
    traced.set_tracer(Tracer::new(std::rc::Rc::new(std::cell::RefCell::new(
        crate::trace::VecSink::default(),
    ))));
    for sim in [&mut reference, &mut traced] {
        for _ in 0..100 {
            assert_eq!(sim.try_advance(u64::MAX), Ok(1));
        }
    }
}

/// An alarm clock: `alarm` rings once at each cycle of `times`, stalling on
/// time alone in between and naming the next ring with `Clock::wake_at`;
/// `done` stalls forever once every ring has sounded. Both log the cycles
/// their bodies ran in and count their stalls by reason.
struct Alarm {
    clk: Clock,
    times: Vec<u64>,
    rung: Ehr<usize>,
    ran: Vec<u64>,
    stalls: BTreeMap<&'static str, u64>,
}

impl Horizon for Alarm {
    fn horizon(&self) -> u64 {
        u64::MAX
    }

    fn skip(&mut self, _n: u64) {}
}

fn alarm_sim(mode: SchedulerMode) -> Sim<Alarm> {
    let clk = Clock::new();
    let st = Alarm {
        clk: clk.clone(),
        times: vec![5, 40, 41, 300],
        rung: Ehr::new(&clk, 0),
        ran: Vec::new(),
        stalls: BTreeMap::new(),
    };
    let mut sim = Sim::new(clk, st);
    sim.set_scheduler(mode);
    let alarm = sim.rule("alarm", |s: &mut Alarm| {
        let now = s.clk.cycle();
        s.ran.push(now);
        let Some(&at) = s.times.get(s.rung.read()) else {
            return Err(Stall::new("all rung"));
        };
        if now < at {
            s.clk.wake_at(at);
            return Err(Stall::new("not yet"));
        }
        s.rung.update(|r| *r += 1);
        Ok(())
    });
    sim.set_wakeup(alarm, Wakeup::Inferred);
    sim.on_stall(alarm, |s: &mut Alarm, reason| {
        *s.stalls.entry(reason).or_insert(0) += 1;
    });
    sim.set_watchdog(None);
    sim
}

#[test]
fn a_timed_sleep_wakes_exactly_at_its_cycle() {
    const END: u64 = 400;
    let mut reference = alarm_sim(SchedulerMode::Reference);
    reference.run(END);
    let mut stepped = alarm_sim(SchedulerMode::Fast);
    stepped.run(END);
    let mut jumped = alarm_sim(SchedulerMode::Fast);
    let mut starts = Vec::new();
    while jumped.cycles() < END {
        starts.push(jumped.cycles());
        let n = jumped
            .try_advance(END - jumped.cycles())
            .expect("no watchdog");
        assert!(n >= 1);
    }
    assert_eq!(jumped.cycles(), END, "a jump ran past its limit");
    // The body runs where its outcome can change and nowhere else: at each
    // ring, at the cycle after it (which names the next ring) and at the
    // first stall, each sleep start evaluated twice (the traced re-run).
    let ran: std::collections::BTreeSet<u64> = jumped.state().ran.iter().copied().collect();
    assert_eq!(
        ran.into_iter().collect::<Vec<_>>(),
        [0, 5, 6, 40, 41, 42, 300, 301]
    );
    assert_eq!(stepped.state().ran, jumped.state().ran);
    // No jump crossed a ring: each was the stepped cycle of some call.
    for at in [5, 40, 41, 300] {
        assert!(starts.contains(&at), "jumped over cycle {at}: {starts:?}");
    }
    assert!(starts.len() < 20, "nothing jumped: {starts:?}");
    for sim in [&stepped, &jumped] {
        assert_eq!(rule_stats_of(sim), rule_stats_of(&reference));
        assert_eq!(sim.state().stalls, reference.state().stalls);
        assert_eq!(sim.state().rung.read(), 4);
    }
    assert_eq!(reference.state().stalls["not yet"], 5 + 34 + 258);
}

fn rule_stats_of<S>(sim: &Sim<S>) -> Vec<(String, RuleStats)> {
    sim.all_rule_stats()
        .map(|(n, s)| (n.to_string(), s))
        .collect()
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
    assert_eq!(
        sim.rule_totals().columns(),
        [
            ("sim.cm_stalls", 0),
            ("sim.guard_stalls", 4),
            ("sim.rules_fired", 4)
        ]
    );
}
