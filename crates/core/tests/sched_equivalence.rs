//! Property test: the fast scheduler ([`SchedulerMode::Fast`]) is
//! observably identical to the reference one-rule-at-a-time oracle
//! ([`SchedulerMode::Reference`]) — same cycle counts, same per-rule
//! statistics, same trace event stream, same final state —
//! across randomized "rule soup" designs (cells, all three FIFO flavors, a
//! conflicting arbiter, gated rules), with and without an active chaos
//! [`FaultPlan`], across the IQ demo configurations of paper §IV, and on one
//! fixed sparse design, the 64-slot token ring, whose firing count is pinned
//! and whose publish→wake edges feed the profiler's critical paths.
//!
//! Every soup runs twice: *observed* (a tracer attached, which compares the
//! event stream, every stall with its reason — a sleeper's cached one
//! included) and *unobserved* (nothing attached — the lane users run, where
//! the loop's `OBS = false` instantiation executes). Rules sleep in both,
//! and a traced fast run enters exactly the rule bodies its untraced twin
//! does: a tracer changes what the kernel reports, never what it
//! evaluates. Every soup rule
//! also has a stall callback ([`Sim::on_stall`]) counting its stalls by
//! reason in the design state, compared after every cycle.
//!
//! See `docs/SCHEDULING.md` for the equivalence argument these tests pin
//! down executable evidence for.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cmd_core::demo::iq::{
    dependent_chain, independent_program, race_program, run_iq_demo_with_scheduler, DemoInst,
    IqDemoConfig, IqOrdering, RdybKind, NUM_REGS,
};
use cmd_core::prelude::*;
use cmd_core::trace::VecSink;

const NUM_CELLS: usize = 4;
const CYCLES: u64 = 300;

struct Soup {
    clk: Clock,
    arb: ModuleIfc,
    cells: Vec<Ehr<u64>>,
    pipe: PipelineFifo<u64>,
    byp: BypassFifo<u64>,
    cf: CfFifo<u64>,
    /// Plain (non-cell) state, and the cell its owner mirrors it into:
    /// `PlainBump` advances `plain` and writes its observable projection
    /// `plain / 7` into `phase` whenever that changes, and a sleepable path
    /// reads only `phase` — the pattern the SoC's substrate uses for the
    /// memory system behind its boundary cells.
    plain: u64,
    phase: Ehr<u64>,
    /// Rule bodies entered, by any scheduler path. Deliberately outside
    /// [`Outcome`]: skipping the bodies of sleeping rules is the one thing
    /// the fast scheduler is allowed to do differently.
    entries: u64,
    /// What the stall callbacks counted: stalled cycles per (rule, reason).
    stalls: BTreeMap<(usize, &'static str), u64>,
}

/// One randomly drawn rule body. Every stalling path is a pure function of
/// what it read through cells and of the cycle counter, whose next relevant
/// value it names with `Clock::wake_at`, so any of them may legally run
/// with `Wakeup::Inferred`.
#[derive(Clone, Copy)]
enum Kind {
    /// Bump a cell, optionally grabbing the (self-conflicting) arbiter.
    Bump { cell: usize, arb: bool },
    /// Stall unless a cell's value passes a threshold, then bump another.
    Gate {
        cell: usize,
        threshold: u64,
        bump: usize,
    },
    /// Enqueue a cell's value into a FIFO.
    Produce { fifo: usize, cell: usize },
    /// Dequeue from a FIFO into a cell.
    Consume { fifo: usize, cell: usize },
    /// Move an element between two FIFOs.
    Move { from: usize, to: usize },
    /// Advance the plain (non-cell) counter, writing its projection
    /// `plain / 7` into the `phase` cell when that changes. Always fires, so
    /// it must stay on `Wakeup::EveryCycle`.
    PlainBump,
    /// Stall unless the plain projection is in phase; sound under
    /// `Wakeup::Inferred` because it reads the projection from `phase`,
    /// which its owner rewrites whenever the projection changes.
    PlainGate { bump: usize },
    /// Stall on a cell, or until the cycle counter reaches a multiple of
    /// `period`: the time-based path announces that cycle with
    /// `Clock::wake_at`, so it sleeps on time as well as on cells.
    TimeGate {
        cell: usize,
        threshold: u64,
        period: u64,
        bump: usize,
    },
}

fn fifo_enq(s: &Soup, which: usize, v: u64) -> Guarded<()> {
    match which % 3 {
        0 => s.pipe.enq(v),
        1 => s.byp.enq(v),
        _ => s.cf.enq(v),
    }
}

fn fifo_deq(s: &Soup, which: usize) -> Guarded<u64> {
    match which % 3 {
        0 => s.pipe.deq(),
        1 => s.byp.deq(),
        _ => s.cf.deq(),
    }
}

fn apply(spec: Kind, s: &mut Soup) -> Guarded<()> {
    s.entries += 1;
    match spec {
        Kind::Bump { cell, arb } => {
            if arb {
                s.arb.record(0);
            }
            s.cells[cell].update(|v| *v = v.wrapping_add(1));
            Ok(())
        }
        Kind::Gate {
            cell,
            threshold,
            bump,
        } => {
            if s.cells[cell].read() % 16 < threshold {
                return Err(Stall::new("gate closed"));
            }
            s.cells[bump].update(|v| *v = v.wrapping_add(3));
            Ok(())
        }
        Kind::Produce { fifo, cell } => {
            let v = s.cells[cell].read();
            fifo_enq(s, fifo, v)
        }
        Kind::Consume { fifo, cell } => {
            let v = fifo_deq(s, fifo)?;
            s.cells[cell].update(|c| *c = c.wrapping_add(v));
            Ok(())
        }
        Kind::Move { from, to } => {
            let v = fifo_deq(s, from)?;
            fifo_enq(s, to, v)
        }
        Kind::PlainBump => {
            s.plain += 1;
            let phase = s.plain / 7;
            s.phase.update_if(|p| *p != phase, |p| *p = phase);
            Ok(())
        }
        Kind::PlainGate { bump } => {
            if s.phase.read().is_multiple_of(4) {
                return Err(Stall::new("plain gate closed"));
            }
            s.cells[bump].update(|v| *v = v.wrapping_add(5));
            Ok(())
        }
        Kind::TimeGate {
            cell,
            threshold,
            period,
            bump,
        } => {
            if s.cells[cell].read() % 16 < threshold {
                return Err(Stall::new("cell low"));
            }
            let now = s.clk.cycle();
            if !now.is_multiple_of(period) {
                s.clk.wake_at(now.next_multiple_of(period));
                return Err(Stall::new("gate shut"));
            }
            s.cells[bump].update(|v| *v = v.wrapping_add(7));
            Ok(())
        }
    }
}

/// Everything observable about one run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<u64, SimError>,
    cycles: u64,
    cells: Vec<u64>,
    fifo_lens: (usize, usize, usize),
    stats: Vec<(String, RuleStats)>,
    trace: Vec<String>,
    faults: usize,
    /// [`Soup::stalls`] after every cycle.
    stalls: Vec<BTreeMap<(usize, &'static str), u64>>,
}

fn rule_stats<S>(sim: &Sim<S>) -> Vec<(String, RuleStats)> {
    sim.all_rule_stats()
        .map(|(n, s)| (n.to_string(), s))
        .collect()
}

/// Runs soup `seed`; returns what is observable plus the body-entry count.
fn run_soup(seed: u64, mode: SchedulerMode, with_chaos: bool, observed: bool) -> (Outcome, u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let clk = Clock::new();
    let arb = clk.module("arb", &["grab"], ConflictMatrix::builder(1).build());
    let st = Soup {
        clk: clk.clone(),
        arb,
        cells: (0..NUM_CELLS)
            .map(|_| Ehr::new(&clk, rng.next_u64() % 8))
            .collect(),
        pipe: PipelineFifo::new(&clk, 2),
        byp: BypassFifo::new(&clk, 2),
        cf: CfFifo::new(&clk, 2),
        plain: 0,
        phase: Ehr::new(&clk, 0),
        entries: 0,
        stalls: BTreeMap::new(),
    };
    let flip_target = st.cells[0].clone();
    let mut sim = Sim::new(clk, st);
    sim.set_scheduler(mode);

    let n_rules = 6 + (rng.next_u64() % 5) as usize;
    // Always include the plain-state pair and the time gate, so every soup
    // exercises plain state mirrored into a cell and a sleep that ends at a
    // named cycle, alongside the random draw below.
    let bump_id = sim.rule("r_plain_bump", move |s: &mut Soup| {
        apply(Kind::PlainBump, s)
    });
    sim.set_wakeup(bump_id, Wakeup::EveryCycle);
    let gate_kind = Kind::PlainGate {
        bump: (rng.next_u64() as usize) % NUM_CELLS,
    };
    let gate_id = sim.rule("r_plain_gate", move |s: &mut Soup| apply(gate_kind, s));
    sim.set_wakeup(gate_id, Wakeup::Inferred);
    let time_kind = Kind::TimeGate {
        cell: (rng.next_u64() as usize) % NUM_CELLS,
        threshold: rng.next_u64() % 12,
        period: 2 + rng.next_u64() % 9,
        bump: (rng.next_u64() as usize) % NUM_CELLS,
    };
    let time_id = sim.rule("r_time_gate", move |s: &mut Soup| apply(time_kind, s));
    sim.set_wakeup(time_id, Wakeup::Inferred);
    let mut ids = vec![bump_id, gate_id, time_id];
    for i in 0..n_rules {
        let kind = match rng.next_u64() % 5 {
            0 => Kind::Bump {
                cell: (rng.next_u64() as usize) % NUM_CELLS,
                arb: rng.next_u64().is_multiple_of(2),
            },
            1 => Kind::Gate {
                cell: (rng.next_u64() as usize) % NUM_CELLS,
                threshold: rng.next_u64() % 12,
                bump: (rng.next_u64() as usize) % NUM_CELLS,
            },
            2 => Kind::Produce {
                fifo: (rng.next_u64() as usize) % 3,
                cell: (rng.next_u64() as usize) % NUM_CELLS,
            },
            3 => Kind::Consume {
                fifo: (rng.next_u64() as usize) % 3,
                cell: (rng.next_u64() as usize) % NUM_CELLS,
            },
            _ => Kind::Move {
                from: (rng.next_u64() as usize) % 3,
                to: (rng.next_u64() as usize) % 3,
            },
        };
        let id = sim.rule(format!("r{i}"), move |s: &mut Soup| apply(kind, s));
        // Half the rules exercise the wakeup layer, half stay on the
        // always-sound EveryCycle default — mixed schedules must agree too.
        if rng.next_u64().is_multiple_of(2) {
            sim.set_wakeup(id, Wakeup::Inferred);
        }
        ids.push(id);
    }
    for id in ids {
        sim.on_stall(id, move |s: &mut Soup, reason| {
            *s.stalls.entry((id.index(), reason)).or_insert(0) += 1;
        });
    }

    let sink = Rc::new(RefCell::new(VecSink::default()));
    if observed {
        sim.set_tracer(Tracer::new(sink.clone()));
    }

    let engine = if with_chaos {
        let plan = FaultPlan::new(seed ^ 0x9e37_79b9)
            .guard_stall("r*", 0.04)
            .rule_abort("r*", 0.04)
            .bit_flip("cell0", 0.05);
        let e = FaultEngine::new(plan);
        e.register_ehr_u64("cell0", &flip_target);
        sim.attach_chaos(&e);
        Some(e)
    } else {
        None
    };

    let mut result = Ok(CYCLES);
    let mut stalls = Vec::new();
    for _ in 0..CYCLES {
        let cycle = sim.try_cycle();
        stalls.push(sim.state().stalls.clone());
        if let Err(e) = cycle {
            result = Err(e);
            break;
        }
    }
    let trace = sink.borrow().rendered();
    let outcome = Outcome {
        result,
        cycles: sim.cycles(),
        cells: sim.state().cells.iter().map(Ehr::read).collect(),
        fifo_lens: (
            sim.state().pipe.len(),
            sim.state().byp.len(),
            sim.state().cf.len(),
        ),
        stats: rule_stats(&sim),
        trace,
        faults: engine.map_or(0, |e| e.fault_count()),
        stalls,
    };
    (outcome, sim.state().entries)
}

/// Compares the two schedulers over 24 soups, observed and unobserved.
fn assert_soups_match_reference(with_chaos: bool) {
    let (mut ref_entries, mut fast_entries) = (0, 0);
    for seed in 0..24 {
        let mut entered = [0; 2];
        for observed in [false, true] {
            let (reference, r) = run_soup(seed, SchedulerMode::Reference, with_chaos, observed);
            let (fast, f) = run_soup(seed, SchedulerMode::Fast, with_chaos, observed);
            assert_eq!(
                fast, reference,
                "fast scheduler diverged from reference oracle \
                 (seed {seed}, chaos {with_chaos}, observed {observed})"
            );
            entered[usize::from(observed)] = f;
            ref_entries += r;
            fast_entries += f;
        }
        assert_eq!(
            entered[1], entered[0],
            "the traced fast run entered another number of rule bodies than \
             the untraced one (seed {seed}, chaos {with_chaos})"
        );
    }
    // Both lanes must really exercise sleep/wake: if rules stopped
    // sleeping, the comparisons above would pass vacuously.
    assert!(
        fast_entries < ref_entries,
        "fast runs entered {fast_entries} rule bodies, \
         reference {ref_entries}: nothing slept (chaos {with_chaos})"
    );
}

#[test]
fn random_rule_soups_match_reference() {
    assert_soups_match_reference(false);
}

#[test]
fn random_rule_soups_match_reference_under_chaos() {
    assert_soups_match_reference(true);
}

// ---------------------------------------------------------------------------
// A read declares a dependency per stalling path, not per rule
// ---------------------------------------------------------------------------

struct TwoPaths {
    gate: Ehr<u64>,
    /// Written only between cycles, the way a substrate's owner would.
    plain: Ehr<u64>,
    entries: u64,
}

/// One rule, two stall paths: the first reads only `gate`, the second only
/// `plain`. Returns the sim and the rule.
fn build_two_paths(mode: SchedulerMode) -> (Sim<TwoPaths>, RuleId) {
    let clk = Clock::new();
    let st = TwoPaths {
        gate: Ehr::new(&clk, 0),
        plain: Ehr::new(&clk, 0),
        entries: 0,
    };
    let mut sim = Sim::new(clk, st);
    sim.set_scheduler(mode);
    let id = sim.rule("two_paths", |s: &mut TwoPaths| {
        s.entries += 1;
        if s.gate.read() == 0 {
            return Err(Stall::new("gate closed"));
        }
        if s.plain.read() == 0 {
            return Err(Stall::new("plain not ready"));
        }
        Ok(())
    });
    sim.set_wakeup(id, Wakeup::Inferred);
    (sim, id)
}

/// Both sims take the substrate's move (`Some(v)`: write `v` into `plain`
/// between cycles, which publishes it even when it does not change it),
/// run `n` cycles and must agree on the rule's statistics. Returns the
/// bodies `Fast` has entered so far.
fn step(sims: &mut [(Sim<TwoPaths>, RuleId); 2], plain: Option<u64>, n: u64) -> u64 {
    for (sim, _) in sims.iter_mut() {
        if let Some(v) = plain {
            sim.state().plain.write(v);
        }
        sim.run(n);
    }
    let [(fast, f), (reference, r)] = sims;
    assert_eq!(fast.rule_stats(*f), reference.rule_stats(*r));
    fast.state().entries
}

#[test]
fn observe_is_path_precise() {
    let mut sims = [SchedulerMode::Fast, SchedulerMode::Reference].map(build_two_paths);

    // Asleep on the first path: the stalling evaluation never read
    // `plain`, so a write of it is not its business.
    let asleep = step(&mut sims, None, 4);
    let poked = step(&mut sims, Some(0), 4);
    assert_eq!(poked, asleep, "woken by a cell its path never read");

    // Open the gate: the write wakes it, and it goes back to sleep on the
    // second path — now `plain` is in the watch set, and a write wakes it
    // even with no change behind it.
    for (sim, _) in &sims {
        sim.state().gate.write(1);
    }
    let asleep = step(&mut sims, None, 4);
    let poked = step(&mut sims, Some(0), 1);
    assert!(
        poked > asleep,
        "not re-entered when the cell its path read was written"
    );

    step(&mut sims, Some(1), 3);
    let [(fast, f), (reference, _)] = &sims;
    assert_eq!(fast.rule_stats(*f).fired, 3);
    assert!(
        fast.state().entries < reference.state().entries,
        "the fast scheduler never slept"
    );
}

// ---------------------------------------------------------------------------
// IQ demo equivalence (paper §IV designs)
// ---------------------------------------------------------------------------

fn random_program(rng: &mut SplitMix64, len: usize) -> Vec<DemoInst> {
    (0..len)
        .map(|_| DemoInst {
            dst: 4 + (rng.next_u64() as usize) % (NUM_REGS - 4),
            src1: 1 + (rng.next_u64() as usize) % (NUM_REGS - 1),
            src2: 1 + (rng.next_u64() as usize) % (NUM_REGS - 1),
        })
        .collect()
}

fn assert_iq_demo_equivalent(cfg: IqDemoConfig, program: &[DemoInst]) {
    let reference = run_iq_demo_with_scheduler(cfg, program, SchedulerMode::Reference);
    let fast = run_iq_demo_with_scheduler(cfg, program, SchedulerMode::Fast);
    assert_eq!(fast, reference, "IQ demo diverged under {cfg:?}");
}

#[test]
fn iq_demo_matches_reference_across_configs_and_programs() {
    let mut rng = SplitMix64::seed_from_u64(7);
    let configs = [
        IqDemoConfig::default(),
        IqDemoConfig {
            rdyb: RdybKind::NonBypassed,
            ..IqDemoConfig::default()
        },
        IqDemoConfig {
            ordering: IqOrdering::WakeupBeforeIssue,
            ..IqDemoConfig::default()
        },
        // The mis-declared module must deadlock identically in both modes.
        IqDemoConfig {
            rdyb: RdybKind::BrokenClaimsBypass,
            ..IqDemoConfig::default()
        },
    ];
    for cfg in configs {
        assert_iq_demo_equivalent(cfg, &race_program());
        assert_iq_demo_equivalent(cfg, &dependent_chain(24));
        assert_iq_demo_equivalent(cfg, &independent_program(24));
        for _ in 0..4 {
            let len = 8 + (rng.next_u64() as usize) % 25;
            let program = random_program(&mut rng, len);
            assert_iq_demo_equivalent(cfg, &program);
        }
    }
}

// ---------------------------------------------------------------------------
// The 64-slot token ring: the sparse schedule the wakeup layer exists for
// ---------------------------------------------------------------------------

const RING: usize = 64;
const RING_CYCLES: u64 = 20_000;

struct Ring {
    slots: Vec<Ehr<u64>>,
    /// Rule bodies entered; see [`Soup::entries`].
    entries: u64,
}

/// One token circulates through 64 slots, each rule guarded by its *own*
/// mailbox cell (a shared token cell would republish every cycle and wake
/// all 64 sleepers). Consumers are registered before their producers
/// (descending slot order), so a mailbox write only becomes readable the
/// following cycle and the token advances one slot per cycle; the
/// slot63 -> slot0 wraparound bypasses within the cycle.
fn build_ring(mode: SchedulerMode) -> Sim<Ring> {
    let clk = Clock::new();
    let slots = (0..RING)
        .map(|i| Ehr::new(&clk, u64::from(i == 0)))
        .collect();
    let mut sim = Sim::new(clk, Ring { slots, entries: 0 });
    sim.set_scheduler(mode);
    for i in (0..RING).rev() {
        let next = (i + 1) % RING;
        let id = sim.rule(format!("slot{i}"), move |s: &mut Ring| {
            s.entries += 1;
            let tokens = s.slots[i].read();
            if tokens == 0 {
                return Err(Stall::new("no token"));
            }
            s.slots[i].write(0);
            s.slots[next].update(|t| *t += tokens);
            Ok(())
        });
        sim.set_wakeup(id, Wakeup::Inferred);
    }
    sim
}

#[test]
fn ring_matches_reference_and_sleeps() {
    let run = |mode| {
        let mut sim = build_ring(mode);
        sim.run(RING_CYCLES);
        (rule_stats(&sim), sim.state().entries)
    };
    let (reference, ref_entries) = run(SchedulerMode::Reference);
    let (fast, fast_entries) = run(SchedulerMode::Fast);
    assert_eq!(fast, reference);
    // One firing per cycle plus the wraparound's second firing each lap.
    let fired: u64 = fast.iter().map(|(_, s)| s.fired).sum();
    assert_eq!(fired, 20_317);
    assert!(
        fast_entries < ref_entries,
        "fast entered {fast_entries} rule bodies, reference {ref_entries}: nothing slept"
    );
}

/// The only design in the suite whose rules sleep with the profiler on and
/// no tracer attached, so the only one that records publish→wake causal
/// edges and has critical paths to name.
#[test]
fn ring_critical_paths_follow_the_token() {
    let mut sim = build_ring(SchedulerMode::Fast);
    sim.enable_profiling();
    sim.run(RING_CYCLES);
    let paths = sim.critical_path_names();
    assert!(!paths.is_empty(), "no critical path recorded");
    for (window, names) in &paths {
        assert!(names.len() >= 2, "window {window}: {names:?}");
        for pair in names.windows(2) {
            let slot = |n: &String| -> usize {
                let i = n.strip_prefix("slot").and_then(|i| i.parse().ok());
                i.unwrap_or_else(|| panic!("window {window}: `{n}` is not a ring rule"))
            };
            assert_eq!(
                (slot(&pair[0]) + 1) % RING,
                slot(&pair[1]),
                "window {window}: {} -> {} is not a token hand-off",
                pair[0],
                pair[1]
            );
        }
    }
    let json = sim.profile_json();
    let recorded = "\"causal_edges\":{\"recorded\":";
    assert!(json.contains(recorded), "{json}");
    assert!(
        !json.contains(&format!("{recorded}0,")),
        "no publish→wake edge recorded"
    );
}
