//! Property-style tests of the CMD kernel's core invariants, driven by the
//! in-tree deterministic PRNG (the container builds offline, so `proptest`
//! is unavailable; each test sweeps a fixed seed range instead — failures
//! print the seed, which reproduces the case exactly):
//!
//! 1. **Atomicity** — an aborted rule leaves no trace, no matter where in
//!    its body the guard failed.
//! 2. **One-rule-at-a-time semantics** — a cycle's net effect on `Ehr`
//!    state equals executing exactly the fired rules sequentially.
//! 3. **FIFO conformance** — each FIFO flavor refines a simple queue model
//!    under arbitrary legal operation sequences.
//! 4. **Conflict-matrix consistency** — builders always produce symmetric
//!    matrices, and CM enforcement never lets a forbidden pair share a
//!    cycle.
//! 5. **Transactions against a shadow model** — random operation sequences
//!    over every cell shape, each rule committed or aborted, checked
//!    against plain `Vec`/`VecDeque` values after every rule, and the cells
//!    published checked after every commit and cycle boundary.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

use cmd_core::cm::Rel;
use cmd_core::prelude::*;
use cmd_core::rng::SplitMix64;

// ---------------------------------------------------------------------------
// 1. Atomicity
// ---------------------------------------------------------------------------

/// A rule that writes a random subset of cells and then stalls must leave
/// every cell untouched.
#[test]
fn aborted_rules_leave_no_trace() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n_writes = rng.range_usize(0, 16);
        let writes: Vec<(usize, u64)> = (0..n_writes)
            .map(|_| (rng.range_usize(0, 8), rng.next_u64()))
            .collect();
        let fail_at = rng.range_usize(0, 16);

        let clk = Clock::new();
        let cells: Vec<Ehr<u64>> = (0..8).map(|i| Ehr::new(&clk, i as u64)).collect();
        let before: Vec<u64> = cells.iter().map(Ehr::read).collect();

        clk.begin_rule();
        for (k, (i, v)) in writes.iter().enumerate() {
            if k == fail_at {
                break;
            }
            cells[*i].write(*v);
        }
        clk.abort_rule();

        let after: Vec<u64> = cells.iter().map(Ehr::read).collect();
        assert_eq!(before, after, "seed {seed}");
    }
}

/// Mixed commit/abort sequences: only committed rules' writes survive.
#[test]
fn only_committed_writes_survive() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n_ops = rng.range_usize(1, 24);
        let ops: Vec<(usize, u64, bool)> = (0..n_ops)
            .map(|_| (rng.range_usize(0, 4), rng.next_u64(), rng.chance(0.5)))
            .collect();

        let clk = Clock::new();
        let cells: Vec<Ehr<u64>> = (0..4).map(|_| Ehr::new(&clk, 0)).collect();
        let mut model = [0u64; 4];
        for (i, v, commit) in &ops {
            clk.begin_rule();
            cells[*i].write(*v);
            if *commit {
                clk.commit_rule();
                model[*i] = *v;
            } else {
                clk.abort_rule();
            }
        }
        clk.end_cycle();
        for (i, m) in model.iter().enumerate() {
            assert_eq!(cells[i].read(), *m, "seed {seed} cell {i}");
        }
    }
}

// ---------------------------------------------------------------------------
// 2. One-rule-at-a-time semantics
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum RuleKind {
    AddTo(usize, u64),
    CopyThenBump(usize, usize),
    GuardedDouble(usize, u64),
}

fn rule_kind(rng: &mut SplitMix64) -> RuleKind {
    match rng.below(3) {
        0 => RuleKind::AddTo(rng.range_usize(0, 4), rng.range_u64(1, 100)),
        1 => RuleKind::CopyThenBump(rng.range_usize(0, 4), rng.range_usize(0, 4)),
        _ => RuleKind::GuardedDouble(rng.range_usize(0, 4), rng.range_u64(0, 50)),
    }
}

fn apply_kind(k: RuleKind, state: &mut [u64; 4]) -> bool {
    match k {
        RuleKind::AddTo(i, v) => {
            state[i] = state[i].wrapping_add(v);
            true
        }
        RuleKind::CopyThenBump(a, b) => {
            state[a] = state[b].wrapping_add(1);
            true
        }
        RuleKind::GuardedDouble(i, threshold) => {
            if state[i] < threshold {
                return false; // guard fails: no effect
            }
            state[i] = state[i].wrapping_mul(2);
            true
        }
    }
}

/// Running a schedule of random rules for several cycles produces the same
/// state as applying the rules one-by-one (in schedule order, skipping
/// stalled ones) — the paper's central semantic claim.
#[test]
fn cycles_linearize_to_sequential_rule_execution() {
    for seed in 0..150u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let kinds: Vec<RuleKind> = (0..rng.range_usize(1, 8))
            .map(|_| rule_kind(&mut rng))
            .collect();
        let cycles = rng.range_u64(1, 6);

        let clk = Clock::new();
        struct St {
            cells: Vec<Ehr<u64>>,
        }
        let st = St {
            cells: (0..4).map(|i| Ehr::new(&clk, 10 + i as u64)).collect(),
        };
        let mut sim = Sim::new(clk, st);
        for k in kinds.clone() {
            sim.rule(format!("{k:?}"), move |s: &mut St| match k {
                RuleKind::AddTo(i, v) => {
                    s.cells[i].update(|x| *x = x.wrapping_add(v));
                    Ok(())
                }
                RuleKind::CopyThenBump(a, b) => {
                    let v = s.cells[b].read();
                    s.cells[a].write(v.wrapping_add(1));
                    Ok(())
                }
                RuleKind::GuardedDouble(i, t) => {
                    let v = s.cells[i].read();
                    if v < t {
                        return Err(Stall::new("below threshold"));
                    }
                    s.cells[i].write(v.wrapping_mul(2));
                    Ok(())
                }
            });
        }
        sim.run(cycles);

        // Reference: pure-Rust sequential execution.
        let mut model = [10u64, 11, 12, 13];
        for _ in 0..cycles {
            for &k in &kinds {
                apply_kind(k, &mut model);
            }
        }
        for (i, expected) in model.iter().enumerate() {
            assert_eq!(
                sim.state().cells[i].read(),
                *expected,
                "seed {seed} cell {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. FIFO conformance
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum FifoOp {
    Enq(u32),
    Deq,
    EndCycle,
}

fn fifo_ops(rng: &mut SplitMix64) -> Vec<FifoOp> {
    (0..rng.range_usize(1, 60))
        .map(|_| match rng.below(3) {
            0 => FifoOp::Enq(rng.next_u64() as u32),
            1 => FifoOp::Deq,
            _ => FifoOp::EndCycle,
        })
        .collect()
}

/// Drives a FIFO with each op in its own rule-cycle (so every flavor's CM
/// permits it), checking against a VecDeque model.
fn check_fifo_against_model<F: Fifo<u32>>(clk: &Clock, f: &F, ops: &[FifoOp]) {
    let cap = f.capacity();
    let mut model = std::collections::VecDeque::new();
    for op in ops {
        match op {
            FifoOp::Enq(v) => {
                clk.begin_rule();
                let r = f.enq(*v);
                if model.len() < cap {
                    assert!(r.is_ok(), "model has room");
                    model.push_back(*v);
                    clk.commit_rule();
                } else {
                    assert!(r.is_err(), "model is full");
                    clk.abort_rule();
                }
                clk.end_cycle();
            }
            FifoOp::Deq => {
                clk.begin_rule();
                let r = f.deq();
                match model.pop_front() {
                    Some(expect) => {
                        assert_eq!(r, Ok(expect));
                        clk.commit_rule();
                    }
                    None => {
                        assert!(r.is_err(), "model is empty");
                        clk.abort_rule();
                    }
                }
                clk.end_cycle();
            }
            FifoOp::EndCycle => clk.end_cycle(),
        }
        assert_eq!(f.len(), model.len());
    }
}

#[test]
fn pipeline_fifo_refines_queue() {
    for seed in 0..120u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let cap = rng.range_usize(1, 6);
        let ops = fifo_ops(&mut rng);
        let clk = Clock::new();
        let f: PipelineFifo<u32> = PipelineFifo::new(&clk, cap);
        check_fifo_against_model(&clk, &f, &ops);
    }
}

#[test]
fn bypass_fifo_refines_queue() {
    for seed in 0..120u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let cap = rng.range_usize(1, 6);
        let ops = fifo_ops(&mut rng);
        let clk = Clock::new();
        let f: BypassFifo<u32> = BypassFifo::new(&clk, cap);
        check_fifo_against_model(&clk, &f, &ops);
    }
}

#[test]
fn cf_fifo_refines_queue() {
    for seed in 0..120u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let cap = rng.range_usize(1, 6);
        let ops = fifo_ops(&mut rng);
        let clk = Clock::new();
        let f: CfFifo<u32> = CfFifo::new(&clk, cap);
        check_fifo_against_model(&clk, &f, &ops);
    }
}

// ---------------------------------------------------------------------------
// 4. Conflict matrices
// ---------------------------------------------------------------------------

/// Any sequence of builder operations yields a symmetric matrix.
#[test]
fn built_matrices_are_always_consistent() {
    for seed in 0..200u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let n = rng.range_usize(1, 8);
        let n_pairs = rng.range_usize(0, 20);
        let mut b = ConflictMatrix::builder(n);
        for _ in 0..n_pairs {
            let (a, c) = (rng.range_usize(0, 8), rng.range_usize(0, 8));
            let r = rng.below(4) as usize;
            if a < n && c < n {
                let rel = [Rel::Conflict, Rel::Before, Rel::After, Rel::Free][r];
                // Directional self-relations are rejected by the builder.
                if a == c && !matches!(rel, Rel::Conflict | Rel::Free) {
                    continue;
                }
                b = b.pair(a, c, rel);
            }
        }
        let cm = b.build();
        assert!(cm.validate().is_ok(), "seed {seed}");
        for a in 0..n {
            for c in 0..n {
                assert_eq!(cm.rel(a, c), cm.rel(c, a).flipped(), "seed {seed}");
            }
        }
    }
}

/// Under the scheduler, two rules calling a conflicting method pair never
/// both fire in one cycle, for any declared relation.
#[test]
fn enforcement_matches_declaration() {
    for rel_code in 0..4u8 {
        for cycles in 1..8u64 {
            let rel = [Rel::Conflict, Rel::Before, Rel::After, Rel::Free][rel_code as usize];
            let clk = Clock::new();
            let cm = ConflictMatrix::builder(2)
                .pair(0, 1, rel)
                .self_free(0)
                .self_free(1)
                .build();
            let ifc = clk.module("m", &["a", "b"], cm);
            struct St {
                ifc: ModuleIfc,
            }
            let mut sim = Sim::new(clk, St { ifc });
            let ra = sim.rule("callA", |s: &mut St| {
                s.ifc.record(0);
                Ok(())
            });
            let rb = sim.rule("callB", |s: &mut St| {
                s.ifc.record(1);
                Ok(())
            });
            sim.run(cycles);
            let (fa, fb) = (sim.rule_stats(ra), sim.rule_stats(rb));
            assert_eq!(fa.fired, cycles, "first rule always fires");
            match rel {
                // callA fires first in the schedule; b-after-a is legal iff
                // rel(a, b) ∈ {<, CF}.
                Rel::Before | Rel::Free => assert_eq!(fb.fired, cycles),
                Rel::After | Rel::Conflict => {
                    assert_eq!(fb.fired, 0);
                    assert_eq!(fb.cm_stalls, cycles);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Transactions against a shadow model
// ---------------------------------------------------------------------------

/// Names of the `Reg`s under test, as a refused commit reports them.
const REG_NAMES: [&str; 2] = ["r0", "r1"];

/// The cells under test and, beside them, what they must hold.
#[derive(Clone)]
struct Shadowed {
    scalars: Vec<Ehr<u64>>,
    array: EhrArray<u64>,
    deque: EhrDeque<u64>,
    generic: Ehr<Vec<u64>>,
    regs: Vec<Reg<u64>>,
    wires: Vec<Wire<u64>>,
}

#[derive(Debug, Clone, PartialEq)]
struct Shadow {
    scalars: Vec<u64>,
    array: Vec<u64>,
    deque: VecDeque<u64>,
    generic: Vec<u64>,
    /// Start-of-cycle values.
    regs: Vec<u64>,
    wires: Vec<Option<u64>>,
}

/// What a rule has done besides the values it changed.
struct RuleFx {
    /// Cells (by `ids()` index) it changed or opened, in first-touch order.
    touched: Vec<usize>,
    /// `Reg` writes waiting for the latch: earlier rules' and its own.
    pending: Vec<Option<u64>>,
    /// The first `Reg` it wrote while a write to it was pending.
    conflict: Option<&'static str>,
}

impl Shadowed {
    fn new(clk: &Clock) -> Self {
        Shadowed {
            scalars: (0..4).map(|i| Ehr::new(clk, i as u64)).collect(),
            array: EhrArray::new(clk, vec![7; 8]),
            deque: EhrDeque::new(clk, 6),
            generic: Ehr::new(clk, vec![3; 5]),
            regs: REG_NAMES
                .iter()
                .enumerate()
                .map(|(i, name)| Reg::named(clk, name, 10 + i as u64))
                .collect(),
            wires: (0..2).map(|_| Wire::new(clk)).collect(),
        }
    }

    /// Reads every cell back through its public read methods.
    fn observe(&self) -> Shadow {
        Shadow {
            scalars: self.scalars.iter().map(Ehr::read).collect(),
            array: self.array.with(<[u64]>::to_vec),
            deque: self.deque.with(Clone::clone),
            generic: self.generic.read(),
            regs: self.regs.iter().map(Reg::read).collect(),
            wires: self.wires.iter().map(Wire::peek).collect(),
        }
    }

    /// Cell ids in the order `Shadow` fields (and `touch` indices) use.
    fn ids(&self) -> Vec<CellId> {
        let mut ids: Vec<CellId> = self.scalars.iter().map(Ehr::watch_id).collect();
        ids.extend([
            self.array.watch_id(),
            self.deque.watch_id(),
            self.generic.watch_id(),
        ]);
        ids.extend(self.regs.iter().map(Reg::watch_id));
        ids.extend(self.wires.iter().map(Wire::watch_id));
        ids
    }

    /// `ids()` index of the first `Reg`; the wires follow the registers.
    fn first_reg(&self) -> usize {
        self.scalars.len() + 3
    }

    /// Reads cell `k` (an `ids()` index), as a rule sleeping on it would.
    fn read_cell(&self, k: usize) {
        let (n, r) = (self.scalars.len(), self.first_reg());
        match k {
            _ if k < n => self.scalars[k].with(|_| ()),
            _ if k == n => self.array.with(|_| ()),
            _ if k == n + 1 => self.deque.with(|_| ()),
            _ if k == n + 2 => self.generic.with(|_| ()),
            _ if k < r + self.regs.len() => self.regs[k - r].with(|_| ()),
            _ => {
                let _ = self.wires[k - r - self.regs.len()].peek();
            }
        }
    }
}

/// Applies one random operation to the cells and to `model`, asserting that
/// whatever the operation returns matches, and records in `fx` which cell
/// it *changed or opened* and what it left waiting for the latch.
fn random_op(rng: &mut SplitMix64, c: &Shadowed, model: &mut Shadow, fx: &mut RuleFx) {
    let mut touch = |i: usize| {
        if !fx.touched.contains(&i) {
            fx.touched.push(i);
        }
    };
    let n = c.scalars.len();
    let v = rng.next_u64() % 1000;
    match rng.below(18) {
        0 => {
            let i = rng.range_usize(0, n);
            assert_eq!(c.scalars[i].read(), model.scalars[i]);
        }
        1 => {
            let i = rng.range_usize(0, n);
            assert_eq!(c.scalars[i].with(|x| *x + 1), model.scalars[i] + 1);
        }
        2 => {
            let i = rng.range_usize(0, n);
            c.scalars[i].write(v);
            model.scalars[i] = v;
            touch(i);
        }
        3 => {
            let i = rng.range_usize(0, n);
            let got = c.scalars[i].update(|x| {
                *x = x.wrapping_add(v);
                *x
            });
            model.scalars[i] = model.scalars[i].wrapping_add(v);
            assert_eq!(got, model.scalars[i]);
            touch(i); // `update` always opens a transaction
        }
        4 | 5 => {
            // Conditional update: hits about half the time.
            let i = rng.range_usize(0, n);
            let hit = c.scalars[i].update_if(|x| x.is_multiple_of(2), |x| *x += 1);
            assert_eq!(hit, model.scalars[i].is_multiple_of(2));
            if hit {
                model.scalars[i] += 1;
                touch(i);
            }
        }
        6 => {
            let i = rng.range_usize(0, model.array.len());
            c.array.set(i, v);
            model.array[i] = v;
            touch(n);
        }
        7 => {
            let i = rng.range_usize(0, model.array.len());
            let hit = c.array.update_if(i, |x| *x > 500, |x| *x /= 2);
            assert_eq!(hit, model.array[i] > 500);
            if hit {
                model.array[i] /= 2;
                touch(n);
            }
            assert_eq!(c.array.get(i), model.array[i]);
        }
        8 => {
            if rng.chance(0.2) {
                let fresh: Vec<u64> = (0..model.array.len() as u64).map(|k| k ^ v).collect();
                c.array.replace(fresh.clone());
                model.array = fresh;
                touch(n);
            }
        }
        9 | 10 => {
            if model.deque.len() < 6 {
                c.deque.push_back(v);
                model.deque.push_back(v);
                touch(n + 1);
            }
            assert_eq!(c.deque.len(), model.deque.len());
        }
        11 => {
            assert_eq!(c.deque.front(), model.deque.front().copied());
            let got = c.deque.pop_front();
            assert_eq!(got, model.deque.pop_front());
            if got.is_some() {
                touch(n + 1);
            }
        }
        12 => {
            let i = rng.range_usize(0, 6);
            let got = c.deque.remove(i);
            assert_eq!(got, model.deque.remove(i));
            if got.is_some() {
                touch(n + 1);
            }
            if i < model.deque.len() {
                c.deque.set(i, v);
                model.deque[i] = v;
                touch(n + 1);
            }
        }
        13 => {
            if rng.chance(0.3) {
                if !model.deque.is_empty() {
                    touch(n + 1);
                }
                c.deque.clear();
                model.deque.clear();
            }
        }
        14 => {
            let i = rng.range_usize(0, model.generic.len());
            c.generic.set(i, v);
            model.generic[i] = v;
            assert_eq!(c.generic.get(i), v);
            touch(n + 2);
        }
        15 => {
            let k = rng.range_usize(0, c.regs.len());
            assert_eq!(c.regs[k].read(), model.regs[k], "start-of-cycle value");
            c.regs[k].write(v);
            if fx.pending[k].is_some() {
                // Dropped, and the rule can no longer commit.
                fx.conflict.get_or_insert(REG_NAMES[k]);
            } else {
                fx.pending[k] = Some(v);
                touch(c.first_reg() + k);
            }
        }
        16 => {
            let k = rng.range_usize(0, c.wires.len());
            assert_eq!(c.wires[k].peek(), model.wires[k]);
            c.wires[k].set(v);
            model.wires[k] = Some(v);
            touch(c.first_reg() + c.regs.len() + k);
        }
        _ => {
            assert_eq!(c.array.with(<[u64]>::to_vec), model.array);
            assert_eq!(c.generic.read(), model.generic);
        }
    }
}

/// Random rules over every cell shape, each randomly committed, aborted by
/// a guard part-way through (after it may have written), or run to the end
/// and then vetoed (what a chaos abort does). After every rule the cells
/// equal the shadow model: an abort restores exactly, a rule reads its own
/// writes (every operation checks its result against the in-rule model), a
/// later rule in the same cycle sees the committed ones, a rule that wrote
/// a `Reg` twice in a cycle is refused, and the cells a rule enlisted are
/// exactly the cells it touched, in first-touch order.
///
/// What is published is watched by one sleeping rule per cell on a `Sim`
/// sharing the clock: the commits of a cycle wake exactly the watchers of
/// the cells committed rules touched, `Reg`s excepted, and the cycle
/// boundary wakes exactly those of the `Reg`s latched and the `Wire`s
/// cleared.
#[test]
fn transactions_refine_a_shadow_model() {
    for seed in 0..300u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let clk = Clock::new();
        let cells = Shadowed::new(&clk);
        let ids = cells.ids();
        let first_wire = cells.first_reg() + cells.regs.len();
        let woken = Rc::new(RefCell::new(BTreeSet::new()));
        let mut watchers = Sim::new(clk.clone(), ());
        for k in 0..ids.len() {
            let (cells, woken) = (cells.clone(), woken.clone());
            let w = watchers.rule(format!("watch{k}"), move |_: &mut ()| {
                woken.borrow_mut().insert(k);
                cells.read_cell(k);
                Err(Stall::new("watching"))
            });
            watchers.set_wakeup(w, Wakeup::Inferred);
        }
        // Every watcher evaluates once and falls asleep on its cell.
        watchers.cycle();
        let take_woken = || std::mem::take(&mut *woken.borrow_mut());
        take_woken();
        let mut committed = cells.observe();
        for _cycle in 0..rng.range_usize(1, 6) {
            let mut pending = vec![None; cells.regs.len()];
            let mut published = BTreeSet::new();
            for _rule in 0..rng.range_usize(1, 8) {
                let n_ops = rng.range_usize(0, 12);
                // 0 = commit, 1 = guard stalls after `stop` ops, 2 = vetoed
                // after the whole body.
                let fate = rng.below(3);
                let stop = if fate == 1 {
                    rng.range_usize(0, n_ops + 1)
                } else {
                    n_ops
                };
                let mut in_rule = committed.clone();
                let mut fx = RuleFx {
                    touched: Vec::new(),
                    pending: pending.clone(),
                    conflict: None,
                };
                clk.begin_rule();
                for _ in 0..stop {
                    random_op(&mut rng, &cells, &mut in_rule, &mut fx);
                }
                assert_eq!(
                    cells.observe(),
                    in_rule,
                    "seed {seed}: rule reads its own writes"
                );
                let want: Vec<CellId> = fx.touched.iter().map(|&i| ids[i]).collect();
                assert_eq!(
                    clk.enlisted_cells(),
                    want,
                    "seed {seed}: enlisted iff touched"
                );
                if fate == 0 {
                    assert_eq!(
                        clk.try_commit_rule(),
                        fx.conflict.map_or(Ok(()), Err),
                        "seed {seed}: a second Reg write is refused"
                    );
                } else {
                    clk.abort_rule();
                }
                if fate == 0 && fx.conflict.is_none() {
                    committed = in_rule;
                    pending = fx.pending;
                    let regs = cells.first_reg()..first_wire;
                    published.extend(fx.touched.into_iter().filter(|i| !regs.contains(i)));
                }
                assert!(clk.enlisted_cells().is_empty());
                assert_eq!(cells.observe(), committed, "seed {seed}: fate {fate}");
            }
            watchers.cycle();
            assert_eq!(
                take_woken(),
                published,
                "seed {seed}: commits publish what committed rules touched"
            );
            let mut boundary = BTreeSet::new();
            for (k, next) in pending.into_iter().enumerate() {
                if let Some(v) = next {
                    committed.regs[k] = v;
                    boundary.insert(cells.first_reg() + k);
                }
            }
            for (k, w) in committed.wires.iter_mut().enumerate() {
                if w.take().is_some() {
                    boundary.insert(first_wire + k);
                }
            }
            // The watchers the boundary woke run here; nothing is driven in
            // this cycle, so its own boundary publishes nothing.
            watchers.cycle();
            assert_eq!(
                take_woken(),
                boundary,
                "seed {seed}: the boundary publishes the Regs latched and the Wires cleared"
            );
            assert_eq!(
                cells.observe(),
                committed,
                "seed {seed}: across the boundary"
            );
        }
    }
}

/// The same through the scheduler, with the chaos engine doing the vetoing:
/// rules that write first and check their guard afterwards, some aborted by
/// injected faults, still linearize to the fired rules only.
#[test]
fn scheduler_aborts_after_writes_leave_no_trace_under_chaos() {
    for seed in 0..40u64 {
        let clk = Clock::new();
        struct St {
            q: EhrDeque<u64>,
            sum: Ehr<u64>,
            log: EhrArray<u64>,
        }
        let st = St {
            q: EhrDeque::new(&clk, 4),
            sum: Ehr::new(&clk, 0),
            log: EhrArray::new(&clk, vec![0; 4]),
        };
        let mut sim = Sim::new(clk, st);
        // Writes, then stalls when the queue turns out full.
        let produce = sim.rule("produce", |s: &mut St| {
            let n = s.sum.update(|x| {
                *x += 1;
                *x
            });
            s.log.set((n % 4) as usize, n);
            s.q.push_back(n);
            if s.q.len() > 3 {
                return Err(Stall::new("queue full"));
            }
            Ok(())
        });
        let consume = sim.rule("consume", |s: &mut St| {
            let v = s.q.pop_front().ok_or(Stall::new("queue empty"))?;
            if v % 3 == 0 {
                // Pop, then change its mind: the pop must be undone.
                return Err(Stall::new("not taking multiples of three yet"));
            }
            Ok(())
        });
        let engine = FaultEngine::new(
            FaultPlan::new(seed)
                .rule_abort("produce", 0.2)
                .rule_abort("consume", 0.2),
        );
        sim.attach_chaos(&engine);
        sim.set_watchdog(None);
        sim.run(200);
        let (p, c) = (sim.rule_stats(produce).fired, sim.rule_stats(consume).fired);
        let st = sim.state();
        assert_eq!(st.sum.read(), p, "seed {seed}: one increment per firing");
        assert_eq!(
            st.q.len() as u64,
            p - c,
            "seed {seed}: queue holds the difference"
        );
        let expect: Vec<u64> = (p - (p - c)..p).map(|k| k + 1).collect();
        assert_eq!(
            st.q.with(|q| q.iter().copied().collect::<Vec<_>>()),
            expect,
            "seed {seed}: FIFO order, nothing lost to an aborted pop"
        );
        for slot in 0..4u64 {
            let last = (1..=p).rev().find(|n| n % 4 == slot).unwrap_or(0);
            assert_eq!(st.log.get(slot as usize), last, "seed {seed}: slot {slot}");
        }
    }
}
