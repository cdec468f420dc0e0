//! Property-style tests of the core's bookkeeping invariants: ROB
//! suffix-kill correctness, a misprediction squashing exactly what was
//! renamed after the branch everywhere at once, physical-register
//! conservation under speculation, LSQ forwarding against a naive model,
//! and the IQ and LSQ against plain linear-scan shadow models (same picks,
//! same stalls, same slot indices, same oldest load and store, through
//! committed and aborted rules alike) — randomized with the in-tree
//! deterministic PRNG (each case reproduces from its seed).

use cmd_core::clock::Clock;
use cmd_core::guard::Stall;
use cmd_core::rng::SplitMix64;
use cmd_core::sched::Wakeup;
use cmd_core::sim::Sim;
use cmd_core::snap::{Snap, SnapReader, SnapWriter, Snapshot};
use riscy_isa::csr::Exception;
use riscy_isa::reg::Gpr;
use riscy_mem::msg::{line_of, AtomicOp};
use riscy_ooo::config::BpConfig;
use riscy_ooo::frontend::{Ras, Tournament};
use riscy_ooo::iq::IssueQueue;
use riscy_ooo::lsq::{FwdSrc, LdIssue, LdState, LqEntry, Lsq, SqEntry, StallSrc};
use riscy_ooo::rename::{RenameTable, SpecManager, SpecSnapshot};
use riscy_ooo::rob::{Rob, RobEntry};
use riscy_ooo::sb::SbSearch;
use riscy_ooo::types::{PhysReg, SpecTag, Uop};

fn in_rule<R>(clk: &Clock, f: impl FnOnce() -> R) -> R {
    clk.begin_rule();
    let r = f();
    clk.commit_rule();
    r
}

fn uop(pc: u64, seq: u64) -> Uop {
    Uop {
        instr: riscy_isa::inst::Instr::Fence,
        pc,
        pred_next: pc + 4,
        rob: 0,
        arch_dst: None,
        dst: None,
        old_dst: None,
        src1: PhysReg::ZERO,
        src2: PhysReg::ZERO,
        seq,
        own_tag: None,
        lsq_idx: None,
        mem_kind: None,
        pred_taken: false,
        ghist: riscy_ooo::frontend::GhistSnapshot::default(),
    }
}

// ---------------------------------------------------------------------------
// ROB
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum RobOp {
    Enq,
    Deq,
    WrongSpec,
}

fn rob_op(rng: &mut SplitMix64) -> RobOp {
    match rng.below(3) {
        0 => RobOp::Enq,
        1 => RobOp::Deq,
        _ => RobOp::WrongSpec,
    }
}

/// The ROB behaves as a FIFO whose `wrongSpec` removes exactly the entries
/// renamed after the branch — a suffix — against a Vec model, for any
/// operation sequence, and never hands out a sequence number twice.
#[test]
fn rob_refines_model() {
    for seed in 0..150u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let ops: Vec<RobOp> = (0..rng.range_usize(1, 80))
            .map(|_| rob_op(&mut rng))
            .collect();

        let clk = Clock::new();
        let rob = Rob::new(&clk, 16);
        let mut model: Vec<(u64, u64)> = Vec::new(); // (pc, seq)
        let mut next_seq = 0u64;
        let mut next_pc = 0u64;
        for op in ops {
            match op {
                RobOp::Enq => in_rule(&clk, || {
                    assert_eq!(rob.enq_seq(), next_seq, "seed {seed}");
                    let got = rob.enq(RobEntry::new(uop(next_pc, next_seq)));
                    if model.len() < 16 {
                        got.unwrap();
                        model.push((next_pc, next_seq));
                        next_seq += 1;
                    } else {
                        assert!(got.is_err());
                    }
                    next_pc += 4;
                }),
                RobOp::Deq => in_rule(&clk, || {
                    if model.is_empty() {
                        assert!(rob.deq().is_err());
                    } else {
                        let e = rob.deq().unwrap();
                        let (pc, seq) = model.remove(0);
                        assert_eq!((e.uop.pc, e.uop.seq), (pc, seq), "seed {seed}");
                    }
                }),
                RobOp::WrongSpec => in_rule(&clk, || {
                    // Any branch, retired or in flight: the ROB keeps what
                    // was renamed up to it.
                    let bseq = rng.below(next_seq + 1);
                    rob.wrong_spec(bseq);
                    model.retain(|&(_, seq)| seq <= bseq);
                }),
            }
            assert_eq!(rob.len(), model.len(), "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------------
// Squash by rename order, across the structures
// ---------------------------------------------------------------------------

/// One renamed instruction of the shadow model below.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u64,
    rob: u16,
    /// The LQ (`Some(true)`) or SQ (`Some(false)`) slot.
    lsq: Option<(bool, u16)>,
    /// The tag of an unresolved branch.
    tag: Option<SpecTag>,
    in_iq: bool,
}

/// Renames, issues, commits and branch resolutions, correct and wrong, in
/// random order and in committed and aborted rules, over a ROB, an IQ, an
/// LSQ and a three-tag speculation manager, so tags are reused while
/// instructions renamed after their previous owner are still in flight. A
/// misprediction must leave in every structure exactly the instructions
/// renamed up to the branch — a `Vec` shadow model's `seq <= bseq`.
#[test]
fn a_misprediction_squashes_exactly_what_was_renamed_after_the_branch() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..120u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let clk = Clock::new();
        let rob = Rob::new(&clk, 12);
        let iq = IssueQueue::new(&clk, 6, 8);
        let lsq = Lsq::new(&clk, 4, 4);
        let sm = SpecManager::new(&clk, 3);
        let rt = RenameTable::new(&clk, 40);
        let (tour, ras) = (Tournament::new(BpConfig::default()), Ras::new(4));
        let mut model: Vec<InFlight> = Vec::new();
        // Per tag: the sequence number of the branch that last held it.
        let mut owner = [None::<u64>; 3];
        for rule in 0..150 {
            let ctx = format!("seed {seed} rule {rule}");
            clk.begin_rule();
            let mut m = model.clone();
            let mut o = owner;
            match rng.below(10) {
                0..=3 => {
                    // Rename an add, a branch, a load or a store, if it fits.
                    let kind = rng.below(4);
                    let fits = rob.can_enq().is_ok()
                        && iq.can_enter().is_ok()
                        && match kind {
                            1 => sm.can_allocate().is_ok(),
                            2 => lsq.can_enq_ld().is_ok(),
                            3 => lsq.can_enq_st().is_ok(),
                            _ => true,
                        };
                    if fits {
                        let seq = rob.enq_seq();
                        let rob_idx = rob.enq_index();
                        let mut e = InFlight {
                            seq,
                            rob: rob_idx,
                            lsq: None,
                            tag: None,
                            in_iq: true,
                        };
                        match kind {
                            1 => {
                                let tag = sm
                                    .allocate(SpecSnapshot {
                                        rat: rt.snapshot(),
                                        ras: ras.snapshot(),
                                        ghist: tour.snapshot(),
                                        seq,
                                    })
                                    .unwrap();
                                let t = usize::from(tag.0);
                                if o[t].is_some_and(|prev| m.iter().any(|e| e.seq > prev)) {
                                    seen.insert("tag reused");
                                }
                                o[t] = Some(seq);
                                e.tag = Some(tag);
                            }
                            2 => {
                                e.lsq = Some((true, lsq.enq_ld(rob_idx, seq, None, false).unwrap()))
                            }
                            3 => e.lsq = Some((false, lsq.enq_st(seq, false).unwrap())),
                            _ => {}
                        }
                        iq.enter(uop(0, seq), true, true).unwrap();
                        rob.enq(RobEntry::new(uop(0, seq))).unwrap();
                        m.push(e);
                    }
                }
                4 => {
                    // Everything is ready, so the oldest entry issues.
                    let want = m.iter_mut().filter(|e| e.in_iq).min_by_key(|e| e.seq);
                    let got = iq.issue().map(|u| u.seq).ok();
                    assert_eq!(got, want.as_ref().map(|e| e.seq), "{ctx}");
                    if let Some(e) = want {
                        e.in_iq = false;
                    }
                }
                5..=7 => {
                    let branches: Vec<usize> =
                        (0..m.len()).filter(|&i| m[i].tag.is_some()).collect();
                    if let Some(&i) = (!branches.is_empty()).then(|| rng.pick(&branches)) {
                        let b = m[i];
                        let tag = b.tag.expect("unresolved");
                        m[i].tag = None;
                        if rng.chance(0.5) {
                            sm.correct(tag);
                        } else {
                            assert_eq!(sm.wrong(tag).seq, b.seq, "{ctx}");
                            rob.wrong_spec(b.seq);
                            iq.wrong_spec(b.seq);
                            lsq.wrong_spec(b.seq);
                            let before = m.len();
                            m.retain(|e| e.seq <= b.seq);
                            if m.len() < before && m.iter().any(|e| e.seq < b.seq) {
                                seen.insert("squashed a suffix");
                            }
                        }
                    }
                }
                _ => {
                    // In-order commit of a head that is neither waiting in
                    // the IQ nor an unresolved branch.
                    if m.first().is_some_and(|e| !e.in_iq && e.tag.is_none()) {
                        let e = m.remove(0);
                        assert_eq!(rob.deq().unwrap().uop.seq, e.seq, "{ctx}");
                        match e.lsq {
                            Some((true, i)) => {
                                assert_eq!(lsq.first_ld().unwrap().0, i, "{ctx}");
                                lsq.deq_ld();
                            }
                            Some((false, i)) => {
                                lsq.set_at_commit_st(i);
                                assert_eq!(lsq.first_st().unwrap().0, i, "{ctx}");
                                lsq.deq_st();
                            }
                            None => {}
                        }
                    }
                }
            }
            if rng.chance(0.8) {
                clk.commit_rule();
                (model, owner) = (m, o);
            } else {
                clk.abort_rule();
            }
            assert_eq!(rob.len(), model.len(), "{ctx}");
            for e in &model {
                assert_eq!(rob.entry(e.rob).map(|r| r.uop.seq), Some(e.seq), "{ctx}");
                match e.lsq {
                    Some((true, i)) => {
                        assert_eq!(lsq.lq_entry(i).map(|l| l.seq), Some(e.seq), "{ctx}")
                    }
                    Some((false, i)) => {
                        assert_eq!(lsq.sq_entry(i).map(|s| s.seq), Some(e.seq), "{ctx}")
                    }
                    None => {}
                }
            }
            let count = |f: fn(&InFlight) -> bool| model.iter().filter(|e| f(e)).count();
            assert_eq!(iq.len(), count(|e| e.in_iq), "{ctx}");
            assert_eq!(
                lsq.lq_len(),
                count(|e| e.lsq.is_some_and(|(ld, _)| ld)),
                "{ctx}"
            );
            assert_eq!(
                lsq.sq_len(),
                count(|e| e.lsq.is_some_and(|(ld, _)| !ld)),
                "{ctx}"
            );
            assert_eq!(sm.live(), count(|e| e.tag.is_some()), "{ctx}");
            assert!(iq.masks_consistent() && lsq.masks_consistent(), "{ctx}");
        }
    }
    for path in ["tag reused", "squashed a suffix"] {
        assert!(seen.contains(path), "never reached: {path}");
    }
}

// ---------------------------------------------------------------------------
// Rename: physical-register conservation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum RenOp {
    Alloc(u8),
    CommitOldest,
    Branch,
    Mispredict,
    Resolve,
    Flush,
}

fn ren_op(rng: &mut SplitMix64) -> RenOp {
    match rng.below(6) {
        0 => RenOp::Alloc(rng.range_i64(1, 32) as u8),
        1 => RenOp::CommitOldest,
        2 => RenOp::Branch,
        3 => RenOp::Mispredict,
        4 => RenOp::Resolve,
        _ => RenOp::Flush,
    }
}

/// Under any interleaving of renames, commits, branch snapshots, mispredict
/// restores, and full flushes, no physical register is ever lost or
/// duplicated: free + architecturally-mapped + in-flight = all.
#[test]
fn physical_registers_are_conserved() {
    for seed in 0..150u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let ops: Vec<RenOp> = (0..rng.range_usize(1, 60))
            .map(|_| ren_op(&mut rng))
            .collect();

        const PHYS: usize = 48;
        let clk = Clock::new();
        let rt = RenameTable::new(&clk, PHYS);
        let sm = SpecManager::new(&clk, 4);
        let tour = Tournament::new(BpConfig::default());
        let ras = Ras::new(4);
        // In-flight (not yet committed) renames: (arch, new, old).
        let mut inflight: Vec<(Gpr, PhysReg, PhysReg)> = Vec::new();
        // Live branch tags with the inflight length at allocation.
        let mut branches: Vec<(SpecTag, usize)> = Vec::new();
        let mut next_seq = 0u64;

        for op in ops {
            in_rule(&clk, || match op {
                RenOp::Alloc(r) => {
                    let g = Gpr::new(r);
                    if let Ok((new, old)) = rt.allocate(g) {
                        inflight.push((g, new, old));
                    }
                }
                RenOp::CommitOldest => {
                    // In-order commit: an instruction younger than an
                    // unresolved branch cannot commit (the branch sits
                    // earlier in the ROB and resolves first).
                    let commit_legal = branches.iter().all(|(_, at)| *at > 0);
                    if !inflight.is_empty() && commit_legal {
                        let (g, new, old) = inflight.remove(0);
                        rt.commit(g, new, old);
                        for b in &mut branches {
                            b.1 = b.1.saturating_sub(1);
                        }
                    }
                }
                RenOp::Branch => {
                    let snap = SpecSnapshot {
                        rat: rt.snapshot(),
                        ras: ras.snapshot(),
                        ghist: tour.snapshot(),
                        seq: next_seq,
                    };
                    next_seq += 1;
                    if let Ok(tag) = sm.allocate(snap) {
                        branches.push((tag, inflight.len()));
                    }
                }
                RenOp::Mispredict => {
                    if let Some((tag, at)) = branches.pop() {
                        let snap = sm.wrong(tag);
                        rt.restore(&snap.rat);
                        inflight.truncate(at);
                        // Any tags younger than this one die with it; this
                        // model allocates tags in stack order, so popping
                        // suffices (older tags remain).
                        branches.retain(|(t, _)| t.0 != tag.0);
                    }
                }
                RenOp::Resolve => {
                    if !branches.is_empty() {
                        let (tag, _) = branches.remove(0);
                        sm.correct(tag);
                    }
                }
                RenOp::Flush => {
                    rt.flush_to_committed();
                    sm.flush();
                    inflight.clear();
                    branches.clear();
                }
            });
            // Conservation check: every phys reg is either free or reachable
            // via the speculative RAT or is an in-flight old mapping.
            let mut seen = [false; PHYS];
            for r in 0..32 {
                seen[rt.lookup(Gpr::new(r)).index()] = true;
            }
            for (_, _, old) in &inflight {
                seen[old.index()] = true;
            }
            let mapped = seen.iter().filter(|&&b| b).count();
            assert_eq!(
                rt.free_count() + mapped,
                PHYS,
                "seed {seed}: free {} + mapped {} != {}",
                rt.free_count(),
                mapped,
                PHYS
            );
        }
    }
}

// ---------------------------------------------------------------------------
// LSQ forwarding vs naive model
// ---------------------------------------------------------------------------

/// For one load among a set of older stores with known addresses, the LSQ's
/// issue decision matches a naive youngest-covering-store model.
#[test]
fn lsq_forwarding_matches_naive_model() {
    for seed in 0..300u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let stores: Vec<(u64, u8, u64)> = (0..rng.range_usize(0, 6))
            .map(|_| (rng.below(24), rng.range_i64(1, 3) as u8, rng.next_u64()))
            .collect();
        let ld_off = rng.below(24);
        let ld_sz = rng.range_i64(1, 3) as u8;

        let to_bytes = |c: u8| match c {
            1 => 4u8,
            _ => 8,
        };
        let clk = Clock::new();
        let lsq = Lsq::new(&clk, 4, 8);
        let base = 0x9000u64;
        in_rule(&clk, || {
            // Rename order: the stores first, in order, then the load.
            for (seq, (off, szc, data)) in (0u64..).zip(&stores) {
                let idx = lsq.enq_st(seq, false).unwrap();
                let sz = to_bytes(*szc);
                let addr = base + (off * 4) / u64::from(sz) * u64::from(sz);
                lsq.update_st(idx, Ok(addr), sz, *data, false);
            }
            let lidx = lsq.enq_ld(0, stores.len() as u64, None, false).unwrap();
            let lsz = to_bytes(ld_sz);
            let laddr = base + (ld_off * 4) / u64::from(lsz) * u64::from(lsz);
            lsq.update_ld(lidx, Ok(laddr), lsz, false, false, None);
            let result = lsq.issue_ld(lidx, SbSearch::Miss);

            // Naive model: youngest older store overlapping the load.
            let mut best: Option<(usize, u64, u8, u64)> = None; // (idx, addr, sz, data)
            for (i, (off, szc, data)) in stores.iter().enumerate() {
                let sz = to_bytes(*szc);
                let addr = base + (off * 4) / u64::from(sz) * u64::from(sz);
                let overlap = addr < laddr + u64::from(lsz) && laddr < addr + u64::from(sz);
                if overlap {
                    best = Some((i, addr, sz, *data));
                }
            }
            match best {
                None => assert_eq!(result, LdIssue::ToCache, "seed {seed}"),
                Some((_, sa, ss, data)) => {
                    let covers = sa <= laddr && laddr + u64::from(lsz) <= sa + u64::from(ss);
                    if covers {
                        let shift = 8 * (laddr - sa);
                        let mut v = data >> shift;
                        if lsz < 8 {
                            v &= (1u64 << (8 * lsz)) - 1;
                        }
                        assert_eq!(result, LdIssue::Forward(v), "seed {seed}");
                    } else {
                        assert_eq!(result, LdIssue::Stalled, "seed {seed}");
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// IQ and LSQ vs linear-scan shadow models
// ---------------------------------------------------------------------------
//
// The structures iterate occupancy bit-vectors; the models below are the
// plain "look at every slot" versions of the same interfaces over
// `Vec<Option<Entry>>`. Every rule runs 1–3 random methods on both, is then
// committed or aborted at random (the model by keeping or dropping a
// clone), and after it the structure's snapshot records — every slot in
// slot order, so placement counts, the LSQ's heads and its kill counter —
// must equal the model's, and its masks must equal the ones recomputed
// from its slots.

/// Structure sizes: below, at and past one 64-bit mask word.
const SIZES: [usize; 4] = [3, 16, 64, 80];

/// The record of every cell on `clk`, in adoption order, as a snapshot's
/// cell section frames it.
fn cell_records(clk: &Clock) -> Vec<Vec<u8>> {
    let kernel = |clk: &Clock| {
        let mut w = SnapWriter::new();
        Sim::new(clk.clone(), ())
            .save_kernel(&mut w)
            .expect("no observers");
        w.into_bytes()
    };
    // A clock without cells: the same kernel prefix, then a zero count.
    let prefix = kernel(&Clock::new()).len() - 8;
    let bytes = kernel(clk);
    let mut r = SnapReader::new(&bytes[prefix..]);
    let n = r.u64().expect("cell count");
    (0..n)
        .map(|_| {
            let len = r.len_prefix().expect("frame length");
            r.bytes(len).expect("record").to_vec()
        })
        .collect()
}

/// The records of `s`, one per value.
fn records<T: Snap>(s: &[T]) -> Vec<Vec<u8>> {
    s.iter()
        .map(|v| {
            let mut w = SnapWriter::new();
            v.save(&mut w);
            w.into_bytes()
        })
        .collect()
}

#[derive(Clone)]
struct IqSlot {
    uop: Uop,
    rdy1: bool,
    rdy2: bool,
}

// Same field order as the IQ's own entry, so the bytes line up.
cmd_core::snap_struct!(IqSlot { uop, rdy1, rdy2 });

#[derive(Clone)]
struct IqModel {
    slots: Vec<Option<IqSlot>>,
}

impl IqModel {
    fn enter(&mut self, uop: Uop, rdy1: bool, rdy2: bool) -> Result<(), &'static str> {
        let free = self
            .slots
            .iter()
            .position(Option::is_none)
            .ok_or("iq full")?;
        self.slots[free] = Some(IqSlot { uop, rdy1, rdy2 });
        Ok(())
    }

    fn wakeup(&mut self, dst: PhysReg) {
        if dst == PhysReg::ZERO {
            return;
        }
        for e in self.slots.iter_mut().flatten() {
            e.rdy1 |= e.uop.src1 == dst;
            e.rdy2 |= e.uop.src2 == dst;
        }
    }

    fn issue(&mut self) -> Result<Uop, &'static str> {
        let pick = (0..self.slots.len())
            .filter(|&i| matches!(&self.slots[i], Some(e) if e.rdy1 && e.rdy2))
            .min_by_key(|&i| self.slots[i].as_ref().map(|e| e.uop.seq))
            .ok_or("no ready instruction")?;
        Ok(self.slots[pick].take().expect("picked").uop)
    }

    fn wrong_spec(&mut self, bseq: u64) {
        for s in &mut self.slots {
            if matches!(s, Some(e) if e.uop.seq > bseq) {
                *s = None;
            }
        }
    }

    /// The records of the IQ's cells the model covers: the slots, adopted
    /// first.
    fn records(&self) -> Vec<Vec<u8>> {
        records(&self.slots)
    }
}

#[test]
fn iq_refines_linear_scan_model_through_commits_and_aborts() {
    let mut seen = std::collections::BTreeSet::new();
    for size in SIZES {
        for seed in 0..24u64 {
            let mut rng = SplitMix64::seed_from_u64(seed ^ (size as u64) << 32);
            let clk = Clock::new();
            let iq = IssueQueue::new(&clk, size, 8);
            let mut model = IqModel {
                slots: vec![None; size],
            };
            // Some seeds keep the queue near empty, some drive it full.
            let enter_weight = *rng.pick(&[2, 4, 8]);
            let mut pc = 0u64;
            for rule in 0..60 + 4 * size {
                let ctx = format!("size {size} seed {seed} rule {rule}");
                clk.begin_rule();
                let mut m = model.clone();
                for _ in 0..rng.range_usize(1, 4) {
                    let reg = |rng: &mut SplitMix64| PhysReg(rng.below(8) as u16);
                    match rng.below(enter_weight + 8) {
                        0..=2 => {
                            let dst = reg(&mut rng);
                            iq.wakeup(dst);
                            m.wakeup(dst);
                        }
                        3..=4 => {
                            let got = iq.issue().map_err(|s| s.reason());
                            assert_eq!(got, m.issue(), "{ctx}");
                            seen.insert(got.map_or_else(|stall| stall, |_| "issued"));
                        }
                        5..=6 => {
                            // A branch among the last few renamed.
                            let bseq = (pc / 4).saturating_sub(rng.range_u64(1, 6));
                            iq.wrong_spec(bseq);
                            m.wrong_spec(bseq);
                        }
                        7 if rng.chance(0.2) => {
                            iq.flush();
                            m.slots.fill(None);
                        }
                        _ => {
                            let mut u = uop(pc, pc / 4);
                            pc += 4;
                            (u.src1, u.src2) = (reg(&mut rng), reg(&mut rng));
                            let (r1, r2) = (rng.chance(0.5), rng.chance(0.5));
                            let can = iq.can_enter().map_err(|s| s.reason());
                            let got = iq.enter(u, r1, r2).map_err(|s| s.reason());
                            assert_eq!(can, got, "{ctx}: the twin disagrees with enter");
                            assert_eq!(got, m.enter(u, r1, r2), "{ctx}");
                            seen.extend(got.err());
                        }
                    }
                }
                if rng.chance(0.7) {
                    clk.commit_rule();
                    model = m;
                } else {
                    clk.abort_rule();
                }
                assert!(iq.masks_consistent(), "{ctx}");
                let cells = cell_records(&clk);
                assert_eq!(cells[..size], model.records(), "{ctx}");
                let live = model.slots.iter().flatten().count();
                assert_eq!(iq.len(), live, "{ctx}");
                if live > 64 {
                    seen.insert("past one word");
                }
            }
        }
    }
    for path in ["iq full", "no ready instruction", "issued", "past one word"] {
        assert!(seen.contains(path), "never reached: {path}");
    }
}

/// A rule asleep on `issue()`'s stall watches the `ready` word, not the
/// slots: a wakeup that readies one source of two leaves it asleep, the one
/// that readies the last source wakes it in the same cycle.
#[test]
fn a_half_readying_wakeup_does_not_wake_a_rule_asleep_on_issue() {
    struct St {
        clk: Clock,
        iq: IssueQueue,
        wakeups: Vec<(u64, PhysReg)>,
        issued_at: Vec<u64>,
    }
    let clk = Clock::new();
    let iq = IssueQueue::new(&clk, 16, 8);
    let mut u = uop(0, 0);
    (u.src1, u.src2) = (PhysReg(5), PhysReg(6));
    iq.enter(u, false, false).expect("empty queue");
    let st = St {
        clk: clk.clone(),
        iq,
        wakeups: vec![(3, PhysReg(5)), (6, PhysReg(6))],
        issued_at: Vec::new(),
    };
    let mut sim = Sim::new(clk, st);
    sim.rule("wake", |s: &mut St| {
        let now = s.clk.cycle();
        let &(_, dst) = s
            .wakeups
            .iter()
            .find(|(at, _)| *at == now)
            .ok_or(Stall::new("nothing to wake"))?;
        s.iq.wakeup(dst);
        Ok(())
    });
    let issue = sim.rule("issue", |s: &mut St| {
        s.iq.issue()?;
        s.issued_at.push(s.clk.cycle());
        Ok(())
    });
    sim.set_wakeup(issue, Wakeup::Inferred);
    sim.enable_profiling();
    let evals = |sim: &Sim<St>| {
        let p = sim.profiler().expect("enabled").rule(issue.index());
        (p.evals, p.skipped)
    };
    sim.run(3);
    assert_eq!(evals(&sim), (1, 2), "stalled once at cycle 0, then asleep");
    sim.run(3);
    assert_eq!(
        evals(&sim),
        (1, 5),
        "the cycle-3 wakeup readied one source of two: still asleep"
    );
    sim.run(1);
    assert_eq!(evals(&sim), (2, 5), "the cycle-6 wakeup set a ready bit");
    assert_eq!(sim.state().issued_at, vec![6], "and it issued that cycle");
    assert_eq!(sim.rule_stats(issue).fired, 1);
    assert_eq!(
        sim.rule_stats(issue).guard_stalls,
        6,
        "one per stalled cycle"
    );
}

/// Linear-scan LSQ over plain vectors: the structure as it was before it
/// had occupancy masks, minus the cells.
#[derive(Clone)]
struct LsqModel {
    lq: Vec<Option<LqEntry>>,
    sq: Vec<Option<SqEntry>>,
    evict_kills: u64,
}

fn overlaps(a1: u64, n1: u8, a2: u64, n2: u8) -> bool {
    a1 < a2 + u64::from(n2) && a2 < a1 + u64::from(n1)
}

impl LsqModel {
    fn enq_ld(&mut self, rob: u16, seq: u64, atomic_class: bool) -> Result<u16, &'static str> {
        let free = self.lq.iter().position(Option::is_none).ok_or("lq full")?;
        self.lq[free] = Some(LqEntry {
            rob,
            seq,
            dst: None,
            bytes: 0,
            signed: false,
            addr: None,
            mmio: false,
            atomic: None,
            atomic_class,
            state: LdState::WaitAddr,
            stall: None,
            fwd_src: FwdSrc::Cache,
            fault: None,
            killed: false,
            wb_done: false,
            zombie: false,
        });
        Ok(free as u16)
    }

    fn enq_st(&mut self, seq: u64, is_fence: bool) -> Result<u16, &'static str> {
        let free = self.sq.iter().position(Option::is_none).ok_or("sq full")?;
        self.sq[free] = Some(SqEntry {
            seq,
            bytes: 0,
            addr: None,
            data: None,
            mmio: false,
            is_fence,
            faulted: false,
            committed: false,
            issued: false,
        });
        Ok(free as u16)
    }

    fn update_ld(
        &mut self,
        idx: u16,
        addr: Result<u64, (Exception, u64)>,
        bytes: u8,
        mmio: bool,
        atomic: Option<AtomicOp>,
    ) {
        let e = self.lq[idx as usize].as_mut().expect("live LQ index");
        (e.bytes, e.mmio, e.atomic) = (bytes, mmio, atomic);
        match addr {
            Ok(pa) => {
                e.addr = Some(pa);
                e.state = if mmio || atomic.is_some() {
                    LdState::Stalled
                } else {
                    LdState::Ready
                };
            }
            Err(f) => {
                e.fault = Some(f);
                e.state = LdState::Done;
            }
        }
    }

    fn update_st(&mut self, idx: u16, addr: Result<u64, (Exception, u64)>, bytes: u8, data: u64) {
        let e = self.sq[idx as usize].as_mut().expect("live SQ index");
        e.bytes = bytes;
        let seq = e.seq;
        let Ok(pa) = addr else {
            e.faulted = true;
            return;
        };
        (e.addr, e.data) = (Some(pa), Some(data));
        for l in self.lq.iter_mut().flatten() {
            if !l.zombie
                && l.seq > seq
                && l.addr.is_some_and(|la| overlaps(la, l.bytes, pa, bytes))
                && matches!(l.state, LdState::Issued | LdState::Done)
                && !matches!(l.fwd_src, FwdSrc::Store(s) if s >= seq)
            {
                l.killed = true;
            }
        }
    }

    fn get_issue_ld(&mut self) -> Result<(u16, u64, u8), &'static str> {
        let oldest_fence = self
            .sq
            .iter()
            .flatten()
            .filter(|e| e.is_fence)
            .map(|e| e.seq)
            .min();
        let oldest_atomic = self
            .lq
            .iter()
            .flatten()
            .filter(|e| !e.zombie && (e.atomic_class || e.mmio) && e.state != LdState::Done)
            .map(|e| e.seq)
            .min();
        let pick = (0..self.lq.len())
            .filter(|&i| {
                matches!(&self.lq[i], Some(e) if !e.zombie
                    && e.state == LdState::Ready
                    && !e.killed
                    && !e.atomic_class
                    && !e.mmio
                    && oldest_atomic.is_none_or(|a| e.seq < a))
            })
            .min_by_key(|&i| self.lq[i].map(|e| e.seq))
            .ok_or("no ready load")?;
        let e = self.lq[pick].as_mut().expect("picked");
        if let Some(f) = oldest_fence.filter(|&f| f < e.seq) {
            e.state = LdState::Stalled;
            e.stall = Some(StallSrc::Fence(f));
            return Err("load blocked by fence");
        }
        Ok((pick as u16, e.addr.expect("ready implies addr"), e.bytes))
    }

    fn issue_ld(&mut self, idx: u16, sb: SbSearch) -> LdIssue {
        let ld = self.lq[idx as usize].expect("live LQ index");
        let (la, lb) = (ld.addr.expect("addr known"), ld.bytes);
        let best = self
            .sq
            .iter()
            .flatten()
            .filter(|s| !s.is_fence && !s.faulted && s.seq < ld.seq)
            .filter(|s| s.addr.is_some_and(|sa| overlaps(la, lb, sa, s.bytes)))
            .max_by_key(|s| s.seq)
            .copied();
        let e = self.lq[idx as usize].as_mut().expect("live LQ index");
        let mut bind = |v: u64, src: FwdSrc| {
            (e.state, e.fwd_src) = (LdState::Done, src);
            LdIssue::Forward(v)
        };
        match (best, sb) {
            (Some(s), _) => {
                let sa = s.addr.expect("matched");
                if sa <= la && la + u64::from(lb) <= sa + u64::from(s.bytes) {
                    let v = s.data.expect("data set with addr") >> (8 * (la - sa));
                    bind(
                        if lb == 8 {
                            v
                        } else {
                            v & ((1 << (8 * lb)) - 1)
                        },
                        FwdSrc::Store(s.seq),
                    )
                } else {
                    (e.state, e.stall) = (LdState::Stalled, Some(StallSrc::SqPartial(s.seq)));
                    LdIssue::Stalled
                }
            }
            (None, SbSearch::Forward(v)) => bind(v, FwdSrc::StoreBuffer),
            (None, SbSearch::Partial(i)) => {
                (e.state, e.stall) = (LdState::Stalled, Some(StallSrc::SbEntry(i)));
                LdIssue::Stalled
            }
            (None, SbSearch::Miss) => {
                e.state = LdState::Issued;
                LdIssue::ToCache
            }
        }
    }

    fn resp_ld(&mut self, idx: u16) -> bool {
        let slot = &mut self.lq[idx as usize];
        match slot {
            None => true,
            Some(e) if e.zombie => {
                *slot = None;
                true
            }
            Some(e) => {
                e.state = LdState::Done;
                false
            }
        }
    }

    fn wakeup_where(&mut self, pred: impl Fn(&StallSrc) -> bool) {
        for e in self.lq.iter_mut().flatten() {
            if e.state == LdState::Stalled && !e.zombie && e.stall.as_ref().is_some_and(&pred) {
                (e.stall, e.state) = (None, LdState::Ready);
            }
        }
    }

    fn cache_evict(&mut self, line: u64) {
        for e in self.lq.iter_mut().flatten() {
            if !e.zombie
                && !e.killed
                && e.addr.is_some_and(|a| line_of(a) == line)
                && matches!(e.state, LdState::Issued | LdState::Done)
                && e.fwd_src == FwdSrc::Cache
            {
                e.killed = true;
                self.evict_kills += 1;
            }
        }
    }

    fn oldest_lq(&self) -> Option<usize> {
        (0..self.lq.len())
            .filter(|&i| matches!(&self.lq[i], Some(e) if !e.zombie))
            .min_by_key(|&i| self.lq[i].map(|e| e.seq))
    }

    fn oldest_sq(&self) -> Option<usize> {
        (0..self.sq.len())
            .filter(|&i| self.sq[i].is_some())
            .min_by_key(|&i| self.sq[i].map(|e| e.seq))
    }

    fn older_store_addr_unknown(&self, seq: u64) -> bool {
        self.sq
            .iter()
            .flatten()
            .any(|e| e.seq < seq && !e.is_fence && !e.faulted && e.addr.is_none())
    }

    fn deq_st(&mut self) -> SqEntry {
        let i = self.oldest_sq().expect("deqSt on empty SQ");
        let e = self.sq[i].take().expect("oldest");
        if e.is_fence {
            self.wakeup_where(|s| *s == StallSrc::Fence(e.seq));
        } else {
            self.wakeup_where(|s| *s == StallSrc::SqPartial(e.seq));
        }
        e
    }

    fn squash(&mut self, ld: impl Fn(&LqEntry) -> bool, st: impl Fn(&SqEntry) -> bool) {
        for s in &mut self.lq {
            match s {
                Some(e) if e.zombie || !ld(e) => {}
                Some(e) if e.state == LdState::Issued => e.zombie = true,
                _ => *s = None,
            }
        }
        for s in &mut self.sq {
            if s.as_ref().is_some_and(&st) {
                *s = None;
            }
        }
    }

    /// The records of the LSQ's cells the model covers: the LQ and SQ
    /// slots, adopted first, and the two heads and the kill counter,
    /// adopted last.
    fn records(&self) -> Vec<Vec<u8>> {
        let slot = |i: Option<usize>| i.map(|i| i as u16);
        let heads = records(&[slot(self.oldest_lq()), slot(self.oldest_sq())]);
        let counters = records(&[self.evict_kills]);
        [records(&self.lq), records(&self.sq), heads, counters].concat()
    }
}

/// Slots of `v` whose entry satisfies `pred`.
fn slots_where<T>(v: &[Option<T>], pred: impl Fn(&T) -> bool) -> Vec<u16> {
    (0..v.len())
        .filter(|&i| v[i].as_ref().is_some_and(&pred))
        .map(|i| i as u16)
        .collect()
}

#[test]
fn lsq_refines_linear_scan_model_through_commits_and_aborts() {
    const BASE: u64 = 0x8000_0000;
    // What the random sequences reached, checked at the end so a change to
    // the generator cannot silently stop exercising a path.
    let mut seen = std::collections::BTreeSet::new();
    for size in SIZES {
        for seed in 0..16u64 {
            let mut rng = SplitMix64::seed_from_u64(seed ^ (size as u64) << 32);
            let clk = Clock::new();
            let lsq = Lsq::new(&clk, size, size);
            let mut model = LsqModel {
                lq: vec![None; size],
                sq: vec![None; size],
                evict_kills: 0,
            };
            // Some seeds keep the queues near empty, some drive them full.
            let enq_weight = *rng.pick(&[3, 6, 12]);
            // Rename order of the next enq: every attempt takes one, an
            // aborted rule's included, so the numbers only ever grow.
            let mut next_seq = 0u64;
            for rule in 0..80 + 6 * size {
                let ctx = format!("size {size} seed {seed} rule {rule}");
                clk.begin_rule();
                let mut m = model.clone();
                for _ in 0..rng.range_usize(1, 4) {
                    // Three lines, 4- or 8-byte accesses at matching
                    // alignment: overlaps, covers and partial overlaps.
                    let bytes = *rng.pick(&[4u8, 8]);
                    let addr = BASE + 64 * rng.below(3) + u64::from(bytes) * rng.below(3);
                    let fault = Err((Exception::LoadPageFault, addr));
                    match rng.below(enq_weight + 13) {
                        0 => {
                            let waiting =
                                slots_where(&m.lq, |e| !e.zombie && e.state == LdState::WaitAddr);
                            if waiting.is_empty() {
                                continue;
                            }
                            let idx = *rng.pick(&waiting);
                            let class = m.lq[idx as usize].expect("picked").atomic_class;
                            let atomic = class.then_some(AtomicOp::Lr);
                            let mmio = !class && rng.chance(0.1);
                            let res = if rng.chance(0.05) { fault } else { Ok(addr) };
                            lsq.update_ld(idx, res, bytes, false, mmio, atomic);
                            m.update_ld(idx, res, bytes, mmio, atomic);
                        }
                        1 => {
                            let waiting = slots_where(&m.sq, |e| {
                                !e.is_fence && !e.faulted && e.addr.is_none()
                            });
                            if waiting.is_empty() {
                                continue;
                            }
                            let idx = *rng.pick(&waiting);
                            let res = if rng.chance(0.05) { fault } else { Ok(addr) };
                            let data = rng.next_u64();
                            lsq.update_st(idx, res, bytes, data, false);
                            m.update_st(idx, res, bytes, data);
                        }
                        2..=4 => {
                            let got = lsq.get_issue_ld().map_err(|s| s.reason());
                            assert_eq!(got, m.get_issue_ld(), "{ctx}");
                            seen.extend(got.err());
                            if let Ok((idx, _, _)) = got {
                                let sb = match rng.below(8) {
                                    0 => SbSearch::Forward(rng.next_u64()),
                                    1 => SbSearch::Partial(rng.below(2) as usize),
                                    _ => SbSearch::Miss,
                                };
                                let issued = lsq.issue_ld(idx, sb);
                                assert_eq!(issued, m.issue_ld(idx, sb), "{ctx}");
                                seen.insert(match issued {
                                    LdIssue::Forward(_) => "forwarded",
                                    LdIssue::ToCache => "to cache",
                                    LdIssue::Stalled => "stalled on a store",
                                });
                            }
                        }
                        5 => {
                            // A response for an in-flight load (zombies
                            // included), now and then for an empty slot.
                            let mut slots = slots_where(&m.lq, |e| e.state == LdState::Issued);
                            if rng.chance(0.1) {
                                slots.extend(
                                    m.lq.iter().position(Option::is_none).map(|i| i as u16),
                                );
                            }
                            if slots.is_empty() {
                                continue;
                            }
                            let idx = *rng.pick(&slots);
                            assert_eq!(lsq.resp_ld(idx), m.resp_ld(idx), "{ctx}");
                        }
                        6 => {
                            let got = lsq.first_ld().map_err(|s| s.reason());
                            let want = m.oldest_lq().ok_or("lq empty");
                            assert_eq!(got.map(|(i, _)| i as usize), want, "{ctx}");
                            let Ok(i) = want else { continue };
                            let seq = m.lq[i].expect("oldest").seq;
                            assert_eq!(
                                lsq.older_store_addr_unknown(seq),
                                m.older_store_addr_unknown(seq),
                                "{ctx}"
                            );
                            assert_eq!(lsq.deq_ld().seq, seq, "{ctx}");
                            m.lq[i] = None;
                        }
                        7 => {
                            let got = lsq.first_st().map_err(|s| s.reason());
                            let want = m.oldest_sq().ok_or("sq empty");
                            assert_eq!(got.map(|(i, _)| i as usize), want, "{ctx}");
                            if want.is_ok() {
                                assert_eq!(lsq.deq_st().seq, m.deq_st().seq, "{ctx}");
                            }
                        }
                        8 => {
                            let live = slots_where(&m.sq, |_| true);
                            if live.is_empty() {
                                continue;
                            }
                            let idx = *rng.pick(&live);
                            lsq.set_at_commit_st(idx);
                            m.sq[idx as usize].as_mut().expect("live").committed = true;
                        }
                        9 => {
                            lsq.cache_evict(line_of(addr));
                            m.cache_evict(line_of(addr));
                        }
                        10 => {
                            let i = rng.below(2) as usize;
                            lsq.wakeup_by_sb_deq(i);
                            m.wakeup_where(|s| *s == StallSrc::SbEntry(i));
                        }
                        11 => {
                            // A branch among the last few renamed; zombies
                            // stay, as do committed stores renamed before it.
                            let bseq = next_seq.saturating_sub(rng.range_u64(1, 6));
                            lsq.wrong_spec(bseq);
                            m.squash(|e| e.seq > bseq, |e| e.seq > bseq);
                        }
                        12 => {
                            if rng.chance(0.3) {
                                lsq.flush_speculative();
                                m.squash(|_| true, |e| !e.committed);
                            }
                        }
                        _ => {
                            let rob = rule as u16;
                            let seq = next_seq;
                            next_seq += 1;
                            if rng.chance(0.6) {
                                let class = rng.chance(0.1);
                                let can = lsq.can_enq_ld().map_err(|s| s.reason());
                                let got = lsq.enq_ld(rob, seq, None, class).map_err(|s| s.reason());
                                assert_eq!(can, got.map(drop), "{ctx}: the twin disagrees");
                                assert_eq!(got, m.enq_ld(rob, seq, class), "{ctx}");
                                seen.extend(got.err());
                            } else {
                                let fence = rng.chance(0.1);
                                let can = lsq.can_enq_st().map_err(|s| s.reason());
                                let got = lsq.enq_st(seq, fence).map_err(|s| s.reason());
                                assert_eq!(can, got.map(drop), "{ctx}: the twin disagrees");
                                assert_eq!(got, m.enq_st(seq, fence), "{ctx}");
                                seen.extend(got.err());
                            }
                        }
                    }
                }
                if rng.chance(0.7) {
                    clk.commit_rule();
                    model = m;
                } else {
                    clk.abort_rule();
                }
                assert!(lsq.masks_consistent(), "{ctx}");
                // The heads are a min-seq scan of the model, whatever
                // zombies, kills and aborts happened on the way.
                let first = |f: Result<u16, Stall>| f.ok().map(usize::from);
                assert_eq!(
                    first(lsq.first_ld().map(|(i, _)| i)),
                    model.oldest_lq(),
                    "{ctx}"
                );
                assert_eq!(
                    first(lsq.first_st().map(|(i, _)| i)),
                    model.oldest_sq(),
                    "{ctx}"
                );
                let cells = cell_records(&clk);
                let covered = [&cells[..2 * size], &cells[cells.len() - 3..]].concat();
                assert_eq!(covered, model.records(), "{ctx}");
                let live = slots_where(&model.lq, |_| true).len();
                let zombies = slots_where(&model.lq, |e| e.zombie).len();
                if zombies > 0 {
                    seen.insert("zombie");
                }
                if model.lq.iter().flatten().any(|e| e.killed) {
                    seen.insert("killed");
                }
                if live > 64 {
                    seen.insert("past one word");
                }
                assert_eq!(lsq.lq_len(), live - zombies, "{ctx}");
                assert_eq!(
                    lsq.sq_len(),
                    slots_where(&model.sq, |_| true).len(),
                    "{ctx}"
                );
                assert_eq!(
                    lsq.is_empty(),
                    live == 0 && model.sq.iter().all(Option::is_none),
                    "{ctx}"
                );
            }
        }
    }
    for path in [
        "lq full",
        "sq full",
        "no ready load",
        "load blocked by fence",
        "forwarded",
        "to cache",
        "stalled on a store",
        "zombie",
        "killed",
        "past one word",
    ] {
        assert!(seen.contains(path), "never reached: {path}");
    }
}

/// `TlbHier::next_event`: while it lies ahead, a tick leaves every byte of
/// the hierarchy as it was — parked misses wait out their L2 TLB lookup and
/// their PTE loads without touching anything — which is what lets the SoC
/// jump its clock over a page walk. Random D and I misses on the blocking
/// and non-blocking configurations, PTE loads answered after random delays.
#[test]
fn tlb_ticks_before_the_next_event_change_nothing() {
    use riscy_isa::csr::Priv;
    use riscy_isa::vm::{make_leaf, make_pointer, pte, Access, SATP_MODE_SV39};
    use riscy_mem::l2::UncachedResp;
    use riscy_ooo::config::TlbConfig;
    use riscy_ooo::tlbport::TlbHier;

    let bytes = |h: &TlbHier| {
        let mut w = SnapWriter::new();
        h.snap_save(&mut w);
        w.into_bytes()
    };
    // Sixteen mapped 4 KiB pages; the next sixteen fault.
    let rwx = pte::R | pte::W | pte::X | pte::A | pte::D;
    let mut ptes = std::collections::HashMap::new();
    ptes.insert(1u64 << 12, make_pointer(2));
    ptes.insert(2u64 << 12, make_pointer(3));
    for i in 0..16u64 {
        ptes.insert((3u64 << 12) + i * 8, make_leaf(0x100 + i, rwx));
    }
    let satp = (SATP_MODE_SV39 << 60) | 1;
    for seed in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let cfg = if seed % 2 == 0 {
            TlbConfig::nonblocking()
        } else {
            TlbConfig::blocking()
        };
        let mut h = TlbHier::new(0, cfg);
        let mut in_flight: Vec<(u64, UncachedResp)> = Vec::new();
        let (mut id, mut quiet) = (0, 0);
        for now in 0..1500u64 {
            let va = (rng.below(32) << 12) | (rng.below(4096) & !7);
            if rng.chance(0.05) && h.can_park_d() {
                id += 1;
                h.request_d(now, id, va, Access::Load, Priv::S);
            }
            if rng.chance(0.02) && !h.i_miss_pending() {
                id += 1;
                h.request_i(now, id, va, Priv::S);
            }
            for req in h.drain_walker_reqs() {
                let data = ptes.get(&req.addr).copied().unwrap_or(0);
                let at = now + rng.range_u64(1, 40);
                in_flight.push((at, UncachedResp { tag: req.tag, data }));
            }
            in_flight.retain(|&(at, r)| {
                if at <= now {
                    h.push_walker_resp(r);
                }
                at > now
            });
            if rng.chance(0.5) {
                while h.pop_d_resp().is_some() {}
            }
            if h.next_event(now) > now {
                quiet += 1;
                let before = bytes(&h);
                h.tick(now, satp);
                assert!(
                    bytes(&h) == before,
                    "seed {seed} cycle {now}: a quiet tick changed the TLBs"
                );
            } else {
                h.tick(now, satp);
            }
        }
        assert!(quiet > 100, "seed {seed}: {quiet} quiet ticks");
    }
}
