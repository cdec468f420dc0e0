//! Property-style tests of the core's bookkeeping invariants: ROB
//! suffix-kill correctness, physical-register conservation under
//! speculation, and LSQ forwarding against a naive model — randomized with
//! the in-tree deterministic PRNG (each case reproduces from its seed).

use cmd_core::clock::Clock;
use cmd_core::rng::SplitMix64;
use riscy_isa::reg::Gpr;
use riscy_ooo::config::BpConfig;
use riscy_ooo::frontend::{Ras, Tournament};
use riscy_ooo::lsq::{LdIssue, Lsq};
use riscy_ooo::rename::{RenameTable, SpecManager, SpecSnapshot};
use riscy_ooo::rob::{Rob, RobEntry};
use riscy_ooo::sb::SbSearch;
use riscy_ooo::types::{PhysReg, SpecMask, SpecTag, Uop};

fn in_rule<R>(clk: &Clock, f: impl FnOnce() -> R) -> R {
    clk.begin_rule();
    let r = f();
    clk.commit_rule();
    r
}

fn uop(pc: u64, mask: SpecMask) -> Uop {
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
        mask,
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
    Enq(bool), // carries the speculative tag?
    Deq,
    WrongSpec,
    CorrectSpec,
}

fn rob_op(rng: &mut SplitMix64) -> RobOp {
    match rng.below(4) {
        0 => RobOp::Enq(rng.chance(0.5)),
        1 => RobOp::Deq,
        2 => RobOp::WrongSpec,
        _ => RobOp::CorrectSpec,
    }
}

/// The ROB behaves as a FIFO whose `wrongSpec` removes exactly the tagged
/// suffix, against a Vec model, for any operation sequence.
#[test]
fn rob_refines_model() {
    for seed in 0..150u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let ops: Vec<RobOp> = (0..rng.range_usize(1, 80))
            .map(|_| rob_op(&mut rng))
            .collect();

        let clk = Clock::new();
        let rob = Rob::new(&clk, 16);
        let tag = SpecTag(3);
        let mut model: Vec<(u64, bool)> = Vec::new(); // (pc, tagged)
        let mut next_pc = 0u64;
        for op in ops {
            match op {
                RobOp::Enq(tagged) => in_rule(&clk, || {
                    // Rename discipline: anything younger than an
                    // unresolved branch carries its mask, so tagged entries
                    // always form a suffix.
                    let tagged = tagged || model.last().is_some_and(|(_, t)| *t);
                    let mask = if tagged {
                        SpecMask::EMPTY.with(tag)
                    } else {
                        SpecMask::EMPTY
                    };
                    if model.len() < 16 {
                        rob.enq(RobEntry::new(uop(next_pc, mask))).unwrap();
                        model.push((next_pc, tagged));
                    } else {
                        assert!(rob.enq(RobEntry::new(uop(next_pc, mask))).is_err());
                    }
                    next_pc += 4;
                }),
                RobOp::Deq => in_rule(&clk, || {
                    if model.is_empty() {
                        assert!(rob.deq().is_err());
                    } else {
                        let e = rob.deq().unwrap();
                        let (pc, _) = model.remove(0);
                        assert_eq!(e.uop.pc, pc, "seed {seed}");
                    }
                }),
                RobOp::WrongSpec => in_rule(&clk, || {
                    rob.wrong_spec(tag);
                    while model.last().is_some_and(|(_, t)| *t) {
                        model.pop();
                    }
                }),
                RobOp::CorrectSpec => in_rule(&clk, || {
                    rob.correct_spec(tag);
                    for e in &mut model {
                        e.1 = false;
                    }
                }),
            }
            assert_eq!(rob.len(), model.len(), "seed {seed}");
        }
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
                        mask: SpecMask::EMPTY,
                    };
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
            for (off, szc, data) in &stores {
                let idx = lsq.enq_st(0, SpecMask::EMPTY, false).unwrap();
                let sz = to_bytes(*szc);
                let addr = base + (off * 4) / u64::from(sz) * u64::from(sz);
                lsq.update_st(idx, Ok(addr), sz, *data, false);
            }
            let lidx = lsq.enq_ld(0, SpecMask::EMPTY, None, false).unwrap();
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
