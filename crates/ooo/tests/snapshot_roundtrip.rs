//! Checkpoint round-trip determinism (see `docs/CHECKPOINT.md`): saving a
//! mid-run snapshot and resuming it in a freshly built [`SocSim`] must be
//! observably identical to the uninterrupted run — same cycle count, same
//! [`CoreStats`], same exit codes, and (the
//! strongest form) byte-identical final snapshots — under every
//! [`SchedulerMode`]. Malformed snapshots (version skew, truncation, wrong
//! configuration, flipped bytes in any section) must surface structured
//! [`SnapError`]s, never panics, or else be snapshots that re-save to
//! exactly themselves; attached observers (tracer, pipe trace, profiler,
//! chaos) must refuse to snapshot.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cmd_core::cell::Ehr;
use cmd_core::chaos::{FaultEngine, FaultPlan};
use cmd_core::rng::SplitMix64;
use cmd_core::sched::SchedulerMode;
use cmd_core::sim::SimError;
use cmd_core::snap::{Snap, SnapError, SnapReader, SnapWriter, Snapshot};
use riscy_isa::asm::{Assembler, Program};
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_mem::msg::CoreReq;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::{CoreStats, SocSim};

const BUDGET: u64 = 2_000_000;
/// Cycle at which the mid-run snapshot is taken (inside the main loop:
/// ROB/IQ/LSQ/caches all hold live state).
const SNAP_AT: u64 = 2_000;

/// A load/store/branch-heavy loop (same shape as the scheduler-equivalence
/// suite): touches the D$, the store buffer, and the branch predictor so a
/// mid-run snapshot captures non-trivial state in every module.
fn busy_prog(iters: i64) -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    let buf = (DRAM_BASE + 0x1_0000) as i64;
    a.li(Gpr::s(0), buf);
    a.li(Gpr::s(1), iters);
    a.li(Gpr::s(2), 0);
    a.label("loop");
    a.andi(Gpr::t(0), Gpr::s(1), 63);
    a.slli(Gpr::t(0), Gpr::t(0), 3);
    a.add(Gpr::t(0), Gpr::t(0), Gpr::s(0));
    a.ld(Gpr::t(1), 0, Gpr::t(0));
    a.add(Gpr::s(2), Gpr::s(2), Gpr::t(1));
    a.sd(Gpr::s(1), 0, Gpr::t(0));
    a.addi(Gpr::s(1), Gpr::s(1), -1);
    a.bnez(Gpr::s(1), "loop");
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.li(Gpr::t(5), 7);
    a.sd(Gpr::t(5), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

/// An AMO loop with per-hart exits for the multicore round-trip.
fn multicore_prog(iters: i64) -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    let ctr = (DRAM_BASE + 0x2_0000) as i64;
    a.li(Gpr::t(0), ctr);
    a.li(Gpr::t(1), iters);
    a.label("loop");
    a.li(Gpr::t(2), 1);
    a.amoadd_d(Gpr::ZERO, Gpr::t(2), Gpr::t(0));
    a.addi(Gpr::t(1), Gpr::t(1), -1);
    a.bnez(Gpr::t(1), "loop");
    a.csrr(Gpr::t(3), riscy_isa::csr::addr::MHARTID);
    a.slli(Gpr::t(3), Gpr::t(3), 3);
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.add(Gpr::t(6), Gpr::t(6), Gpr::t(3));
    a.li(Gpr::t(5), 1);
    a.sd(Gpr::t(5), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

fn build(prog: &Program, num_cores: usize, mode: SchedulerMode) -> SocSim {
    let cfg = if num_cores > 1 {
        CoreConfig::multicore(MemModel::Tso)
    } else {
        CoreConfig::riscyoo_t_plus()
    };
    let mut sim = SocSim::new(cfg, mem_riscyoo_b(), num_cores, prog);
    sim.set_scheduler(mode);
    sim
}

/// Everything observable about a finished run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    stats: Vec<CoreStats>,
    exited: Vec<Option<u64>>,
    /// The final snapshot: byte-equality here subsumes equality of every
    /// serialized register, cache line, and kernel statistic (the rule
    /// table included).
    final_snap: Vec<u8>,
}

fn finish(mut sim: SocSim) -> Outcome {
    sim.run_to_completion(BUDGET).expect("run completes");
    let final_snap = sim.save_snapshot().expect("final snapshot");
    Outcome {
        cycles: sim.cycles(),
        stats: sim.soc().cores.iter().map(|c| c.stats).collect(),
        exited: sim.exit_codes(),
        final_snap,
    }
}

/// Runs to `SNAP_AT`, snapshots, and returns (snapshot, uninterrupted
/// outcome); the caller resumes the snapshot in a fresh sim and compares.
fn snap_and_finish(prog: &Program, num_cores: usize, mode: SchedulerMode) -> (Vec<u8>, Outcome) {
    let mut sim = build(prog, num_cores, mode);
    for _ in 0..SNAP_AT {
        sim.cycle();
    }
    assert!(
        !sim.soc().all_exited(),
        "snapshot point must be mid-run; shorten SNAP_AT or lengthen the program"
    );
    let snap = sim.save_snapshot().expect("mid-run snapshot");
    (snap, finish(sim))
}

fn assert_roundtrip(prog: &Program, num_cores: usize, mode: SchedulerMode) {
    let (snap, uninterrupted) = snap_and_finish(prog, num_cores, mode);
    let mut resumed = build(prog, num_cores, mode);
    resumed.restore_snapshot(&snap).expect("restore");
    assert_eq!(
        resumed.cycles(),
        SNAP_AT,
        "{mode:?}: restored cycle counter"
    );
    let resumed = finish(resumed);
    assert_eq!(
        resumed, uninterrupted,
        "{mode:?}: resumed run diverged from the uninterrupted run"
    );
}

#[test]
fn roundtrip_reference() {
    assert_roundtrip(&busy_prog(300), 1, SchedulerMode::Reference);
}

#[test]
fn roundtrip_fast() {
    assert_roundtrip(&busy_prog(300), 1, SchedulerMode::Fast);
}

#[test]
fn roundtrip_two_cores() {
    assert_roundtrip(&multicore_prog(400), 2, SchedulerMode::Fast);
}

/// A snapshot restored under a *different* scheduler mode still produces
/// the observably-identical run: scheduling is observation-invariant, so a
/// checkpoint is portable across modes (the fleet runner relies on this).
/// The mid-run snapshots themselves are byte-identical across modes — the
/// strongest single cross-mode assertion (see `docs/CHECKPOINT.md`).
#[test]
fn roundtrip_across_modes() {
    let prog = busy_prog(300);
    let mut mid_run = Vec::new();
    for (saved_under, resumed_under) in [
        (SchedulerMode::Reference, SchedulerMode::Fast),
        (SchedulerMode::Fast, SchedulerMode::Reference),
    ] {
        let (snap, uninterrupted) = snap_and_finish(&prog, 1, saved_under);
        let mut resumed = build(&prog, 1, resumed_under);
        resumed.restore_snapshot(&snap).expect("restore");
        assert_eq!(
            finish(resumed),
            uninterrupted,
            "{saved_under:?} -> {resumed_under:?}: cross-mode resume diverged"
        );
        mid_run.push(snap);
    }
    assert!(
        mid_run[0] == mid_run[1],
        "mid-run snapshot bytes differ between Reference and Fast"
    );
}

/// Saving the same state twice yields identical bytes, and a
/// save→restore→save cycle is byte-stable.
#[test]
fn snapshot_bytes_are_stable() {
    let prog = busy_prog(300);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..SNAP_AT {
        sim.cycle();
    }
    let a = sim.save_snapshot().expect("first save");
    let b = sim.save_snapshot().expect("second save");
    assert_eq!(a, b, "re-saving unchanged state must be byte-identical");
    let mut fresh = build(&prog, 1, SchedulerMode::Fast);
    fresh.restore_snapshot(&a).expect("restore");
    let c = fresh.save_snapshot().expect("save after restore");
    assert_eq!(a, c, "save→restore→save must be byte-identical");
}

#[test]
fn version_skew_is_a_structured_error() {
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..200 {
        sim.cycle();
    }
    let mut snap = sim.save_snapshot().expect("snapshot");
    // The u32 after the magic is the format version. Skew it both ways: a
    // future format, and v9 — the last format without the I-side walk
    // fault cells, so a v9 body must never reach the v10 reader.
    let current = u32::from_le_bytes(snap[4..8].try_into().unwrap());
    assert_eq!(current, 10, "layout changes bump SOC_SNAP_VERSION");
    for skewed in [current + 1, 9] {
        snap[4..8].copy_from_slice(&skewed.to_le_bytes());
        let mut fresh = build(&prog, 1, SchedulerMode::Fast);
        match fresh.restore_snapshot(&snap) {
            Err(SimError::Snapshot(SnapError::VersionMismatch { found, expected })) => {
                assert_eq!(found, skewed);
                assert_eq!(expected, riscy_ooo::soc::SOC_SNAP_VERSION);
            }
            other => panic!("expected a version mismatch, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_a_structured_error() {
    let prog = busy_prog(100);
    let mut fresh = build(&prog, 1, SchedulerMode::Fast);
    let garbage = b"not a snapshot at all, sorry".to_vec();
    assert_eq!(
        fresh.restore_snapshot(&garbage),
        Err(SimError::Snapshot(SnapError::BadMagic))
    );
}

/// A simulation `cycles` cycles in, and its snapshot.
fn mid_run(prog: &Program, num_cores: usize, cycles: u64) -> (SocSim, Vec<u8>) {
    let mut sim = build(prog, num_cores, SchedulerMode::Fast);
    for _ in 0..cycles {
        sim.cycle();
    }
    let snap = sim.save_snapshot().expect("snapshot");
    (sim, snap)
}

/// A named byte range of a snapshot.
type Section = (String, Range<usize>);

/// The sections of `snap`, saved from `sim`, in order — the header and
/// configuration digest, the kernel, the cell frames, then the plain
/// state: the memory system, each core and the devices —
/// and each cell's record, by [`cmd_core::clock::CellId::index`]. Located
/// with the public codecs, so a layout change shows up here.
fn layout(sim: &SocSim, snap: &[u8]) -> (Vec<Section>, Vec<Range<usize>>) {
    let mut r = SnapReader::new(snap);
    let at = |r: &SnapReader<'_>| snap.len() - r.remaining();
    let mut starts = vec![("header".to_string(), 0)];
    r.bytes(8).expect("magic and version");
    r.take::<String>().expect("configuration digest");
    starts.push(("kernel".into(), at(&r)));
    r.bytes(24).expect("cycle counts");
    for _ in 0..r.len_prefix().expect("rule count") {
        r.take::<String>().expect("rule name");
        r.bytes(24).expect("rule statistics");
    }
    assert!(!r.take::<bool>().expect("telemetry flag"), "no telemetry");
    starts.push(("cell frames".into(), at(&r)));
    let records = (0..r.u64().expect("cell count"))
        .map(|_| {
            let n = r.len_prefix().expect("frame length");
            let from = at(&r);
            r.bytes(n).expect("record");
            from..from + n
        })
        .collect();
    let len = |s: &dyn Snapshot| {
        let mut w = SnapWriter::new();
        s.snap_save(&mut w);
        w.len()
    };
    let mut end = at(&r);
    starts.push(("memory system".into(), end));
    end += len(&sim.soc().mem) + 8; // and the core count
    for (c, core) in sim.soc().cores.iter().enumerate() {
        starts.push((format!("core {c}"), end));
        end += len(core);
    }
    starts.push(("devices".into(), end));
    starts.push((String::new(), snap.len()));
    let sections = starts
        .windows(2)
        .map(|w| (w[0].0.clone(), w[0].1..w[1].1))
        .collect();
    (sections, records)
}

/// Restores `bytes` into a fresh design, as `what`: a restore never
/// panics, refuses only with a snapshot error, and a snapshot it accepts
/// re-saves to exactly `bytes`.
fn restore_checked(
    prog: &Program,
    num_cores: usize,
    bytes: &[u8],
    what: &str,
) -> Result<(), SnapError> {
    let mut fresh = build(prog, num_cores, SchedulerMode::Fast);
    let got = catch_unwind(AssertUnwindSafe(|| fresh.restore_snapshot(bytes)))
        .unwrap_or_else(|_| panic!("{what}: the restore panicked"));
    match got {
        Ok(()) => {
            let again = fresh.save_snapshot().expect("re-save");
            assert!(again == bytes, "{what}: accepted, but re-saved differently");
            Ok(())
        }
        Err(SimError::Snapshot(e)) => Err(e),
        Err(other) => panic!("{what}: expected a snapshot error, got {other:?}"),
    }
}

/// Seeded single-byte flips per section of each snapshot.
const FLIPS: usize = 8;

/// Truncating a valid snapshot at any prefix length must produce a
/// structured error, never a panic; so must a flipped byte in any section
/// of a 1-core and a 2-core snapshot, unless the flipped snapshot is one
/// the reader accepts and re-saves byte for byte.
#[test]
fn truncated_snapshots_are_structured_errors() {
    let prog = busy_prog(100);
    let (_, snap) = mid_run(&prog, 1, 200);
    for cut in [0, 3, 7, snap.len() / 4, snap.len() / 2, snap.len() - 1] {
        let got = restore_checked(&prog, 1, &snap[..cut], &format!("cut at {cut}"));
        assert!(
            got.is_err(),
            "cut at {cut}: truncated snapshot must be refused"
        );
    }

    let mut outcomes = [0; 2];
    for (prog, num_cores) in [(busy_prog(300), 1), (multicore_prog(400), 2)] {
        let (sim, snap) = mid_run(&prog, num_cores, SNAP_AT);
        let mut rng = SplitMix64::seed_from_u64(num_cores as u64);
        for (name, range) in layout(&sim, &snap).0 {
            for _ in 0..FLIPS {
                let at = rng.range_usize(range.start, range.end);
                let mut bad = snap.clone();
                bad[at] ^= rng.range_u64(1, 256) as u8;
                let what = format!("{num_cores} core(s), {name} byte {at}");
                outcomes[usize::from(restore_checked(&prog, num_cores, &bad, &what).is_err())] += 1;
            }
        }
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "accepted / refused: {outcomes:?}"
    );

    // Two named cases: a record rewritten to a value of the same length
    // that its frame takes but the other cells contradict.
    let prog = busy_prog(300);
    let (sim, snap) = mid_run(&prog, 1, SNAP_AT);
    let records = layout(&sim, &snap).1;
    let (core, clk) = (&sim.soc().cores[0], &sim.soc().clk);
    let encode = |v: &dyn Fn(&mut SnapWriter)| {
        let mut w = SnapWriter::new();
        v(&mut w);
        w.into_bytes()
    };
    // The LQ head: the one record among those `deqLd` writes that holds
    // the head's slot. Rewritten, it names a slot the scan does not find.
    let (head, _) = core.lsq.first_ld().expect("a load in flight");
    clk.begin_rule();
    core.lsq.deq_ld();
    let touched = clk.enlisted_cells();
    clk.abort_rule();
    let lq_head = touched
        .iter()
        .map(|c| records[c.index()].clone())
        .find(|r| snap[r.clone()] == encode(&|w| Some(head).save(w))[..])
        .expect("the LQ head's record");
    // The ROB's next sequence number: the one record holding it. Rewritten
    // to the youngest entry's own number, a rename would take it twice.
    let cap = core.rob.capacity();
    let tail = usize::from(core.rob.enq_index());
    let youngest = core.rob.entry(((tail + cap - 1) % cap) as u16);
    let youngest = youngest.expect("an instruction in flight").uop.seq;
    let next = core.rob.enq_seq().to_le_bytes();
    let holding: Vec<_> = records
        .iter()
        .filter(|r| snap[(*r).clone()] == next)
        .collect();
    let [next_seq] = holding[..] else {
        panic!("the ROB's next sequence number is not in exactly one record");
    };
    for (what, range, bytes, why) in [
        (
            "an LQ head that disagrees with the scan",
            lq_head,
            encode(&|w| Some(head + 1).save(w)),
            "load-store-queue masks or heads disagree",
        ),
        (
            "an in-flight sequence number not below the ROB's next",
            next_seq.clone(),
            youngest.to_le_bytes().to_vec(),
            "an in-flight sequence number",
        ),
    ] {
        let mut bad = snap.clone();
        bad[range].copy_from_slice(&bytes);
        match restore_checked(&prog, 1, &bad, what) {
            Err(SnapError::Corrupt(m)) => assert!(m.starts_with(why), "{what}: {m}"),
            other => panic!("{what}: expected corruption, got {other:?}"),
        }
    }

    // Two on the core's boundary to its L1 D: a credit that is not the
    // cache's free request slots, and more queued requests than the credit
    // allows (the queue's record regrown, and its frame with it).
    let port = &core.port;
    let credit = port.d_free.read();
    let mut off_credit = snap.clone();
    off_credit[records[port.d_free.watch_id().index()].clone()].copy_from_slice(&[credit + 1]);
    let d_req = records[port.d_req.watch_id().index()].clone();
    let flood: VecDeque<CoreReq> = (0..=u32::from(credit))
        .map(|tag| CoreReq::Ld {
            tag,
            addr: DRAM_BASE,
            bytes: 8,
        })
        .collect();
    let flood = encode(&|w| flood.save(w));
    let mut over_credit = snap[..d_req.start - 8].to_vec();
    over_credit.extend_from_slice(&(flood.len() as u64).to_le_bytes());
    over_credit.extend_from_slice(&flood);
    over_credit.extend_from_slice(&snap[d_req.end..]);
    for (what, bad, why) in [
        (
            "a D credit that is not the L1's free slots",
            off_credit,
            "a memory credit disagrees",
        ),
        (
            "more D requests than the credit",
            over_credit,
            "a memory request queue is longer",
        ),
    ] {
        match restore_checked(&prog, 1, &bad, what) {
            Err(SnapError::Corrupt(m)) => assert!(m.starts_with(why), "{what}: {m}"),
            other => panic!("{what}: expected corruption, got {other:?}"),
        }
    }
}

/// Each restore rule refuses a real 1-core snapshot edited to break it,
/// with the error kind the rule names: a table of another length than the
/// design's (the BTB, one entry short) and a queue longer than its
/// capacity (the I TLB, one entry over) are mismatches with the design; a
/// RAS top pointer past its stack is corruption.
#[test]
fn each_restore_rule_refuses_what_breaks_it() {
    let prog = busy_prog(300);
    let (sim, snap) = mid_run(&prog, 1, SNAP_AT);
    let core = &sim.soc().cores[0];
    let len = |s: &dyn Snapshot| {
        let mut w = SnapWriter::new();
        s.snap_save(&mut w);
        w.len()
    };
    let u64_at = |at: usize| u64::from_le_bytes(snap[at..at + 8].try_into().unwrap());
    let (_, core_bytes) = layout(&sim, &snap)
        .0
        .into_iter()
        .find(|(name, _)| name == "core 0")
        .expect("a core section");
    // A core's field list opens with the BTB, the tournament predictor,
    // the RAS and the TLB hierarchy, whose list opens with the I TLB.
    let btb = core_bytes.start;
    let ras = btb + len(&core.btb) + len(&core.tour);
    let itlb = ras + len(&core.ras);

    let mut short_btb = snap.clone();
    let entries = u64_at(btb);
    assert_eq!(entries, 256, "the BTB's length prefix");
    short_btb[btb..btb + 8].copy_from_slice(&(entries - 1).to_le_bytes());

    let mut wild_top = snap.clone();
    let top = ras + len(&core.ras) - 8;
    let stack = u64_at(ras);
    assert!(u64_at(top) < stack, "the RAS top pointer");
    wild_top[top..top + 8].copy_from_slice(&stack.to_le_bytes());

    let cap = CoreConfig::riscyoo_t_plus().tlb.l1_entries;
    let held = usize::try_from(u64_at(itlb)).unwrap();
    let mut extra = SnapWriter::new();
    for page in held..=cap {
        // One `TlbEntry`: VA base, PA base, page shift, PTE, LRU stamp.
        extra.put(&((page as u64) << 12));
        extra.put(&((page as u64) << 12));
        extra.put(&12u32);
        extra.put(&0u64);
        extra.put(&0u64);
    }
    let mut full_itlb = snap[..itlb].to_vec();
    full_itlb.extend_from_slice(&(cap as u64 + 1).to_le_bytes());
    full_itlb.extend_from_slice(&snap[itlb + 8..itlb + len(&core.tlb.itlb) - 24]);
    full_itlb.extend_from_slice(&extra.into_bytes());
    full_itlb.extend_from_slice(&snap[itlb + len(&core.tlb.itlb) - 24..]);

    for (what, bad, mismatch, names) in [
        ("a BTB one entry short", short_btb, true, "Btb.entries"),
        (
            "an I TLB one entry over capacity",
            full_itlb,
            true,
            "Tlb.entries",
        ),
        ("a RAS top past its stack", wild_top, false, "RAS top"),
    ] {
        match (restore_checked(&prog, 1, &bad, what), mismatch) {
            (Err(SnapError::Mismatch(m)), true) | (Err(SnapError::Corrupt(m)), false) => {
                assert!(m.contains(names), "{what}: {m}");
            }
            (other, _) => panic!("{what}: refused with the wrong kind: {other:?}"),
        }
    }
}

/// A rule table that claims more outcomes than the snapshot has cycles is
/// corrupt: a rule has exactly one outcome per cycle, so a real snapshot's
/// counts sum to the cycle count, and one guard stall more names the rule.
#[test]
fn a_rule_with_more_outcomes_than_cycles_is_corrupt() {
    let prog = busy_prog(300);
    let (sim, snap) = mid_run(&prog, 1, SNAP_AT);
    let (_, kernel) = layout(&sim, &snap)
        .0
        .into_iter()
        .find(|(name, _)| name == "kernel")
        .expect("a kernel section");
    let mut r = SnapReader::new(&snap[kernel.clone()]);
    let cycles = r.u64().expect("cycle count");
    r.bytes(16).expect("clock cycle and quiet cycles");
    assert!(r.len_prefix().expect("rule count") > 0);
    let rule = r.take::<String>().expect("the first rule's name");
    let at = kernel.end - r.remaining();
    let counts: Vec<u64> = (0..3).map(|_| r.u64().expect("a count")).collect();
    assert_eq!(
        counts.iter().sum::<u64>(),
        cycles,
        "`{rule}` has one outcome per cycle"
    );
    let mut bad = snap.clone();
    let guard_stalls = at + 8..at + 16;
    bad[guard_stalls].copy_from_slice(&(counts[1] + 1).to_le_bytes());
    match restore_checked(&prog, 1, &bad, "one guard stall too many") {
        Err(SnapError::Corrupt(m)) => assert!(m.contains(&format!("`{rule}`")), "{m}"),
        other => panic!("expected corruption naming `{rule}`, got {other:?}"),
    }
}

/// A mask word that disagrees with its slots is corrupt: the masks are
/// saved with the slots, and a restore checks one against the other.
#[test]
fn a_flipped_mask_word_is_corrupt() {
    let prog = busy_prog(300);
    let (sim, snap) = mid_run(&prog, 1, SNAP_AT);
    let records = layout(&sim, &snap).1;
    let (core, clk) = (&sim.soc().cores[0], &sim.soc().clk);
    // A flush touches a structure's live slots and its mask words — the
    // words being the cells whose records are one `u64`.
    let mask_words = |flush: &dyn Fn()| {
        clk.begin_rule();
        flush();
        let touched = clk.enlisted_cells();
        clk.abort_rule();
        touched
            .into_iter()
            .map(|c| records[c.index()].clone())
            .filter(|r| r.len() == 8)
            .collect::<Vec<_>>()
    };
    let iq = core
        .iqs
        .iter()
        .max_by_key(|q| q.len())
        .expect("issue queues");
    for (what, words) in [
        ("issue-queue masks", mask_words(&|| iq.flush())),
        (
            "load-store-queue masks",
            mask_words(&|| core.lsq.flush_speculative()),
        ),
    ] {
        assert!(!words.is_empty(), "no live {what} at the snapshot");
        for word in words {
            let mut bad = snap.clone();
            bad[word.start] ^= 1;
            match restore_checked(&prog, 1, &bad, what) {
                Err(SnapError::Corrupt(m)) => assert!(m.starts_with(what), "{m}"),
                other => panic!("{what}: expected corruption, got {other:?}"),
            }
        }
    }
}

/// A design with one cell more than the snapshot's is a mismatch, not a
/// misaligned walk.
#[test]
fn a_design_with_one_extra_cell_is_a_mismatch() {
    let prog = busy_prog(100);
    let (_, snap) = mid_run(&prog, 1, 200);
    let mut bigger = build(&prog, 1, SchedulerMode::Fast);
    let _extra = Ehr::new(&bigger.soc().clk, 0u64);
    match bigger.restore_snapshot(&snap) {
        Err(SimError::Snapshot(SnapError::Mismatch(m))) => assert!(m.contains("cells"), "{m}"),
        other => panic!("expected a mismatch, got {other:?}"),
    }
}

/// Trailing garbage after a valid snapshot is refused (it would mean the
/// reader and writer disagree about the format).
#[test]
fn trailing_bytes_are_refused() {
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..200 {
        sim.cycle();
    }
    let mut snap = sim.save_snapshot().expect("snapshot");
    snap.push(0);
    let mut fresh = build(&prog, 1, SchedulerMode::Fast);
    assert!(matches!(
        fresh.restore_snapshot(&snap),
        Err(SimError::Snapshot(SnapError::Corrupt(_)))
    ));
}

/// A snapshot of one configuration must be refused by a design built with
/// another (different core config here; the digest also covers memory
/// geometry and core count).
#[test]
fn config_mismatch_is_a_structured_error() {
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    for _ in 0..200 {
        sim.cycle();
    }
    let snap = sim.save_snapshot().expect("snapshot");
    let mut other = SocSim::new(
        CoreConfig::multicore(MemModel::Tso),
        mem_riscyoo_b(),
        1,
        &prog,
    );
    assert!(matches!(
        other.restore_snapshot(&snap),
        Err(SimError::Snapshot(SnapError::Mismatch(_)))
    ));
}

/// The checked-in golden fixture: a snapshot header from format version 0.
/// A build must keep refusing stale formats with a structured version
/// error for as long as the format lives — this fixture never gets
/// regenerated.
#[test]
fn stale_golden_fixture_is_refused() {
    let stale = include_bytes!("fixtures/stale-v0.snap");
    let prog = busy_prog(100);
    let mut sim = build(&prog, 1, SchedulerMode::Fast);
    match sim.restore_snapshot(stale) {
        Err(SimError::Snapshot(SnapError::VersionMismatch { found, expected })) => {
            assert_eq!(found, 0);
            assert_eq!(expected, riscy_ooo::soc::SOC_SNAP_VERSION);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

/// Observers carry side state the codec does not serialize: snapshotting
/// with any attached is refused up front.
#[test]
fn observers_refuse_snapshots() {
    let prog = busy_prog(100);

    let mut traced = build(&prog, 1, SchedulerMode::Fast);
    traced.enable_pipe_trace();
    assert!(matches!(
        traced.save_snapshot(),
        Err(SimError::Snapshot(SnapError::Unsupported(_)))
    ));

    let mut profiled = build(&prog, 1, SchedulerMode::Fast);
    profiled.enable_profiling();
    assert!(matches!(
        profiled.save_snapshot(),
        Err(SimError::Snapshot(SnapError::Unsupported(_)))
    ));

    let mut chaotic = build(&prog, 1, SchedulerMode::Fast);
    let engine = FaultEngine::new(FaultPlan::new(1).guard_stall("c0.issue*", 0.01));
    chaotic.attach_chaos(&engine);
    assert!(matches!(
        chaotic.save_snapshot(),
        Err(SimError::Snapshot(SnapError::Unsupported(_)))
    ));
}
