//! Cross-commit fingerprints of whole runs under the reference oracle.
//!
//! The equivalence suites compare scheduler modes *inside one build*; a
//! change to the transaction kernel moves every mode together and they
//! would all still agree. These goldens were captured at the commit before
//! the in-place/undo-journal kernel (PR 12, `a50c544`) with this very file,
//! and pin every later kernel against it: an FNV-1a hash over
//! `(rule name, fired, guard_stalls, cm_stalls)` of every rule plus
//! cycles / committed / mispredicts per core.
//!
//! If a deliberate timing-model change moves them, re-capture with
//! `cargo test -p riscy-ooo --test kernel_fingerprint -- --nocapture` and
//! say why in the commit. They were re-captured once so far: when `fetch`
//! came to launch its I TLB miss by firing instead of from a stall
//! callback, each core's `fetch` gained one fire and lost one guard stall
//! (its one I TLB miss a run), and no cycle, commit or mispredict count
//! moved.

use cmd_core::sched::SchedulerMode;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::SocSim;
use riscy_workloads::parsec;
use riscy_workloads::spec::{self, Scale, Workload};

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(name, fired, guard_stalls, cm_stalls)` of every rule, parsed from the
/// scheduling report (the one per-rule surface `SocSim` had at the capture
/// commit), sorted by name.
fn rule_rows(report: &str) -> Vec<(String, u64, u64, u64)> {
    let mut rows: Vec<_> = report
        .lines()
        .filter_map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            let at = |key: &str| {
                let i = t.iter().position(|w| *w == key)?;
                t.get(i + 1)?.parse::<u64>().ok()
            };
            (t.get(1) == Some(&"fired")).then(|| {
                (
                    t[0].to_string(),
                    at("fired").expect("fired count"),
                    at("guard-stall").expect("guard-stall count"),
                    at("cm-stall").expect("cm-stall count"),
                )
            })
        })
        .collect();
    rows.sort();
    rows
}

fn fingerprint(w: &Workload, cfg: CoreConfig, cores: usize) -> (u64, u64) {
    let mut sim = SocSim::new(cfg, mem_riscyoo_b(), cores, &w.program);
    sim.set_scheduler(SchedulerMode::Reference);
    sim.run_to_completion(w.max_cycles)
        .unwrap_or_else(|e| panic!("{} did not complete: {e}", w.name));
    let rows = rule_rows(&sim.report());
    assert!(
        rows.len() > 20 * cores,
        "report parsed: {} rules",
        rows.len()
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (name, fired, guard, cm) in &rows {
        fnv1a(&mut h, name.as_bytes());
        for v in [fired, guard, cm] {
            fnv1a(&mut h, &v.to_le_bytes());
        }
    }
    fnv1a(&mut h, &sim.cycles().to_le_bytes());
    for core in &sim.soc().cores {
        fnv1a(&mut h, &core.stats.committed.to_le_bytes());
        fnv1a(&mut h, &core.stats.mispredicts.to_le_bytes());
    }
    println!(
        "{} x{cores}: cycles {} hash {h:#018x}",
        w.name,
        sim.cycles()
    );
    (sim.cycles(), h)
}

#[test]
fn hmmer_matches_the_pre_journal_kernel() {
    let got = fingerprint(&spec::hmmer(Scale::Test), CoreConfig::riscyoo_t_plus(), 1);
    assert_eq!(got, (25_508, 0x5861_7627_8c44_02e2));
}

#[test]
fn mcf_matches_the_pre_journal_kernel() {
    let got = fingerprint(&spec::mcf(Scale::Test), CoreConfig::riscyoo_t_plus(), 1);
    assert_eq!(got, (80_001, 0xed87_3734_63cf_f89d));
}

#[test]
fn two_core_swaptions_matches_the_pre_journal_kernel() {
    let got = fingerprint(
        &parsec::swaptions(Scale::Test, 2),
        CoreConfig::multicore(MemModel::Tso),
        2,
    );
    assert_eq!(got, (5_632, 0x0a0d_092b_c511_53cf));
}

// The three pins below were captured at `bcaccb7`, the commit before the
// IQ/LSQ/SB occupancy masks, to hold the structures the three above reach
// least: the WMM store buffer, 4-core TSO coherence traffic, and sizes past
// one mask word's worth of the default configuration.

#[test]
fn two_core_wmm_ferret_matches_the_pre_mask_structures() {
    // Store buffer enq/issue/deq/search and `wakeupBySBDeq`.
    let got = fingerprint(
        &parsec::ferret(Scale::Test, 2),
        CoreConfig::multicore(MemModel::Wmm),
        2,
    );
    assert_eq!(got, (8_603, 0x8978_ea57_f30e_3da7));
}

#[test]
fn four_core_tso_fluidanimate_matches_the_pre_mask_structures() {
    // Locks, AMOs and `cacheEvict` kills.
    let got = fingerprint(
        &parsec::fluidanimate(Scale::Test, 4),
        CoreConfig::multicore(MemModel::Tso),
        4,
    );
    assert_eq!(got, (22_504, 0x8128_5adb_1b9e_883b));
}

#[test]
fn mcf_on_the_denver_proxy_matches_the_pre_mask_structures() {
    // IQ 32 / LQ 48 / SQ 32 / ROB 192: the largest shipped structures.
    let got = fingerprint(&spec::mcf(Scale::Test), CoreConfig::denver_proxy(), 1);
    assert_eq!(got, (78_383, 0xed75_154c_68fa_9c6a));
}

/// The snapshot bytes, captured with the kernel's walk over the clock's
/// cells (`SOC_SNAP_VERSION` 4: one record per cell, the occupancy masks
/// included, then the plain state) and re-captured when rename order
/// replaced the speculation masks (v5: a sequence number per micro-op, LSQ
/// entry and speculation snapshot, the ROB's next one and the LSQ heads in
/// cells, and no IQ age) and when the cores' boundary to the memory system
/// moved into cells (v6: eleven cells per core, no memory digests), and
/// when the LSQ came to order by sequence number alone and the state
/// nothing read left (v7: no LQ/SQ age, next-age cell, bound value,
/// at-commit flag or SQ ROB index, a tagged forwarding source, no I TLB
/// response queue or `l2tlb_misses`), and when every module came to be
/// saved from its field list (v8: an L1 count before each L1 vector, a
/// walk-cache count for a presence flag, no counter registry), and when
/// each core's exit code moved into a cell (v9), each time only while
/// [`witness`] still held; and when each core gained its I-side walk
/// fault cell (v10), with the same run launching the one I TLB miss from
/// a firing `fetch`: the witness moved only by that firing (`c0.fetch`
/// one more fire and one fewer guard stall, and the scheduler totals);
/// and when a memory frame with one written line came to be saved as that
/// line (v11: 14,306,495 → 1,926,344 bytes), and when each cache array
/// came to save only the slots that differ from the empty slot (v12:
/// 1,926,344 → 403,432 bytes), while [`witness`] held.
/// `snapshot_roundtrip.rs` compares one build against itself and cannot
/// see a layout change that forgot to bump the version.
#[test]
fn mcf_snapshot_bytes_match_the_cell_walk_golden() {
    let w = spec::mcf(Scale::Test);
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
    for _ in 0..20_000 {
        sim.cycle();
    }
    let bytes = sim.save_snapshot().expect("no observers attached");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, &bytes);
    println!("mcf snapshot @20000: {} bytes hash {h:#018x}", bytes.len());
    assert_eq!(
        witness(&w, 1, &bytes),
        0x2e4b_4212_9d27_fe95,
        "the restored run drifted from the layout-free witness"
    );
    assert_eq!((bytes.len(), h), (403_432, 0xc4a7_ee2b_de97_6f76));
}

/// A layout-free witness of a snapshot: restore `bytes` into a fresh
/// T+ SoC, run 5,000 more cycles, and hash the scheduling report and the
/// stats JSON. It names what the bytes mean rather than how they are laid
/// out, so a format change that keeps the simulated state keeps it, and a
/// byte golden may be re-captured only while its witness still holds.
fn witness(w: &Workload, cores: usize, bytes: &[u8]) -> u64 {
    let mut sim = SocSim::new(
        CoreConfig::riscyoo_t_plus(),
        mem_riscyoo_b(),
        cores,
        &w.program,
    );
    sim.restore_snapshot(bytes).expect("the snapshot restores");
    for _ in 0..5_000 {
        sim.cycle();
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, sim.report().as_bytes());
    fnv1a(&mut h, sim.stats_json().as_bytes());
    println!("witness after {} cycles: {h:#018x}", sim.cycles());
    h
}
