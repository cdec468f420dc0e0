//! Pins what a fast-forward pass warms. The handoff's snapshot bytes (the
//! whole SoC: architectural state, trained predictors, installed cache
//! lines, filled TLB entries) and the [`FfReport`] counters are hashed for
//! libquantum at three instruction counts, and for a two-core PARSEC proxy
//! mid-run and after both harts exit (their exit stores are `Halted`
//! steps). Any change to how the
//! functional pass observes fetches, data accesses and control flow must
//! reproduce these bytes exactly. A change to the snapshot format moves the
//! digests but not the layout-free witnesses beside them: the digests were
//! re-captured at format v7 (the LSQ ordered by sequence number alone), at
//! v8 (every module saved from its field list, no counter registry), at v9
//! (each core's exit code in a cell), at v10 (each core's I-side walk
//! fault cell) and at v11 (a memory frame with one written line saved as
//! that line) while every witness held.

use riscy_isa::asm::Program;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_ooo::ff::{FastForward, FfReport};
use riscy_ooo::soc::SocSim;
use riscy_workloads::parsec::freqmine;
use riscy_workloads::spec::{libquantum, Scale};

/// FNV-1a over the snapshot bytes, then over the report's counters.
fn digest(snapshot: &[u8], r: FfReport) -> u64 {
    let words = [r.insts, r.branches_trained, r.lines_warmed, r.tlb_filled];
    snapshot
        .iter()
        .copied()
        .chain(words.iter().flat_map(|w| w.to_le_bytes()))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A layout-free witness of a handoff snapshot: restore `bytes` into a
/// fresh SoC, run 2,000 cycles, and hash the scheduling report and the
/// stats JSON. A snapshot format change that keeps the warmed state keeps
/// the witness, so a digest above may be re-captured only while its
/// witness holds.
fn witness(program: &Program, cores: usize, bytes: &[u8]) -> u64 {
    let mut sim = SocSim::new(
        CoreConfig::riscyoo_t_plus(),
        mem_riscyoo_b(),
        cores,
        program,
    );
    sim.restore_snapshot(bytes).expect("the handoff restores");
    for _ in 0..2_000 {
        sim.cycle();
    }
    (sim.report() + &sim.stats_json())
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn handoff_state_is_pinned_for_libquantum() {
    let w = libquantum(Scale::Test);
    let mut ff = FastForward::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
    let (mut got, mut witnesses) = (Vec::new(), Vec::new());
    // The ROI opens at instruction 18: the first count sees the kernel's
    // first sweeps, the later ones a warm steady state whose line set
    // overflows the hierarchy.
    for target in [2_000, 60_000, 250_000] {
        ff.run(target - ff.report().insts);
        let mut sim = ff.handoff();
        let bytes = sim.save_snapshot().expect("a fresh handoff saves");
        witnesses.push(witness(&w.program, 1, &bytes));
        got.push((target, ff.report(), digest(&bytes, ff.report())));
    }
    assert_eq!(
        witnesses,
        [
            0x9bea_1b38_6db0_7bb6,
            0x4a25_44ed_96a5_e0ee,
            0xf183_ab42_21db_8f55
        ],
        "{witnesses:#x?}"
    );
    let want = [
        (2_000, 0x51d3_2f1f_4e43_1f7b),
        (60_000, 0x6472_5ef3_af5d_128c),
        (250_000, 0xe296_ee91_297e_6a39),
    ];
    let digests: Vec<(u64, u64)> = got.iter().map(|&(t, _, d)| (t, d)).collect();
    assert_eq!(digests, want, "{got:#x?}");
}

#[test]
fn handoff_state_is_pinned_for_two_harts() {
    let w = freqmine(Scale::Test, 2);
    let mut ff = FastForward::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 2, &w.program);
    let (mut got, mut witnesses) = (Vec::new(), Vec::new());
    for per_hart in [5_000, 10_000_000] {
        ff.run(per_hart);
        let mut sim = ff.handoff();
        let bytes = sim.save_snapshot().expect("a fresh handoff saves");
        witnesses.push(witness(&w.program, 2, &bytes));
        got.push((ff.halted(), ff.report(), digest(&bytes, ff.report())));
    }
    assert_eq!(
        witnesses,
        [0xe5fb_b73a_5c13_da26, 0x38a6_801c_09f1_8c86],
        "{witnesses:#x?}"
    );
    let want = [
        (false, 0xdfd4_a15c_439a_cd29),
        (true, 0xb0c9_5b37_21c7_4c84),
    ];
    let digests: Vec<(bool, u64)> = got.iter().map(|&(h, _, d)| (h, d)).collect();
    assert_eq!(digests, want, "{got:#x?}");
}
