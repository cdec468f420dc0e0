//! Pins what a fast-forward pass warms. The handoff's snapshot bytes (the
//! whole SoC: architectural state, trained predictors, installed cache
//! lines, filled TLB entries) and the [`FfReport`] counters are hashed for
//! libquantum at three instruction counts, and for a two-core PARSEC proxy
//! mid-run and after both harts exit (their exit stores are `Halted`
//! steps). Any change to how the
//! functional pass observes fetches, data accesses and control flow must
//! reproduce these bytes exactly.

use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_ooo::ff::{FastForward, FfReport};
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

#[test]
fn handoff_state_is_pinned_for_libquantum() {
    let w = libquantum(Scale::Test);
    let mut ff = FastForward::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
    let mut got = Vec::new();
    // The ROI opens at instruction 18: the first count sees the kernel's
    // first sweeps, the later ones a warm steady state whose line set
    // overflows the hierarchy.
    for target in [2_000, 60_000, 250_000] {
        ff.run(target - ff.report().insts);
        let mut sim = ff.handoff();
        let bytes = sim.save_snapshot().expect("a fresh handoff saves");
        got.push((target, ff.report(), digest(&bytes, ff.report())));
    }
    let want = [
        (2_000, 0x0eaa_ef4b_d92b_63c1),
        (60_000, 0x7781_f1ab_d431_cf86),
        (250_000, 0xe440_e8de_c9f3_307b),
    ];
    let digests: Vec<(u64, u64)> = got.iter().map(|&(t, _, d)| (t, d)).collect();
    assert_eq!(digests, want, "{got:#x?}");
}

#[test]
fn handoff_state_is_pinned_for_two_harts() {
    let w = freqmine(Scale::Test, 2);
    let mut ff = FastForward::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 2, &w.program);
    let mut got = Vec::new();
    for per_hart in [5_000, 10_000_000] {
        ff.run(per_hart);
        let mut sim = ff.handoff();
        let bytes = sim.save_snapshot().expect("a fresh handoff saves");
        got.push((ff.halted(), ff.report(), digest(&bytes, ff.report())));
    }
    let want = [
        (false, 0x6e02_c866_33c6_3a1f),
        (true, 0xd7bf_5a08_2622_ea8e),
    ];
    let digests: Vec<(bool, u64)> = got.iter().map(|&(h, _, d)| (h, d)).collect();
    assert_eq!(digests, want, "{got:#x?}");
}
