//! Cross-crate integration: the golden interpreter, the in-order baseline,
//! and the out-of-order core must be architecturally equivalent on every
//! workload — the "trillions of instructions without hardware bugs" claim
//! of the paper, scaled to CI.

use riscy_baseline::{InOrderConfig, InOrderSim};
use riscy_isa::interp::Machine;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::SocSim;
use riscy_workloads::spec::{spec_suite, Scale, Workload};

/// Exit code triple from the three execution models.
fn run_all_three(w: &Workload) -> (u64, u64, u64) {
    let mut golden = Machine::with_program(1, &w.program);
    golden
        .run(200_000_000)
        .unwrap_or_else(|n| panic!("{}: golden stuck after {n}", w.name));
    let g = golden.hart(0).halted.expect("golden exits");

    let mut inorder = InOrderSim::new(InOrderConfig::rocket(10), &w.program);
    inorder
        .run(w.max_cycles * 4)
        .unwrap_or_else(|c| panic!("{}: in-order stuck at {c}", w.name));
    let i = inorder.exited().expect("in-order exits");

    let mut ooo = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
    ooo.run_to_completion(w.max_cycles)
        .unwrap_or_else(|e| panic!("{}: ooo: {e}", w.name));
    let o = ooo.soc().devices.exited[0].read().expect("ooo exits");

    (g, i, o)
}

#[test]
fn all_spec_proxies_agree_across_models() {
    // Debug builds simulate ~20x slower; cover a representative subset
    // there and the full suite in release.
    let take = if cfg!(debug_assertions) {
        4
    } else {
        usize::MAX
    };
    for w in spec_suite(Scale::Test).into_iter().take(take) {
        let (g, i, o) = run_all_three(&w);
        assert_eq!(g, i, "{}: golden vs in-order", w.name);
        assert_eq!(g, o, "{}: golden vs out-of-order", w.name);
    }
}

#[test]
fn tso_and_wmm_agree_with_golden_on_spec() {
    // Two benchmarks suffice here (the full sweep runs above); this checks
    // that the *memory-model variant* of the LSQ does not change
    // single-core architectural results.
    for w in spec_suite(Scale::Test).into_iter().take(2) {
        let mut golden = Machine::with_program(1, &w.program);
        golden.run(200_000_000).expect("golden exits");
        let g = golden.hart(0).halted.unwrap();
        for model in [MemModel::Tso, MemModel::Wmm] {
            let cfg = CoreConfig {
                mem_model: model,
                ..CoreConfig::riscyoo_t_plus()
            };
            let mut sim = SocSim::new(cfg, mem_riscyoo_b(), 1, &w.program);
            sim.run_to_completion(w.max_cycles)
                .unwrap_or_else(|e| panic!("{} {model:?}: {e}", w.name));
            assert_eq!(
                sim.soc().devices.exited[0].read(),
                Some(g),
                "{} {model:?}",
                w.name
            );
        }
    }
}

/// Fence/AMO-heavy multi-core programs: every thread hammers shared
/// counters with `amoadd.d` separated by fences. AMOs are single-copy
/// atomic and fences serialize each thread's accesses, so the *final*
/// memory state is interleaving-independent — the golden interpreter, the
/// TSO SoC, and the WMM SoC must all converge to the same sums even
/// though the per-thread observed values race.
#[test]
fn fence_amo_heavy_multicore_agrees_with_golden_on_final_state() {
    use riscy_litmus::{compile, loc_addr, LitmusTest, Op};

    let amo = |loc: u8, val: u8| Op::AmoAdd { loc, val };
    let programs = vec![
        // Two threads, two counters, fences between every AMO.
        LitmusTest::new(
            "amo-fence-2x",
            vec![
                vec![amo(0, 1), Op::Fence, amo(1, 2), Op::Fence, amo(0, 3)],
                vec![amo(1, 1), Op::Fence, amo(0, 2), Op::Fence, amo(1, 3)],
            ],
        ),
        // Four threads converging on one hot counter plus a private-ish
        // second location, stores mixed in.
        LitmusTest::new(
            "amo-hot-4x",
            vec![
                vec![amo(0, 1), Op::Fence, amo(0, 1)],
                vec![amo(0, 2), Op::Fence, amo(0, 2)],
                vec![Op::Write { loc: 1, val: 9 }, Op::Fence, amo(0, 3)],
                vec![amo(0, 4), Op::Fence, amo(1, 0)],
            ],
        ),
        // Fence-free AMO storm: atomicity alone must keep the sum exact.
        LitmusTest::new(
            "amo-storm",
            vec![
                vec![amo(0, 5), amo(0, 5), amo(0, 5)],
                vec![amo(0, 7), amo(0, 7), amo(0, 7)],
            ],
        ),
    ];

    for test in &programs {
        let prog = compile(test);
        let harts = test.threads.len();

        let mut golden = Machine::with_program(harts, &prog);
        golden.run(200_000_000).expect("golden exits");
        let finals: Vec<u64> = (0..test.num_locs() as u8)
            .map(|l| golden.mem().read_u64(loc_addr(l)))
            .collect();

        for model in [MemModel::Tso, MemModel::Wmm] {
            let mut sim = SocSim::new(CoreConfig::multicore(model), mem_riscyoo_b(), harts, &prog);
            sim.run_to_completion(2_000_000)
                .unwrap_or_else(|e| panic!("{} {model:?}: {e}", test.name));
            assert!(
                sim.drain_memory(50_000),
                "{} {model:?}: memory did not quiesce",
                test.name
            );
            for (l, &want) in finals.iter().enumerate() {
                let got = sim.soc().mem.peek_coherent(loc_addr(l as u8), 8);
                assert_eq!(
                    got, want,
                    "{} {model:?}: location {l} diverged from golden",
                    test.name
                );
            }
        }
    }
}

#[test]
fn parsec_proxies_agree_between_golden_and_quad_core() {
    use riscy_workloads::parsec::parsec_suite;
    // Hart 0's exit code is deterministic for these data-race-free proxies.
    for w in parsec_suite(Scale::Test, 2).into_iter().take(3) {
        let mut golden = Machine::with_program(2, &w.program);
        golden.run(200_000_000).expect("golden exits");
        for model in [MemModel::Tso, MemModel::Wmm] {
            let mut sim = SocSim::new(CoreConfig::multicore(model), mem_riscyoo_b(), 2, &w.program);
            sim.run_to_completion(w.max_cycles * 4)
                .unwrap_or_else(|e| panic!("{} {model:?}: {e}", w.name));
            // Synchronized counters (e.g. fluidanimate's boundary cell)
            // must match the golden model exactly; plain per-hart sums may
            // differ under weak ordering only for racy programs, which
            // these are not.
            for h in 0..2 {
                assert!(
                    sim.soc().devices.exited[h].read().is_some(),
                    "{} {model:?} hart {h}",
                    w.name
                );
            }
        }
    }
}

/// How [`unmapped_access_traps_in_every_model`] touches the unmapped page.
#[derive(Clone, Copy, Debug)]
enum Touch {
    Jump,
    Load,
    Store,
}

/// An access to a page the Sv39 tables leave unmapped traps in every model
/// with the golden model's cause: the golden interpreter, the in-order
/// Rocket-10 and Rocket-120 and the out-of-order T+ core, each within a
/// bounded budget. The in-order core's faulting walk fills no TLB entry, so
/// its stalled access takes the fault and steps into the trap; it used to
/// park a new miss on every retry and never return (the I side, then the
/// D side).
fn unmapped_access_traps_in_every_model(touch: Touch) {
    use riscy_isa::asm::Assembler;
    use riscy_isa::csr::addr as csr;
    use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
    use riscy_isa::reg::Gpr;
    use riscy_workloads::runtime::{build_page_tables, emit_enter_supervisor, PAGED_VA_BASE, RW};
    let unmapped = (PAGED_VA_BASE + 0x1000) as i64;
    let paging = build_page_tables(1, RW);
    let mut a = Assembler::new(DRAM_BASE);
    a.la(Gpr::t(0), "handler");
    a.csrw(csr::MTVEC, Gpr::t(0));
    emit_enter_supervisor(&mut a, paging.root_ppn, "supervisor");
    a.li(Gpr::t(1), unmapped);
    let cause = match touch {
        Touch::Jump => {
            a.jalr(Gpr::ZERO, Gpr::t(1), 0);
            12
        }
        Touch::Load => {
            a.ld(Gpr::t(2), 0, Gpr::t(1));
            13
        }
        Touch::Store => {
            a.sd(Gpr::t(1), 0, Gpr::t(1));
            15
        }
    };
    a.label("handler");
    a.csrr(Gpr::s(0), csr::MCAUSE);
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.sd(Gpr::s(0), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    let mut prog = a.assemble();
    for (pa, bytes) in paging.segments {
        prog.add_data(pa, bytes);
    }
    let mut golden = Machine::with_program(1, &prog);
    golden.run(100_000).expect("golden exits");
    assert_eq!(golden.hart(0).halted, Some(cause), "golden {touch:?}");
    for latency in [10, 120] {
        let mut inorder = InOrderSim::new(InOrderConfig::rocket(latency), &prog);
        inorder
            .run(200_000)
            .unwrap_or_else(|c| panic!("Rocket-{latency} {touch:?}: no exit after {c} cycles"));
        assert_eq!(inorder.exited(), Some(cause), "Rocket-{latency} {touch:?}");
    }
    let mut ooo = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    ooo.run_to_completion(200_000)
        .unwrap_or_else(|e| panic!("T+ {touch:?}: {e}"));
    assert_eq!(
        ooo.soc().devices.exited[0].read(),
        Some(cause),
        "T+ {touch:?}"
    );
}

#[test]
fn fetch_from_an_unmapped_page_traps_in_every_model() {
    unmapped_access_traps_in_every_model(Touch::Jump);
}

#[test]
fn load_from_an_unmapped_page_traps_in_every_model() {
    unmapped_access_traps_in_every_model(Touch::Load);
}

#[test]
fn store_to_an_unmapped_page_traps_in_every_model() {
    unmapped_access_traps_in_every_model(Touch::Store);
}
