//! Observability-layer integration tests (see docs/OBSERVABILITY.md):
//!
//! * the Konata/O3PipeView export has the exact golden shape for a tiny
//!   straight-line program;
//! * enabling tracing (both the scheduler tracer and the pipeline trace)
//!   never changes cycle counts or any architectural statistic;
//! * the stats-JSON snapshot carries the documented keys.

use std::cell::RefCell;
use std::rc::Rc;

use cmd_core::trace::{Tracer, VecSink};
use riscy_isa::asm::Assembler;
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::SocSim;

/// `addi t0, zero, 21; add t0, t0, t0`, then the exit sequence
/// (`li t6; sd; j hang`). The payload is two instructions; the trace
/// covers everything the core retires.
fn tiny_prog() -> riscy_isa::asm::Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.addi(Gpr::t(0), Gpr::ZERO, 21);
    a.add(Gpr::t(0), Gpr::t(0), Gpr::t(0));
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.sd(Gpr::t(0), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

/// One parsed seven-line O3PipeView record.
struct PtRec {
    pc: u64,
    seq: u64,
    mnemonic: String,
    stamps: [u64; 7],
}

fn parse_trace(text: &str) -> Vec<PtRec> {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() % 7, 0, "records must be seven lines each");
    lines
        .chunks(7)
        .map(|rec| {
            let fetch: Vec<&str> = rec[0].split(':').collect();
            assert_eq!(fetch[0], "O3PipeView");
            assert_eq!(fetch[1], "fetch");
            assert_eq!(fetch[4], "0");
            let pc = u64::from_str_radix(fetch[3].trim_start_matches("0x"), 16).unwrap();
            let mut stamps = [0u64; 7];
            stamps[0] = fetch[2].parse().unwrap();
            for (i, stage) in ["decode", "rename", "dispatch", "issue", "complete"]
                .iter()
                .enumerate()
            {
                let f: Vec<&str> = rec[i + 1].split(':').collect();
                assert_eq!(f[1], *stage, "stage order in {rec:?}");
                stamps[i + 1] = f[2].parse().unwrap();
            }
            let retire: Vec<&str> = rec[6].split(':').collect();
            assert_eq!(&retire[1..2], &["retire"]);
            assert_eq!(&retire[3..], &["store", "0"]);
            stamps[6] = retire[2].parse().unwrap();
            PtRec {
                pc,
                seq: fetch[5].parse().unwrap(),
                mnemonic: fetch[6].to_string(),
                stamps,
            }
        })
        .collect()
}

#[test]
fn golden_konata_trace_for_tiny_program() {
    let prog = tiny_prog();
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.enable_pipe_trace();
    sim.run_to_completion(100_000).unwrap();
    assert_eq!(sim.soc().devices.exited[0].read(), Some(42));

    let text = sim.pipe_trace();
    let recs = parse_trace(&text);
    let committed = sim.soc().cores[0].stats.committed;
    assert_eq!(recs.len() as u64, committed, "one record per retired inst");

    // Golden head of the trace: the program's static instruction stream in
    // program order, starting at the reset PC, sequence numbers dense from
    // 0. (`li t6, MMIO_EXIT` assembles to a single `lui` — the low 12 bits
    // of the MMIO base are zero.)
    let want: [(u64, &str); 5] = [
        (DRAM_BASE, "alu"),
        (DRAM_BASE + 4, "alu"),
        (DRAM_BASE + 8, "lui"),
        (DRAM_BASE + 12, "store"),
        (DRAM_BASE + 16, "jal"),
    ];
    for (i, (pc, mnem)) in want.iter().enumerate() {
        assert_eq!(recs[i].pc, *pc, "record {i} pc");
        assert_eq!(recs[i].mnemonic, *mnem, "record {i} mnemonic");
        assert_eq!(recs[i].seq, i as u64, "record {i} seq");
    }
    // Everything after the store is the hang loop's jal.
    assert!(
        recs[4..].iter().all(|r| r.mnemonic == "jal"),
        "tail is the hang loop"
    );

    // Konata-parsability invariants over the whole trace: stamps monotonic
    // within each record, retire order monotonic across records.
    for r in &recs {
        for w in r.stamps.windows(2) {
            assert!(w[0] <= w[1], "stage stamps regress: {:?}", r.stamps);
        }
    }
    for w in recs.windows(2) {
        assert!(w[0].stamps[6] <= w[1].stamps[6], "retire order regresses");
        assert_eq!(w[0].seq + 1, w[1].seq, "sequence ids not dense");
    }
}

#[test]
fn mnemonic_fields_never_contain_separators() {
    let prog = tiny_prog();
    let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
    sim.enable_pipe_trace();
    sim.run_to_completion(100_000).unwrap();
    for line in sim.pipe_trace().lines() {
        if line.contains(":fetch:") {
            assert_eq!(line.split(':').count(), 7, "extra separator in {line}");
        }
    }
}

/// The load/store/branch-heavy program the identity property runs:
/// touches the D$, the store buffer, and the branch predictor so most of
/// the counters move.
fn busy_prog(iters: i64) -> riscy_isa::asm::Program {
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

#[test]
fn tracing_never_perturbs_the_simulation() {
    let prog = busy_prog(300);
    let run = |traced: bool| {
        let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &prog);
        if traced {
            sim.enable_pipe_trace();
            let sink = Rc::new(RefCell::new(VecSink::default()));
            sim.set_tracer(Tracer::new(sink));
        }
        let cycles = sim.run_to_completion(2_000_000).unwrap();
        (cycles, sim.soc().cores[0].stats)
    };
    let (plain_cycles, plain_stats) = run(false);
    let (traced_cycles, traced_stats) = run(true);
    assert_eq!(
        plain_cycles, traced_cycles,
        "tracing changed the cycle count"
    );
    assert_eq!(plain_stats, traced_stats, "tracing changed a statistic");
}

/// An AMO-counter loop with a per-hart exit (`MMIO_EXIT + 8*hart`), so it
/// terminates on any number of cores.
fn multicore_prog(iters: i64) -> riscy_isa::asm::Program {
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

#[test]
fn multicore_tracing_is_also_identity_preserving() {
    let prog = multicore_prog(64);
    let run = |traced: bool| {
        let mut sim = SocSim::new(
            CoreConfig::multicore(MemModel::Tso),
            mem_riscyoo_b(),
            2,
            &prog,
        );
        if traced {
            sim.enable_pipe_trace();
        }
        let cycles = sim.run_to_completion(3_000_000).unwrap();
        let stats: Vec<_> = sim.soc().cores.iter().map(|c| c.stats).collect();
        (cycles, stats, sim.pipe_trace())
    };
    let (plain_cycles, plain_stats, _) = run(false);
    let (traced_cycles, traced_stats, trace) = run(true);
    assert_eq!(plain_cycles, traced_cycles);
    assert_eq!(plain_stats, traced_stats);

    // The multicore trace is Konata-loadable and covers both cores: core 1's
    // sequence ids start at its 1e9 base so concatenation cannot collide.
    let recs = parse_trace(&trace);
    assert!(recs.iter().any(|r| r.seq < 1_000_000_000), "core 0 missing");
    assert!(
        recs.iter().any(|r| r.seq >= 1_000_000_000),
        "core 1 missing"
    );
}

#[test]
fn stats_json_has_documented_keys() {
    let prog = multicore_prog(32);
    let mut sim = SocSim::new(
        CoreConfig::multicore(MemModel::Tso),
        mem_riscyoo_b(),
        2,
        &prog,
    );
    sim.run_to_completion(3_000_000).unwrap();
    let json = sim.stats_json();
    for key in [
        "\"ipc\":",
        "\"cycles\":",
        "\"cores\":[",
        "\"rob_occ_avg\":",
        "\"iq_occ_avg\":",
        "\"iq_full_stalls\":",
        "\"lsq_replays\":",
        "\"sb_drains\":",
        "\"miss_rate\":",
        "\"l1d\":",
        "\"dtlb\":",
        "\"l2\":",
        "\"scheduler\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Two cores, two id fields.
    assert_eq!(json.matches("\"id\":").count(), 2, "{json}");
    // Crude structural sanity: balanced braces/brackets.
    let opens = json.matches('{').count() + json.matches('[').count();
    let closes = json.matches('}').count() + json.matches(']').count();
    assert_eq!(opens, closes, "{json}");
}
