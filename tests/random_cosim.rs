//! Randomized co-simulation: generate constrained-random RISC-V programs
//! and run them on the out-of-order core in lock-step with the golden
//! interpreter. Any divergence in committed (pc, rd, value) fails.
//!
//! This is the workhorse correctness test for the pipeline: renaming,
//! speculation, forwarding, kills, and the memory system all get fuzzed.

use cmd_core::rng::SplitMix64;
use cmd_core::sched::SchedulerMode;
use riscy_isa::asm::Assembler;
use riscy_isa::inst::{AluOp, MemWidth, MulDivOp};
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig, MemModel};
use riscy_ooo::soc::SocSim;

const SCRATCH: i64 = (DRAM_BASE + 0x10_0000) as i64;
const SCRATCH_MASK: i32 = 0x7f8; // 256 aligned dwords

/// Registers the generator plays with (s0 holds the scratch base).
const POOL: [u8; 10] = [10, 11, 12, 13, 14, 15, 16, 17, 5, 6]; // a0-a7, t0, t1

fn reg(rng: &mut SplitMix64) -> Gpr {
    Gpr::new(*rng.pick(&POOL))
}

/// Emits one random instruction (straight-line, memory confined to the
/// scratch region, occasional short forward branches).
fn emit_random(a: &mut Assembler, rng: &mut SplitMix64, label_seq: &mut u32) {
    match rng.below(100) {
        0..=39 => {
            let op = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::Xor,
                AluOp::Or,
                AluOp::And,
                AluOp::Slt,
                AluOp::Sltu,
                AluOp::Sll,
                AluOp::Srl,
                AluOp::Sra,
            ][rng.range_usize(0, 10)];
            a.alu(op, reg(rng), reg(rng), reg(rng));
        }
        40..=54 => {
            a.alui(
                AluOp::Add,
                reg(rng),
                reg(rng),
                rng.range_i64(-512, 512) as i32,
            );
        }
        55..=64 => {
            // Address = scratch base + masked random register.
            let addr_r = Gpr::t(2);
            a.andi(addr_r, reg(rng), SCRATCH_MASK);
            a.add(addr_r, addr_r, Gpr::s(0));
            let width = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D][rng.range_usize(0, 4)];
            let off = rng.range_i64(0, 4) as i32 * 8;
            if rng.chance(0.5) {
                a.load(width, rng.chance(0.7), reg(rng), off, addr_r);
            } else {
                a.store(width, reg(rng), off, addr_r);
            }
        }
        65..=72 => {
            let op = [
                MulDivOp::Mul,
                MulDivOp::Mulh,
                MulDivOp::Div,
                MulDivOp::Divu,
                MulDivOp::Rem,
                MulDivOp::Remu,
            ][rng.range_usize(0, 6)];
            a.muldiv(op, reg(rng), reg(rng), reg(rng));
        }
        73..=82 => {
            // Data-dependent short forward branch over 1-3 instructions.
            let l = format!("rnd_{}", *label_seq);
            *label_seq += 1;
            a.bnez(reg(rng), &l);
            for _ in 0..rng.range_i64(1, 4) {
                a.alui(AluOp::Add, reg(rng), reg(rng), 1);
            }
            a.label(&l);
        }
        83..=90 => {
            a.li(reg(rng), rng.range_i64(-100_000, 100_000));
        }
        91..=94 => {
            a.amoadd_d(reg(rng), reg(rng), Gpr::s(0));
        }
        _ => {
            a.fence();
        }
    }
}

fn random_program(seed: u64, len: usize) -> riscy_isa::asm::Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut a = Assembler::new(DRAM_BASE);
    a.li(Gpr::s(0), SCRATCH);
    // Seed the register pool.
    for (i, &r) in POOL.iter().enumerate() {
        a.li(Gpr::new(r), (i as i64 + 1) * 0x1234 - 7);
    }
    let mut label_seq = 0;
    for _ in 0..len {
        emit_random(&mut a, &mut rng, &mut label_seq);
    }
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.sd(Gpr::ZERO, 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

fn cosim_one(seed: u64, model: MemModel) {
    let prog = random_program(seed, 300);
    let cfg = CoreConfig {
        mem_model: model,
        ..CoreConfig::riscyoo_t_plus()
    };
    let mut sim = SocSim::new(cfg, mem_riscyoo_b(), 1, &prog);
    sim.soc_mut().enable_cosim(&prog);
    sim.run_to_completion(2_000_000)
        .unwrap_or_else(|e| panic!("seed {seed} ({model:?}): {e}"));
}

fn seeds(n: u64) -> u64 {
    // Debug builds run fewer seeds (each is a full pipeline simulation).
    if cfg!(debug_assertions) {
        n.min(4)
    } else {
        n
    }
}

#[test]
fn random_programs_cosim_wmm() {
    for seed in 0..seeds(12) {
        cosim_one(seed, MemModel::Wmm);
    }
}

#[test]
fn random_programs_cosim_tso() {
    for seed in 100..100 + seeds(12) {
        cosim_one(seed, MemModel::Tso);
    }
}

#[test]
fn random_programs_cosim_small_buffers() {
    // A deliberately cramped configuration: stresses stalls, flushes, and
    // resource-exhaustion paths.
    let cramped = CoreConfig {
        rob_entries: 8,
        iq_entries: 3,
        lq_entries: 4,
        sq_entries: 3,
        sb_entries: 1,
        phys_regs: 40,
        spec_tags: 2,
        ..CoreConfig::riscyoo_b()
    };
    for seed in 200..208 {
        let prog = random_program(seed, 250);
        let mut sim = SocSim::new(cramped, mem_riscyoo_b(), 1, &prog);
        sim.soc_mut().enable_cosim(&prog);
        sim.run_to_completion(4_000_000)
            .unwrap_or_else(|e| panic!("seed {seed} (cramped): {e}"));
    }
}

#[test]
fn random_programs_cosim_wide_proxy() {
    for seed in 300..306 {
        let prog = random_program(seed, 300);
        let mut sim = SocSim::new(
            CoreConfig::denver_proxy(),
            riscy_ooo::config::mem_arm_proxy(),
            1,
            &prog,
        );
        sim.soc_mut().enable_cosim(&prog);
        sim.run_to_completion(2_000_000)
            .unwrap_or_else(|e| panic!("seed {seed} (denver): {e}"));
    }
}

/// A commit stage of width 6 or more can leave the SQ holding a committed
/// fence ahead of a committed store. An AMO launching at commit must wait
/// for that store as well as for the head, or it reads memory before the
/// store reaches it. These seeds committed a wrong `amoadd.d` rd that way.
#[test]
fn random_programs_cosim_wide_commit_amo() {
    for width in [6, 8] {
        for seed in [20_278, 5_017] {
            let prog = random_program(seed, 200);
            for mode in [SchedulerMode::Fast, SchedulerMode::Reference] {
                let cfg = CoreConfig {
                    width,
                    ..CoreConfig::riscyoo_b()
                };
                let mut sim = SocSim::new(cfg, mem_riscyoo_b(), 1, &prog);
                sim.set_scheduler(mode);
                sim.soc_mut().enable_cosim(&prog);
                sim.run_to_completion(2_000_000)
                    .unwrap_or_else(|e| panic!("width {width} seed {seed} ({mode:?}): {e}"));
            }
        }
    }
}
