//! Lowers a litmus test to a bare-metal multi-hart RISC-V program.
//!
//! Every hart reads `mhartid` and branches to its thread's straight-line
//! block (spare harts beyond the test's thread count exit immediately with
//! code 0). Each location lives on its own 64-byte cache line in a
//! zero-initialized data segment, so all cross-thread interaction goes
//! through the MSI protocol. Observations accumulate in `a0`, `a1`, … and
//! are packed one byte each into the hart's exit code:
//!
//! ```text
//! exit_code = Σ_k  obs[k] << (8·k)
//! ```
//!
//! which [`crate::run`] unpacks from [`riscy_ooo::soc::SocSim::exit_codes`].

use riscy_isa::asm::{Assembler, Program};
use riscy_isa::csr::addr as csr;
use riscy_isa::mem::DRAM_BASE;
use riscy_isa::reg::Gpr;
use riscy_workloads::runtime::emit_exit_hart;

use crate::test::{LitmusTest, Op};

/// Physical base of the litmus data region: one 64-byte line per location,
/// clear of the code at [`DRAM_BASE`] and below the page-table pool.
pub const DATA_BASE: u64 = DRAM_BASE + 0x20_0000;

/// Physical address of litmus location `loc` (its own cache line).
#[must_use]
pub fn loc_addr(loc: u8) -> u64 {
    DATA_BASE + 64 * u64::from(loc)
}

/// Compiles `test` into a runnable [`Program`].
///
/// # Panics
///
/// Panics if the test violates the harness limits (checked by
/// [`LitmusTest::new`]).
#[must_use]
pub fn compile(test: &LitmusTest) -> Program {
    let mut a = Assembler::new(DRAM_BASE);

    // Hart dispatch.
    a.csrr(Gpr::t(0), csr::MHARTID);
    for t in 0..test.threads.len() {
        a.li(Gpr::t(1), t as i64);
        a.beq(Gpr::t(0), Gpr::t(1), &format!("thread{t}"));
    }
    // Spare harts: report nothing.
    a.li(Gpr::t(0), 0);
    emit_exit_hart(&mut a, Gpr::t(0), "spare");

    for (t, ops) in test.threads.iter().enumerate() {
        a.label(&format!("thread{t}"));
        let mut k = 0usize;
        for op in ops {
            match *op {
                Op::Write { loc, val } => {
                    a.li(Gpr::t(1), i64::from(val));
                    a.li(Gpr::t(2), loc_addr(loc) as i64);
                    a.sd(Gpr::t(1), 0, Gpr::t(2));
                }
                Op::Read { loc } => {
                    a.li(Gpr::t(2), loc_addr(loc) as i64);
                    a.ld(Gpr::a(k as u8), 0, Gpr::t(2));
                    k += 1;
                }
                Op::Fence => a.fence(),
                Op::AmoAdd { loc, val } => {
                    a.li(Gpr::t(1), i64::from(val));
                    a.li(Gpr::t(2), loc_addr(loc) as i64);
                    a.amoadd_d(Gpr::a(k as u8), Gpr::t(1), Gpr::t(2));
                    k += 1;
                }
            }
        }
        // Pack observations into t0 (one byte per slot) and exit.
        a.li(Gpr::t(0), 0);
        for i in 0..k {
            a.slli(Gpr::t(1), Gpr::a(i as u8), (8 * i) as i32);
            a.or(Gpr::t(0), Gpr::t(0), Gpr::t(1));
        }
        emit_exit_hart(&mut a, Gpr::t(0), &format!("thread{t}"));
    }

    a.data_segment(DATA_BASE, vec![0u8; 64 * test.num_locs().max(1)]);
    a.assemble()
}

/// Unpacks the per-thread observations from an exit code (inverse of the
/// packing emitted by [`compile`]).
#[must_use]
pub fn unpack_obs(code: u64, num_obs: usize) -> Vec<u8> {
    (0..num_obs).map(|k| (code >> (8 * k)) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::classic_suite;
    use riscy_isa::interp::Machine;

    #[test]
    fn pack_unpack_roundtrips() {
        let code = 0x03_02_01u64;
        assert_eq!(unpack_obs(code, 3), vec![1, 2, 3]);
        assert_eq!(unpack_obs(0, 0), Vec::<u8>::new());
    }

    #[test]
    fn compiled_suite_runs_on_the_golden_interpreter() {
        // The sequential interpreter is an SC machine: every outcome it
        // produces must be in both models' allowed sets.
        for test in classic_suite() {
            let prog = compile(&test);
            let mut m = Machine::with_program(test.threads.len(), &prog);
            m.run(1_000_000).expect("halts");
            let obs = (0..test.threads.len())
                .map(|t| {
                    let code = m.hart(t).halted.expect("thread exited");
                    unpack_obs(code, test.num_obs(t))
                })
                .collect::<Vec<_>>();
            let finals = (0..test.num_locs() as u8)
                .map(|l| {
                    let v = m.mem().read_u64(loc_addr(l));
                    assert!(v < 256, "{}: location {l} out of byte range", test.name);
                    v as u8
                })
                .collect::<Vec<_>>();
            let outcome = crate::model::Outcome { obs, finals };
            for model in [
                riscy_ooo::config::MemModel::Tso,
                riscy_ooo::config::MemModel::Wmm,
            ] {
                assert!(
                    crate::model::allowed_outcomes(&test, model).contains(&outcome),
                    "{}: SC outcome {outcome} not allowed under {model:?}",
                    test.name
                );
            }
        }
    }
}
