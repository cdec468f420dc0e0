//! # riscy-ooo — the RiscyOO out-of-order RISC-V processor
//!
//! The paper's demonstration vehicle (§V, Fig. 9): a parameterized
//! superscalar out-of-order core built from CMD modules — ROB, issue
//! queues, rename table, speculation manager, physical register file with
//! scoreboard, split LSQ, store buffer — composed by top-level atomic
//! rules, plus the multicore SoC of Fig. 11.
//!
//! * [`config`] — every named configuration of Figs. 12–14 and the
//!   comparison-processor proxies;
//! * [`types`] — micro-ops, physical registers, speculation masks;
//! * [`frontend`] — BTB, tournament predictor, RAS;
//! * [`ff`] — interpreter-driven fast-forward with functional warming;
//! * [`rename`] — rename tables, free list, speculation manager;
//! * [`prf`] — physical register file, scoreboard, bypass network;
//! * [`rob`] — reorder buffer with the paper's interface;
//! * [`iq`] — issue queues;
//! * [`lsq`] — split load/store queue (TSO and WMM);
//! * [`sb`] — store buffer;
//! * [`pipetrace`] — Konata/O3PipeView pipeline trace export and
//!   per-instruction spans for the Chrome trace exporter;
//! * [`tma`] — top-down (TMA) cycle accounting;
//! * [`tlbport`] — per-core TLB hierarchy (blocking and non-blocking);
//! * [`core`] — the core's state and top-level rules;
//! * [`soc`] — the SoC, devices, and the runnable [`soc::SocSim`].
//!
//! # Examples
//!
//! Run a small program on a single RiscyOO-T+ core with golden-model
//! co-simulation:
//!
//! ```
//! use riscy_isa::asm::Assembler;
//! use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
//! use riscy_isa::reg::Gpr;
//! use riscy_ooo::config::CoreConfig;
//! use riscy_ooo::soc::SocSim;
//!
//! let mut a = Assembler::new(DRAM_BASE);
//! a.li(Gpr::a(0), 21);
//! a.add(Gpr::a(0), Gpr::a(0), Gpr::a(0));
//! a.li(Gpr::t(0), MMIO_EXIT as i64);
//! a.sd(Gpr::a(0), 0, Gpr::t(0));
//! let prog = a.assemble();
//!
//! let mut sim = SocSim::new(
//!     CoreConfig::riscyoo_t_plus(),
//!     riscy_ooo::config::mem_riscyoo_b(),
//!     1,
//!     &prog,
//! );
//! sim.soc_mut().enable_cosim(&prog);
//! let cycles = sim.run_to_completion(100_000).expect("program halts");
//! assert!(cycles > 0);
//! assert_eq!(sim.soc().devices.exited[0].read(), Some(42));
//! ```

pub mod config;
pub mod core;
pub mod ff;
pub mod frontend;
pub mod iq;
pub mod lsq;
mod mask;
pub mod pipetrace;
pub mod prf;
pub mod rename;
pub mod rob;
pub mod sb;
pub mod soc;
pub mod tlbport;
pub mod tma;
pub mod types;
