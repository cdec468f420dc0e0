//! # cmd-core — the Composable Modular Design (CMD) framework
//!
//! A Rust embedding of the design framework from *"Composable Building
//! Blocks to Open up Processor Design"* (Zhang, Wright, Bourgeat, Arvind —
//! MICRO 2018). In CMD:
//!
//! 1. **Interface methods** of modules provide instantaneous access and
//!    perform atomic updates to the state elements inside the module;
//! 2. every method is **guarded** — it cannot be applied unless it is ready
//!    (here: it returns [`guard::Stall`]);
//! 3. modules are composed by **atomic rules** that call methods of
//!    different modules; a rule either updates the state of *all* called
//!    modules or does nothing.
//!
//! Same-cycle concurrency between rules is governed by each module's
//! [`cm::ConflictMatrix`] over its methods (`{C, <, >, CF}`), and the
//! resulting hardware behaves as if multiple rules execute every cycle while
//! always being expressible as rules executing one-by-one. This crate
//! realizes those semantics as a cycle-accurate, transactional simulation
//! kernel:
//!
//! * [`clock`] — cycle/rule boundaries, atomic commit, CM enforcement;
//! * [`cell`] — transactional state: [`cell::Ehr`] (ephemeral history
//!   register), [`cell::Reg`] (D flip-flop), [`cell::Wire`] (RWire);
//! * [`journal`] — element-granular collection cells:
//!   [`journal::EhrArray`], [`journal::EhrDeque`];
//! * [`cm`] — conflict matrices;
//! * [`guard`] — guarded methods and rules;
//! * [`sim`] — the rule scheduler with per-rule firing statistics, a
//!   liveness watchdog, and structured [`sim::SimError`] diagnostics;
//! * [`sched`] — the fast-path scheduling machinery: the precise conflict
//!   probe and the two wakeup policies behind [`sched::SchedulerMode::Fast`]
//!   (the reference one-rule-at-a-time loop stays available as the
//!   correctness oracle, see `docs/SCHEDULING.md`);
//! * [`snap`] — versioned, byte-stable snapshots: the [`snap::Snap`] /
//!   [`snap::Snapshot`] codec traits, the writer/reader pair, and the
//!   kernel-state save/restore used by checkpoint/resume (see
//!   `docs/CHECKPOINT.md`);
//! * [`fifo`] — pipeline / bypass / conflict-free FIFOs;
//! * [`chaos`] — seeded, cycle-deterministic fault injection (forced guard
//!   stalls, transient rule aborts, bit flips) for resilience campaigns;
//! * [`rng`] — the in-tree deterministic PRNG backing tests and chaos;
//! * [`trace`] — structured event tracing, named perf counters, and the
//!   dependency-free JSON writer behind `--stats-json` (see
//!   `docs/OBSERVABILITY.md`);
//! * [`prof`] — the causal profiler: per-rule host-time attribution,
//!   critical-path analysis over publish→wake / CM-block edges, and the
//!   Chrome trace-event (Perfetto) exporter;
//! * [`telemetry`] — windowed time-series sampling of counters into
//!   bounded, byte-deterministic, snapshot-transparent rings (the
//!   campaign-monitoring substrate, see `docs/OBSERVABILITY.md`
//!   §telemetry);
//! * [`demo`] — the paper's tutorial designs (GCD §III, IQ/RDYB §IV).
//!
//! # Examples
//!
//! A producer/consumer pair over a bypass FIFO:
//!
//! ```
//! use cmd_core::prelude::*;
//!
//! struct St {
//!     q: BypassFifo<u64>,
//!     got: Ehr<Vec<u64>>,
//! }
//!
//! let clk = Clock::new();
//! let st = St { q: BypassFifo::new(&clk, 2), got: Ehr::new(&clk, Vec::new()) };
//! let mut sim = Sim::new(clk, st);
//! sim.rule("produce", |s: &mut St| s.q.enq(7));
//! sim.rule("consume", |s: &mut St| {
//!     let v = s.q.deq()?;
//!     s.got.update(|g| g.push(v));
//!     Ok(())
//! });
//! sim.run(3);
//! assert_eq!(sim.state().got.read(), vec![7, 7, 7]);
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod chaos;
pub mod clock;
pub mod cm;
pub mod demo;
pub mod fifo;
pub mod guard;
pub mod journal;
pub mod prof;
pub mod rng;
pub mod sched;
pub mod sim;
pub mod snap;
pub mod telemetry;
pub mod trace;
mod wake;

/// Convenient glob-import of the kernel's core types.
pub mod prelude {
    pub use crate::cell::{Ehr, Reg, Wire};
    pub use crate::chaos::{FaultEngine, FaultKind, FaultPlan, FaultRecord, LinkFault, RuleFault};
    pub use crate::clock::{CellId, Clock, CmViolation, ModuleIfc};
    pub use crate::cm::{ConflictMatrix, Rel};
    pub use crate::fifo::{BypassFifo, CfFifo, Fifo, PipelineFifo};
    pub use crate::guard::{Guarded, Stall};
    pub use crate::guard_that;
    pub use crate::journal::{EhrArray, EhrDeque};
    pub use crate::prof::{ChromeTrace, CriticalPath, Profiler, RuleProf};
    pub use crate::rng::SplitMix64;
    pub use crate::sched::{SchedulerMode, Wakeup};
    pub use crate::sim::{DeadlockReport, RuleId, RuleStats, RuleWait, Sim, SimError, WaitCause};
    pub use crate::snap::{Snap, SnapError, SnapReader, SnapWriter, Snapshot};
    pub use crate::telemetry::{Telemetry, TelemetryColumns, TelemetryTap, TelemetryWindow};
    pub use crate::trace::{Counter, Counters, Gauge, TraceEvent, TraceSink, Tracer};
}
