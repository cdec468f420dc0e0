//! # Fleet runner — many SoCs per process
//!
//! Host-thread parallelism in this repository is **scale-out across
//! independent simulations** (see `docs/PARALLELISM.md`): one simulation
//! kernel stays on one thread, many run side by side. A campaign is a grid of
//! [`FleetUnit`]s (seed × config × workload); [`run_fleet`] executes the
//! grid on a pool of host threads that claim units from one shared queue,
//! streams one stats-JSON file per finished unit into the campaign
//! directory, and folds everything into a [`FleetReport`] whose
//! [`deterministic_json`](FleetReport::deterministic_json) bytes are
//! independent of thread count, claim order, and kill/resume history.
//!
//! Each simulation kernel is thread-confined (`Rc`/`RefCell` state), so
//! the unit — not the rule — is the granule that crosses threads: a
//! worker owns a whole `SocSim` from construction to completion. Units
//! are seeded deterministically and never share state, so any schedule of
//! units over workers produces the same per-unit results; the report
//! sorts by unit id before serializing, which is the entire determinism
//! argument at this layer.
//!
//! ## Kill and resume
//!
//! With a campaign directory, every completed unit is persisted as
//! `unit_<id>.json` (written to a temp file and renamed, so a kill can
//! only lose in-flight units, never corrupt finished ones). A rerun of
//! the same grid loads finished units from disk and only simulates the
//! remainder; the final aggregate report is byte-identical to a
//! single-shot run. [`FleetOpts::stop_after`] bounds how many units one
//! invocation completes, which is how the resume tests simulate a kill.
//!
//! ## Mid-unit checkpoints
//!
//! [`FleetOpts::checkpoint_every`] shrinks the kill-loss granule from a
//! whole unit to a checkpoint stride: every N simulated cycles the runner
//! snapshots the live SoC ([`SocSim::save_snapshot`], see
//! `docs/CHECKPOINT.md`) into `unit_<id>.ckpt` (temp file + rename, like
//! the unit files). A resumed campaign restores the snapshot and
//! continues from the checkpointed cycle instead of cycle zero; because
//! snapshots round-trip bit-identically, the aggregate report bytes stay
//! equal to a single-shot run's. Finished units delete their checkpoint;
//! a checkpoint that fails to restore (stale grid, version skew) is
//! discarded and the unit replays from scratch — always safe. Chaos units
//! checkpoint like any other: the snapshot carries the fault log, and its
//! digest names the fault plan.
//! [`FleetOpts::abort_after_ckpts`] is the testing hook that simulates a
//! kill *mid-unit*, right after the Nth checkpoint lands on disk.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cmd_core::chaos::{FaultEngine, FaultPlan};
use cmd_core::sched::SchedulerMode;
use cmd_core::trace::json::JsonWriter;
use riscy_ooo::config::{mem_riscyoo_b, mem_riscyoo_c_minus, CoreConfig};
use riscy_ooo::soc::{RunError, SocSim};
use riscy_workloads::spec::Workload;

/// One cell of the campaign grid: a fully specified, independent
/// simulation. `id` is the unit's position in the grid enumeration order
/// and doubles as its resume key, so the same grid arguments must always
/// enumerate the same ids (which [`fleet_grid`] guarantees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetUnit {
    /// Grid index; stable across invocations of the same grid.
    pub id: usize,
    /// Chaos / placement seed for this unit.
    pub seed: u64,
    /// Config label, e.g. `"t+"` or `"c-"` (see [`SocFleet::run_unit`]).
    pub config: String,
    /// Workload name, resolved against the fleet's workload list.
    pub workload: String,
}

/// What one finished unit reports. Everything here is simulation-domain
/// (deterministic); host wall time lives in [`UnitRecord`] instead so it
/// can be excluded from the deterministic report bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions committed in the region of interest.
    pub insts: u64,
    /// Whether the run completed cleanly (a chaos plan may legitimately
    /// push a run past its cycle budget; that is recorded, not fatal).
    pub exit_ok: bool,
    /// Named simulation-domain metrics (IPC, miss rates, config axes …)
    /// the sweep aggregator folds into Pareto reports (see
    /// [`crate::sweep`]). Deterministic: derived only from counters and
    /// the unit's configuration, never from host time.
    pub metrics: Vec<(String, f64)>,
}

/// A unit paired with its result and bookkeeping about *how* it was
/// obtained this invocation.
#[derive(Debug, Clone)]
pub struct UnitRecord {
    /// The grid cell.
    pub unit: FleetUnit,
    /// Its simulation-domain result.
    pub stats: UnitStats,
    /// Host seconds spent simulating it this invocation (`0.0` if the
    /// result was loaded from a campaign directory).
    pub wall_s: f64,
    /// True when the result was resumed from disk rather than simulated.
    pub resumed: bool,
}

/// Execution knobs for [`run_fleet`].
#[derive(Debug, Clone, Default)]
pub struct FleetOpts {
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Campaign directory for per-unit persistence and resume.
    pub campaign_dir: Option<PathBuf>,
    /// Stop after completing this many units this invocation (testing
    /// hook: simulates a mid-campaign kill for the resume tests).
    pub stop_after: Option<usize>,
    /// Snapshot each in-flight unit every this many simulated cycles
    /// (needs [`FleetOpts::campaign_dir`]; see module docs §"Mid-unit
    /// checkpoints").
    pub checkpoint_every: Option<u64>,
    /// Abort the campaign right after this many checkpoints have been
    /// written, fleet-wide (testing hook: simulates a kill *mid-unit*,
    /// with a checkpoint on disk and the unit unfinished).
    pub abort_after_ckpts: Option<usize>,
    /// Append a heartbeat record to `heartbeats.ndjson` every this many
    /// simulated cycles per unit (needs [`FleetOpts::campaign_dir`]; see
    /// [`Heartbeats`]). Host-dependent by design and therefore excluded
    /// from [`FleetReport::deterministic_json`].
    pub heartbeat_every: Option<u64>,
    /// Per-unit wall-clock budget in host seconds. A unit that exceeds it
    /// stops at the next chunk boundary, persists a structured
    /// wait-graph bundle as `unit_<id>.stall.json`, and records
    /// `exit_ok: false` — the campaign keeps going instead of sitting
    /// silently on a hung unit. Diagnostic mode: because the cut point
    /// depends on host speed, reports from timed-out campaigns are not
    /// byte-comparable.
    pub unit_timeout: Option<f64>,
    /// Enable windowed kernel telemetry on every unit as
    /// `(window_cycles, max_windows)`; each finished unit writes its ring
    /// as `unit_<id>.telemetry.json` (needs [`FleetOpts::campaign_dir`]).
    pub telemetry: Option<(u64, usize)>,
}

/// The fleet's live-monitoring stream: newline-delimited JSON heartbeat
/// records in the campaign directory (`heartbeats.ndjson`), one object
/// per beat (`unit`, `phase`, `cycles`, `insts`, `ckpts`, `cps`, `eta_s`,
/// `wall_s`, then the `sum` seal). The whole file is rewritten atomically
/// (temp file + rename) on every beat so `repro watch` never reads a torn
/// line, and existing lines are preloaded on resume so a campaign's
/// monitoring history survives kill/resume; a damaged line is skipped. Heartbeats carry host time on purpose — they are
/// for operators, and are excluded from every deterministic artifact.
#[derive(Debug)]
pub struct Heartbeats {
    path: PathBuf,
    lines: Mutex<Vec<String>>,
}

impl Heartbeats {
    /// Opens (or creates) the stream at `dir/heartbeats.ndjson`,
    /// preloading the lines a previous invocation left behind whose
    /// `sum` seal holds; a torn or damaged line is dropped.
    #[must_use]
    pub fn open(dir: &Path) -> Self {
        let path = dir.join("heartbeats.ndjson");
        let lines = std::fs::read(&path)
            .unwrap_or_default()
            .split(|&b| b == b'\n')
            .filter_map(|line| std::str::from_utf8(line).ok())
            .filter(|line| unseal(line).is_some())
            .map(str::to_string)
            .collect();
        Heartbeats {
            path,
            lines: Mutex::new(lines),
        }
    }

    /// Appends one record and rewrites the file atomically.
    ///
    /// # Panics
    ///
    /// Panics when the stream cannot be written — the operator asked for
    /// monitoring, so silently dropping it would defeat the point.
    pub fn beat(&self, line: String) {
        let mut lines = self.lines.lock().unwrap();
        lines.push(line);
        let mut text = lines.join("\n");
        text.push('\n');
        let tmp = self.path.with_extension("ndjson.tmp");
        std::fs::write(&tmp, text)
            .and_then(|()| std::fs::rename(&tmp, &self.path))
            .unwrap_or_else(|e| panic!("fleet: cannot write {}: {e}", self.path.display()));
    }
}

/// Serializes one heartbeat record as a single NDJSON line.
#[allow(clippy::too_many_arguments)]
fn heartbeat_line(
    unit: usize,
    phase: &str,
    cycles: u64,
    insts: u64,
    ckpts: u64,
    cps: f64,
    eta_s: f64,
    wall_s: f64,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("unit", unit as u64);
    w.field_str("phase", phase);
    w.field_u64("cycles", cycles);
    w.field_u64("insts", insts);
    w.field_u64("ckpts", ckpts);
    w.field_f64("cps", cps);
    w.field_f64("eta_s", eta_s);
    w.field_f64("wall_s", wall_s);
    w.end_object();
    seal(&w.finish())
}

/// Seals a flat JSON object against damage: appends a `"sum"` member, the
/// FNV-1a hash of the object's text without it. Any one changed byte of a
/// sealed record breaks the seal, so a reader refuses a damaged record
/// rather than take a wrong value from it.
fn seal(json: &str) -> String {
    let body = json.strip_suffix('}').expect("a JSON object");
    format!("{body},\"sum\":{}}}", fnv1a(json.as_bytes()))
}

/// The object a [`seal`]ed record carries, `None` when the seal is
/// missing or does not match.
fn unseal(record: &str) -> Option<String> {
    let (body, sum) = record.trim().rsplit_once(",\"sum\":")?;
    let sum: u64 = sum.strip_suffix('}')?.parse().ok()?;
    let json = format!("{body}}}");
    (fnv1a(json.as_bytes()) == sum).then_some(json)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-unit execution context [`run_fleet`] hands to the runner: where
/// this unit's mid-run checkpoint lives, how often to take one, and the
/// shared abort budget behind [`FleetOpts::abort_after_ckpts`].
#[derive(Debug)]
pub struct UnitCtx<'a> {
    /// This unit's checkpoint file (`unit_<id>.ckpt`), present only when
    /// the campaign has both a directory and a checkpoint stride.
    pub ckpt_path: Option<PathBuf>,
    /// Simulated-cycle stride between checkpoints.
    pub checkpoint_every: Option<u64>,
    /// Remaining fleet-wide checkpoint tickets (`None` = unlimited).
    ckpt_tickets: Option<&'a AtomicUsize>,
    /// The campaign's heartbeat stream, when monitoring is on.
    pub heartbeats: Option<&'a Heartbeats>,
    /// Simulated-cycle stride between heartbeat records.
    pub heartbeat_every: Option<u64>,
    /// Per-unit wall-clock budget in host seconds (see
    /// [`FleetOpts::unit_timeout`]).
    pub unit_timeout: Option<f64>,
    /// Where this unit's stall bundle goes on timeout
    /// (`unit_<id>.stall.json`).
    pub stall_path: Option<PathBuf>,
    /// Windowed-telemetry policy as `(window_cycles, max_windows)`.
    pub telemetry: Option<(u64, usize)>,
    /// Where this unit's telemetry ring goes on completion
    /// (`unit_<id>.telemetry.json`).
    pub telemetry_path: Option<PathBuf>,
}

impl UnitCtx<'_> {
    /// A context with checkpointing, monitoring, and telemetry disabled
    /// (single-shot callers).
    #[must_use]
    pub fn none() -> Self {
        UnitCtx {
            ckpt_path: None,
            checkpoint_every: None,
            ckpt_tickets: None,
            heartbeats: None,
            heartbeat_every: None,
            unit_timeout: None,
            stall_path: None,
            telemetry: None,
            telemetry_path: None,
        }
    }

    /// Consumes one checkpoint ticket after a checkpoint has been written.
    /// Returns `false` when the ticket budget is now exhausted: the runner
    /// must abandon its unit (returning `None`), exactly as if the process
    /// had been killed the instant the checkpoint landed on disk.
    #[must_use]
    pub fn take_ckpt_ticket(&self) -> bool {
        let Some(t) = self.ckpt_tickets else {
            return true;
        };
        t.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok_and(|prev| prev > 1)
    }
}

/// Aggregated outcome of one [`run_fleet`] invocation.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Finished units in ascending unit-id order (resumed and fresh).
    /// When the run was stopped early, only completed units appear.
    pub records: Vec<UnitRecord>,
    /// Worker threads used.
    pub threads: usize,
    /// Host seconds for the whole invocation.
    pub wall_s: f64,
    /// True when [`FleetOpts::stop_after`] ended the run with units
    /// still pending.
    pub stopped_early: bool,
}

impl FleetReport {
    /// Simulated cycles across all finished units (resumed included).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.records.iter().map(|r| r.stats.cycles).sum()
    }

    /// Committed ROI instructions across all finished units.
    #[must_use]
    pub fn total_insts(&self) -> u64 {
        self.records.iter().map(|r| r.stats.insts).sum()
    }

    /// Simulated cycles actually executed *this invocation* (excludes
    /// units resumed from disk) — the numerator of [`agg_cps`](Self::agg_cps).
    #[must_use]
    pub fn fresh_cycles(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| !r.resumed)
            .map(|r| r.stats.cycles)
            .sum()
    }

    /// True when every finished unit exited cleanly.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.stats.exit_ok)
    }

    /// Aggregate simulation throughput: simulated cycles executed this
    /// invocation per host second, summed over all workers. This is the
    /// fleet's headline metric, printed by `repro fleet`.
    #[must_use]
    pub fn agg_cps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.fresh_cycles() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// The campaign report with every host-dependent field (wall time,
    /// thread count, resume provenance) excluded: two invocations that
    /// finished the same grid produce byte-identical output regardless of
    /// thread count, claim order, or how the
    /// campaign was split across kill/resume boundaries.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.schema_version();
        w.field_u64("units", self.records.len() as u64);
        w.field_u64("total_cycles", self.total_cycles());
        w.field_u64("total_insts", self.total_insts());
        w.key("all_ok");
        w.boolean(self.all_ok());
        w.key("runs");
        w.begin_array();
        for r in &self.records {
            w.begin_object();
            w.field_u64("id", r.unit.id as u64);
            w.field_u64("seed", r.unit.seed);
            w.field_str("config", &r.unit.config);
            w.field_str("workload", &r.unit.workload);
            w.field_u64("cycles", r.stats.cycles);
            w.field_u64("insts", r.stats.insts);
            w.key("exit_ok");
            w.boolean(r.stats.exit_ok);
            w.key("metrics");
            w.begin_object();
            for (name, value) in &r.stats.metrics {
                w.field_f64(name, *value);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Enumerates the seed × config × workload grid in the canonical order
/// (seed outermost, workload innermost) and assigns unit ids from that
/// order. Resume keys depend on this enumeration being stable.
#[must_use]
pub fn fleet_grid(seeds: &[u64], configs: &[&str], workloads: &[&Workload]) -> Vec<FleetUnit> {
    let mut units = Vec::with_capacity(seeds.len() * configs.len() * workloads.len());
    for &seed in seeds {
        for &config in configs {
            for w in workloads {
                units.push(FleetUnit {
                    id: units.len(),
                    seed,
                    config: config.to_string(),
                    workload: w.name.to_string(),
                });
            }
        }
    }
    units
}

/// Runs `units` to completion on `opts.threads` workers and returns the
/// aggregate report.
///
/// Workers claim units in grid order from one shared queue. A unit is an
/// independent simulation seconds long, so one lock per claim costs
/// nothing measurable, and the schedule affects only wall time — never
/// results — so the report's
/// [`deterministic_json`](FleetReport::deterministic_json) is identical
/// for any thread count.
///
/// With [`FleetOpts::campaign_dir`] set, previously persisted units are
/// loaded instead of re-simulated and fresh completions are persisted
/// atomically (temp file + rename).
///
/// The runner receives a [`UnitCtx`] describing the unit's checkpoint
/// policy and returns `None` when it abandoned the unit mid-run (the
/// checkpoint-ticket budget ran out — the simulated kill). An abandoned
/// unit stops the whole invocation: remaining tickets are zeroed so no
/// worker claims further units, the unit is neither recorded nor
/// persisted, and only its `unit_<id>.ckpt` survives for the next resume.
///
/// # Panics
///
/// Panics when the campaign directory cannot be created or a unit file
/// cannot be written — a campaign that silently loses persistence would
/// break the resume contract.
pub fn run_fleet<F>(units: Vec<FleetUnit>, opts: &FleetOpts, runner: F) -> FleetReport
where
    F: Fn(&FleetUnit, &UnitCtx<'_>) -> Option<UnitStats> + Sync,
{
    let start = Instant::now();
    let threads = opts.threads.max(1);

    // Resume: split the grid into already-finished records and pending work.
    let mut records: Vec<UnitRecord> = Vec::new();
    let mut pending: Vec<FleetUnit> = Vec::new();
    if let Some(dir) = &opts.campaign_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("fleet: cannot create {}: {e}", dir.display()));
        for u in units {
            match load_unit(dir, &u) {
                Some(stats) => records.push(UnitRecord {
                    unit: u,
                    stats,
                    wall_s: 0.0,
                    resumed: true,
                }),
                None => pending.push(u),
            }
        }
    } else {
        pending = units;
    }
    let pending_total = pending.len();

    let queue = Mutex::new(VecDeque::from(pending));
    let budget = AtomicUsize::new(opts.stop_after.unwrap_or(usize::MAX));
    let ckpt_tickets = opts.abort_after_ckpts.map(AtomicUsize::new);
    let done: Mutex<Vec<UnitRecord>> = Mutex::new(Vec::new());
    let dir = opts.campaign_dir.as_deref();
    let heartbeats = dir
        .filter(|_| opts.heartbeat_every.is_some() || opts.unit_timeout.is_some())
        .map(Heartbeats::open);

    std::thread::scope(|s| {
        for _ in 0..threads {
            let queue = &queue;
            let budget = &budget;
            let ckpt_tickets = ckpt_tickets.as_ref();
            let heartbeats = heartbeats.as_ref();
            let done = &done;
            let runner = &runner;
            s.spawn(move || loop {
                // Claim a completion ticket *before* taking a unit so a
                // stopped run leaves unclaimed units on the queue (and
                // on disk as "not yet finished") rather than half-done.
                if budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                    .is_err()
                {
                    return;
                }
                let unit = queue.lock().unwrap().pop_front();
                let Some(unit) = unit else {
                    // Out of work; return the unused ticket for
                    // bookkeeping symmetry and retire.
                    budget.fetch_add(1, Ordering::SeqCst);
                    return;
                };
                let ctx = UnitCtx {
                    ckpt_path: dir
                        .filter(|_| opts.checkpoint_every.is_some())
                        .map(|d| ckpt_path(d, unit.id)),
                    checkpoint_every: opts.checkpoint_every,
                    ckpt_tickets,
                    heartbeats,
                    heartbeat_every: opts.heartbeat_every,
                    unit_timeout: opts.unit_timeout,
                    stall_path: dir.map(|d| stall_path(d, unit.id)),
                    telemetry: opts.telemetry,
                    telemetry_path: dir
                        .filter(|_| opts.telemetry.is_some())
                        .map(|d| telemetry_path(d, unit.id)),
                };
                let t0 = Instant::now();
                let Some(stats) = runner(&unit, &ctx) else {
                    // The unit was abandoned mid-run (simulated kill):
                    // zero the completion budget so no worker claims
                    // further units and this invocation winds down.
                    budget.store(0, Ordering::SeqCst);
                    return;
                };
                let wall_s = t0.elapsed().as_secs_f64();
                if let Some(dir) = dir {
                    persist_unit(dir, &unit, &stats);
                }
                done.lock().unwrap().push(UnitRecord {
                    unit,
                    stats,
                    wall_s,
                    resumed: false,
                });
            });
        }
    });

    let fresh = done.into_inner().unwrap();
    let stopped_early = fresh.len() < pending_total;
    records.extend(fresh);
    records.sort_by_key(|r| r.unit.id);
    FleetReport {
        records,
        threads,
        wall_s: start.elapsed().as_secs_f64(),
        stopped_early,
    }
}

fn unit_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("unit_{id}.json"))
}

fn ckpt_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("unit_{id}.ckpt"))
}

fn stall_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("unit_{id}.stall.json"))
}

fn telemetry_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("unit_{id}.telemetry.json"))
}

/// How often (in simulated cycles) a unit with *only* a wall-clock
/// timeout re-checks the clock: fine enough that a hung unit is caught
/// within seconds, coarse enough that the chunked run loop stays cheap.
const TIMEOUT_CHECK_STRIDE: u64 = 50_000;

/// Writes a per-unit campaign artifact atomically (temp file + rename),
/// quietly — campaigns write many of these.
fn write_unit_artifact(path: &Path, contents: &str) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)
        .and_then(|()| std::fs::rename(&tmp, path))
        .unwrap_or_else(|e| panic!("fleet: cannot write {}: {e}", path.display()));
}

/// Persists the structured diagnosis of a timed-out unit: identity,
/// progress at the cut, and the kernel's wait graph (which rules are
/// stalled and on what guard / conflict-matrix edge), so a hung campaign
/// unit is debuggable from the campaign directory alone.
fn write_stall_bundle(path: &Path, unit: &FleetUnit, sim: &SocSim, wall_s: f64) {
    let report = sim.wait_graph();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.schema_version();
    w.field_u64("unit", unit.id as u64);
    w.field_u64("seed", unit.seed);
    w.field_str("config", &unit.config);
    w.field_str("workload", &unit.workload);
    w.field_u64("cycles", sim.cycles());
    w.field_u64("insts", sim.soc().cores[0].stats.roi_insts);
    w.field_f64("wall_s", wall_s);
    w.field_u64("stalled_for", report.stalled_for);
    w.key("waits");
    w.begin_array();
    for wait in &report.waits {
        w.begin_object();
        w.field_str("rule", &wait.rule);
        w.field_str("cause", &wait.cause.to_string());
        w.end_object();
    }
    w.end_array();
    w.end_object();
    write_unit_artifact(path, &w.finish());
}

/// Writes a mid-run checkpoint atomically (temp file + rename), the same
/// torn-write discipline as the unit files.
///
/// # Panics
///
/// Panics when the checkpoint cannot be written — the operator asked for
/// checkpointing, so silently losing it would break the resume contract.
pub fn write_ckpt(path: &Path, bytes: &[u8]) {
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .unwrap_or_else(|e| panic!("fleet: cannot write checkpoint {}: {e}", path.display()));
}

/// Serializes one finished unit as a flat, [`seal`]ed JSON object.
/// Metrics are flattened as `m_<name>` keys so the file stays in the
/// one-level dialect [`parse_flat_json`] understands.
fn unit_json(unit: &FleetUnit, stats: &UnitStats) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.schema_version();
    w.field_u64("id", unit.id as u64);
    w.field_u64("seed", unit.seed);
    w.field_str("config", &unit.config);
    w.field_str("workload", &unit.workload);
    w.field_u64("cycles", stats.cycles);
    w.field_u64("insts", stats.insts);
    w.key("exit_ok");
    w.boolean(stats.exit_ok);
    for (name, value) in &stats.metrics {
        w.field_f64(&format!("m_{name}"), *value);
    }
    w.end_object();
    seal(&w.finish())
}

/// Writes the unit file atomically: temp file in the same directory, then
/// rename, so a kill mid-write never leaves a torn `unit_<id>.json`.
fn persist_unit(dir: &Path, unit: &FleetUnit, stats: &UnitStats) {
    let tmp = dir.join(format!("unit_{}.json.tmp", unit.id));
    let path = unit_path(dir, unit.id);
    std::fs::write(&tmp, unit_json(unit, stats))
        .and_then(|()| std::fs::rename(&tmp, &path))
        .unwrap_or_else(|e| panic!("fleet: cannot persist {}: {e}", path.display()));
}

/// Parses one persisted unit file back into its grid cell and result.
/// Returns `None` on malformed input or a broken `sum` seal; the caller then
/// just re-runs the unit, which is always safe.
#[must_use]
pub fn parse_unit_file(text: &str) -> Option<(FleetUnit, UnitStats)> {
    let obj = parse_flat_json(&unseal(text)?)?;
    let field_u64 = |k: &str| -> Option<u64> {
        match obj.iter().find(|(key, _)| key == k)? {
            (_, JsonValue::Num(n)) => Some(*n),
            _ => None,
        }
    };
    let field_str = |k: &str| -> Option<&str> {
        match obj.iter().find(|(key, _)| key == k)? {
            (_, JsonValue::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let field_bool = |k: &str| -> Option<bool> {
        match obj.iter().find(|(key, _)| key == k)? {
            (_, JsonValue::Bool(b)) => Some(*b),
            _ => None,
        }
    };
    let metrics = obj
        .iter()
        .filter_map(|(key, v)| {
            let name = key.strip_prefix("m_")?;
            let value = match v {
                JsonValue::Num(n) => *n as f64,
                JsonValue::Float(x) => *x,
                _ => return None,
            };
            Some((name.to_string(), value))
        })
        .collect();
    Some((
        FleetUnit {
            id: usize::try_from(field_u64("id")?).ok()?,
            seed: field_u64("seed")?,
            config: field_str("config")?.to_string(),
            workload: field_str("workload")?.to_string(),
        },
        UnitStats {
            cycles: field_u64("cycles")?,
            insts: field_u64("insts")?,
            exit_ok: field_bool("exit_ok")?,
            metrics,
        },
    ))
}

/// Loads a persisted unit result, verifying it describes the *same* grid
/// cell (a stale campaign directory from a different grid must not be
/// silently accepted as progress).
fn load_unit(dir: &Path, unit: &FleetUnit) -> Option<UnitStats> {
    let text = std::fs::read_to_string(unit_path(dir, unit.id)).ok()?;
    let (parsed, stats) = parse_unit_file(&text)?;
    if parsed != *unit {
        return None;
    }
    Some(stats)
}

/// Loads every `unit_<id>.json` in a campaign directory in ascending
/// unit-id order — the sweep aggregator's input (see [`crate::sweep`]).
/// Malformed or unreadable files are skipped, exactly as resume skips
/// them.
///
/// # Panics
///
/// Panics when the directory itself cannot be read: aggregating a
/// campaign that does not exist is an operator error, not an empty sweep.
#[must_use]
pub fn load_campaign(dir: &Path) -> Vec<(FleetUnit, UnitStats)> {
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("fleet: cannot read campaign {}: {e}", dir.display()));
    let mut ids: Vec<usize> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("unit_")?
                .strip_suffix(".json")?
                .parse()
                .ok()
        })
        .collect();
    ids.sort_unstable();
    ids.iter()
        .filter_map(|&id| {
            let text = std::fs::read_to_string(unit_path(dir, id)).ok()?;
            parse_unit_file(&text).filter(|(u, _)| u.id == id)
        })
        .collect()
}

/// Renders a one-screen status snapshot of a live campaign from its
/// on-disk monitoring state (`repro watch`): the latest heartbeat per
/// unit, which units have finished (`unit_<id>.json` on disk), and which
/// are flagged as stalled (a `stalled` heartbeat or a
/// `unit_<id>.stall.json` bundle). Read-only and safe to run while the
/// campaign is executing — heartbeats and unit files are rename-atomic,
/// so a snapshot never observes a torn record.
///
/// # Panics
///
/// Panics when the campaign directory cannot be read.
#[must_use]
pub fn watch_snapshot(dir: &Path) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    let mut latest: BTreeMap<u64, Vec<(String, JsonValue)>> = BTreeMap::new();
    let mut beats = 0usize;
    if let Ok(text) = std::fs::read_to_string(dir.join("heartbeats.ndjson")) {
        for line in text.lines() {
            let Some(obj) = unseal(line).as_deref().and_then(parse_flat_json) else {
                continue;
            };
            let Some((_, JsonValue::Num(id))) = obj.iter().find(|(k, _)| k == "unit") else {
                continue;
            };
            beats += 1;
            latest.insert(*id, obj);
        }
    }
    let mut done: Vec<usize> = Vec::new();
    let mut stalled_bundles: Vec<usize> = Vec::new();
    let entries = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("fleet: cannot read campaign {}: {e}", dir.display()));
    for e in entries.filter_map(Result::ok) {
        let Ok(name) = e.file_name().into_string() else {
            continue;
        };
        if let Some(id) = name
            .strip_prefix("unit_")
            .and_then(|r| r.strip_suffix(".stall.json"))
            .and_then(|r| r.parse().ok())
        {
            stalled_bundles.push(id);
        } else if let Some(id) = name
            .strip_prefix("unit_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|r| r.parse().ok())
        {
            done.push(id);
        }
    }
    done.sort_unstable();
    stalled_bundles.sort_unstable();

    let get_u64 = |obj: &[(String, JsonValue)], k: &str| -> u64 {
        match obj.iter().find(|(key, _)| key == k) {
            Some((_, JsonValue::Num(n))) => *n,
            _ => 0,
        }
    };
    let get_f64 = |obj: &[(String, JsonValue)], k: &str| -> f64 {
        match obj.iter().find(|(key, _)| key == k) {
            Some((_, JsonValue::Float(x))) => *x,
            Some((_, JsonValue::Num(n))) => *n as f64,
            _ => 0.0,
        }
    };
    let get_str = |obj: &[(String, JsonValue)], k: &str| -> String {
        match obj.iter().find(|(key, _)| key == k) {
            Some((_, JsonValue::Str(s))) => s.clone(),
            _ => String::from("?"),
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign {}: {} units finished, {} heartbeats",
        dir.display(),
        done.len(),
        beats,
    );
    let _ = writeln!(
        out,
        "{:<6} {:<8} {:>14} {:>12} {:>12} {:>8} {:>6}",
        "unit", "phase", "cycles", "insts", "cps", "eta_s", "ckpts"
    );
    for (id, obj) in &latest {
        let phase = get_str(obj, "phase");
        let finished = done.contains(&usize::try_from(*id).unwrap_or(usize::MAX));
        let shown = if finished && phase != "stalled" {
            "done".to_string()
        } else {
            phase.clone()
        };
        let flag = if phase == "stalled" {
            "  << STALLED"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<6} {:<8} {:>14} {:>12} {:>12.0} {:>8.1} {:>6}{}",
            id,
            shown,
            get_u64(obj, "cycles"),
            get_u64(obj, "insts"),
            get_f64(obj, "cps"),
            get_f64(obj, "eta_s"),
            get_u64(obj, "ckpts"),
            flag,
        );
    }
    for id in &stalled_bundles {
        let _ = writeln!(out, "stall bundle on disk: unit_{id}.stall.json");
    }
    out
}

/// A value in the flat unit-file JSON dialect.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Num(u64),
    Float(f64),
    Str(String),
    Bool(bool),
}

/// Parses a single flat JSON object (`{"k": v, ...}` with string, bool,
/// and number values — exactly what [`unit_json`] and [`heartbeat_line`]
/// emit; numbers with a `.`, exponent, or sign parse as [`JsonValue::Float`]).
/// Returns `None` on anything else; a malformed unit file then just
/// re-runs the unit, which is always safe.
fn parse_flat_json(text: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut chars = text.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut out = Vec::new();
    loop {
        while chars.peek().is_some_and(|c| c.is_whitespace() || *c == ',') {
            chars.next();
        }
        match chars.peek()? {
            '}' => {
                chars.next();
                return Some(out);
            }
            '"' => {}
            _ => return None,
        }
        let key = parse_string(&mut chars)?;
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
        if chars.next()? != ':' {
            return None;
        }
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
        let val = match chars.peek()? {
            '"' => JsonValue::Str(parse_string(&mut chars)?),
            't' | 'f' => {
                let mut word = String::new();
                while chars.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                    word.push(chars.next()?);
                }
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    _ => return None,
                }
            }
            c if c.is_ascii_digit() || *c == '-' => {
                let mut lit = String::new();
                while chars
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                {
                    lit.push(chars.next()?);
                }
                if lit.chars().all(|c| c.is_ascii_digit()) {
                    JsonValue::Num(lit.parse().ok()?)
                } else {
                    JsonValue::Float(lit.parse().ok()?)
                }
            }
            _ => return None,
        };
        out.push((key, val));
    }
}

/// Parses a JSON string literal (leading quote still pending). Only the
/// escapes [`unit_json`] can produce are understood.
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut s = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                _ => return None,
            },
            c => s.push(c),
        }
    }
}

/// A campaign harness over the real SoC: holds the resolved workload
/// list and run policy, maps config labels to machine configurations,
/// and runs one grid cell end to end.
#[derive(Debug)]
pub struct SocFleet {
    /// Workloads the grid's names resolve against.
    pub workloads: Vec<Workload>,
    /// Scheduler mode every unit runs under.
    pub sched: SchedulerMode,
    /// Attach a per-unit seeded chaos [`FaultPlan`] to each run.
    pub chaos: bool,
}

impl SocFleet {
    /// Maps a config label to `(core, memory)` configurations. `"t+"` is
    /// the paper's T+ single-core with the B memory system; `"c-"` pairs
    /// it with the C– memory system (Fig. 17's second column).
    ///
    /// Labels compose with `:key=value` overrides for sweep campaigns —
    /// `"t+:rob=48:iq=24"` is the T+ core with a 48-entry ROB and a
    /// 24-entry issue queue. Recognized keys: `rob`, `iq`, `lq`, `sq`,
    /// `sb`, `width`. Because the label is the unit's identity on disk,
    /// the same label always resolves to the same machine.
    ///
    /// # Errors
    ///
    /// An error naming an unknown label, override key or malformed size, or
    /// the [`ConfigError`](riscy_ooo::config::ConfigError) of a size the
    /// model cannot simulate — a typo'd grid must not silently shrink or
    /// distort the campaign.
    pub fn config_for(label: &str) -> Result<(CoreConfig, riscy_mem::system::MemConfig), String> {
        let mut parts = label.split(':');
        let base = parts.next().expect("split yields at least one part");
        let (mut cfg, mem) = match base {
            "t+" => (CoreConfig::riscyoo_t_plus(), mem_riscyoo_b()),
            "c-" => (CoreConfig::riscyoo_t_plus(), mem_riscyoo_c_minus()),
            other => return Err(format!("unknown config label `{other}` (t+|c-)")),
        };
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("config override `{part}` is not key=value"))?;
            let n: usize = value
                .parse()
                .map_err(|_| format!("config override `{part}`: not a number"))?;
            match key {
                "rob" => cfg.rob_entries = n,
                "iq" => cfg.iq_entries = n,
                "lq" => cfg.lq_entries = n,
                "sq" => cfg.sq_entries = n,
                "sb" => cfg.sb_entries = n,
                "width" => cfg.width = n,
                other => {
                    return Err(format!(
                        "unknown config override key `{other}` (rob|iq|lq|sq|sb|width)"
                    ))
                }
            }
        }
        cfg.check()
            .and_then(|()| mem.check())
            .map_err(|e| format!("config label `{label}`: {e}"))?;
        Ok((cfg, mem))
    }

    /// The deterministic per-unit metrics the sweep aggregator consumes:
    /// IPC and event rates from the finished simulation, plus the unit's
    /// structure sizes as `axis.*` entries so a Pareto report can trade
    /// performance off against cost (the paper's Fig. 12/13 axes).
    fn unit_metrics(sim: &SocSim, cfg: &CoreConfig) -> Vec<(String, f64)> {
        let soc = sim.soc();
        let st = &soc.cores[0].stats;
        let insts = st.roi_insts.max(1) as f64;
        let ipc = if st.roi_cycles == 0 {
            0.0
        } else {
            st.roi_insts as f64 / st.roi_cycles as f64
        };
        vec![
            ("ipc".to_string(), ipc),
            (
                "brpred_pki".to_string(),
                1000.0 * st.mispredicts as f64 / insts,
            ),
            (
                "dcache_pki".to_string(),
                1000.0 * soc.mem.dcache_ref(0).stats.misses as f64 / insts,
            ),
            ("axis.rob_entries".to_string(), cfg.rob_entries as f64),
            ("axis.iq_entries".to_string(), cfg.iq_entries as f64),
        ]
    }

    /// Runs one grid cell: builds the SoC for the unit's config, seeds
    /// chaos from the unit's seed when enabled, and simulates to
    /// completion (or budget exhaustion, which is recorded as
    /// `exit_ok: false` rather than a panic — a chaos plan may
    /// legitimately starve a run).
    ///
    /// With a checkpoint policy in `ctx`, the unit resumes from its
    /// `unit_<id>.ckpt` when one exists, snapshots itself every
    /// [`UnitCtx::checkpoint_every`] simulated cycles, and deletes the
    /// checkpoint on completion. Returns `None` only when the
    /// checkpoint-ticket budget expired mid-run (the simulated kill; see
    /// [`FleetOpts::abort_after_ckpts`]).
    ///
    /// # Panics
    ///
    /// Panics when the unit names a workload the fleet does not carry or
    /// a config [`SocFleet::config_for`] refuses.
    #[must_use]
    pub fn run_unit(&self, unit: &FleetUnit, ctx: &UnitCtx<'_>) -> Option<UnitStats> {
        let w = self
            .workloads
            .iter()
            .find(|w| w.name == unit.workload)
            .unwrap_or_else(|| panic!("fleet: unknown workload {:?}", unit.workload));
        let (cfg, mem) = Self::config_for(&unit.config).unwrap_or_else(|e| panic!("fleet: {e}"));
        // Telemetry and chaos go on before any snapshot restore: a restore
        // refuses a simulation whose attachments differ from the saved one's.
        let build = || {
            let mut sim = SocSim::new(cfg, mem, 1, &w.program);
            sim.set_scheduler(self.sched);
            if let Some((win, cap)) = ctx.telemetry {
                sim.enable_telemetry(win, cap);
            }
            if self.chaos {
                let plan = FaultPlan::new(unit.seed)
                    .guard_stall("c0.issue*", 0.001)
                    .rule_abort("c0.alu*", 0.0005);
                sim.attach_chaos(&FaultEngine::new(plan));
            }
            sim
        };
        let mut sim = build();
        let start = Instant::now();
        let mut ckpts_taken: u64 = 0;
        let beat = |sim: &SocSim, phase: &str, ckpts: u64| {
            let Some(hb) = ctx.heartbeats else { return };
            let cycles = sim.cycles();
            let insts = sim.soc().cores[0].stats.roi_insts;
            let wall_s = start.elapsed().as_secs_f64();
            let cps = if wall_s > 0.0 {
                cycles as f64 / wall_s
            } else {
                0.0
            };
            let eta_s = if cps > 0.0 {
                w.max_cycles.saturating_sub(cycles) as f64 / cps
            } else {
                0.0
            };
            hb.beat(heartbeat_line(
                unit.id, phase, cycles, insts, ckpts, cps, eta_s, wall_s,
            ));
        };
        // Resume from a mid-run checkpoint when one exists. A checkpoint
        // that fails to restore (stale grid, version skew, torn bytes) is
        // discarded and the unit replays from cycle zero — the same
        // re-run-is-always-safe posture as a malformed unit file.
        if let Some(path) = &ctx.ckpt_path {
            if let Ok(bytes) = std::fs::read(path) {
                if sim.restore_snapshot(&bytes).is_err() {
                    sim = build();
                }
            }
        }
        beat(&sim, "start", 0);
        // The chunk stride is the finest of the requested cadences; each
        // instrument fires only when its own stride has elapsed, so a
        // coarse checkpoint cadence composes with fine heartbeats.
        let ckpt_stride = ctx.checkpoint_every.filter(|_| ctx.ckpt_path.is_some());
        let hb_stride = ctx.heartbeat_every.filter(|_| ctx.heartbeats.is_some());
        let timeout_stride = ctx.unit_timeout.map(|_| TIMEOUT_CHECK_STRIDE);
        let stride = [ckpt_stride, hb_stride, timeout_stride]
            .into_iter()
            .flatten()
            .min();
        let mut last_ckpt = sim.cycles();
        let mut last_beat = sim.cycles();
        let mut timed_out = false;
        let exit_ok = loop {
            let executed = sim.cycles();
            if executed >= w.max_cycles {
                break false;
            }
            if ctx
                .unit_timeout
                .is_some_and(|t| start.elapsed().as_secs_f64() > t)
            {
                timed_out = true;
                break false;
            }
            let left = w.max_cycles - executed;
            let chunk = stride.map_or(left, |s| s.min(left));
            match sim.run_to_completion(chunk) {
                Ok(_) => break true,
                Err(RunError::Budget { .. }) if chunk < left => {
                    // Chunk boundary, not real budget exhaustion.
                    let cycles = sim.cycles();
                    if ckpt_stride.is_some_and(|s| cycles - last_ckpt >= s) {
                        last_ckpt = cycles;
                        if let (Some(path), Ok(bytes)) = (&ctx.ckpt_path, sim.save_snapshot()) {
                            write_ckpt(path, &bytes);
                            ckpts_taken += 1;
                            if !ctx.take_ckpt_ticket() {
                                return None;
                            }
                        }
                    }
                    if hb_stride.is_some_and(|s| cycles - last_beat >= s) {
                        last_beat = cycles;
                        beat(&sim, "run", ckpts_taken);
                    }
                }
                Err(_) => break false,
            }
        };
        if timed_out {
            // The unit blew its wall-clock budget: leave a structured
            // diagnosis behind instead of a silent hang, then let the
            // campaign move on.
            if let Some(path) = &ctx.stall_path {
                write_stall_bundle(path, unit, &sim, start.elapsed().as_secs_f64());
            }
            beat(&sim, "stalled", ckpts_taken);
        } else {
            beat(&sim, "done", ckpts_taken);
        }
        if let Some(path) = &ctx.ckpt_path {
            std::fs::remove_file(path).ok();
        }
        if let Some(path) = &ctx.telemetry_path {
            write_unit_artifact(path, &sim.telemetry_json());
        }
        Some(UnitStats {
            cycles: sim.cycles(),
            insts: sim.soc().cores[0].stats.roi_insts,
            exit_ok,
            metrics: Self::unit_metrics(&sim, &cfg),
        })
    }
}
