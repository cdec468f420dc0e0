//! The causal profiler: rule-level host-time attribution, a bounded
//! causality log with per-window critical paths, and a dependency-free
//! Chrome trace-event (Perfetto) exporter.
//!
//! Observability so far ([`crate::trace`]) answers *what happened*: which
//! rules fired, which counters moved. This module answers *why the run took
//! as long as it did*, on two different clocks:
//!
//! * **Host time** — [`RuleProf`] accumulates monotonic-timestamp intervals
//!   around a rule's evaluations, split into body ("self") time and
//!   body-plus-scheduling ("total") time, separately for firing and
//!   stalling evaluations. This is what explains scheduler overheads that
//!   cycle counts can't see (e.g. why Fast mode can lose to Reference on a
//!   CM-free design while winning on `ring64`). Reading the clock costs
//!   more than many rule bodies, so only a rule's first evaluation and
//!   then one in sixteen are timed, on a per-rule stride; the host-time
//!   fields are the timed sums scaled by evaluations ÷ timed evaluations.
//!   Every count stays exact.
//! * **Simulated time** — [`CausalLog`] records causality edges between
//!   rules (a committed write waking a sleeping rule, a committed method
//!   blocking a later rule through the conflict matrix) into a bounded
//!   ring. [`CausalLog::critical_paths`] then computes, per window of
//!   cycles, the longest dependency chain through rules — the chain that
//!   bounds how much the window could be compressed.
//!
//! The third pillar, [`ChromeTrace`], is a [`TraceSink`] that renders rule
//! firings (coalesced into duration events per module track) and
//! caller-supplied instruction spans into the Chrome trace-event JSON
//! format, loadable directly in <https://ui.perfetto.dev>. Like
//! [`crate::trace::json`], it has zero external dependencies.
//!
//! Everything here obeys the observability ground rule: profiling must
//! never perturb the design. Enabling the profiler adds host-time reads and
//! log pushes around rule evaluation but changes no scheduling decision, so
//! a profiled run is cycle- and counter-identical to an unprofiled one
//! (property-tested in the `ooo` crate).

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::trace::json::JsonWriter;
use crate::trace::{TraceEvent, TraceSink};

// ---------------------------------------------------------------------------
// Per-rule host-time attribution
// ---------------------------------------------------------------------------

/// Host-time totals for one rule, accumulated by the scheduler while
/// profiling is enabled.
///
/// "Self" time is the rule body alone; "total" adds the scheduler's
/// per-evaluation overhead (CM checking, commit/abort, stall accounting,
/// sleep registration). Firing and stalling evaluations accumulate into
/// separate totals so a rule that is cheap when it fires but evaluated
/// uselessly every cycle shows up.
///
/// The counts are exact. The `*_ns` fields are estimates: the sums over
/// the timed evaluations (the first, then one in [`TIMING_STRIDE`]) scaled
/// by `evals` ÷ timed evaluations, with `fired_ns + stall_ns` scaled as one
/// sum so `total_ns() >= body_ns` holds per rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleProf {
    /// Evaluations that ran the rule body (fired or stalled).
    pub evals: u64,
    /// Evaluations skipped without running the body (rule asleep).
    pub skipped: u64,
    /// Host nanoseconds inside the rule body, over all evaluations.
    pub body_ns: u64,
    /// Host nanoseconds (body + scheduling) of evaluations that fired.
    pub fired_ns: u64,
    /// Host nanoseconds (body + scheduling) of evaluations that stalled.
    pub stall_ns: u64,
}

/// A rule's evaluations are timed once every `TIMING_STRIDE`, starting
/// with its first.
pub const TIMING_STRIDE: u64 = 16;

/// What the scheduler accumulates for one rule: exact counts, and the
/// host-time sums over the timed evaluations only.
#[derive(Debug, Clone, Copy, Default)]
struct RuleTiming {
    sums: RuleProf,
    timed: u64,
}

impl RuleTiming {
    /// The sums scaled up to every evaluation.
    fn estimate(&self) -> RuleProf {
        let s = &self.sums;
        let scale = |ns: u64| {
            if self.timed == 0 {
                0
            } else {
                let v = u128::from(ns) * u128::from(s.evals) / u128::from(self.timed);
                u64::try_from(v).unwrap_or(u64::MAX)
            }
        };
        let fired_ns = scale(s.fired_ns);
        RuleProf {
            body_ns: scale(s.body_ns),
            fired_ns,
            stall_ns: scale(s.fired_ns + s.stall_ns) - fired_ns,
            ..*s
        }
    }
}

impl RuleProf {
    /// Body-only ("self") host nanoseconds.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.body_ns
    }

    /// Body-plus-scheduling ("total") host nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.fired_ns + self.stall_ns
    }
}

// ---------------------------------------------------------------------------
// Causality log + critical paths
// ---------------------------------------------------------------------------

/// Why one rule's behavior depended on another's within a cycle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `from` committed a write that woke the sleeping rule `to`.
    PublishWake,
    /// `from` committed a method whose conflict-matrix row blocked `to`
    /// from firing in the same cycle.
    CmBlock,
}

impl EdgeKind {
    /// Short label used in reports and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::PublishWake => "publish-wake",
            EdgeKind::CmBlock => "cm-block",
        }
    }
}

/// One recorded causality edge: at `cycle`, rule `from` constrained rule
/// `to` (rule values are scheduler rule indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalEdge {
    /// Cycle the edge was observed in.
    pub cycle: u64,
    /// Index of the constraining rule.
    pub from: u32,
    /// Index of the constrained rule.
    pub to: u32,
    /// What kind of constraint.
    pub kind: EdgeKind,
}

/// A bounded ring of [`CausalEdge`]s. Once full, the oldest edges are
/// dropped (and counted), so a long run keeps the most recent windows.
#[derive(Debug)]
pub struct CausalLog {
    edges: VecDeque<CausalEdge>,
    cap: usize,
    recorded: u64,
    dropped: u64,
}

/// The longest dependency chain found in one window of cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// First cycle of the window (inclusive).
    pub window_start: u64,
    /// Last cycle of the window (inclusive).
    pub window_end: u64,
    /// Number of edges on the path.
    pub len: usize,
    /// Rule indices along the path, constrainer first.
    pub rules: Vec<u32>,
}

impl CausalLog {
    /// A log holding at most `cap` edges (`cap == 0` keeps nothing).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        CausalLog {
            edges: VecDeque::with_capacity(cap.min(4096)),
            cap,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Records `edge`, evicting the oldest edge when full.
    pub fn push(&mut self, edge: CausalEdge) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.edges.len() == self.cap {
            self.edges.pop_front();
            self.dropped += 1;
        }
        self.edges.push_back(edge);
        self.recorded += 1;
    }

    /// The retained edges, oldest first.
    pub fn edges(&self) -> impl Iterator<Item = &CausalEdge> {
        self.edges.iter()
    }

    /// Edges ever recorded (including since-dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Edges evicted (or refused, for a zero-capacity log).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Longest dependency chain per `window`-cycle window, over the
    /// retained edges. Windows with no edges are omitted; paths are
    /// reported oldest window first.
    ///
    /// The chain is the standard DAG longest path: edges within a window
    /// are replayed in observation order and each edge extends the deepest
    /// chain ending at its `from` rule. Observation order respects the
    /// scheduler's intra-cycle rule order, so the result is deterministic.
    #[must_use]
    pub fn critical_paths(&self, window: u64) -> Vec<CriticalPath> {
        let window = window.max(1);
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.edges.len() {
            let bucket = self.edges[start].cycle / window;
            let mut end = start;
            while end < self.edges.len() && self.edges[end].cycle / window == bucket {
                end += 1;
            }
            let slice: Vec<&CausalEdge> = self.edges.range(start..end).collect();
            let (len, rules) = longest_chain(&slice);
            if len > 0 {
                out.push(CriticalPath {
                    window_start: bucket * window,
                    window_end: bucket * window + (window - 1),
                    len,
                    rules,
                });
            }
            start = end;
        }
        out
    }
}

/// Longest chain through `edges` (replayed in order), as
/// `(edge count, rule indices constrainer-first)`.
fn longest_chain(edges: &[&CausalEdge]) -> (usize, Vec<u32>) {
    // depth[r] = (edges on the deepest chain ending at rule r,
    //             index of the final edge of that chain)
    let mut depth: HashMap<u32, (usize, usize)> = HashMap::new();
    // parent[i] = index of the edge preceding edge i on the deepest chain
    // through it, captured *when edge i is processed*. Reconstruction walks
    // these frozen links, so a later edge that re-deepens an intermediate
    // rule cannot splice itself into an earlier chain's suffix — the
    // reported path replays edges in the causal order they occurred, and
    // its edge count always equals the reported `len`.
    let mut parent: Vec<usize> = Vec::with_capacity(edges.len());
    let mut best: Option<(usize, usize)> = None;
    for (i, e) in edges.iter().enumerate() {
        let (pd, pe) = depth.get(&e.from).map_or((0, usize::MAX), |&p| p);
        parent.push(pe);
        let d = pd + 1;
        let slot = depth.entry(e.to).or_insert((0, usize::MAX));
        if d > slot.0 {
            *slot = (d, i);
        }
        if best.is_none_or(|(bd, _)| slot.0 > bd) {
            best = Some(*slot);
        }
    }
    let Some((len, last)) = best else {
        return (0, Vec::new());
    };
    let mut chain = vec![edges[last].to];
    let mut i = last;
    loop {
        chain.push(edges[i].from);
        i = parent[i];
        if i == usize::MAX {
            break;
        }
    }
    chain.reverse();
    (len, chain)
}

// ---------------------------------------------------------------------------
// The profiler aggregate
// ---------------------------------------------------------------------------

/// Default causal-log capacity (edges retained).
pub const DEFAULT_CAUSAL_CAP: usize = 65_536;
/// Default critical-path window, in cycles.
pub const DEFAULT_WINDOW: u64 = 4_096;

/// Everything the scheduler accumulates while profiling is enabled: one
/// [`RuleProf`] per rule and the [`CausalLog`]. Windowed counter deltas
/// are telemetry's job ([`crate::telemetry`]), not the profiler's.
///
/// Owned by [`crate::sim::Sim`]; enable with
/// [`Sim::enable_profiling`](crate::sim::Sim::enable_profiling) and read
/// back through [`Sim::profiler`](crate::sim::Sim::profiler) or the
/// aggregated [`Sim::profile_json`](crate::sim::Sim::profile_json).
#[derive(Debug)]
pub struct Profiler {
    rules: Vec<RuleTiming>,
    pub(crate) causal: CausalLog,
    pub(crate) window: u64,
}

impl Profiler {
    /// A profiler with the given critical-path window (cycles) and causal
    /// ring capacity (edges).
    #[must_use]
    pub fn new(window: u64, causal_cap: usize) -> Self {
        Profiler {
            rules: Vec::new(),
            causal: CausalLog::new(causal_cap),
            window: window.max(1),
        }
    }

    /// Counts and host-time estimates for rule `i` (indices match the
    /// scheduler's rule registration order; zeros if never evaluated).
    #[must_use]
    pub fn rule(&self, i: usize) -> RuleProf {
        self.rules
            .get(i)
            .map(RuleTiming::estimate)
            .unwrap_or_default()
    }

    /// The causality log.
    #[must_use]
    pub fn causal(&self) -> &CausalLog {
        &self.causal
    }

    /// The critical-path window, in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Whether the scheduler should time rule `i`'s next evaluation: its
    /// first, then every [`TIMING_STRIDE`]th.
    #[inline]
    pub(crate) fn times_next(&self, i: usize) -> bool {
        self.rules
            .get(i)
            .is_none_or(|r| r.sums.evals % TIMING_STRIDE == 0)
    }

    /// Records one evaluation of rule `i`, which `fired` or stalled. A
    /// timed evaluation passes `(t0, t_body)`: the body ran from `t0` to
    /// `t_body` and scheduling finished "now". Called by the scheduler.
    #[inline]
    pub(crate) fn record_eval(&mut self, i: usize, timed: Option<(Instant, Instant)>, fired: bool) {
        let r = self.entry(i);
        r.sums.evals += 1;
        if let Some((t0, t_body)) = timed {
            let total = ns_u64(t0.elapsed());
            r.timed += 1;
            r.sums.body_ns += ns_u64(t_body.duration_since(t0));
            if fired {
                r.sums.fired_ns += total;
            } else {
                r.sums.stall_ns += total;
            }
        }
    }

    /// Records that rule `i` was skipped asleep this cycle.
    #[inline]
    pub(crate) fn record_skip(&mut self, i: usize) {
        self.entry(i).sums.skipped += 1;
    }

    fn entry(&mut self, i: usize) -> &mut RuleTiming {
        if i >= self.rules.len() {
            self.rules.resize(i + 1, RuleTiming::default());
        }
        &mut self.rules[i]
    }
}

#[inline]
fn ns_u64(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Chrome trace-event (Perfetto) export
// ---------------------------------------------------------------------------

/// Hard cap on emitted trace events; beyond it events are counted as
/// dropped so the JSON stays loadable.
pub const DEFAULT_EVENT_CAP: usize = 1_000_000;

#[derive(Debug)]
struct RuleTrack {
    name: String,
    tid: u32,
    /// Open coalesced run of consecutive firing cycles: `(first, last)`.
    run: Option<(u64, u64)>,
}

#[derive(Debug)]
enum ChromeEvent {
    /// Rule `rule` (index into `rules`) fired `dur` consecutive cycles
    /// starting at `start`.
    Rule { rule: usize, start: u64, dur: u64 },
    /// An instruction span on instruction track `tid`.
    Span {
        tid: u32,
        name: String,
        start: u64,
        dur: u64,
        pc: u64,
        seq: u64,
    },
}

/// A [`TraceSink`] that renders the run as Chrome trace-event JSON, the
/// format <https://ui.perfetto.dev> (and `chrome://tracing`) load natively.
///
/// Layout: process 0 ("rules") holds one thread per rule, named after the
/// full rule name and numbered in first-fired order — rules of one module
/// share a name prefix (`c0.commit0`, `c0.fetch`) and so sort together in
/// the viewer, but each rule keeps its own thread lane, since two rules of
/// a module can fire in the same cycle and overlapping duration events on
/// one lane render poorly. Process 1 ("instructions") holds one thread per
/// instruction track (a core), fed by [`ChromeTrace::add_span`]. One
/// simulated cycle maps to one microsecond of trace time. Consecutive
/// firing cycles of a rule coalesce into a single duration event, which
/// keeps traces of million-cycle runs tractable.
///
/// Attach with [`Sim::set_tracer`](crate::sim::Sim::set_tracer) wrapped in
/// a shared cell, run, then call [`ChromeTrace::finish_json`]:
///
/// ```
/// use cmd_core::prelude::*;
/// use cmd_core::prof::ChromeTrace;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// struct St { n: Ehr<u64> }
/// let clk = Clock::new();
/// let st = St { n: Ehr::new(&clk, 0) };
/// let mut sim = Sim::new(clk, st);
/// sim.rule("tick", |s: &mut St| { s.n.update(|v| *v += 1); Ok(()) });
///
/// let trace = Rc::new(RefCell::new(ChromeTrace::new()));
/// sim.set_tracer(Tracer::new(trace.clone()));
/// sim.run(3);
/// let json = trace.borrow_mut().finish_json();
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"tick\""));
/// ```
#[derive(Debug)]
pub struct ChromeTrace {
    rule_ids: HashMap<String, usize>,
    rules: Vec<RuleTrack>,
    inst_tracks: Vec<(u32, String)>,
    events: Vec<ChromeEvent>,
    cap: usize,
    dropped: u64,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTrace {
    /// A trace builder with the default event cap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAP)
    }

    /// A trace builder keeping at most `cap` events (further events are
    /// counted in `otherData.dropped_events`).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        ChromeTrace {
            rule_ids: HashMap::new(),
            rules: Vec::new(),
            inst_tracks: Vec::new(),
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn push_event(&mut self, ev: ChromeEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    fn rule_fired(&mut self, rule: &str, cycle: u64) {
        let id = match self.rule_ids.get(rule) {
            Some(&id) => id,
            None => {
                let id = self.rules.len();
                self.rule_ids.insert(rule.to_string(), id);
                let tid = u32::try_from(id).unwrap_or(u32::MAX);
                self.rules.push(RuleTrack {
                    name: rule.to_string(),
                    tid,
                    run: None,
                });
                id
            }
        };
        let run = self.rules[id].run;
        match run {
            Some((start, last)) if cycle == last + 1 => {
                self.rules[id].run = Some((start, cycle));
            }
            Some((start, last)) => {
                self.push_event(ChromeEvent::Rule {
                    rule: id,
                    start,
                    dur: last - start + 1,
                });
                self.rules[id].run = Some((cycle, cycle));
            }
            None => self.rules[id].run = Some((cycle, cycle)),
        }
    }

    /// Names instruction track `tid` (e.g. `core0`) in process 1. Idempotent
    /// per tid; first label wins.
    pub fn set_inst_track(&mut self, tid: u32, label: &str) {
        if !self.inst_tracks.iter().any(|(t, _)| *t == tid) {
            self.inst_tracks.push((tid, label.to_string()));
        }
    }

    /// Adds an instruction span to track `tid`: `name` occupied cycles
    /// `start..=end`, annotated with its `pc` and sequence number.
    pub fn add_span(&mut self, tid: u32, name: &str, start: u64, end: u64, pc: u64, seq: u64) {
        self.push_event(ChromeEvent::Span {
            tid,
            name: name.to_string(),
            start,
            dur: end.saturating_sub(start) + 1,
            pc,
            seq,
        });
    }

    /// Events refused because the cap was reached.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flushes open rule runs and serializes the whole trace. The output
    /// is deterministic: metadata first (processes, then threads in
    /// first-seen order), then events in record order.
    pub fn finish_json(&mut self) -> String {
        for id in 0..self.rules.len() {
            if let Some((start, last)) = self.rules[id].run.take() {
                self.push_event(ChromeEvent::Rule {
                    rule: id,
                    start,
                    dur: last - start + 1,
                });
            }
        }
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        meta_process(&mut w, 0, "rules");
        if !self.inst_tracks.is_empty() {
            meta_process(&mut w, 1, "instructions");
        }
        for r in &self.rules {
            meta_thread(&mut w, 0, r.tid, &r.name);
        }
        for (tid, label) in &self.inst_tracks {
            meta_thread(&mut w, 1, *tid, label);
        }
        for ev in &self.events {
            match ev {
                ChromeEvent::Rule { rule, start, dur } => {
                    let r = &self.rules[*rule];
                    w.begin_object();
                    w.field_str("name", &r.name);
                    w.field_str("cat", "rule");
                    w.field_str("ph", "X");
                    w.field_u64("ts", *start);
                    w.field_u64("dur", *dur);
                    w.field_u64("pid", 0);
                    w.field_u64("tid", u64::from(r.tid));
                    w.end_object();
                }
                ChromeEvent::Span {
                    tid,
                    name,
                    start,
                    dur,
                    pc,
                    seq,
                } => {
                    w.begin_object();
                    w.field_str("name", name);
                    w.field_str("cat", "inst");
                    w.field_str("ph", "X");
                    w.field_u64("ts", *start);
                    w.field_u64("dur", *dur);
                    w.field_u64("pid", 1);
                    w.field_u64("tid", u64::from(*tid));
                    w.key("args");
                    w.begin_object();
                    w.field_str("pc", &format!("{pc:#x}"));
                    w.field_u64("seq", *seq);
                    w.end_object();
                    w.end_object();
                }
            }
        }
        w.end_array();
        w.field_str("displayTimeUnit", "ms");
        w.key("otherData");
        w.begin_object();
        w.schema_version();
        w.field_str("time_unit", "1us = 1 cycle");
        w.field_u64("dropped_events", self.dropped);
        w.end_object();
        w.end_object();
        w.finish()
    }
}

fn meta_process(w: &mut JsonWriter, pid: u64, name: &str) {
    w.begin_object();
    w.field_str("name", "process_name");
    w.field_str("ph", "M");
    w.field_u64("pid", pid);
    w.key("args");
    w.begin_object();
    w.field_str("name", name);
    w.end_object();
    w.end_object();
}

fn meta_thread(w: &mut JsonWriter, pid: u64, tid: u32, name: &str) {
    w.begin_object();
    w.field_str("name", "thread_name");
    w.field_str("ph", "M");
    w.field_u64("pid", pid);
    w.field_u64("tid", u64::from(tid));
    w.key("args");
    w.begin_object();
    w.field_str("name", name);
    w.end_object();
    w.end_object();
}

impl TraceSink for ChromeTrace {
    fn event(&mut self, cycle: u64, ev: &TraceEvent<'_>) {
        if let TraceEvent::RuleFired { rule } = ev {
            self.rule_fired(rule, cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(cycle: u64, from: u32, to: u32) -> CausalEdge {
        CausalEdge {
            cycle,
            from,
            to,
            kind: EdgeKind::PublishWake,
        }
    }

    #[test]
    fn causal_log_bounds_and_counts_drops() {
        let mut log = CausalLog::new(2);
        log.push(edge(0, 0, 1));
        log.push(edge(1, 1, 2));
        log.push(edge(2, 2, 3));
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.dropped(), 1);
        let cycles: Vec<u64> = log.edges().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 2], "oldest edge evicted");
    }

    #[test]
    fn zero_capacity_log_keeps_nothing() {
        let mut log = CausalLog::new(0);
        log.push(edge(0, 0, 1));
        assert_eq!(log.edges().count(), 0);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn critical_path_finds_longest_chain() {
        let mut log = CausalLog::new(64);
        // Window 0: chain 0→1→2→3 plus a distractor 7→8.
        log.push(edge(1, 0, 1));
        log.push(edge(2, 7, 8));
        log.push(edge(3, 1, 2));
        log.push(edge(5, 2, 3));
        // Window 1: single edge.
        log.push(edge(10, 4, 5));
        let paths = log.critical_paths(10);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].window_start, 0);
        assert_eq!(paths[0].window_end, 9);
        assert_eq!(paths[0].len, 3);
        assert_eq!(paths[0].rules, vec![0, 1, 2, 3]);
        assert_eq!(paths[1].len, 1);
        assert_eq!(paths[1].rules, vec![4, 5]);
    }

    #[test]
    fn critical_path_handles_reconvergence() {
        let mut log = CausalLog::new(64);
        // Two paths into 3: 0→3 (len 1) and 0→1→2→3 (len 3).
        log.push(edge(0, 0, 3));
        log.push(edge(0, 0, 1));
        log.push(edge(1, 1, 2));
        log.push(edge(2, 2, 3));
        let paths = log.critical_paths(100);
        assert_eq!(paths[0].len, 3);
        assert_eq!(paths[0].rules, vec![0, 1, 2, 3]);
    }

    #[test]
    fn critical_path_ignores_late_redeepening_of_intermediate_nodes() {
        // Edges in observation order: 0→1, 1→2, 3→4, 4→1. The last edge
        // re-deepens rule 1 *after* 1→2 was processed, so the deepest chain
        // ending anywhere is still 0→1→2 (len 2; 3→4→1 ties at len 2 but
        // loses on first-reached). A backward walk over final depths would
        // splice the late 4→1 edge under 1→2 and report 3→4→1→2 — a chain
        // whose suffix predates its prefix. The frozen parent links must
        // reproduce the actual earliest deepest chain.
        let mut log = CausalLog::new(64);
        log.push(edge(0, 0, 1));
        log.push(edge(1, 1, 2));
        log.push(edge(2, 3, 4));
        log.push(edge(3, 4, 1));
        let paths = log.critical_paths(100);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len, 2);
        assert_eq!(paths[0].rules, vec![0, 1, 2]);
        // Reconstructed chain length always agrees with the reported len.
        assert_eq!(paths[0].rules.len(), paths[0].len + 1);
    }

    #[test]
    fn rule_prof_totals_split_fire_and_stall() {
        let mut p = Profiler::new(16, 16);
        let t0 = Instant::now();
        let t1 = Instant::now();
        p.record_eval(2, Some((t0, t1)), true);
        p.record_eval(2, None, false);
        p.record_skip(2);
        let r = p.rule(2);
        assert_eq!(r.evals, 2);
        assert_eq!(r.skipped, 1);
        assert_eq!(r.total_ns(), r.fired_ns + r.stall_ns);
        // Rule 0 was never touched but is indexable.
        assert_eq!(p.rule(0), RuleProf::default());
    }

    /// The first evaluation and every sixteenth after it are timed; the
    /// estimate scales the timed sums by evaluations over timed ones.
    #[test]
    fn one_evaluation_in_sixteen_is_timed_and_scaled() {
        let mut p = Profiler::new(16, 16);
        let now = Instant::now();
        let mut timed = Vec::new();
        for n in 0..40 {
            let t = p.times_next(0);
            if t {
                timed.push(n);
            }
            p.record_eval(0, t.then_some((now, now)), n % 2 == 0);
        }
        assert_eq!(timed, [0, 16, 32]);
        // Sums over the 3 timed evaluations, scaled by 40 / 3.
        let sums = &mut p.rules[0].sums;
        (sums.body_ns, sums.fired_ns, sums.stall_ns) = (9, 10, 5);
        let r = p.rule(0);
        assert_eq!((r.evals, r.body_ns), (40, 120));
        assert_eq!((r.fired_ns, r.stall_ns, r.total_ns()), (133, 67, 200));
    }

    #[test]
    fn chrome_trace_coalesces_consecutive_cycles() {
        let mut t = ChromeTrace::new();
        for c in 0..3 {
            t.event(c, &TraceEvent::RuleFired { rule: "a.x" });
        }
        t.event(5, &TraceEvent::RuleFired { rule: "a.x" });
        t.event(5, &TraceEvent::RuleFired { rule: "b" });
        let json = t.finish_json();
        // One 3-cycle event, one 1-cycle event for a.x, one for b.
        assert_eq!(json.matches("\"cat\":\"rule\"").count(), 3);
        assert!(json.contains("\"ts\":0,\"dur\":3"));
        assert!(json.contains("\"ts\":5,\"dur\":1"));
        // Thread metadata for both rules, process metadata once.
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert_eq!(json.matches("\"process_name\"").count(), 1);
    }

    #[test]
    fn chrome_trace_caps_events() {
        let mut t = ChromeTrace::with_capacity(1);
        t.add_span(0, "alu", 0, 4, 0x80000000, 0);
        t.add_span(0, "load", 1, 6, 0x80000004, 1);
        assert_eq!(t.dropped(), 1);
        let json = t.finish_json();
        assert!(json.contains("\"dropped_events\":1"));
        assert_eq!(json.matches("\"cat\":\"inst\"").count(), 1);
    }

    #[test]
    fn chrome_trace_span_args_carry_pc_and_seq() {
        let mut t = ChromeTrace::new();
        t.set_inst_track(0, "core0");
        t.add_span(0, "alu", 2, 5, 0x8000_0000, 7);
        let json = t.finish_json();
        assert!(json.contains("\"pc\":\"0x80000000\""));
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("\"name\":\"instructions\""));
        assert!(json.contains("\"name\":\"core0\""));
    }
}
