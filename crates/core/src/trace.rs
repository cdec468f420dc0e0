//! Structured event tracing, named performance counters, and the
//! hand-rolled JSON emitter behind every `--stats-json` snapshot.
//!
//! Observability in a CMD design has to satisfy one hard constraint: it must
//! never perturb the design. A traced run and an untraced run must execute
//! the same rules in the same cycles and leave byte-identical architectural
//! state. The three facilities here are built around that constraint:
//!
//! * [`Tracer`] / [`TraceSink`] — cycle-stamped structured events
//!   ([`TraceEvent`]) emitted by the scheduler and the clock. A disabled
//!   tracer costs a single flag check per emission site; events borrow
//!   their strings, so nothing is allocated unless a sink is attached.
//! * [`Counters`] — a registry of named monotonic counters and gauges.
//!   Any module can register a counter by name and bump it through a cheap
//!   [`Counter`]/[`Gauge`] handle; [`Counters::snapshot`] flattens the
//!   registry for reports and JSON dumps.
//! * [`json`] — a dependency-free JSON writer (the same "zero external
//!   deps" policy as [`crate::rng`]) used by the workspace's stats
//!   emitters.
//!
//! # Examples
//!
//! Recording scheduler events with the in-memory sink:
//!
//! ```
//! use cmd_core::prelude::*;
//! use cmd_core::trace::VecSink;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! struct St { n: Ehr<u64> }
//! let clk = Clock::new();
//! let st = St { n: Ehr::new(&clk, 0) };
//! let mut sim = Sim::new(clk, st);
//! sim.rule("tick", |s: &mut St| { s.n.update(|v| *v += 1); Ok(()) });
//!
//! let sink = Rc::new(RefCell::new(VecSink::default()));
//! sim.set_tracer(Tracer::new(sink.clone()));
//! sim.run(2);
//! let events = sink.borrow().rendered();
//! assert_eq!(events[0], "[0] rule-fired tick");
//! ```

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured observability event.
///
/// Events borrow every string they carry, so constructing one is free of
/// allocation; sinks that need to keep an event must render or copy it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent<'a> {
    /// A rule fired (its transaction committed).
    RuleFired {
        /// The rule's name.
        rule: &'a str,
    },
    /// A rule failed to fire because a guard stalled.
    GuardStalled {
        /// The rule's name.
        rule: &'a str,
        /// The designer-supplied stall reason (e.g. `"iq full"`).
        reason: &'a str,
    },
    /// A committed rule called a module's interface method.
    MethodCalled {
        /// The module's registered name.
        module: &'a str,
        /// The method's name.
        method: &'a str,
    },
    /// A rule was blocked by a conflict-matrix edge: firing it would order
    /// `later` after `earlier` within the cycle, which `module`'s CM
    /// forbids.
    CmOrdering {
        /// The rule that could not fire.
        rule: &'a str,
        /// The module whose CM blocked it.
        module: &'a str,
        /// The method already committed earlier this cycle.
        earlier: &'a str,
        /// The method the blocked rule tried to call.
        later: &'a str,
    },
}

impl fmt::Display for TraceEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::RuleFired { rule } => write!(f, "rule-fired {rule}"),
            TraceEvent::GuardStalled { rule, reason } => {
                write!(f, "guard-stalled {rule}: {reason}")
            }
            TraceEvent::MethodCalled { module, method } => {
                write!(f, "method {module}.{method}")
            }
            TraceEvent::CmOrdering {
                rule,
                module,
                earlier,
                later,
            } => write!(f, "cm-blocked {rule}: {module}.{earlier} already fired, {module}.{later} must come first"),
        }
    }
}

/// A consumer of cycle-stamped [`TraceEvent`]s.
///
/// Implementations decide what to keep: the in-tree [`VecSink`] renders
/// everything to strings; a custom sink could filter by rule name, stream to
/// a file, or feed counters.
pub trait TraceSink {
    /// Receives one event stamped with the cycle it occurred in.
    fn event(&mut self, cycle: u64, ev: &TraceEvent<'_>);
}

/// A cloneable handle to an optional [`TraceSink`].
///
/// The default tracer is disabled: [`Tracer::is_enabled`] is a single
/// `Option` check, and every emission site guards construction of its event
/// behind it, so tracing costs nothing measurable when off.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer delivering events to `sink`.
    #[must_use]
    pub fn new(sink: Rc<RefCell<dyn TraceSink>>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// The no-op tracer (same as [`Tracer::default`]).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether a sink is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Delivers `ev` to the sink, if one is attached.
    pub fn emit(&self, cycle: u64, ev: &TraceEvent<'_>) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().event(cycle, ev);
        }
    }
}

/// A [`TraceSink`] that renders every event to a string and keeps it in
/// memory — the workhorse of tests and small diagnostic runs.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The recorded events, as `(cycle, rendered text)` pairs.
    pub events: Vec<(u64, String)>,
}

impl VecSink {
    /// All events rendered as `"[cycle] text"` lines.
    #[must_use]
    pub fn rendered(&self) -> Vec<String> {
        self.events
            .iter()
            .map(|(c, s)| format!("[{c}] {s}"))
            .collect()
    }
}

impl TraceSink for VecSink {
    fn event(&mut self, cycle: u64, ev: &TraceEvent<'_>) {
        self.events.push((cycle, ev.to_string()));
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CounterKind {
    Monotonic,
    Gauge,
}

struct CounterEntry {
    name: String,
    kind: CounterKind,
    cell: Rc<Cell<u64>>,
}

/// A registry of named performance counters.
///
/// The registry is cloneable (clones share the same counters), so a design
/// can hand it to every module at construction time; each module registers
/// the counters it owns and keeps the returned handle. Registering the same
/// name twice returns a handle to the *same* underlying counter, which lets
/// distributed code paths share one statistic.
///
/// # Examples
///
/// ```
/// use cmd_core::trace::Counters;
///
/// let reg = Counters::default();
/// let hits = reg.counter("cache.hits");
/// let depth = reg.gauge("fifo.depth");
/// hits.inc();
/// hits.add(2);
/// depth.set(5);
/// assert_eq!(reg.snapshot(), vec![("cache.hits".into(), 3), ("fifo.depth".into(), 5)]);
/// ```
#[derive(Clone, Default)]
pub struct Counters {
    inner: Rc<RefCell<Vec<CounterEntry>>>,
}

impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counters")
            .field("registered", &self.inner.borrow().len())
            .finish()
    }
}

impl Counters {
    fn register(&self, name: &str, kind: CounterKind) -> Rc<Cell<u64>> {
        let mut entries = self.inner.borrow_mut();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            assert_eq!(
                e.kind, kind,
                "counter `{name}` registered as both monotonic and gauge"
            );
            return Rc::clone(&e.cell);
        }
        let cell = Rc::new(Cell::new(0));
        entries.push(CounterEntry {
            name: name.to_string(),
            kind,
            cell: Rc::clone(&cell),
        });
        cell
    }

    /// Registers (or re-opens) a monotonic counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously registered as a gauge.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.register(name, CounterKind::Monotonic),
        }
    }

    /// Registers (or re-opens) a gauge named `name` (a last-value
    /// statistic, e.g. an occupancy).
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously registered as a monotonic counter.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.register(name, CounterKind::Gauge),
        }
    }

    /// Current `(name, value)` pairs, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .inner
            .borrow()
            .iter()
            .map(|e| (e.name.clone(), e.cell.get()))
            .collect();
        out.sort();
        out
    }
}

impl crate::snap::Snapshot for Counters {
    /// Serializes every registered counter as sorted `(name, value)` pairs
    /// — sorted so the bytes are stable across registration order.
    fn snap_save(&self, w: &mut crate::snap::SnapWriter) {
        use crate::snap::Snap;
        let pairs = self.snapshot();
        w.len_prefix(pairs.len());
        for (name, val) in &pairs {
            name.save(w);
            val.save(w);
        }
    }

    /// Restores counter values *by name* into the already-populated
    /// registry; the set of registered names must match the snapshot
    /// exactly (the same design registers the same counters).
    fn snap_restore(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        use crate::snap::{Snap, SnapError};
        let n = r.len_prefix()?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push((String::load(r)?, u64::load(r)?));
        }
        let entries = self.inner.borrow();
        if entries.len() != pairs.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {} counters, registry has {}",
                pairs.len(),
                entries.len()
            )));
        }
        // Validate every name before touching any value, so a mismatch
        // leaves the registry unmodified.
        for (name, _) in &pairs {
            if !entries.iter().any(|e| e.name == *name) {
                return Err(SnapError::Mismatch(format!(
                    "snapshot counter `{name}` is not registered"
                )));
            }
        }
        for (name, val) in &pairs {
            if let Some(e) = entries.iter().find(|e| e.name == *name) {
                e.cell.set(*val);
            }
        }
        Ok(())
    }
}

/// A handle to a monotonic counter registered in a [`Counters`] registry.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get().wrapping_add(n));
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

/// A handle to a gauge registered in a [`Counters`] registry.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Rc<Cell<u64>>,
}

impl Gauge {
    /// Overwrites the gauge with `v`.
    pub fn set(&self, v: u64) {
        self.cell.set(v);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A minimal, dependency-free JSON writer.
///
/// Mirrors the workspace's [`crate::rng`] policy: everything the simulator
/// emits must build with zero external crates, so stats snapshots are
/// serialized by this ~100-line writer instead of a serde stack. The writer
/// is append-only and trusts the caller to alternate keys and values
/// correctly inside objects; it handles comma placement and string escaping.
///
/// # Examples
///
/// ```
/// use cmd_core::trace::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("ipc");
/// w.number_f64(1.25);
/// w.key("name");
/// w.string("mcf \"test\"");
/// w.key("cores");
/// w.begin_array();
/// w.number_u64(0);
/// w.number_u64(1);
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"ipc":1.25,"name":"mcf \"test\"","cores":[0,1]}"#);
/// ```
pub mod json {
    use std::fmt::Write as _;

    /// Escapes `s` for inclusion in a JSON string literal.
    #[must_use]
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    /// The schema version stamped on every JSON artifact this workspace
    /// emits (stats, profile, sample, fleet, sweep, telemetry). Bump it
    /// whenever a key is renamed or removed — adding keys is compatible.
    /// Emitters write it through [`JsonWriter::schema_version`] so the
    /// value cannot drift between documents.
    pub const SCHEMA_VERSION: u64 = 1;

    /// The streaming writer. See the [module docs](self).
    #[derive(Debug, Default)]
    pub struct JsonWriter {
        out: String,
        need_comma: bool,
    }

    impl JsonWriter {
        /// An empty writer.
        #[must_use]
        pub fn new() -> Self {
            JsonWriter::default()
        }

        fn sep(&mut self) {
            if self.need_comma {
                self.out.push(',');
            }
            self.need_comma = false;
        }

        /// Writes `"k":` (with any needed separating comma).
        pub fn key(&mut self, k: &str) {
            self.sep();
            let _ = write!(self.out, "\"{}\":", escape(k));
        }

        /// Opens an object.
        pub fn begin_object(&mut self) {
            self.sep();
            self.out.push('{');
        }

        /// Closes an object.
        pub fn end_object(&mut self) {
            self.out.push('}');
            self.need_comma = true;
        }

        /// Opens an array.
        pub fn begin_array(&mut self) {
            self.sep();
            self.out.push('[');
        }

        /// Closes an array.
        pub fn end_array(&mut self) {
            self.out.push(']');
            self.need_comma = true;
        }

        /// Writes a string value.
        pub fn string(&mut self, v: &str) {
            self.sep();
            let _ = write!(self.out, "\"{}\"", escape(v));
            self.need_comma = true;
        }

        /// Writes an unsigned integer value.
        pub fn number_u64(&mut self, v: u64) {
            self.sep();
            let _ = write!(self.out, "{v}");
            self.need_comma = true;
        }

        /// Writes a float value. Non-finite values (which JSON cannot
        /// represent) are written as `0`.
        pub fn number_f64(&mut self, v: f64) {
            self.sep();
            if v.is_finite() {
                let _ = write!(self.out, "{v}");
            } else {
                self.out.push('0');
            }
            self.need_comma = true;
        }

        /// Writes a boolean value.
        pub fn boolean(&mut self, v: bool) {
            self.sep();
            self.out.push_str(if v { "true" } else { "false" });
            self.need_comma = true;
        }

        /// Splices `v` — which must already be valid JSON — in as a value.
        /// Lets emitters nest a document produced by another writer (e.g. a
        /// per-subsystem profile) without re-parsing it.
        pub fn raw(&mut self, v: &str) {
            self.sep();
            self.out.push_str(v);
            self.need_comma = true;
        }

        /// Writes the shared `"schema_version"` field ([`SCHEMA_VERSION`]).
        /// Every top-level artifact object calls this exactly once.
        pub fn schema_version(&mut self) {
            self.field_u64("schema_version", SCHEMA_VERSION);
        }

        /// Convenience: `key` followed by a `u64` value.
        pub fn field_u64(&mut self, k: &str, v: u64) {
            self.key(k);
            self.number_u64(v);
        }

        /// Convenience: `key` followed by an `f64` value.
        pub fn field_f64(&mut self, k: &str, v: f64) {
            self.key(k);
            self.number_f64(v);
        }

        /// Convenience: `key` followed by a string value.
        pub fn field_str(&mut self, k: &str, v: &str) {
            self.key(k);
            self.string(v);
        }

        /// The serialized document.
        #[must_use]
        pub fn finish(self) -> String {
            self.out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{escape, JsonWriter};
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        // Emitting into the void must be safe.
        t.emit(3, &TraceEvent::RuleFired { rule: "r" });
    }

    #[test]
    fn vec_sink_records_and_renders() {
        let sink = Rc::new(RefCell::new(VecSink::default()));
        let t = Tracer::new(sink.clone());
        assert!(t.is_enabled());
        t.emit(1, &TraceEvent::RuleFired { rule: "commit" });
        t.emit(
            2,
            &TraceEvent::GuardStalled {
                rule: "fetch",
                reason: "icache full",
            },
        );
        t.emit(
            2,
            &TraceEvent::MethodCalled {
                module: "Rob",
                method: "enq",
            },
        );
        t.emit(
            3,
            &TraceEvent::CmOrdering {
                rule: "deq",
                module: "Fifo",
                earlier: "enq",
                later: "deq",
            },
        );
        let r = sink.borrow().rendered();
        assert_eq!(r[0], "[1] rule-fired commit");
        assert_eq!(r[1], "[2] guard-stalled fetch: icache full");
        assert_eq!(r[2], "[2] method Rob.enq");
        assert!(r[3].starts_with("[3] cm-blocked deq: Fifo.enq"));
    }

    #[test]
    fn counters_share_by_name_and_snapshot_sorted() {
        let reg = Counters::default();
        let a = reg.counter("z.late");
        let b = reg.counter("a.early");
        let a2 = reg.counter("z.late"); // same underlying cell
        a.inc();
        a2.add(4);
        b.add(7);
        let g = reg.gauge("m.occ");
        g.set(9);
        g.set(2);
        assert_eq!(
            reg.snapshot(),
            vec![
                ("a.early".to_string(), 7),
                ("m.occ".to_string(), 2),
                ("z.late".to_string(), 5),
            ]
        );
        assert_eq!(a.get(), 5);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn counter_gauge_name_clash_panics() {
        let reg = Counters::default();
        let _c = reg.counter("x");
        let _g = reg.gauge("x");
    }

    #[test]
    fn json_writer_handles_nesting_and_escapes() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "a\"b\\c\n");
        w.key("nested");
        w.begin_object();
        w.field_u64("n", 3);
        w.field_f64("nan", f64::NAN);
        w.end_object();
        w.key("xs");
        w.begin_array();
        w.string("one");
        w.boolean(true);
        w.number_f64(0.5);
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"a\"b\\c\n","nested":{"n":3,"nan":0},"xs":["one",true,0.5]}"#
        );
    }

    #[test]
    fn json_writer_raw_splices_documents() {
        let mut inner = JsonWriter::new();
        inner.begin_object();
        inner.field_u64("n", 1);
        inner.end_object();
        let inner = inner.finish();

        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("a", 0);
        w.key("sub");
        w.raw(&inner);
        w.field_u64("b", 2);
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":0,"sub":{"n":1},"b":2}"#);
    }

    #[test]
    fn escape_controls() {
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape("t\tn\n"), "t\\tn\\n");
    }
}
