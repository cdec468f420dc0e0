//! Windowed time-series telemetry: bounded, byte-deterministic rings of
//! per-window counter deltas.
//!
//! The profiler's counter windows (see [`crate::prof`]) answer "what
//! happened recently" for a human reading a report; telemetry answers the
//! campaign-scale version: a machine-readable time series of the
//! scheduler's totals and the design's columns, cheap enough to leave on for whole sweeps and
//! deterministic enough to diff across hosts, thread counts, and
//! kill/resume boundaries.
//!
//! Design rules, inherited from every prior instrumentation layer
//! (`docs/OBSERVABILITY.md`):
//!
//! * **Zero perturbation.** Telemetry only *reads* — the rule table's
//!   totals and whatever extra columns the design tap supplies. It keeps
//!   no statistics of its own, so an enabled run is cycle- and
//!   statistic-identical to a disabled one (test-enforced under both
//!   scheduler modes).
//! * **Bounded.** The ring holds at most `max_windows` windows; overflow
//!   drops the oldest and counts the drop. No allocation grows with run
//!   length.
//! * **Byte deterministic.** Samples are taken at cycle-count boundaries
//!   and contain only simulated quantities (never host time), so the
//!   exported JSON depends only on the simulated execution.
//! * **Snapshot transparent.** The ring, its column layout, and the
//!   running baseline serialize with the kernel ([`crate::sim::Sim`]'s
//!   save/restore), so a resumed run continues the series exactly where
//!   the checkpoint left it — in-flight partial windows included.
//!
//! The sampler stores *deltas*, not cumulative values: each window records
//! how much every column advanced since the previous boundary, with
//! wrapping subtraction, so a column that falls (a gauge) or wraps still
//! records a well-defined delta.

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::trace::json::JsonWriter;
use std::collections::VecDeque;

/// Default sampling window, in cycles.
pub const DEFAULT_WINDOW: u64 = 10_000;
/// Default ring capacity, in windows.
pub const DEFAULT_MAX_WINDOWS: usize = 256;

/// Cumulative `(column name, value)` pairs sampled at a window boundary.
pub type TelemetryColumns = Vec<(String, u64)>;

/// A design tap contributing extra telemetry columns (registered via
/// `Sim::set_telemetry_tap`): called with the design state at each window
/// boundary, after the rule-table totals are collected.
pub type TelemetryTap<S> = Box<dyn Fn(&S) -> TelemetryColumns>;

/// One completed telemetry window: the per-column advance over the
/// `window_cycles` (or fewer, for the first window) ending at `end_cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryWindow {
    /// The cycle count at the boundary that closed this window.
    pub end_cycle: u64,
    /// Per-column deltas, positionally matching [`Telemetry::columns`].
    pub deltas: Vec<u64>,
}

/// The windowed sampler: a bounded ring of [`TelemetryWindow`]s over a
/// column set frozen at the first sample.
#[derive(Debug)]
pub struct Telemetry {
    window: u64,
    cap: usize,
    /// Column names, frozen at the first sample. The column set must stay
    /// stable for the rest of the run: rings are positional.
    names: Vec<String>,
    /// Cumulative column values at the previous boundary (the delta
    /// baseline). All-zero before the first sample, so the first window
    /// reports cumulative-since-reset values.
    last: Vec<u64>,
    ring: VecDeque<TelemetryWindow>,
    taken: u64,
    dropped: u64,
}

impl Telemetry {
    /// A sampler closing a window every `window` cycles (clamped ≥ 1) and
    /// retaining at most `cap` windows (clamped ≥ 1).
    #[must_use]
    pub fn new(window: u64, cap: usize) -> Self {
        Telemetry {
            window: window.max(1),
            cap: cap.max(1),
            names: Vec::new(),
            last: Vec::new(),
            ring: VecDeque::new(),
            taken: 0,
            dropped: 0,
        }
    }

    /// The sampling window, in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The ring capacity, in windows.
    #[must_use]
    pub fn max_windows(&self) -> usize {
        self.cap
    }

    /// The frozen column names (empty before the first sample).
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.names
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &TelemetryWindow> {
        self.ring.iter()
    }

    /// Windows ever closed (including since-dropped ones).
    #[must_use]
    pub fn windows_taken(&self) -> u64 {
        self.taken
    }

    /// Windows evicted from the ring.
    #[must_use]
    pub fn windows_dropped(&self) -> u64 {
        self.dropped
    }

    /// Closes a window at `end_cycle` from the cumulative column values
    /// `cols`. The first call freezes the column layout; later calls must
    /// present the same columns in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the column set changed since it was frozen — enabling an
    /// instrument that adds columns (e.g. profiling, which adds TMA
    /// columns to the SoC tap) mid-run would silently corrupt the
    /// positional ring otherwise.
    pub fn sample(&mut self, end_cycle: u64, cols: &[(String, u64)]) {
        if self.names.is_empty() && self.taken == 0 {
            self.names = cols.iter().map(|(n, _)| n.clone()).collect();
            self.last = vec![0; cols.len()];
        }
        assert!(
            cols.len() == self.names.len()
                && cols.iter().zip(&self.names).all(|((n, _), f)| n == f),
            "telemetry column set changed mid-run (was {} columns, now {}): \
             enable instruments before the first sampled cycle",
            self.names.len(),
            cols.len()
        );
        let deltas: Vec<u64> = cols
            .iter()
            .zip(&self.last)
            .map(|((_, v), prev)| v.wrapping_sub(*prev))
            .collect();
        for (slot, (_, v)) in self.last.iter_mut().zip(cols) {
            *slot = *v;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TelemetryWindow { end_cycle, deltas });
        self.taken += 1;
    }

    /// Adopts the ring state of `loaded` (a snapshot), keeping this
    /// sampler's configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] when the snapshot was taken under a
    /// different window or capacity — a resumed series
    /// with different sampling parameters would not be comparable to the
    /// single-shot run.
    pub fn adopt(&mut self, loaded: Telemetry) -> Result<(), SnapError> {
        if loaded.window != self.window || loaded.cap != self.cap {
            return Err(SnapError::Mismatch(format!(
                "telemetry snapshot sampled every {} cycles x {} windows, \
                 this sampler every {} x {}",
                loaded.window, loaded.cap, self.window, self.cap
            )));
        }
        self.names = loaded.names;
        self.last = loaded.last;
        self.ring = loaded.ring;
        self.taken = loaded.taken;
        self.dropped = loaded.dropped;
        Ok(())
    }

    /// The ring as a JSON document: configuration, frozen columns, and
    /// every retained window's deltas, oldest first.
    #[must_use]
    pub fn to_json(&self, cycles: u64) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.schema_version();
        w.field_u64("cycles", cycles);
        w.field_u64("window_cycles", self.window);
        w.field_u64("max_windows", self.cap as u64);
        w.field_u64("windows_taken", self.taken);
        w.field_u64("windows_dropped", self.dropped);
        w.key("columns");
        w.begin_array();
        for n in &self.names {
            w.string(n);
        }
        w.end_array();
        w.key("windows");
        w.begin_array();
        for win in &self.ring {
            w.begin_object();
            w.field_u64("end_cycle", win.end_cycle);
            w.key("deltas");
            w.begin_array();
            for &d in &win.deltas {
                w.number_u64(d);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

impl Snap for Telemetry {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.window);
        w.u64(self.cap as u64);
        self.names.save(w);
        self.last.save(w);
        w.len_prefix(self.ring.len());
        for win in &self.ring {
            w.u64(win.end_cycle);
            win.deltas.save(w);
        }
        w.u64(self.taken);
        w.u64(self.dropped);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let window = r.u64()?;
        let cap =
            usize::try_from(r.u64()?).map_err(|_| SnapError::Corrupt("telemetry cap".into()))?;
        let names = Vec::<String>::load(r)?;
        let last = Vec::<u64>::load(r)?;
        let n = r.len_prefix()?;
        let mut ring = VecDeque::with_capacity(n.min(4096));
        for _ in 0..n {
            let end_cycle = r.u64()?;
            let deltas = Vec::<u64>::load(r)?;
            if deltas.len() != names.len() {
                return Err(SnapError::Corrupt("telemetry window width".into()));
            }
            ring.push_back(TelemetryWindow { end_cycle, deltas });
        }
        let taken = r.u64()?;
        let dropped = r.u64()?;
        Ok(Telemetry {
            window,
            cap,
            names,
            last,
            ring,
            taken,
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(vals: &[(&str, u64)]) -> Vec<(String, u64)> {
        vals.iter().map(|(n, v)| ((*n).to_string(), *v)).collect()
    }

    #[test]
    fn windows_record_deltas_and_the_ring_is_bounded() {
        let mut t = Telemetry::new(10, 2);
        t.sample(10, &cols(&[("a", 5), ("b", 100)]));
        t.sample(20, &cols(&[("a", 9), ("b", 100)]));
        t.sample(30, &cols(&[("a", 9), ("b", 160)]));
        assert_eq!(t.columns(), ["a".to_string(), "b".to_string()]);
        assert_eq!(t.windows_taken(), 3);
        assert_eq!(t.windows_dropped(), 1);
        let wins: Vec<_> = t.windows().collect();
        assert_eq!(wins.len(), 2);
        assert_eq!(wins[0].deltas, [4, 0]);
        assert_eq!(wins[1].deltas, [0, 60]);
        assert_eq!(wins[1].end_cycle, 30);
    }

    #[test]
    fn snapshot_roundtrip_preserves_the_ring() {
        let mut t = Telemetry::new(10, 4);
        t.sample(10, &cols(&[("sim.x", 3)]));
        t.sample(20, &cols(&[("sim.x", 7)]));
        let mut w = SnapWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let loaded = Telemetry::load(&mut r).expect("load");
        let mut fresh = Telemetry::new(10, 4);
        fresh.adopt(loaded).expect("adopt");
        assert_eq!(fresh.to_json(20), t.to_json(20));
        // Continuing after adoption uses the restored baseline.
        fresh.sample(30, &cols(&[("sim.x", 10)]));
        assert_eq!(fresh.windows().last().expect("win").deltas, [3]);
    }

    #[test]
    fn adoption_rejects_mismatched_configuration() {
        let mut t = Telemetry::new(10, 4);
        t.sample(10, &cols(&[("a", 1)]));
        let mut w = SnapWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let loaded = Telemetry::load(&mut SnapReader::new(&bytes)).expect("load");
        let mut other_window = Telemetry::new(20, 4);
        assert!(matches!(
            other_window.adopt(loaded),
            Err(SnapError::Mismatch(_))
        ));
        let loaded = Telemetry::load(&mut SnapReader::new(&bytes)).expect("load");
        let mut other_cap = Telemetry::new(10, 8);
        assert!(matches!(
            other_cap.adopt(loaded),
            Err(SnapError::Mismatch(_))
        ));
    }

    #[test]
    #[should_panic(expected = "column set changed")]
    fn changing_columns_mid_run_panics() {
        let mut t = Telemetry::new(10, 4);
        t.sample(10, &cols(&[("a", 1)]));
        t.sample(20, &cols(&[("a", 1), ("b", 2)]));
    }
}
