//! What a run has to show for itself: the text report, the profile and
//! telemetry JSON documents, and critical paths by rule name.

use super::{effective_stats, RuleEntry, Sim};
use crate::sched::SchedulerMode;
use crate::telemetry::Telemetry;
use crate::trace::json::JsonWriter;

impl<S> Sim<S> {
    /// The telemetry ring as a JSON document (empty-windowed but valid
    /// when telemetry is off).
    #[must_use]
    pub fn telemetry_json(&self) -> String {
        self.tel.as_deref().map_or_else(
            || Telemetry::new(1, 1).to_json(self.cycles),
            |t| t.to_json(self.cycles),
        )
    }

    /// Assembles the cumulative telemetry column vector: the (sorted)
    /// registry-counter snapshot under the sampler's prefix filter, then
    /// the tap's columns.
    pub(super) fn telemetry_columns(&self) -> Vec<(String, u64)> {
        let tel = self.tel.as_deref().expect("telemetry enabled");
        let mut cols: Vec<(String, u64)> = self
            .counters
            .snapshot()
            .into_iter()
            .filter(|(n, _)| tel.keeps(n))
            .collect();
        if let Some(tap) = &self.tel_tap {
            cols.extend(tap(&self.state));
        }
        cols
    }

    /// Critical paths over the recorded causality edges, with rule indices
    /// resolved to names: `(window_start, names constrainer-first)`.
    /// Empty when profiling is off or no edges were recorded.
    #[must_use]
    pub fn critical_path_names(&self) -> Vec<(u64, Vec<String>)> {
        let Some(p) = self.prof.as_deref() else {
            return Vec::new();
        };
        p.causal()
            .critical_paths(p.window())
            .into_iter()
            .map(|cp| {
                let names = cp
                    .rules
                    .iter()
                    .map(|&r| {
                        self.rules
                            .get(r as usize)
                            .map_or_else(|| format!("rule#{r}"), |e| e.name.clone())
                    })
                    .collect();
                (cp.window_start, names)
            })
            .collect()
    }

    /// The profiling snapshot as a JSON document: per-rule fire/stall
    /// counts and host-time attribution, critical paths per window,
    /// and causal-edge totals (windowed counter deltas are the telemetry
    /// artifact's, [`Sim::telemetry_json`]).
    /// Usable with profiling off (host-time fields are then zero).
    #[must_use]
    pub fn profile_json(&self) -> String {
        let prof = self.prof.as_deref();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.schema_version();
        w.field_u64("cycles", self.cycles);
        w.field_str(
            "scheduler",
            match self.mode {
                SchedulerMode::Reference => "reference",
                SchedulerMode::Fast => "fast",
            },
        );
        w.key("profiling");
        w.boolean(prof.is_some());
        w.key("rules");
        w.begin_array();
        let now = self.clk.cycle();
        for (i, r) in self.rules.iter().enumerate() {
            let rp = prof.map(|p| p.rule(i)).unwrap_or_default();
            let stats = effective_stats(r, now);
            w.begin_object();
            w.field_str("name", &r.name);
            w.field_u64("fired", stats.fired);
            w.field_u64("guard_stalls", stats.guard_stalls);
            w.field_u64("cm_stalls", stats.cm_stalls);
            w.field_u64("evals", rp.evals);
            w.field_u64("skipped", rp.skipped);
            w.field_u64("body_ns", rp.body_ns);
            w.field_u64("fired_ns", rp.fired_ns);
            w.field_u64("stall_ns", rp.stall_ns);
            w.field_u64("total_ns", rp.total_ns());
            w.end_object();
        }
        w.end_array();
        if let Some(p) = prof {
            w.key("critical_paths");
            w.begin_array();
            let paths = p.causal().critical_paths(p.window());
            // Keep the JSON bounded on long runs: the most recent windows
            // are the interesting ones.
            let start = paths.len().saturating_sub(64);
            for cp in &paths[start..] {
                w.begin_object();
                w.field_u64("window_start", cp.window_start);
                w.field_u64("window_end", cp.window_end);
                w.field_u64("length", cp.len as u64);
                w.key("rules");
                w.begin_array();
                for &r in &cp.rules {
                    match self.rules.get(r as usize) {
                        Some(e) => w.string(&e.name),
                        None => w.string(&format!("rule#{r}")),
                    }
                }
                w.end_array();
                w.end_object();
            }
            w.end_array();
            w.key("causal_edges");
            w.begin_object();
            w.field_u64("recorded", p.causal().recorded());
            w.field_u64("dropped", p.causal().dropped());
            w.end_object();
            w.field_u64("window", p.window());
        }
        w.end_object();
        w.finish()
    }

    /// A formatted multi-line scheduling report: rules sorted by fire count
    /// (busiest first; ties keep schedule order), each followed by its
    /// stall-reason histogram so a deadlocked or underperforming rule shows
    /// *what* it was waiting on, not just how often. With profiling enabled
    /// each rule line also carries its host-time attribution (self = rule
    /// body, total = body + scheduling) in the same table.
    #[must_use]
    pub fn report(&self) -> String {
        let prof = self.prof.as_deref();
        let mut out = String::new();
        out.push_str(&format!("cycles: {}\n", self.cycles));
        let now = self.clk.cycle();
        let mut order: Vec<(usize, &RuleEntry<S>)> = self.rules.iter().enumerate().collect();
        order.sort_by_key(|(_, r)| std::cmp::Reverse(r.stats.fired));
        for (i, r) in order {
            let stats = effective_stats(r, now);
            let total = stats.fired + stats.guard_stalls + stats.cm_stalls;
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * stats.fired as f64 / total as f64
            };
            out.push_str(&format!(
                "  {:<24} fired {:>10} ({:5.1}%)  guard-stall {:>10}  cm-stall {:>10}",
                r.name, stats.fired, pct, stats.guard_stalls, stats.cm_stalls
            ));
            if let Some(p) = prof {
                let rp = p.rule(i);
                out.push_str(&format!(
                    "  self {:>9.3}ms  total {:>9.3}ms  evals {:>10}",
                    rp.self_ns() as f64 / 1e6,
                    rp.total_ns() as f64 / 1e6,
                    rp.evals,
                ));
            }
            out.push('\n');
            let mut reasons: Vec<(String, u64)> = r
                .guard_reasons
                .iter()
                .map(|(k, v)| (format!("guard \"{k}\""), *v))
                .chain(r.cm_reasons.iter().map(|(k, v)| (format!("cm [{k}]"), *v)))
                .collect();
            reasons.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (reason, count) in reasons {
                out.push_str(&format!("      {count:>10} × {reason}\n"));
            }
        }
        out
    }
}
