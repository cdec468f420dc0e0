//! # Sweep aggregation — Pareto reports over campaign config axes
//!
//! The fleet runner persists one `unit_<id>.json` per finished grid cell
//! (see [`crate::fleet`]), each carrying deterministic metrics (IPC,
//! event rates) and the unit's configuration axes (`axis.rob_entries`,
//! `axis.iq_entries`, …). This module folds a finished campaign into a
//! **Pareto sweep report**: per-config mean metrics, an explicit set of
//! objectives with directions (IPC is maximized, structure sizes and
//! miss rates are minimized), and the non-dominated frontier — the
//! paper's Fig. 12/13 "performance vs. cost" tables generalized to
//! arbitrary axes.
//!
//! Determinism: units load in ascending unit-id order, configs aggregate
//! in lexicographic label order, and every number in the report is
//! derived from simulation-domain values only, so `sweep_report.json`
//! bytes are independent of thread count, claim order, and
//! kill/resume history — the same contract as
//! [`FleetReport::deterministic_json`](crate::fleet::FleetReport::deterministic_json).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::Path;

use cmd_core::trace::json::JsonWriter;

use crate::fleet::{load_campaign, FleetUnit, UnitStats};

/// One sweep objective: a metric name and the direction that improves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Objective {
    /// Metric name as it appears in the unit files (without the `m_`
    /// on-disk prefix), e.g. `"ipc"` or `"axis.rob_entries"`.
    pub name: String,
    /// `true` when larger is better (IPC); `false` when smaller is
    /// better (structure sizes, miss rates).
    pub maximize: bool,
}

impl Objective {
    /// Parses a comma-separated `--axes` spec: `name:max` or `name:min`
    /// per entry, e.g. `"ipc:max,axis.rob_entries:min"`.
    ///
    /// # Errors
    ///
    /// An error naming a malformed entry — a typo'd objective would
    /// silently reshape the frontier.
    pub fn parse_spec(spec: &str) -> Result<Vec<Objective>, String> {
        spec.split(',')
            .filter(|s| !s.is_empty())
            .map(|entry| {
                let (name, dir) = entry
                    .split_once(':')
                    .ok_or_else(|| format!("objective `{entry}` is not name:max|min"))?;
                let maximize = match dir {
                    "max" => true,
                    "min" => false,
                    other => return Err(format!("objective direction `{other}` (max|min)")),
                };
                Ok(Objective {
                    name: name.to_string(),
                    maximize,
                })
            })
            .collect()
    }

    /// The default objectives for a campaign: maximize `ipc` and
    /// minimize every `axis.*` metric the campaign carries, in
    /// lexicographic order — performance against every cost axis that
    /// was actually swept.
    #[must_use]
    pub fn defaults_for(units: &[(FleetUnit, UnitStats)]) -> Vec<Objective> {
        let mut axes: Vec<String> = units
            .iter()
            .flat_map(|(_, s)| s.metrics.iter())
            .filter(|(name, _)| name.starts_with("axis."))
            .map(|(name, _)| name.clone())
            .collect();
        axes.sort_unstable();
        axes.dedup();
        let mut objectives = vec![Objective {
            name: "ipc".to_string(),
            maximize: true,
        }];
        objectives.extend(axes.into_iter().map(|name| Objective {
            name,
            maximize: false,
        }));
        objectives
    }
}

/// One aggregated configuration: the mean of every metric over the
/// config's finished units.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The config label shared by the units folded into this point.
    pub config: String,
    /// Unit ids aggregated, ascending.
    pub units: Vec<usize>,
    /// Mean metrics, in lexicographic name order.
    pub metrics: Vec<(String, f64)>,
    /// Whether the point survives on the Pareto frontier.
    pub pareto: bool,
}

impl SweepPoint {
    /// The point's value for `name`, when it carries it.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Folds campaign unit records into per-config points (mean metrics over
/// each config's units, configs in lexicographic label order) and marks
/// the Pareto frontier under `objectives`. Units that did not exit
/// cleanly are excluded — a starved or timed-out run's IPC is not a
/// design point.
#[must_use]
pub fn aggregate(units: &[(FleetUnit, UnitStats)], objectives: &[Objective]) -> Vec<SweepPoint> {
    let mut by_config: BTreeMap<&str, Vec<&(FleetUnit, UnitStats)>> = BTreeMap::new();
    for rec in units.iter().filter(|(_, s)| s.exit_ok) {
        by_config.entry(&rec.0.config).or_default().push(rec);
    }
    let mut points: Vec<SweepPoint> = by_config
        .into_iter()
        .map(|(config, recs)| {
            let mut sums: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
            for (_, stats) in recs.iter().map(|r| (&r.0, &r.1)) {
                for (name, value) in &stats.metrics {
                    let slot = sums.entry(name).or_insert((0.0, 0));
                    slot.0 += value;
                    slot.1 += 1;
                }
            }
            SweepPoint {
                config: config.to_string(),
                units: recs.iter().map(|(u, _)| u.id).collect(),
                metrics: sums
                    .into_iter()
                    .map(|(name, (sum, n))| (name.to_string(), sum / n as f64))
                    .collect(),
                pareto: false,
            }
        })
        .collect();
    let flags: Vec<bool> = points
        .iter()
        .map(|p| !points.iter().any(|q| dominates(q, p, objectives)))
        .collect();
    for (point, flag) in points.iter_mut().zip(flags) {
        point.pareto = flag;
    }
    points
}

/// Whether `a` Pareto-dominates `b`: no worse on every objective and
/// strictly better on at least one. A point missing an objective metric
/// cannot dominate and cannot be dominated on that axis (treated as
/// incomparable, never as zero).
fn dominates(a: &SweepPoint, b: &SweepPoint, objectives: &[Objective]) -> bool {
    let mut strictly_better = false;
    for obj in objectives {
        let (Some(va), Some(vb)) = (a.metric(&obj.name), b.metric(&obj.name)) else {
            return false;
        };
        let (va, vb) = if obj.maximize { (va, vb) } else { (vb, va) };
        if va < vb {
            return false;
        }
        if va > vb {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Serializes the sweep report: objectives, per-config points with their
/// mean metrics and frontier flags, and the frontier's config labels.
#[must_use]
pub fn sweep_json(points: &[SweepPoint], objectives: &[Objective]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.schema_version();
    w.key("objectives");
    w.begin_array();
    for obj in objectives {
        w.begin_object();
        w.field_str("name", &obj.name);
        w.field_str("dir", if obj.maximize { "max" } else { "min" });
        w.end_object();
    }
    w.end_array();
    w.field_u64("configs", points.len() as u64);
    w.key("points");
    w.begin_array();
    for p in points {
        w.begin_object();
        w.field_str("config", &p.config);
        w.key("units");
        w.begin_array();
        for id in &p.units {
            w.number_u64(*id as u64);
        }
        w.end_array();
        w.key("metrics");
        w.begin_object();
        for (name, value) in &p.metrics {
            w.field_f64(name, *value);
        }
        w.end_object();
        w.key("pareto");
        w.boolean(p.pareto);
        w.end_object();
    }
    w.end_array();
    w.key("frontier");
    w.begin_array();
    for p in points.iter().filter(|p| p.pareto) {
        w.string(&p.config);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Loads a campaign directory and produces its sweep report JSON under
/// `objectives` (or [`Objective::defaults_for`] when empty).
///
/// # Panics
///
/// Panics when the campaign directory cannot be read.
#[must_use]
pub fn sweep_report(dir: &Path, objectives: &[Objective]) -> String {
    let units = load_campaign(dir);
    let objectives = if objectives.is_empty() {
        Objective::defaults_for(&units)
    } else {
        objectives.to_vec()
    };
    let points = aggregate(&units, &objectives);
    sweep_json(&points, &objectives)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(id: usize, config: &str, metrics: &[(&str, f64)]) -> (FleetUnit, UnitStats) {
        (
            FleetUnit {
                id,
                seed: 0,
                config: config.to_string(),
                workload: "w".to_string(),
            },
            UnitStats {
                cycles: 100,
                insts: 50,
                exit_ok: true,
                metrics: metrics
                    .iter()
                    .map(|(n, v)| ((*n).to_string(), *v))
                    .collect(),
            },
        )
    }

    #[test]
    fn frontier_keeps_non_dominated_points() {
        // big: fast but costly; small: slow but cheap; bad: dominated by
        // small on both axes.
        let units = vec![
            unit(0, "big", &[("ipc", 1.0), ("axis.rob_entries", 64.0)]),
            unit(1, "small", &[("ipc", 0.8), ("axis.rob_entries", 32.0)]),
            unit(2, "bad", &[("ipc", 0.7), ("axis.rob_entries", 48.0)]),
        ];
        let objectives = Objective::defaults_for(&units);
        assert_eq!(objectives.len(), 2);
        let points = aggregate(&units, &objectives);
        let pareto: Vec<(&str, bool)> = points
            .iter()
            .map(|p| (p.config.as_str(), p.pareto))
            .collect();
        assert_eq!(pareto, vec![("bad", false), ("big", true), ("small", true)]);
    }

    #[test]
    fn aggregation_means_over_units_and_skips_failures() {
        let mut failed = unit(2, "a", &[("ipc", 9.0)]);
        failed.1.exit_ok = false;
        let units = vec![
            unit(0, "a", &[("ipc", 1.0)]),
            unit(1, "a", &[("ipc", 3.0)]),
            failed,
        ];
        let objectives = Objective::parse_spec("ipc:max").expect("well formed");
        let points = aggregate(&units, &objectives);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].units, vec![0, 1]);
        assert!((points[0].metric("ipc").unwrap() - 2.0).abs() < 1e-12);
        assert!(points[0].pareto);
    }

    #[test]
    fn report_json_carries_schema_and_frontier() {
        let units = vec![unit(0, "a", &[("ipc", 1.0)])];
        let objectives = Objective::parse_spec("ipc:max").expect("well formed");
        let points = aggregate(&units, &objectives);
        let json = sweep_json(&points, &objectives);
        assert!(json.contains("\"schema_version\":1"), "{json}");
        assert!(json.contains("\"frontier\":[\"a\"]"), "{json}");
        assert!(json.contains("\"dir\":\"max\""), "{json}");
    }

    #[test]
    fn objective_spec_parses_directions() {
        let objs = Objective::parse_spec("ipc:max,axis.rob_entries:min").expect("well formed");
        assert_eq!(objs.len(), 2);
        assert!(objs[0].maximize);
        assert!(!objs[1].maximize);
        for bad in ["ipc", "ipc:most"] {
            let err = Objective::parse_spec(bad).expect_err(bad);
            assert!(err.contains("max|min"), "{err}");
        }
    }
}
