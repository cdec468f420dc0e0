//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! lists the same names (a test checks it); README is the glossary.

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cps", "cycles/s"),
    ("commit_kips", "kinst/s"),
    ("sim_cycles", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, printed by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Simulated work of a pass: exact, must not move when only the
    // simulator gets faster.
    ("sim.cycles", "cycles"),
    ("sim.insts", "inst"),
    // cmd-core: isolated probes.
    ("core.dispatch_ns", "ns"),
    ("core.sleep_ns", "ns"),
    ("core.wake_ns", "ns"),
    ("core.cm_probe_ns", "ns"),
    ("core.cell_scalar_ns", "ns"),
    ("core.cell_slot_ns", "ns"),
    ("core.cell_vec_ns", "ns"),
    ("core.abort_ns", "ns"),
    ("core.fifo_ns", "ns"),
    // cmd-core: from the profiled pass.
    ("core.kernel_share", "share"),
    ("core.evals_per_cycle", "1/cycle"),
    ("core.skip_ratio", "ratio"),
    ("core.fire_ratio", "ratio"),
    // riscy-ooo.
    ("ooo.front_share", "share"),
    ("ooo.rename_share", "share"),
    ("ooo.issue_share", "share"),
    ("ooo.exec_share", "share"),
    ("ooo.lsq_share", "share"),
    ("ooo.commit_share", "share"),
    ("ooo.build_ms", "ms"),
    ("ooo.build4_ms", "ms"),
    ("ooo.snap_save_mbps", "MB/s"),
    ("ooo.snap_restore_mbps", "MB/s"),
    ("ooo.snap_kb", "KiB"),
    ("ff.mips", "MIPS"),
    ("ff.handoff_ms", "ms"),
    ("ooo.ipc", "inst/cycle"),
    ("ooo.mispredict_pki", "1/kinst"),
    ("ooo.rob_occ_avg", "entries"),
    // riscy-mem.
    ("mem.substrate_share", "share"),
    ("mem.tick_idle_ns", "ns"),
    ("mem.hit_ns", "ns"),
    ("mem.miss_ns", "ns"),
    ("mem.l1d_mpki", "1/kinst"),
    ("mem.l2_mpki", "1/kinst"),
    ("mem.dtlb_mpki", "1/kinst"),
    // riscy-isa, riscy-baseline, riscy-workloads, riscy-bench.
    ("isa.interp_mips", "MIPS"),
    ("baseline.cps", "cycles/s"),
    ("workloads.gen_ms", "ms"),
    ("bench.sample_ipc_err", "ratio"),
    ("bench.fleet_overhead_ratio", "ratio"),
    // Spans of the traced pass: self time as a share of the pass.
    ("span.gen_share", "share"),
    ("span.build_share", "share"),
    ("span.run_share", "share"),
    ("span.stats_share", "share"),
    ("span.profile_share", "share"),
    ("span.ff_share", "share"),
    ("span.handoff_share", "share"),
    ("span.detail_share", "share"),
    ("span.snap_share", "share"),
    // Observers and host.
    ("obs.prof_on_ratio", "ratio"),
    ("obs.telemetry_on_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.nproc", "count"),
    ("host.ref_ns", "ns"),
    ("host.ref_spread", "ratio"),
    ("host.cpu_share", "share"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let fresh = self.0.insert(name, value).is_none();
        assert!(fresh, "metric {name} set twice");
    }

    /// `(name, value, unit)` for exactly the metrics of `table`, in its
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when a metric of `table` was not measured or a measured one
    /// is not in `table`: the printed set is the contract.
    pub fn in_order_of(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: *self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid(name, "_.-", 64), "name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(valid(unit, "_/%.-", 16), "unit {unit} of {name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for w in crate::workloads::ALL {
            assert!(valid(w.name(), "_.-", 64) && seen.insert(w.name()));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` lists every workload and metric with the unit the
    /// benchmark prints, and nothing else.
    #[test]
    fn benchmark_json_lists_exactly_these() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..].find(']').expect("section ends") + start;
            &json[start..end]
        };
        let names = |text: &str| {
            text.split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(key);
            assert_eq!(
                names(text),
                table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>(),
                "{key}"
            );
            for (name, unit) in table {
                assert!(
                    text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{name} [{unit}]"
                );
            }
        }
        let workloads: Vec<String> = crate::workloads::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names(section("workloads")), workloads);
    }
}
