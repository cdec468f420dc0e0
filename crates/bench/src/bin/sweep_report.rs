//! Sweep aggregator: folds a finished fleet campaign into a Pareto
//! report over configuration axes (see [`riscy_bench::sweep`]).
//!
//! ```text
//! sweep_report --campaign-dir DIR [--axes ipc:max,axis.rob_entries:min]
//!              [--out PATH]
//! ```
//!
//! Without `--axes` the objectives default to maximizing `ipc` and
//! minimizing every `axis.*` metric the campaign carries. The report is
//! printed to stdout (or written to `--out`); its bytes depend only on
//! the campaign's unit files, never on how the campaign was executed, so
//! it is safe to diff across thread counts and kill/resume histories.
//! Render it with `scripts/sweep_report.py` (table or HTML dashboard).

use std::path::PathBuf;

use riscy_bench::sweep::{sweep_report, Objective};
use riscy_bench::{path_arg, write_artifact};

fn main() {
    riscy_bench::accept_flags(&["--campaign-dir", "--axes", "--out"], &[]);
    let dir = path_arg("--campaign-dir")
        .map(PathBuf::from)
        .expect("sweep_report: --campaign-dir is required");
    let objectives = path_arg("--axes").map_or_else(Vec::new, |s| Objective::parse_spec(&s));
    let json = sweep_report(&dir, &objectives);
    match path_arg("--out") {
        Some(path) => write_artifact(&path, &json),
        None => println!("{json}"),
    }
}
