//! Fleet campaign driver: many independent SoC simulations per process.
//!
//! Enumerates a seed × config × workload grid, runs it on a work-stealing
//! thread pool ([`riscy_bench::fleet`]), and reports aggregate simulation
//! throughput (simulated cycles per host second summed over all workers).
//!
//! ```text
//! fleet [--seeds N] [--configs t+,c-] [--threads N]
//!       [--scheduler reference|fast] [--chaos]
//!       [--scale test|ref] [--workloads a,b,...] [--stop-after N]
//!       [--campaign-dir DIR] [--checkpoint-every CYCLES]
//!       [--abort-after-ckpts N] [--report PATH]
//!       [--heartbeat-every CYCLES] [--unit-timeout SECONDS]
//!       [--telemetry] [--telemetry-window CYCLES] [--telemetry-windows N]
//!       [--watch [--once]]
//! ```
//!
//! With `--campaign-dir`, finished units persist as `unit_<id>.json` and a
//! rerun of the same grid resumes instead of recomputing; the final
//! `--report` bytes are identical either way (see `docs/PARALLELISM.md`
//! §"Fleet campaigns"). Adding `--checkpoint-every N` additionally
//! snapshots each in-flight unit every N simulated cycles as
//! `unit_<id>.ckpt`, so a killed campaign resumes *mid-unit* from the
//! checkpointed cycle instead of replaying the unit (see
//! `docs/CHECKPOINT.md`). `--abort-after-ckpts N` is the CI hook that
//! simulates such a kill right after the Nth checkpoint lands.
//!
//! Monitoring (see `docs/OBSERVABILITY.md` §telemetry):
//! `--heartbeat-every N` streams per-unit progress records into
//! `heartbeats.ndjson`; `--unit-timeout S` bounds each unit's wall time
//! and leaves a `unit_<id>.stall.json` wait-graph bundle behind instead
//! of hanging silently; `--telemetry` writes each unit's windowed
//! time-series as `unit_<id>.telemetry.json`. `fleet --watch
//! --campaign-dir DIR` renders the live campaign status from another
//! terminal (`--once` prints a single snapshot for scripting); finished
//! campaigns aggregate with the `sweep_report` binary.

use std::path::PathBuf;

use riscy_bench::fleet::{fleet_grid, run_fleet, watch_snapshot, FleetOpts, SocFleet};
use riscy_bench::{path_arg, scale_from_args, scheduler_from_args, telemetry_opts, write_artifact};
use riscy_workloads::spec::spec_suite;

fn main() {
    riscy_bench::accept_flags(
        &[
            "--seeds",
            "--configs",
            "--threads",
            "--scheduler",
            "--scale",
            "--workloads",
            "--stop-after",
            "--campaign-dir",
            "--checkpoint-every",
            "--abort-after-ckpts",
            "--report",
            "--heartbeat-every",
            "--unit-timeout",
            "--telemetry-window",
            "--telemetry-windows",
        ],
        &["--chaos", "--telemetry", "--watch", "--once"],
    );
    if std::env::args().any(|a| a == "--watch") {
        let dir = path_arg("--campaign-dir")
            .map(PathBuf::from)
            .expect("fleet --watch: --campaign-dir is required");
        let once = std::env::args().any(|a| a == "--once");
        loop {
            print!("{}", watch_snapshot(&dir));
            if once {
                return;
            }
            std::thread::sleep(std::time::Duration::from_secs(1));
            println!();
        }
    }
    let scale = scale_from_args();
    let sched = scheduler_from_args();
    let seeds: u64 = path_arg("--seeds").map_or(2, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--seeds {v}: not a number"))
    });
    let configs: Vec<String> = path_arg("--configs")
        .unwrap_or_else(|| "t+,c-".to_string())
        .split(',')
        .map(str::to_string)
        .collect();
    let threads: usize = path_arg("--threads").map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--threads {v}: not a number"))
        },
    );
    let chaos = std::env::args().any(|a| a == "--chaos");
    let stop_after = path_arg("--stop-after").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--stop-after {v}: not a number"))
    });
    let checkpoint_every = path_arg("--checkpoint-every").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--checkpoint-every {v}: not a number"))
    });
    let abort_after_ckpts = path_arg("--abort-after-ckpts").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--abort-after-ckpts {v}: not a number"))
    });
    let heartbeat_every = path_arg("--heartbeat-every").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--heartbeat-every {v}: not a number"))
    });
    let unit_timeout = path_arg("--unit-timeout").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--unit-timeout {v}: not a number"))
    });
    let telemetry = std::env::args().any(|a| a == "--telemetry").then(|| {
        let t = telemetry_opts();
        (t.window, t.max_windows)
    });

    let mut workloads = spec_suite(scale);
    if let Some(filter) = path_arg("--workloads") {
        let keep: Vec<&str> = filter.split(',').collect();
        workloads.retain(|w| keep.contains(&w.name));
        assert!(
            !workloads.is_empty(),
            "--workloads {filter}: nothing matched"
        );
    }

    let seed_list: Vec<u64> = (0..seeds).collect();
    let config_refs: Vec<&str> = configs.iter().map(String::as_str).collect();
    let workload_refs: Vec<&riscy_workloads::spec::Workload> = workloads.iter().collect();
    let units = fleet_grid(&seed_list, &config_refs, &workload_refs);
    println!(
        "fleet: {} units ({} seeds x {} configs x {} workloads), {} threads, sched {sched:?}{}",
        units.len(),
        seeds,
        configs.len(),
        workloads.len(),
        threads,
        if chaos { ", chaos on" } else { "" },
    );

    let harness = SocFleet {
        workloads: workloads.clone(),
        sched,
        chaos,
    };
    let opts = FleetOpts {
        threads,
        campaign_dir: path_arg("--campaign-dir").map(PathBuf::from),
        stop_after,
        checkpoint_every,
        abort_after_ckpts,
        heartbeat_every,
        unit_timeout,
        telemetry,
    };
    let report = run_fleet(units, &opts, |u, ctx| harness.run_unit(u, ctx));

    println!(
        "\n{:<4} {:>6} {:<4} {:<14} {:>12} {:>12} {:>5}",
        "id", "seed", "cfg", "workload", "cycles", "insts", "ok"
    );
    for r in &report.records {
        println!(
            "{:<4} {:>6} {:<4} {:<14} {:>12} {:>12} {:>5}{}",
            r.unit.id,
            r.unit.seed,
            r.unit.config,
            r.unit.workload,
            r.stats.cycles,
            r.stats.insts,
            r.stats.exit_ok,
            if r.resumed { "  (resumed)" } else { "" },
        );
    }
    println!(
        "\nfleet: {} units done ({} resumed), {} steals, {:.2}s wall{}",
        report.records.len(),
        report.records.iter().filter(|r| r.resumed).count(),
        report.steals,
        report.wall_s,
        if report.stopped_early {
            " [stopped early]"
        } else {
            ""
        },
    );
    println!(
        "fleet: {:.0} simulated cycles executed, aggregate {:.0} cycles/s",
        report.fresh_cycles() as f64,
        report.agg_cps(),
    );

    if let Some(path) = path_arg("--report") {
        write_artifact(&path, &report.deterministic_json());
    }
}
