//! Campaign telemetry and sweep-aggregation contract (see
//! docs/OBSERVABILITY.md §telemetry):
//!
//! * a 2-axis Pareto sweep over 8 fleet units produces byte-identical
//!   `sweep_report.json` across worker-thread counts AND across a
//!   kill/resume boundary;
//! * per-unit telemetry rings written by the fleet are byte-identical
//!   across thread counts;
//! * heartbeat monitoring streams parse and cover every unit;
//! * a unit that exceeds its wall-clock budget leaves a structured
//!   stall bundle behind and is flagged by the watch renderer.

use std::path::{Path, PathBuf};

use cmd_core::sched::SchedulerMode;
use riscy_bench::fleet::{
    fleet_grid, load_campaign, run_fleet, watch_snapshot, FleetOpts, SocFleet,
};
use riscy_bench::sweep::{aggregate, sweep_report, Objective};
use riscy_isa::asm::{Assembler, Program};
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_workloads::spec::Workload;

fn tiny_prog() -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(Gpr::s(1), 40);
    a.label("loop");
    a.addi(Gpr::s(1), Gpr::s(1), -1);
    a.bnez(Gpr::s(1), "loop");
    a.li(Gpr::t(6), MMIO_EXIT as i64);
    a.li(Gpr::t(5), 1);
    a.sd(Gpr::t(5), 0, Gpr::t(6));
    a.label("hang");
    a.j("hang");
    a.assemble()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn harness() -> SocFleet {
    SocFleet {
        workloads: vec![Workload {
            name: "tiny",
            program: tiny_prog(),
            max_cycles: 200_000,
        }],
        sched: SchedulerMode::Fast,
        chaos: false,
    }
}

/// A 2-axis sweep grid: 2 seeds × 4 parametric configs (ROB and IQ both
/// swept) × 1 workload = 8 units.
fn sweep_units() -> Vec<riscy_bench::fleet::FleetUnit> {
    fleet_grid(
        &[0, 1],
        &[
            "t+:rob=32:iq=16",
            "t+:rob=32:iq=32",
            "t+:rob=64:iq=16",
            "t+:rob=64:iq=32",
        ],
        &[&Workload {
            name: "tiny",
            program: tiny_prog(),
            max_cycles: 200_000,
        }],
    )
}

fn run_campaign(dir: &Path, threads: usize, stop_after: Option<usize>) {
    let h = harness();
    let report = run_fleet(
        sweep_units(),
        &FleetOpts {
            threads,
            campaign_dir: Some(dir.to_path_buf()),
            stop_after,
            telemetry: Some((100, 16)),
            heartbeat_every: Some(100),
            ..FleetOpts::default()
        },
        |u, ctx| h.run_unit(u, ctx),
    );
    if stop_after.is_none() {
        assert_eq!(report.records.len(), 8);
        assert!(report.all_ok(), "sweep units must exit cleanly");
    }
}

const AXES: &str = "ipc:max,axis.rob_entries:min,axis.iq_entries:min";

#[test]
fn sweep_report_bytes_identical_across_thread_counts_and_kill_resume() {
    let objectives = Objective::parse_spec(AXES).expect("well-formed axes");
    let dir1 = tmp_dir("threads1");
    run_campaign(&dir1, 1, None);
    let want = sweep_report(&dir1, &objectives);
    assert!(want.contains("\"schema_version\":1"), "{want}");
    assert!(want.contains("\"configs\":4"), "{want}");

    for threads in [2, 4] {
        let dir = tmp_dir(&format!("threads{threads}"));
        run_campaign(&dir, threads, None);
        assert_eq!(
            sweep_report(&dir, &objectives),
            want,
            "sweep report diverged at {threads} threads"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // Kill after 3 units, then resume: the aggregate is byte-identical.
    let dir = tmp_dir("killed");
    run_campaign(&dir, 2, Some(3));
    run_campaign(&dir, 2, None);
    assert_eq!(
        sweep_report(&dir, &objectives),
        want,
        "sweep report diverged across kill/resume"
    );

    // The frontier is sane: the cheapest config always survives, and at
    // least one config is dominated (bigger structures, no extra IPC on
    // this tiny loop).
    let units = load_campaign(&dir1);
    assert_eq!(units.len(), 8);
    let points = aggregate(&units, &objectives);
    assert_eq!(points.len(), 4);
    let cheapest = points
        .iter()
        .find(|p| p.config == "t+:rob=32:iq=16")
        .unwrap();
    assert!(cheapest.pareto, "the cheapest config cannot be dominated");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir1).ok();
}

#[test]
fn unit_telemetry_files_are_byte_identical_across_thread_counts() {
    let dir1 = tmp_dir("tel1");
    run_campaign(&dir1, 1, None);
    let want: Vec<String> = (0..8)
        .map(|id| {
            std::fs::read_to_string(dir1.join(format!("unit_{id}.telemetry.json")))
                .expect("telemetry file exists")
        })
        .collect();
    assert!(want[0].contains("\"window_cycles\":100"), "{}", want[0]);
    assert!(want[0].contains("c0.committed"), "{}", want[0]);
    for threads in [2, 4] {
        let dir = tmp_dir(&format!("tel{threads}"));
        run_campaign(&dir, threads, None);
        for (id, expected) in want.iter().enumerate() {
            let got = std::fs::read_to_string(dir.join(format!("unit_{id}.telemetry.json")))
                .expect("telemetry file exists");
            assert_eq!(
                &got, expected,
                "unit {id} telemetry diverged at {threads} threads"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&dir1).ok();
}

#[test]
fn heartbeats_cover_every_unit_and_survive_resume() {
    let dir = tmp_dir("beats");
    run_campaign(&dir, 2, Some(3));
    let first = std::fs::read_to_string(dir.join("heartbeats.ndjson")).unwrap();
    assert!(!first.is_empty());
    run_campaign(&dir, 2, None);
    let text = std::fs::read_to_string(dir.join("heartbeats.ndjson")).unwrap();
    assert!(
        text.starts_with(&first),
        "resume must preserve earlier heartbeat history"
    );
    for id in 0..8 {
        assert!(
            text.contains(&format!("{{\"unit\":{id},\"phase\":\"start\"")),
            "unit {id} never reported a start beat"
        );
        assert!(
            text.contains(&format!("{{\"unit\":{id},\"phase\":\"done\"")),
            "unit {id} never reported a done beat"
        );
    }
    let snapshot = watch_snapshot(&dir);
    assert!(snapshot.contains("8 units finished"), "{snapshot}");
    assert!(!snapshot.contains("STALLED"), "{snapshot}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timed_out_unit_leaves_a_stall_bundle_and_is_flagged() {
    let dir = tmp_dir("stall");
    let h = harness();
    let report = run_fleet(
        sweep_units().into_iter().take(1).collect(),
        &FleetOpts {
            threads: 1,
            campaign_dir: Some(dir.clone()),
            unit_timeout: Some(0.0),
            heartbeat_every: Some(100),
            ..FleetOpts::default()
        },
        |u, ctx| h.run_unit(u, ctx),
    );
    assert_eq!(report.records.len(), 1);
    assert!(
        !report.records[0].stats.exit_ok,
        "a timed-out unit must not report success"
    );
    let bundle = std::fs::read_to_string(dir.join("unit_0.stall.json")).unwrap();
    assert!(bundle.contains("\"schema_version\":1"), "{bundle}");
    assert!(bundle.contains("\"waits\":["), "{bundle}");
    assert!(bundle.contains("\"stalled_for\":"), "{bundle}");
    let snapshot = watch_snapshot(&dir);
    assert!(snapshot.contains("STALLED"), "{snapshot}");
    assert!(snapshot.contains("unit_0.stall.json"), "{snapshot}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Sweep labels are unchecked sizes, so a sweep can ask for structures past
/// one 64-bit occupancy-mask word; they must build and run like any other.
#[test]
fn structures_past_one_mask_word_run_to_the_golden_exit_code() {
    let w = riscy_workloads::spec::hmmer(riscy_workloads::spec::Scale::Test);
    let mut golden = riscy_isa::interp::Machine::with_program(1, &w.program);
    golden
        .run(w.max_cycles * 8)
        .expect("the interpreter completes");
    let (cfg, mem) = SocFleet::config_for("t+:iq=80:lq=96:sq=72:sb=66").expect("known label");
    let mut sim = riscy_ooo::soc::SocSim::new(cfg, mem, 1, &w.program);
    sim.run_to_completion(w.max_cycles)
        .expect("hmmer completes");
    assert!(golden.hart(0).halted.is_some());
    assert_eq!(sim.exit_codes(), vec![golden.hart(0).halted]);
}
