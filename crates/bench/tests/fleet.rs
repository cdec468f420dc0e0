//! Determinism contract of the fleet runner (see
//! `docs/PARALLELISM.md` §"Fleet campaigns"):
//!
//! * the deterministic report bytes are identical for any worker-thread
//!   count (1/2/4/8) — which worker claims which unit is unobservable;
//! * a campaign killed mid-flight (`stop_after`) and resumed from its
//!   campaign directory produces the byte-identical aggregate report of a
//!   single-shot run, and a third invocation is a pure disk replay;
//! * a campaign directory from a *different* grid is rejected, not
//!   silently accepted as progress;
//! * a real SoC fleet under [`SchedulerMode::Fast`] is run-to-run
//!   deterministic;
//! * a chaos unit checkpoints, resumes and times out like any other;
//! * a damaged unit file or heartbeat stream — any byte flipped, cut at
//!   any length — is refused or skipped, never a panic or a wrong value.
//!
//! No test here asserts wall-clock speedups: CI hosts may expose a single
//! core, where the pool degenerates gracefully, and nothing else gates
//! scale-out either (see `docs/PARALLELISM.md` §"What CI gates").

use std::path::PathBuf;

use cmd_core::rng::SplitMix64;
use cmd_core::sched::SchedulerMode;
use riscy_bench::fleet::{
    parse_unit_file, run_fleet, FleetOpts, FleetUnit, Heartbeats, SocFleet, UnitCtx, UnitStats,
};
use riscy_isa::asm::{Assembler, Program};
use riscy_isa::mem::{DRAM_BASE, MMIO_EXIT};
use riscy_isa::reg::Gpr;
use riscy_workloads::spec::Workload;

/// A deterministic pure function of the unit, with enough busy work that
/// workers genuinely interleave.
fn synth_runner(u: &FleetUnit, _ctx: &UnitCtx<'_>) -> Option<UnitStats> {
    let mut x = u
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u.id as u64);
    for _ in 0..(1_000 + (u.id % 7) * 500) {
        x = x
            .rotate_left(7)
            .wrapping_mul(31)
            .wrapping_add(u.config.len() as u64 + u.workload.len() as u64);
    }
    Some(UnitStats {
        cycles: 10_000 + x % 90_000,
        insts: 3_000 + x % 7_000,
        exit_ok: !x.is_multiple_of(97),
        metrics: vec![("ipc".to_string(), (x % 100) as f64 / 100.0)],
    })
}

fn synth_units(n: usize) -> Vec<FleetUnit> {
    (0..n)
        .map(|id| FleetUnit {
            id,
            seed: (id as u64) % 5,
            config: if id % 2 == 0 { "t+" } else { "c-" }.to_string(),
            workload: format!("w{}", id % 3),
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn report_bytes_identical_across_thread_counts() {
    let baseline = run_fleet(
        synth_units(25),
        &FleetOpts {
            threads: 1,
            ..FleetOpts::default()
        },
        synth_runner,
    );
    assert_eq!(baseline.records.len(), 25);
    assert!(!baseline.stopped_early);
    let want = baseline.deterministic_json();
    for threads in [2, 4, 8] {
        let report = run_fleet(
            synth_units(25),
            &FleetOpts {
                threads,
                ..FleetOpts::default()
            },
            synth_runner,
        );
        assert_eq!(report.threads, threads);
        assert_eq!(
            report.deterministic_json(),
            want,
            "report bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn killed_campaign_resumes_to_the_single_shot_report() {
    let dir = tmp_dir("resume");
    let single_shot = run_fleet(
        synth_units(25),
        &FleetOpts {
            threads: 3,
            ..FleetOpts::default()
        },
        synth_runner,
    )
    .deterministic_json();

    // "Kill" after 9 units: the completion budget is claimed before a
    // unit is taken, so exactly 9 finish and persist.
    let first = run_fleet(
        synth_units(25),
        &FleetOpts {
            threads: 3,
            campaign_dir: Some(dir.clone()),
            stop_after: Some(9),
            ..FleetOpts::default()
        },
        synth_runner,
    );
    assert!(first.stopped_early);
    assert_eq!(first.records.len(), 9);
    assert!(first.records.iter().all(|r| !r.resumed));

    // Resume: finished units load from disk, the rest run fresh.
    let resumed = run_fleet(
        synth_units(25),
        &FleetOpts {
            threads: 3,
            campaign_dir: Some(dir.clone()),
            ..FleetOpts::default()
        },
        synth_runner,
    );
    assert!(!resumed.stopped_early);
    assert_eq!(resumed.records.len(), 25);
    assert_eq!(resumed.records.iter().filter(|r| r.resumed).count(), 9);
    assert_eq!(
        resumed.deterministic_json(),
        single_shot,
        "resumed report diverged from the single-shot run"
    );

    // A third invocation is a pure replay: nothing simulates.
    let replay = run_fleet(
        synth_units(25),
        &FleetOpts {
            threads: 3,
            campaign_dir: Some(dir.clone()),
            ..FleetOpts::default()
        },
        synth_runner,
    );
    assert_eq!(replay.records.iter().filter(|r| r.resumed).count(), 25);
    assert_eq!(replay.fresh_cycles(), 0);
    assert_eq!(replay.deterministic_json(), single_shot);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_dir_from_a_different_grid_is_rejected() {
    let dir = tmp_dir("stale");
    run_fleet(
        synth_units(6),
        &FleetOpts {
            threads: 2,
            campaign_dir: Some(dir.clone()),
            ..FleetOpts::default()
        },
        synth_runner,
    );
    // Same unit ids, different seeds: the persisted files describe other
    // grid cells and must not be loaded as progress.
    let mut other = synth_units(6);
    for u in &mut other {
        u.seed += 100;
    }
    let report = run_fleet(
        other,
        &FleetOpts {
            threads: 2,
            campaign_dir: Some(dir.clone()),
            ..FleetOpts::default()
        },
        synth_runner,
    );
    assert_eq!(
        report.records.iter().filter(|r| r.resumed).count(),
        0,
        "stale unit files were accepted as progress"
    );
    assert_eq!(report.records.len(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

/// A few dozen iterations then a clean MMIO exit — small enough for a
/// debug-build test, real enough to execute the whole SoC rule set.
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

#[test]
fn real_soc_fleet_is_run_to_run_deterministic() {
    let harness = SocFleet {
        workloads: vec![Workload {
            name: "tiny",
            program: tiny_prog(),
            max_cycles: 200_000,
        }],
        sched: SchedulerMode::Fast,
        chaos: false,
    };
    let units = || {
        vec![
            FleetUnit {
                id: 0,
                seed: 0,
                config: "t+".to_string(),
                workload: "tiny".to_string(),
            },
            FleetUnit {
                id: 1,
                seed: 1,
                config: "c-".to_string(),
                workload: "tiny".to_string(),
            },
        ]
    };
    let run = |threads| {
        run_fleet(
            units(),
            &FleetOpts {
                threads,
                ..FleetOpts::default()
            },
            |u, ctx| harness.run_unit(u, ctx),
        )
    };
    let a = run(1);
    assert!(a.all_ok(), "tiny SoC units failed to exit cleanly");
    assert!(a.total_cycles() > 0);
    let b = run(2);
    assert_eq!(
        a.deterministic_json(),
        b.deterministic_json(),
        "SoC fleet diverged across thread counts"
    );
}

/// Like [`tiny_prog`] but long enough (a few thousand cycles) that a
/// checkpoint stride of 1 500 cycles fires several times per unit.
fn longer_prog() -> Program {
    let mut a = Assembler::new(DRAM_BASE);
    a.li(Gpr::s(1), 2_000);
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

/// A campaign killed right after a mid-unit checkpoint resumes to the
/// single-shot report's bytes, with and without chaos: a chaos unit
/// checkpoints like any other.
#[test]
fn checkpointed_kill_resumes_mid_unit_to_the_single_shot_report() {
    for chaos in [false, true] {
        checkpointed_kill_resumes(chaos);
    }
}

fn checkpointed_kill_resumes(chaos: bool) {
    let dir = tmp_dir(if chaos { "ckpt-chaos" } else { "ckpt" });
    let harness = SocFleet {
        workloads: vec![Workload {
            name: "longer",
            program: longer_prog(),
            max_cycles: 500_000,
        }],
        sched: SchedulerMode::Fast,
        chaos,
    };
    let units = || {
        vec![
            FleetUnit {
                id: 0,
                seed: 0,
                config: "t+".to_string(),
                workload: "longer".to_string(),
            },
            FleetUnit {
                id: 1,
                seed: 1,
                config: "c-".to_string(),
                workload: "longer".to_string(),
            },
        ]
    };
    // The reference: one uninterrupted invocation, no persistence at all.
    let single_shot = run_fleet(
        units(),
        &FleetOpts {
            threads: 1,
            ..FleetOpts::default()
        },
        |u, ctx| harness.run_unit(u, ctx),
    );
    assert!(single_shot.all_ok(), "chaos {chaos}");
    let want = single_shot.deterministic_json();

    // "Kill" the campaign right after the first checkpoint lands: the
    // in-flight unit is abandoned mid-run with only its `.ckpt` on disk.
    let first = run_fleet(
        units(),
        &FleetOpts {
            threads: 1,
            campaign_dir: Some(dir.clone()),
            checkpoint_every: Some(1_500),
            abort_after_ckpts: Some(1),
            ..FleetOpts::default()
        },
        |u, ctx| harness.run_unit(u, ctx),
    );
    assert!(first.stopped_early);
    assert!(
        first.records.len() < 2,
        "the kill should leave at least one unit unfinished"
    );
    let ckpts = || {
        std::fs::read_dir(&dir)
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                    .count()
            })
            .unwrap_or(0)
    };
    assert_eq!(ckpts(), 1, "the killed unit must leave its checkpoint");

    // Resume: the killed unit restores from its checkpoint mid-run; the
    // aggregate report bytes match the uninterrupted run exactly.
    let resumed = run_fleet(
        units(),
        &FleetOpts {
            threads: 1,
            campaign_dir: Some(dir.clone()),
            checkpoint_every: Some(1_500),
            ..FleetOpts::default()
        },
        |u, ctx| harness.run_unit(u, ctx),
    );
    assert!(!resumed.stopped_early);
    assert_eq!(resumed.records.len(), 2);
    assert_eq!(
        resumed.deterministic_json(),
        want,
        "chaos {chaos}: checkpoint-resumed report diverged from the single-shot run"
    );
    assert_eq!(ckpts(), 0, "finished units must delete their checkpoints");
    std::fs::remove_dir_all(&dir).ok();
}

/// A chaos unit runs on the same path as any other, so it too stops at its
/// wall-clock budget and leaves a stall bundle behind.
#[test]
fn a_timed_out_chaos_unit_leaves_a_stall_bundle() {
    let dir = tmp_dir("chaos-stall");
    let harness = SocFleet {
        workloads: vec![Workload {
            name: "longer",
            program: longer_prog(),
            max_cycles: 500_000,
        }],
        sched: SchedulerMode::Fast,
        chaos: true,
    };
    let unit = FleetUnit {
        id: 0,
        seed: 2,
        config: "t+".to_string(),
        workload: "longer".to_string(),
    };
    let report = run_fleet(
        vec![unit],
        &FleetOpts {
            threads: 1,
            campaign_dir: Some(dir.clone()),
            unit_timeout: Some(0.0),
            ..FleetOpts::default()
        },
        |u, ctx| harness.run_unit(u, ctx),
    );
    assert_eq!(report.records.len(), 1);
    assert!(
        !report.records[0].stats.exit_ok,
        "a timed-out unit must not report success"
    );
    assert!(
        dir.join("unit_0.stall.json").exists(),
        "a timed-out chaos unit must leave its stall bundle"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A real campaign directory: one T+ unit of [`tiny_prog`] with a
/// heartbeat every 100 cycles.
fn real_campaign(tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    let harness = SocFleet {
        workloads: vec![Workload {
            name: "tiny",
            program: tiny_prog(),
            max_cycles: 200_000,
        }],
        sched: SchedulerMode::Fast,
        chaos: false,
    };
    let unit = FleetUnit {
        id: 0,
        seed: 3,
        config: "t+".to_string(),
        workload: "tiny".to_string(),
    };
    let report = run_fleet(
        vec![unit],
        &FleetOpts {
            threads: 1,
            campaign_dir: Some(dir.clone()),
            heartbeat_every: Some(100),
            ..FleetOpts::default()
        },
        |u, ctx| harness.run_unit(u, ctx),
    );
    assert!(report.all_ok());
    dir
}

/// `bytes` with every prefix cut off, then `flips` seeded single-byte
/// flips: each damaged copy with what it is.
fn damaged(bytes: &[u8], seed: u64, flips: usize) -> Vec<(String, Vec<u8>)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let cuts = (0..bytes.len()).map(|n| (format!("cut at {n}"), bytes[..n].to_vec()));
    let flipped = (0..flips).map(|_| {
        let at = rng.range_usize(0, bytes.len());
        let mut bad = bytes.to_vec();
        bad[at] ^= rng.range_u64(1, 256) as u8;
        (format!("byte {at} flipped"), bad)
    });
    cuts.chain(flipped).collect()
}

#[test]
fn a_damaged_unit_file_is_refused() {
    let dir = real_campaign("unit-damage");
    let good = std::fs::read(dir.join("unit_0.json")).unwrap();
    let parse = |bytes: &[u8]| std::str::from_utf8(bytes).ok().and_then(parse_unit_file);
    let (unit, stats) = parse(&good).expect("the intact file parses");
    assert_eq!((unit.id, unit.seed), (0, 3));
    assert!(stats.cycles > 0 && stats.exit_ok);
    for (what, bad) in damaged(&good, 1, 2_000) {
        let got = std::panic::catch_unwind(|| parse(&bad))
            .unwrap_or_else(|_| panic!("{what}: the parser panicked"));
        assert!(got.is_none(), "{what}: accepted {got:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_heartbeat_line_is_skipped() {
    let dir = real_campaign("beat-damage");
    let path = dir.join("heartbeats.ndjson");
    let good = std::fs::read(&path).unwrap();
    let lines: Vec<&[u8]> = good.split(|&b| b == b'\n').collect();
    assert!(lines.len() > 3, "the run beat a few times");
    for (what, bad) in damaged(&good, 2, 300) {
        std::fs::write(&path, &bad).unwrap();
        let preloaded = std::panic::catch_unwind(|| {
            Heartbeats::open(&dir).beat(String::new());
            std::fs::read(&path).unwrap()
        })
        .unwrap_or_else(|_| panic!("{what}: the preload panicked"));
        // What was preloaded, without the blank beat just appended and the
        // final newline: every line the damage left whole, in order, and
        // no other.
        let mut kept: Vec<&[u8]> = preloaded.split(|&b| b == b'\n').collect();
        kept.truncate(kept.len() - 2);
        let whole: Vec<&[u8]> = bad
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty() && lines.contains(l))
            .collect();
        assert_eq!(kept, whole, "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
