//! End-to-end litmus conformance of the multi-core SoC.
//!
//! Three layers of checking, mirroring the harness's purpose:
//!
//! 1. **Conformance** — every classic litmus shape, run undisturbed on the
//!    real `SocSim`, lands inside its axiomatic model's allowed set for
//!    both memory models, both scheduler modes, and 2- and 4-core
//!    SoCs.
//! 2. **Chaos closure** — seeded random tests under seeded fault plans
//!    (link delays, duplicated messages, rule stalls) still never escape
//!    the allowed set; chaos may legitimately slow a run past its budget,
//!    so hangs are inconclusive rather than failures.
//! 3. **Bug catching** — with the TSO `cacheEvict` load kill disabled (the
//!    deliberately injected ordering bug), a bounded seed scan with
//!    [`bug_hunt_plan`] observes a forbidden MP outcome, shrinks it to a
//!    tiny reproducer, and the reproducer replays deterministically from
//!    its repro line.
//!
//! Debug builds scale the sweeps down (`cfg!(debug_assertions)`); release
//! runs the full matrix.

use cmd_core::chaos::FaultPlan;
use cmd_core::sched::SchedulerMode;
use riscy_litmus::{
    allowed_outcomes, bug_hunt_plan, chaos_plan_for, classic_suite, random_test, run_litmus,
    shrink_violation, write_bundle, Failure, RunResult, RunSpec,
};
use riscy_ooo::config::MemModel;

const MODELS: [MemModel; 2] = [MemModel::Tso, MemModel::Wmm];

#[test]
fn classic_suite_conforms_on_the_socsim() {
    // Release: full matrix. Debug: 2 cores only and the fast scheduler
    // paired with a Reference spot-check on the first few shapes.
    let cores_list: &[usize] = if cfg!(debug_assertions) {
        &[2]
    } else {
        &[2, 4]
    };
    for (i, test) in classic_suite().iter().enumerate() {
        // IRIW/WRC need more harts than the smallest SoC; clamp and dedupe
        // so every shape still runs at least once per configuration axis.
        let mut counts: Vec<usize> = cores_list
            .iter()
            .map(|&c| c.max(test.threads.len()))
            .collect();
        counts.dedup();
        for model in MODELS {
            let allowed = allowed_outcomes(test, model);
            for &cores in &counts {
                for sched in [SchedulerMode::Fast, SchedulerMode::Reference] {
                    if cfg!(debug_assertions) && sched != SchedulerMode::Fast && i >= 4 {
                        continue;
                    }
                    let mut spec = RunSpec::new(model, cores);
                    spec.sched = sched;
                    match run_litmus(test, &spec) {
                        RunResult::Completed { outcome, .. } => assert!(
                            allowed.contains(&outcome),
                            "{}: observed {outcome} forbidden under {model:?} \
                             (cores={cores} sched={sched:?})",
                            test.name
                        ),
                        RunResult::Hung { reason, wait_graph } => panic!(
                            "{}: hung without chaos under {model:?} \
                             (cores={cores} sched={sched:?}): {reason}\n{wait_graph}",
                            test.name
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn chaos_fuzzed_runs_never_escape_the_model() {
    let seeds = if cfg!(debug_assertions) {
        0..6u64
    } else {
        0..60u64
    };
    let mut hangs = 0usize;
    let mut completed = 0usize;
    for seed in seeds {
        let test = random_test(seed);
        // Alternate model and core count with the seed to cover the matrix
        // without doubling the run count.
        let model = MODELS[(seed % 2) as usize];
        let cores = if seed % 4 < 2 { 2 } else { 4 };
        let cores = cores.max(test.threads.len());
        let allowed = allowed_outcomes(&test, model);
        let mut spec = RunSpec::new(model, cores);
        spec.chaos = chaos_plan_for(seed, cores);
        match run_litmus(&test, &spec) {
            RunResult::Completed { outcome, .. } => {
                completed += 1;
                assert!(
                    allowed.contains(&outcome),
                    "{} (seed {seed}): observed {outcome} forbidden under {model:?} \
                     with chaos {}",
                    test.name,
                    spec.chaos.to_repro_string()
                );
            }
            // Chaos can push a run past its cycle budget; that is
            // inconclusive, not a consistency escape.
            RunResult::Hung { .. } => hangs += 1,
        }
    }
    assert!(
        completed > hangs,
        "chaos wedged most runs ({hangs} hangs vs {completed} completed) — \
         the plan generator is too aggressive to be useful"
    );
}

#[test]
fn classic_shapes_under_chaos_stay_allowed() {
    let suite = classic_suite();
    let picks: &[&str] = if cfg!(debug_assertions) {
        &["SB", "MP"]
    } else {
        &["SB", "MP", "LB", "IRIW", "2+2W"]
    };
    let seeds_per = if cfg!(debug_assertions) { 2u64 } else { 8 };
    for name in picks {
        let test = suite.iter().find(|t| t.name == *name).expect("in suite");
        for model in MODELS {
            let allowed = allowed_outcomes(test, model);
            for seed in 0..seeds_per {
                let cores = test.threads.len().max(2);
                let mut spec = RunSpec::new(model, cores);
                spec.chaos = chaos_plan_for(0x1000 + seed, cores);
                if let RunResult::Completed { outcome, .. } = run_litmus(test, &spec) {
                    assert!(
                        allowed.contains(&outcome),
                        "{name}: observed {outcome} forbidden under {model:?} with \
                         chaos {}",
                        spec.chaos.to_repro_string()
                    );
                }
            }
        }
    }
}

/// The acceptance check from the issue: the injected ordering bug
/// (`evict_kill = false`, i.e. TSO without the paper's `cacheEvict` load
/// kill) is caught by a bounded chaos-seed scan, shrunk to a ≤ 2-thread,
/// ≤ 6-op reproducer, and the reproducer replays from its repro line.
#[test]
fn injected_evict_kill_bug_is_caught_shrunk_and_replayable() {
    let mp = classic_suite()
        .into_iter()
        .find(|t| t.name == "MP")
        .expect("MP in suite");
    let allowed = allowed_outcomes(&mp, MemModel::Tso);

    // The bug_hunt_plan family hits at roughly 1% per seed; the first
    // violating seed in this range is stable because every run is
    // deterministic. Debug builds scan the same prefix.
    let seed_cap = if cfg!(debug_assertions) { 100 } else { 400 };
    let mut found = None;
    for seed in 0..seed_cap {
        let mut spec = RunSpec::new(MemModel::Tso, 2);
        spec.evict_kill = false;
        spec.chaos = bug_hunt_plan(seed);
        if let RunResult::Completed { outcome, .. } = run_litmus(&mp, &spec) {
            if !allowed.contains(&outcome) {
                found = Some((spec, outcome));
                break;
            }
        }
    }
    let (spec, observed) = found.expect("bug hunt found no violation in the seed budget");

    // The same seed with the repair enabled must NOT violate: the harness
    // is detecting the injected bug, not crying wolf.
    let mut repaired = spec.clone();
    repaired.evict_kill = true;
    if let RunResult::Completed { outcome, .. } = run_litmus(&mp, &repaired) {
        assert!(
            allowed.contains(&outcome),
            "repaired run still violates: {outcome}"
        );
    }

    // Shrink and check the acceptance bounds.
    let shrunk = shrink_violation(&mp, &spec, &observed);
    assert!(shrunk.test.threads.len() <= 2, "reproducer uses >2 threads");
    assert!(shrunk.test.num_ops() <= 6, "reproducer uses >6 ops");
    let shrunk_allowed = allowed_outcomes(&shrunk.test, MemModel::Tso);
    assert!(
        !shrunk_allowed.contains(&shrunk.observed),
        "shrunk outcome is not actually forbidden"
    );

    // The repro line round-trips and the reproducer replays bit-for-bit.
    let line = shrunk.spec.chaos.to_repro_string();
    let reparsed = FaultPlan::parse(&line).expect("repro line parses");
    assert_eq!(reparsed.to_repro_string(), line);
    let mut replay_spec = shrunk.spec.clone();
    replay_spec.chaos = reparsed;
    match run_litmus(&shrunk.test, &replay_spec) {
        RunResult::Completed { outcome, .. } => assert_eq!(
            outcome, shrunk.observed,
            "replay from the repro line diverged"
        ),
        RunResult::Hung { reason, .. } => panic!("replay hung: {reason}"),
    }

    // And the failure bundle is self-contained.
    let dir = std::env::temp_dir().join(format!("litmus-bundle-{}", std::process::id()));
    let failure = Failure::Violation {
        observed: observed.clone(),
        shrunk: shrunk.clone(),
    };
    write_bundle(&dir, &mp, &spec, &failure).expect("bundle written");
    for f in [
        "report.txt",
        "test.litmus",
        "shrunk.litmus",
        "repro.txt",
        "trace.konata",
        "trace.chrome.json",
        "stats.json",
    ] {
        let p = dir.join(f);
        assert!(p.is_file(), "bundle missing {f}");
        assert!(
            std::fs::metadata(&p).expect("stat").len() > 0,
            "bundle file {f} is empty"
        );
    }
    let repro = std::fs::read_to_string(dir.join("repro.txt")).expect("readable");
    assert!(
        repro.contains(&line),
        "repro.txt lacks the chaos repro line"
    );
    std::fs::remove_dir_all(&dir).ok();
}
