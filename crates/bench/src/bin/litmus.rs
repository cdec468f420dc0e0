//! Litmus-test campaign driver.
//!
//! Runs the classic litmus suite and a stream of seeded random tests on
//! the multi-core SoC, checks every completed run against the axiomatic
//! model's allowed set, and on any escape shrinks the violation and writes
//! a self-contained failure bundle (litmus source, repro line, Konata +
//! Chrome traces, stats, wait-graph).
//!
//! ```text
//! litmus [--model tso|wmm|both] [--cores N] [--sched fast|reference]
//!        [--seed S] [--count N] [--chaos] [--classic-only]
//!        [--inject-evict-bug] [--out-dir DIR] [--json]
//! ```
//!
//! `--inject-evict-bug` disables the TSO `cacheEvict` load kill (the
//! documented verification backdoor) and swaps the chaos generator for the
//! [`riscy_litmus::bug_hunt_plan`] family, demonstrating that the campaign
//! catches a real ordering bug: expect a forbidden `MP` outcome within a
//! few hundred seeds, shrunk and bundled like any other violation.
//!
//! Exit status: `1` if any run observed a forbidden outcome or hung
//! *without* chaos (a liveness failure); `0` otherwise. Hangs under chaos
//! are counted but inconclusive — a fault plan may legitimately push a run
//! past its cycle budget.

use std::path::PathBuf;
use std::process::ExitCode;

use cmd_core::sched::SchedulerMode;
use riscy_litmus::{
    allowed_outcomes, bug_hunt_plan, chaos_plan_for, classic_suite, random_test, run_litmus,
    shrink_violation, write_bundle, Failure, LitmusTest, RunResult, RunSpec,
};
use riscy_ooo::config::MemModel;

struct Args {
    models: Vec<MemModel>,
    cores: usize,
    sched: SchedulerMode,
    seed: u64,
    count: u64,
    chaos: bool,
    classic_only: bool,
    inject_evict_bug: bool,
    out_dir: PathBuf,
    json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        models: vec![MemModel::Tso, MemModel::Wmm],
        cores: 2,
        sched: SchedulerMode::Fast,
        seed: 0,
        count: 100,
        chaos: false,
        classic_only: false,
        inject_evict_bug: false,
        out_dir: PathBuf::from("target/litmus-failures"),
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--model" => {
                args.models = match val("--model").as_str() {
                    "tso" => vec![MemModel::Tso],
                    "wmm" => vec![MemModel::Wmm],
                    "both" => vec![MemModel::Tso, MemModel::Wmm],
                    m => die(&format!("unknown model {m:?} (tso|wmm|both)")),
                };
            }
            "--cores" => {
                args.cores = val("--cores")
                    .parse()
                    .unwrap_or_else(|_| die("--cores: not a number"));
            }
            "--sched" => {
                args.sched = riscy_bench::parse_scheduler(&val("--sched"))
                    .unwrap_or_else(|e| die(&format!("--sched: {e}")));
            }
            "--seed" => {
                args.seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed: not a number"));
            }
            "--count" => {
                args.count = val("--count")
                    .parse()
                    .unwrap_or_else(|_| die("--count: not a number"));
            }
            "--out-dir" => args.out_dir = PathBuf::from(val("--out-dir")),
            "--chaos" => args.chaos = true,
            "--classic-only" => args.classic_only = true,
            "--inject-evict-bug" => args.inject_evict_bug = true,
            "--json" => args.json = true,
            "--help" | "-h" => {
                eprintln!("usage: litmus [--model tso|wmm|both] [--cores N] [--sched fast|reference] [--seed S] [--count N] [--chaos] [--classic-only] [--inject-evict-bug] [--out-dir DIR] [--json]");
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.cores == 0 {
        die("--cores must be >= 1");
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("litmus: {msg}");
    std::process::exit(2);
}

#[derive(Default)]
struct Tally {
    runs: u64,
    passed: u64,
    violations: u64,
    fatal_hangs: u64,
    inconclusive_hangs: u64,
    skipped: u64,
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut tally = Tally::default();
    let mut failed = false;

    // Each campaign entry pairs a test with the chaos seed for its run.
    // Undisturbed runs are deterministic, so the classic suite runs once;
    // under chaos (or the injected bug) `--count` controls how many seeded
    // iterations cycle through the suite — each pass perturbs the same
    // shapes differently, which is what hunting needs.
    let mut campaign: Vec<(LitmusTest, u64)> = Vec::new();
    let suite = classic_suite();
    if args.inject_evict_bug {
        // The injected bug is a missing stale-load kill; MP is the
        // canonical shape that exposes it, so the hunt spends every seed
        // there instead of diluting across the suite.
        let mp = suite
            .iter()
            .find(|t| t.name == "MP")
            .expect("MP in suite")
            .clone();
        for i in 0..args.count {
            let seed = args.seed.wrapping_add(i);
            campaign.push((mp.clone(), seed));
        }
    } else if args.chaos {
        for i in 0..args.count.max(suite.len() as u64) {
            let seed = args.seed.wrapping_add(i);
            campaign.push((suite[(i as usize) % suite.len()].clone(), seed));
        }
    } else {
        for t in &suite {
            campaign.push((t.clone(), 0));
        }
    }
    if !args.classic_only && !args.inject_evict_bug {
        for i in 0..args.count {
            let seed = args.seed.wrapping_add(i);
            campaign.push((random_test(seed), seed));
        }
    }

    for (test, seed) in &campaign {
        if test.threads.len() > args.cores {
            tally.skipped += 1;
            continue;
        }
        for &model in &args.models {
            tally.runs += 1;
            let allowed = allowed_outcomes(test, model);
            let mut spec = RunSpec::new(model, args.cores);
            spec.sched = args.sched;
            spec.evict_kill = !args.inject_evict_bug;
            if args.inject_evict_bug {
                spec.chaos = bug_hunt_plan(*seed);
            } else if args.chaos {
                spec.chaos = chaos_plan_for(*seed, args.cores);
            }
            match run_litmus(test, &spec) {
                RunResult::Completed { outcome, .. } => {
                    if allowed.contains(&outcome) {
                        tally.passed += 1;
                        continue;
                    }
                    tally.violations += 1;
                    failed = true;
                    eprintln!(
                        "VIOLATION {} under {model:?}: observed {outcome}",
                        test.name
                    );
                    let shrunk = shrink_violation(test, &spec, &outcome);
                    eprintln!(
                        "  shrunk to {} threads / {} ops; repro: {}",
                        shrunk.test.threads.len(),
                        shrunk.test.num_ops(),
                        shrunk.spec.describe()
                    );
                    let dir = args.out_dir.join(format!(
                        "{}-{model:?}-seed{seed}",
                        test.name.replace(['/', ' '], "_")
                    ));
                    let failure = Failure::Violation {
                        observed: outcome,
                        shrunk,
                    };
                    match write_bundle(&dir, test, &spec, &failure) {
                        Ok(p) => eprintln!("  bundle: {}", p.display()),
                        Err(e) => eprintln!("  bundle write failed: {e}"),
                    }
                }
                RunResult::Hung { reason, wait_graph } => {
                    if args.chaos || args.inject_evict_bug {
                        // A fault plan may stall a run past its budget;
                        // that is noise, not a liveness verdict.
                        tally.inconclusive_hangs += 1;
                        continue;
                    }
                    tally.fatal_hangs += 1;
                    failed = true;
                    eprintln!("HANG {} under {model:?}: {reason}", test.name);
                    let dir = args.out_dir.join(format!(
                        "{}-{model:?}-hang",
                        test.name.replace(['/', ' '], "_")
                    ));
                    let failure = Failure::Hang { reason, wait_graph };
                    match write_bundle(&dir, test, &spec, &failure) {
                        Ok(p) => eprintln!("  bundle: {}", p.display()),
                        Err(e) => eprintln!("  bundle write failed: {e}"),
                    }
                }
            }
        }
    }

    if args.json {
        println!(
            "{{\"runs\": {}, \"passed\": {}, \"violations\": {}, \"fatal_hangs\": {}, \"inconclusive_hangs\": {}, \"skipped_tests\": {}}}",
            tally.runs,
            tally.passed,
            tally.violations,
            tally.fatal_hangs,
            tally.inconclusive_hangs,
            tally.skipped
        );
    } else {
        println!(
            "litmus campaign: {} runs, {} passed, {} violations, {} fatal hangs, {} inconclusive hangs, {} tests skipped (need more cores)",
            tally.runs,
            tally.passed,
            tally.violations,
            tally.fatal_hangs,
            tally.inconclusive_hangs,
            tally.skipped
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
