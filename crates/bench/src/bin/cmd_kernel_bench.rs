//! Micro-benchmarks of the CMD kernel and the paper's §III/§IV tutorial
//! designs — the ablations DESIGN.md calls out:
//!
//! * `mkGCD` vs `mkTwoGCD` throughput (paper §III-B);
//! * bypassed vs non-bypassed RDYB (paper §IV-C);
//! * `issue<wakeup` vs `wakeup<issue` IQ orderings (paper §IV-D);
//! * raw scheduler overhead per rule firing;
//! * the ring-of-64 wakeup benchmark: fast scheduler vs the reference
//!   one-rule-at-a-time oracle (see `docs/SCHEDULING.md`), the workload
//!   behind the CI perf gate's `--bench-json` artifact.
//!
//! A dependency-free harness (simple best-of-N wall-clock timing with
//! `std::time::Instant`) replaces criterion: the container builds offline,
//! and the quantities of interest here are architectural cycle counts plus
//! coarse host-time ratios, not microsecond-precision distributions.

use cmd_core::demo::gcd::{stream_gcd, Gcd, TwoGcd};
use cmd_core::demo::iq::{dependent_chain, run_iq_demo, IqDemoConfig, IqOrdering, RdybKind};
use cmd_core::prelude::*;
use riscy_bench::{bench_json_path, metrics_json, stats_json_path, write_artifact};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall time for `f`, in nanoseconds per call.
fn bench<R>(label: &str, reps: usize, iters: u32, mut f: impl FnMut() -> R) {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed().as_secs_f64() / f64::from(iters);
        best = best.min(dt);
    }
    println!("{label:<44} {:>12.0} ns/iter", best * 1e9);
}

fn bench_gcd() {
    let inputs: Vec<(u32, u32)> = (0..16).map(|i| (5040 + i, 7 + i)).collect();
    bench("gcd_throughput/mkGCD", 5, 50, || {
        let clk = Clock::new();
        let unit = Gcd::new(&clk);
        stream_gcd(clk, unit, inputs.clone())
    });
    bench("gcd_throughput/mkTwoGCD", 5, 50, || {
        let clk = Clock::new();
        let unit = TwoGcd::new(&clk);
        stream_gcd(clk, unit, inputs.clone())
    });
}

fn bench_iq_orderings() {
    let chain = dependent_chain(48);
    for (label, cfg) in [
        (
            "iq_rdyb_cm_ablation/bypassed_issue_before_wakeup",
            IqDemoConfig {
                rdyb: RdybKind::Bypassed,
                ordering: IqOrdering::IssueBeforeWakeup,
                iq_size: 8,
            },
        ),
        (
            "iq_rdyb_cm_ablation/bypassed_wakeup_before_issue",
            IqDemoConfig {
                rdyb: RdybKind::Bypassed,
                ordering: IqOrdering::WakeupBeforeIssue,
                iq_size: 8,
            },
        ),
        (
            "iq_rdyb_cm_ablation/nonbypassed_issue_before_wakeup",
            IqDemoConfig {
                rdyb: RdybKind::NonBypassed,
                ordering: IqOrdering::IssueBeforeWakeup,
                iq_size: 8,
            },
        ),
    ] {
        bench(label, 5, 20, || run_iq_demo(cfg, &chain).unwrap());
    }

    // Also print the architectural cycle counts (the paper's point is
    // about *cycles*, not host time).
    for (label, cfg) in [
        ("issue<wakeup (IV-C)", IqOrdering::IssueBeforeWakeup),
        ("wakeup<issue (IV-D)", IqOrdering::WakeupBeforeIssue),
    ] {
        let stats = run_iq_demo(
            IqDemoConfig {
                ordering: cfg,
                ..IqDemoConfig::default()
            },
            &chain,
        )
        .unwrap();
        println!(
            "[cycles] {label}: {} cycles for 48 dependent ops",
            stats.cycles
        );
    }
}

fn bench_scheduler_overhead() {
    struct St {
        x: Ehr<u64>,
        q: PipelineFifo<u64>,
    }
    let clk = Clock::new();
    let st = St {
        x: Ehr::new(&clk, 0),
        q: PipelineFifo::new(&clk, 4),
    };
    let mut sim = Sim::new(clk, st);
    sim.rule("deq", |s: &mut St| {
        let v = s.q.deq()?;
        s.x.update(|x| *x += v);
        Ok(())
    });
    sim.rule("enq", |s: &mut St| s.q.enq(1));
    bench("scheduler_rule_firing (100 cycles)", 5, 200, || {
        sim.run(100);
        sim.state().x.read()
    });
}

/// The ring-of-64 wakeup benchmark: one token circulates through 64
/// slots, each slot guarded by its *own* mailbox cell (a shared token
/// cell would republish every cycle and wake all 64 sleepers). Per
/// cycle exactly one rule can fire, so the reference scheduler evaluates
/// 64 guards per cycle while the fast scheduler's wakeup layer evaluates
/// ~2 (the firing rule plus the freshly woken successor) — the sparse
/// schedule the wakeup layer exists for.
const RING: usize = 64;
const RING_CYCLES: u64 = 20_000;

struct Ring {
    slots: Vec<Ehr<u64>>,
}

fn build_ring(mode: SchedulerMode) -> Sim<Ring> {
    let clk = Clock::new();
    let slots = (0..RING)
        .map(|i| Ehr::new(&clk, u64::from(i == 0)))
        .collect();
    let mut sim = Sim::new(clk, Ring { slots });
    sim.set_scheduler(mode);
    // Register consumers before their producers (descending slot order) so
    // a slot's mailbox write only becomes readable the following cycle and
    // the token advances exactly one slot per cycle (the slot63→slot0
    // wraparound bypasses within the cycle, identically in both modes).
    for i in (0..RING).rev() {
        let next = (i + 1) % RING;
        let id = sim.rule(format!("slot{i}"), move |s: &mut Ring| {
            let tokens = s.slots[i].read();
            if tokens == 0 {
                return Err(Stall::new("no token"));
            }
            s.slots[i].write(0);
            s.slots[next].update(|t| *t += tokens);
            Ok(())
        });
        sim.set_wakeup(id, Wakeup::Inferred);
    }
    sim
}

/// Interleaved best-of-`rounds` timing: each round runs every mode once,
/// so machine-frequency drift lands on all modes equally instead of
/// skewing the speedup ratios (block-per-mode timing was worth ±30% on
/// the ratio on a busy host). Returns per-mode best wall seconds plus
/// each mode's total rule firings (the cross-mode equivalence checksum).
fn time_modes<S>(
    build: impl Fn(SchedulerMode) -> Sim<S>,
    cycles: u64,
    modes: &[SchedulerMode],
    rounds: usize,
) -> (Vec<f64>, Vec<u64>) {
    let mut best = vec![f64::INFINITY; modes.len()];
    let mut fires = vec![0u64; modes.len()];
    for _ in 0..rounds {
        for (k, &mode) in modes.iter().enumerate() {
            let mut sim = build(mode);
            let t0 = Instant::now();
            sim.run(cycles);
            best[k] = best[k].min(t0.elapsed().as_secs_f64());
            fires[k] = sim.all_rule_stats().map(|(_, s)| s.fired).sum();
        }
    }
    (best, fires)
}

fn bench_ring() -> Vec<(&'static str, f64)> {
    let (times, fires) = time_modes(
        build_ring,
        RING_CYCLES,
        &[SchedulerMode::Fast, SchedulerMode::Reference],
        5,
    );
    let (fast_s, ref_s) = (times[0], times[1]);
    let (fast_fires, ref_fires) = (fires[0], fires[1]);
    assert_eq!(
        fast_fires, ref_fires,
        "ring benchmark diverged between schedulers"
    );
    let cps = |s: f64| RING_CYCLES as f64 / s;
    let speedup = ref_s / fast_s;
    println!(
        "{:<44} {:>12.0} ns/cycle ({:.2e} cycles/s)",
        "ring64_wakeup/reference",
        ref_s * 1e9 / RING_CYCLES as f64,
        cps(ref_s)
    );
    println!(
        "{:<44} {:>12.0} ns/cycle ({:.2e} cycles/s)",
        "ring64_wakeup/fast",
        fast_s * 1e9 / RING_CYCLES as f64,
        cps(fast_s)
    );
    println!("[speedup] ring64_wakeup fast vs reference: {speedup:.2}x");
    vec![
        ("ring_sim_cycles", RING_CYCLES as f64),
        ("ring_fires", fast_fires as f64),
        ("ring_reference_wall_ms", ref_s * 1e3),
        ("ring_fast_wall_ms", fast_s * 1e3),
        ("ring_reference_cps", cps(ref_s)),
        ("ring_fast_cps", cps(fast_s)),
        ("ring_speedup", speedup),
    ]
}

/// The fig17-shaped wakeup microbench: 44 CM-free rules with the same
/// *shape* as a one-busy-core slice of the RiscyOO SoC in
/// `crates/ooo/src/soc.rs` — an always-firing substrate that advances
/// plain memory state and pokes a `mem_event` signal cell when its
/// observable digest changes, a saturated 8-rule pipeline that fires
/// every cycle (the part of the SoC the wakeup layer cannot help), a
/// load unit blocked on a multi-cycle miss latency
/// (`Wakeup::InferredPlus(mem_event)`, asleep for the whole latency
/// window), and thirty-two rarely-fed side units (`Wakeup::Inferred`,
/// asleep almost always — the MD/FP pipes and quiescent-core machinery
/// of the other cores during a memory-bound phase). The live:asleep
/// ratio (~9:35) matches what the wakeup layer is designed for;
/// Reference evaluates all 44 guards every cycle, Fast only the live
/// ones — so a scheduler regression in sleep entry or wake draining
/// shows up here in milliseconds instead of a 30-second fig17 run.
const SOCW_CYCLES: u64 = 20_000;
const SOCW_MISS_LAT: u32 = 32;
const SOCW_MD_UNITS: usize = 32;

struct SocW {
    clk: Clock,
    // Hot pipeline: acc[k] feeds acc[k+1]; all 8 stage rules fire every
    // cycle, like rename/issue/exec on a saturated trace.
    acc: Vec<Ehr<u64>>,
    // One in-flight load: ld_q -> (plain-state latency) -> wb_q.
    ld_q: PipelineFifo<u64>,
    wb_q: PipelineFifo<u64>,
    mem_busy: u32,
    mem_ready: bool,
    mem_addr: u64,
    mem_digest: u64,
    mem_event: CellId,
    // Rarely-fed side units (think MD/FP pipes): mailbox per unit.
    md_req: Vec<Ehr<u64>>,
    md_done: Ehr<u64>,
    completed: u64,
}

fn build_socw(mode: SchedulerMode) -> Sim<SocW> {
    let clk = Clock::new();
    let st = SocW {
        acc: (0..9).map(|i| Ehr::new(&clk, u64::from(i == 0))).collect(),
        ld_q: PipelineFifo::new(&clk, 4),
        wb_q: PipelineFifo::new(&clk, 4),
        mem_busy: 0,
        mem_ready: false,
        mem_addr: 0,
        mem_digest: u64::MAX,
        mem_event: clk.signal_cell(),
        md_req: (0..SOCW_MD_UNITS).map(|_| Ehr::new(&clk, 0)).collect(),
        md_done: Ehr::new(&clk, 0),
        completed: 0,
        clk: clk.clone(),
    };
    let mut sim = Sim::new(clk, st);
    sim.set_scheduler(mode);
    // Substrate first, exactly like the SoC: the memory system's clock. It
    // always fires and republishes the plain observables (busy/ready) as a
    // digest, poking `mem_event` only on change — the latency countdown
    // itself publishes nothing, so the load unit sleeps through the window.
    sim.rule("substrate", |s: &mut SocW| {
        if s.mem_busy > 0 {
            s.mem_busy -= 1;
            if s.mem_busy == 0 {
                s.mem_ready = true;
            }
        }
        let digest = u64::from(s.mem_busy > 0) | u64::from(s.mem_ready) << 1;
        if digest != s.mem_digest {
            s.mem_digest = digest;
            s.clk.poke(s.mem_event);
        }
        Ok(())
    });
    // Load unit: guards read the plain memory state, so both rules are
    // `InferredPlus(mem_event)` — the digest poke is their wake signal.
    let id = sim.rule("ldIssue", |s: &mut SocW| {
        if s.mem_busy > 0 || s.mem_ready {
            return Err(Stall::new("mem busy"));
        }
        let addr = s.ld_q.deq()?;
        s.mem_busy = SOCW_MISS_LAT;
        s.mem_addr = addr;
        Ok(())
    });
    let mem_event = sim.state().mem_event;
    sim.set_wakeup(id, Wakeup::InferredPlus(vec![mem_event]));
    let id = sim.rule("ldResp", |s: &mut SocW| {
        if !s.mem_ready {
            return Err(Stall::new("no mem resp"));
        }
        s.wb_q.enq(s.mem_addr)?;
        s.mem_ready = false;
        Ok(())
    });
    sim.set_wakeup(id, Wakeup::InferredPlus(vec![mem_event]));
    // Writeback: completes the load, refills the load queue (one miss in
    // flight forever), and feeds a side unit every 8th completion.
    let id = sim.rule("wbLd", |s: &mut SocW| {
        let addr = s.wb_q.deq()?;
        s.ld_q.enq(addr.wrapping_add(64))?;
        s.completed += 1;
        if s.completed.is_multiple_of(8) {
            let i = (s.completed / 8) as usize % SOCW_MD_UNITS;
            s.md_req[i].update(|v| *v += 1);
        }
        Ok(())
    });
    sim.set_wakeup(id, Wakeup::Inferred);
    // The saturated pipeline: 8 always-firing stages.
    for k in 0..8 {
        sim.rule(format!("stage{k}"), move |s: &mut SocW| {
            let v = s.acc[k].read();
            s.acc[k + 1].update(|x| *x = x.wrapping_add(v));
            Ok(())
        });
    }
    // The side units, each watching its own mailbox; fed once per 8
    // completed loads, round-robin, so each sleeps for thousands of cycles.
    for i in 0..SOCW_MD_UNITS {
        let id = sim.rule(format!("md{i}"), move |s: &mut SocW| {
            let n = s.md_req[i].read();
            if n == 0 {
                return Err(Stall::new("no md op"));
            }
            s.md_req[i].write(0);
            s.md_done.update(|v| *v += n);
            Ok(())
        });
        sim.set_wakeup(id, Wakeup::Inferred);
    }
    // Prime the load loop (outside any rule, the write applies
    // immediately — the kernel's reset-value idiom).
    sim.state_mut().ld_q.enq(0).expect("prime ld_q");
    sim
}

fn bench_socw() -> Vec<(&'static str, f64)> {
    let (times, fires) = time_modes(
        build_socw,
        SOCW_CYCLES,
        &[SchedulerMode::Reference, SchedulerMode::Fast],
        7,
    );
    let (ref_s, fast_s) = (times[0], times[1]);
    let (ref_fires, fast_fires) = (fires[0], fires[1]);
    assert_eq!(fast_fires, ref_fires, "socw diverged: fast vs reference");
    let cps = |s: f64| SOCW_CYCLES as f64 / s;
    for (label, s) in [("soc_wakeup/reference", ref_s), ("soc_wakeup/fast", fast_s)] {
        println!(
            "{label:<44} {:>12.0} ns/cycle ({:.2e} cycles/s)",
            s * 1e9 / SOCW_CYCLES as f64,
            cps(s)
        );
    }
    println!(
        "[speedup] soc_wakeup fast vs reference: {:.2}x",
        ref_s / fast_s
    );
    vec![
        ("socw_sim_cycles", SOCW_CYCLES as f64),
        ("socw_fires", fast_fires as f64),
        ("socw_reference_wall_ms", ref_s * 1e3),
        ("socw_fast_wall_ms", fast_s * 1e3),
        ("socw_reference_cps", cps(ref_s)),
        ("socw_fast_cps", cps(fast_s)),
        ("socw_fast_speedup", ref_s / fast_s),
    ]
}

/// With any profiling flag present, re-runs the ring under the fast
/// scheduler with the causal profiler on. The ring's rules sleep on
/// inferred watch sets, so the publish→wake causality edges — and hence
/// per-window critical paths — are populated here (unlike on the SoC,
/// whose rules never sleep).
fn profile_ring() {
    let opts = riscy_bench::profile_opts();
    if !opts.enabled() {
        return;
    }
    let mut sim = build_ring(SchedulerMode::Fast);
    sim.enable_profiling();
    let chrome = opts.chrome_trace.as_ref().map(|_| {
        let t = std::rc::Rc::new(std::cell::RefCell::new(ChromeTrace::new()));
        sim.set_tracer(Tracer::new(t.clone()));
        t
    });
    sim.run(RING_CYCLES);
    println!("\n=== causal profile: ring64_wakeup ===");
    print!("{}", sim.report());
    for (window, names) in sim.critical_path_names().iter().rev().take(3).rev() {
        println!("critical path (window {window}): {}", names.join(" -> "));
    }
    if let Some(path) = &opts.profile_json {
        riscy_bench::write_artifact(path, &sim.profile_json());
    }
    if let Some((path, t)) = opts.chrome_trace.as_ref().zip(chrome) {
        riscy_bench::write_artifact(path, &t.borrow_mut().finish_json());
    }
}

fn main() {
    bench_gcd();
    bench_iq_orderings();
    bench_scheduler_overhead();
    let mut ring_metrics = bench_ring();
    ring_metrics.extend(bench_socw());
    if let Some(path) = bench_json_path() {
        // Wall-clock numbers go into the *bench* artifact (not the stats
        // one): the perf gate compares the host-neutral speedup ratios and
        // the exact firing counts, not raw nanoseconds.
        write_artifact(&path, &metrics_json(&ring_metrics));
    }
    if let Some(path) = stats_json_path() {
        // Only the architectural cycle counts go into the artifact:
        // wall-clock numbers vary run to run and would make the JSON
        // useless for regression comparison.
        let chain = dependent_chain(48);
        let cycles = |ordering| {
            run_iq_demo(
                IqDemoConfig {
                    ordering,
                    ..IqDemoConfig::default()
                },
                &chain,
            )
            .unwrap()
            .cycles as f64
        };
        let json = metrics_json(&[
            (
                "iq_issue_before_wakeup_cycles",
                cycles(IqOrdering::IssueBeforeWakeup),
            ),
            (
                "iq_wakeup_before_issue_cycles",
                cycles(IqOrdering::WakeupBeforeIssue),
            ),
        ]);
        write_artifact(&path, &json);
    }
    profile_ring();
}
