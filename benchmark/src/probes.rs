//! Isolated probes of single layers, measured from outside through public
//! functions: each builds the smallest thing that exercises one mechanism
//! and reports the best of a fixed number of repetitions.

use cmd_core::prelude::*;
use riscy_baseline::{InOrderConfig, InOrderSim};
use riscy_bench::fleet::{fleet_grid, run_fleet, FleetOpts, SocFleet};
use riscy_isa::interp::Machine;
use riscy_isa::mem::{SparseMem, DRAM_BASE};
use riscy_mem::msg::CoreReq;
use riscy_mem::system::{MemConfig, MemSystem};
use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
use riscy_ooo::ff::FastForward;
use riscy_ooo::soc::SocSim;
use riscy_workloads::spec::{self, Scale};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of every probe; the best one is reported.
const REPS: usize = 5;
/// Cycles a kernel probe simulates per repetition.
const KERNEL_CYCLES: u64 = 4_000;

/// Best of [`REPS`] timings of `f`, in seconds.
fn best_of<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best time of [`KERNEL_CYCLES`] cycles of the design `build` makes, in
/// nanoseconds per `per_cycle` events. Building is not timed.
fn kernel_ns<S>(per_cycle: u64, build: impl Fn() -> Sim<S>) -> f64 {
    let best = (0..REPS)
        .map(|_| {
            let mut sim = build();
            sim.run(64); // footprints learnt, sleepers asleep
            let t0 = Instant::now();
            sim.run(KERNEL_CYCLES);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    best * 1e9 / (KERNEL_CYCLES * per_cycle) as f64
}

/// `n` rules that each run `body` on their own cell of `make`'s type.
fn cell_design<T: Clone + 'static>(
    n: usize,
    make: impl Fn(&Clock) -> Ehr<T>,
    body: impl Fn(&Ehr<T>, u64) -> Guarded<()> + Copy + 'static,
) -> Sim<Vec<Ehr<T>>> {
    let clk = Clock::new();
    let cells = (0..n).map(|_| make(&clk)).collect();
    let mut sim = Sim::new(clk.clone(), cells);
    // The abort design never fires; without this the watchdog would build
    // a deadlock report every cycle and the probe would time that.
    sim.set_watchdog(None);
    for i in 0..n {
        let clk = clk.clone();
        sim.rule(format!("r{i}"), move |s: &mut Vec<Ehr<T>>| {
            body(&s[i], clk.cycle())
        });
    }
    sim
}

/// `core.dispatch_ns`: per evaluation of 64 always-ready rules that touch
/// no state — what the scheduler charges for a rule whatever its body does.
pub fn dispatch_ns() -> f64 {
    kernel_ns(64, || {
        let mut sim = Sim::new(Clock::new(), ());
        for i in 0..64 {
            sim.rule(format!("r{i}"), |(): &mut ()| Ok(()));
        }
        sim
    })
}

/// `core.sleep_ns`: per cycle of a 44-rule design shaped like one busy
/// core — 9 rules firing every cycle, 35 asleep on their own watched
/// mailbox that nothing fills. The sleepers' cost is what sleeping saves
/// nothing of.
pub fn sleep_ns() -> f64 {
    kernel_ns(1, || {
        let clk = Clock::new();
        let cells: Vec<Ehr<u64>> = (0..44).map(|_| Ehr::new(&clk, 0)).collect();
        let mut sim = Sim::new(clk, cells);
        for i in 0..9 {
            sim.rule(format!("live{i}"), move |s: &mut Vec<Ehr<u64>>| {
                s[i].update(|v| *v += 1);
                Ok(())
            });
        }
        for i in 9..44 {
            let id = sim.rule(format!("idle{i}"), move |s: &mut Vec<Ehr<u64>>| {
                if s[i].read() == 0 {
                    return Err(Stall::new("empty mailbox"));
                }
                s[i].write(0);
                Ok(())
            });
            sim.set_wakeup(id, Wakeup::Inferred);
        }
        sim
    })
}

/// `core.wake_ns`: per hand-off of one token round a 64-rule ring, every
/// slot asleep on its own mailbox until its predecessor writes it — one
/// sleep entry and one wake per cycle.
pub fn wake_ns() -> f64 {
    const RING: usize = 64;
    kernel_ns(1, || {
        let clk = Clock::new();
        let slots: Vec<Ehr<u64>> = (0..RING)
            .map(|i| Ehr::new(&clk, u64::from(i == 0)))
            .collect();
        let mut sim = Sim::new(clk, slots);
        // Consumers before producers, so the token moves one slot a cycle.
        for i in (0..RING).rev() {
            let id = sim.rule(format!("slot{i}"), move |s: &mut Vec<Ehr<u64>>| {
                let tokens = s[i].read();
                if tokens == 0 {
                    return Err(Stall::new("no token"));
                }
                s[i].write(0);
                s[(i + 1) % RING].update(|t| *t += tokens);
                Ok(())
            });
            sim.set_wakeup(id, Wakeup::Inferred);
        }
        sim
    })
}

/// `core.cm_probe_ns`: per firing of 16 rules that each call one method
/// of a module with a declared conflict matrix (`m0 < m1 < m2 < m3`) and
/// touch no cell: the conflict check alone, on top of `core.dispatch_ns`.
pub fn cm_probe_ns() -> f64 {
    kernel_ns(16, cm_design)
}

fn cm_design() -> Sim<ModuleIfc> {
    let clk = Clock::new();
    let cm = ConflictMatrix::builder(4)
        .seq(&[0, 1, 2, 3])
        .self_free(0)
        .self_free(1)
        .self_free(2)
        .self_free(3)
        .build();
    let ifc = clk.module("Probe", &["m0", "m1", "m2", "m3"], cm);
    let mut sim = Sim::new(clk, ifc);
    for i in 0..16 {
        // Method indices never decrease along the schedule, so every check
        // passes and every rule fires.
        sim.rule(format!("r{i}"), move |ifc: &mut ModuleIfc| {
            ifc.record(i / 4);
            Ok(())
        });
    }
    sim
}

/// `core.cell_scalar_ns`: per firing of a rule that writes and commits an
/// `Ehr<u64>`.
pub fn cell_scalar_ns() -> f64 {
    kernel_ns(16, || {
        cell_design(
            16,
            |clk| Ehr::new(clk, 0u64),
            |c, now| {
                c.write(now);
                Ok(())
            },
        )
    })
}

/// `core.cell_slot_ns`: the same for an `Ehr<Option<_>>` pipeline slot.
pub fn cell_slot_ns() -> f64 {
    kernel_ns(16, || {
        cell_design(
            16,
            |clk| Ehr::new(clk, None::<(u64, u64)>),
            |c, now| {
                c.write(Some((now, now)));
                Ok(())
            },
        )
    })
}

/// `core.cell_vec_ns`: the same for one element of a 64-entry
/// `Ehr<Vec<u64>>` — the collection-valued shape of the rename tables.
pub fn cell_vec_ns() -> f64 {
    kernel_ns(16, || {
        cell_design(
            16,
            |clk| Ehr::new(clk, vec![0u64; 64]),
            |c, now| {
                c.set(now as usize % 64, now);
                Ok(())
            },
        )
    })
}

/// `core.abort_ns`: per evaluation of a rule that writes the `Vec` cell
/// and then fails its guard, so the kernel rolls the write back.
pub fn abort_ns() -> f64 {
    kernel_ns(16, || {
        cell_design(
            16,
            |clk| Ehr::new(clk, vec![0u64; 64]),
            |c, now| {
                c.set(now as usize % 64, now);
                Err(Stall::new("always"))
            },
        )
    })
}

/// `core.fifo_ns`: per enq+deq pair through a `PipelineFifo`.
pub fn fifo_ns() -> f64 {
    kernel_ns(1, || {
        let clk = Clock::new();
        let q = PipelineFifo::new(&clk, 4);
        let mut sim = Sim::new(clk, q);
        sim.rule("deq", |q: &mut PipelineFifo<u64>| q.deq().map(|_| ()));
        sim.rule("enq", |q: &mut PipelineFifo<u64>| q.enq(1));
        sim
    })
}

/// A standalone single-core memory system over empty memory.
fn mem_system() -> MemSystem {
    MemSystem::new(MemConfig::default(), 1, SparseMem::new())
}

/// Issues loads to `addrs` one at a time, ticking until each answers;
/// returns host nanoseconds per load (best repetition). With `warm` the
/// stream runs once untimed first, so the timed loads hit.
fn load_stream_ns(addrs: impl Fn(u64) -> u64, loads: u64, warm: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut mem = mem_system();
        let mut issue = |addr: u64| {
            let req = CoreReq::Ld {
                tag: 0,
                addr,
                bytes: 8,
            };
            mem.dcache(0).request(req).expect("one load in flight");
            loop {
                mem.tick();
                let now = mem.now();
                if mem.dcache(0).pop_resp(now).is_some() {
                    break;
                }
            }
        };
        if warm {
            (0..loads).for_each(|i| issue(addrs(i)));
        }
        let t0 = Instant::now();
        (0..loads).for_each(|i| issue(addrs(i)));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e9 / loads as f64
}

/// `mem.tick_idle_ns`: per `MemSystem::tick` with nothing in flight — the
/// floor of the never-sleeping `substrate` rule.
pub fn mem_tick_idle_ns() -> f64 {
    const TICKS: u64 = 200_000;
    let mut mem = mem_system();
    best_of(|| (0..TICKS).for_each(|_| mem.tick())) * 1e9 / TICKS as f64
}

/// `mem.hit_ns`: per load of a stream that hits in the L1 (64 lines,
/// touched once before timing).
pub fn mem_hit_ns() -> f64 {
    load_stream_ns(|i| DRAM_BASE + (i % 64) * 64, 4_096, true)
}

/// `mem.miss_ns`: per load of a stream that misses to DRAM (one new page
/// and line every load, each answered before the next is sent).
pub fn mem_miss_ns() -> f64 {
    load_stream_ns(|i| DRAM_BASE + i * 4_096 + (i % 64) * 64, 512, false)
}

/// `ooo.build_ms` / `ooo.build4_ms`: `SocSim::new` on the mcf image.
pub fn build_ms(cores: usize) -> f64 {
    let w = spec::mcf(Scale::Test);
    best_of(|| {
        SocSim::new(
            CoreConfig::riscyoo_t_plus(),
            mem_riscyoo_b(),
            cores,
            &w.program,
        )
    }) * 1e3
}

/// Snapshot throughput of an mcf simulation 20 k cycles in:
/// `(ooo.snap_save_mbps, ooo.snap_restore_mbps, ooo.snap_kb)`.
pub fn snapshot() -> (f64, f64, f64) {
    let w = spec::mcf(Scale::Test);
    let build = || SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
    let mut sim = build();
    for _ in 0..20_000 {
        sim.cycle();
    }
    let bytes = sim.save_snapshot().expect("plain simulation snapshots");
    let save_s = best_of(|| sim.save_snapshot());
    let mut fresh = build();
    let restore_s = best_of(|| fresh.restore_snapshot(&bytes));
    let mb = bytes.len() as f64 / 1e6;
    (mb / save_s, mb / restore_s, bytes.len() as f64 / 1024.0)
}

/// `(ff.mips, ff.handoff_ms)`: the warming interpreter on libquantum, and
/// building a detailed simulation from its state.
pub fn fast_forward() -> (f64, f64) {
    const INSTS: u64 = 200_000;
    let w = spec::libquantum(Scale::Test);
    let mut ff = FastForward::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
    ff.run(INSTS);
    let run_s = best_of(|| ff.run(INSTS));
    let handoff_s = best_of(|| ff.handoff());
    (INSTS as f64 / run_s / 1e6, handoff_s * 1e3)
}

/// `isa.interp_mips`: `Machine::run` on hmmer.
pub fn interp_mips() -> f64 {
    let w = spec::hmmer(Scale::Test);
    let mut insts = 0;
    let s = best_of(|| {
        let mut m = Machine::with_program(1, &w.program);
        insts = m.run(w.max_cycles).expect("hmmer halts");
    });
    insts as f64 / s / 1e6
}

/// `baseline.cps`: simulated cycles per second of the in-order baseline
/// (Rocket-120) on hmmer.
pub fn baseline_cps() -> f64 {
    let w = spec::hmmer(Scale::Test);
    let mut cycles = 0;
    let s = best_of(|| {
        let mut sim = InOrderSim::new(InOrderConfig::rocket(120), &w.program);
        cycles = sim.run(w.max_cycles * 4).expect("hmmer halts");
    });
    cycles as f64 / s
}

/// `workloads.gen_ms`: generating the eleven SPEC proxies at test scale.
pub fn gen_ms() -> f64 {
    best_of(|| spec::spec_suite(Scale::Test)) * 1e3
}

/// `bench.fleet_overhead_ratio`: hmmer through a 1-thread `run_fleet` ÷
/// the same simulation called directly (the 2-thread fleet is not
/// measured: on a shared 2-core host it measures the neighbours).
pub fn fleet_overhead_ratio() -> f64 {
    let w = spec::hmmer(Scale::Test);
    let harness = SocFleet {
        workloads: vec![w.clone()],
        sched: SchedulerMode::Fast,
        chaos: false,
    };
    let opts = FleetOpts {
        threads: 1,
        ..FleetOpts::default()
    };
    let (mut fleet_s, mut direct_s) = (f64::INFINITY, f64::INFINITY);
    // Interleaved, so a burst on the host lands on both sides.
    for _ in 0..3 {
        let units = fleet_grid(&[0], &["t+"], &[&w]);
        fleet_s = fleet_s.min(run_fleet(units, &opts, |u, ctx| harness.run_unit(u, ctx)).wall_s);
        let t0 = Instant::now();
        let mut sim = SocSim::new(CoreConfig::riscyoo_t_plus(), mem_riscyoo_b(), 1, &w.program);
        black_box(sim.run_to_completion(w.max_cycles)).expect("hmmer completes");
        direct_s = direct_s.min(t0.elapsed().as_secs_f64());
    }
    fleet_s / direct_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_probes_measure_what_they_say() {
        // Every rule of the always-firing designs fires every cycle, the
        // abort design never commits, the ring hands off once a cycle.
        let mut sim = cell_design(
            4,
            |clk| Ehr::new(clk, vec![0u64; 64]),
            |c, now| {
                c.set(now as usize % 64, now + 1);
                Err(Stall::new("always"))
            },
        );
        sim.run(100);
        assert!(sim.all_rule_stats().all(|(_, s)| s.fired == 0));
        assert!(sim.state().iter().all(|c| c.read() == vec![0u64; 64]));
        let mut sim = cm_design();
        sim.run(100);
        assert!(sim.all_rule_stats().all(|(_, s)| s.fired == 100));
        for ns in [
            dispatch_ns(),
            cm_probe_ns(),
            fifo_ns(),
            wake_ns(),
            sleep_ns(),
        ] {
            assert!(ns > 0.0 && ns.is_finite());
        }
    }

    #[test]
    fn memory_probes_hit_and_miss() {
        let (hit, miss) = (mem_hit_ns(), mem_miss_ns());
        assert!(
            hit > 0.0 && miss > 4.0 * hit,
            "hit {hit} ns, miss {miss} ns"
        );
    }
}
