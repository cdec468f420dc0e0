//! The four workloads: which units they run, on which configuration, in
//! which order a seed runs them, how many passes a run makes, and the
//! golden counts.
//!
//! Why these four (README has the long form): `spec_hot` keeps every
//! pipeline rule firing (rule bodies and cell transactions do the work);
//! `spec_stall` keeps the core asleep on TLB walks and DRAM (scheduler
//! sleep/wake and the `substrate` tick do the work); `parsec_4core` uses
//! the same kernel and memory layers for coherence on four times the rule
//! table; `sampled_ff` spends its time in the interpreter, warm-state
//! tracking, SoC construction and snapshot walking.

use cmd_core::rng::SplitMix64;
use riscy_ooo::config::{CoreConfig, MemModel};
use riscy_workloads::parsec;
use riscy_workloads::spec::{self, Scale, Workload as Program};

/// How a unit is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Detailed simulation to completion on `cores` cores.
    Soc { cores: usize },
    /// Functional scout + interval sampling + one snapshot round trip.
    Sampled,
}

/// One program on one SoC configuration.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub name: &'static str,
    pub gen: fn() -> Program,
    pub kind: Kind,
    pub cfg: CoreConfig,
    pub golden: Golden,
}

/// The counts every execution of a unit must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    pub cycles: u64,
    pub insts: u64,
    /// Bits of the sampled `est_ipc` (0 for detailed units).
    pub est_ipc_bits: u64,
}

const fn soc(cycles: u64, insts: u64) -> Golden {
    Golden {
        cycles,
        insts,
        est_ipc_bits: 0,
    }
}

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SpecHot,
    SpecStall,
    Parsec4Core,
    SampledFf,
}

pub const ALL: [Workload; 4] = [
    Workload::SpecHot,
    Workload::SpecStall,
    Workload::Parsec4Core,
    Workload::SampledFf,
];

/// Full-run ROI IPC of libquantum (test scale, T+/B), from
/// `riscy_bench::sampling::compare_sampled`: the only accuracy reference
/// the repo can produce; `bench.sample_ipc_err` is measured against it.
pub const LIBQUANTUM_FULL_IPC: f64 = 0.416_935_922_268_403_7;

/// Timed passes a 20-second run makes. The driver's 92 runs must end
/// within 3420 s whatever the host does meanwhile, which leaves about 22 s
/// a run at this host's usual speed; the memory-bound `spec_stall` is the
/// noisiest and gets the most passes for its pass length.
const PASSES_PER_20S: [u64; 4] = [10, 11, 12, 6];
/// Fewest timed passes of any run.
const MIN_PASSES: u64 = 6;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecHot => "spec_hot",
            Workload::SpecStall => "spec_stall",
            Workload::Parsec4Core => "parsec_4core",
            Workload::SampledFf => "sampled_ff",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed passes of a run of `seconds`: a pure function of the
    /// arguments, never of measured time, so two runs with the same
    /// arguments do the same work and report the same `attempted`.
    pub fn passes(self, seconds: u64) -> u64 {
        (PASSES_PER_20S[self as usize] * seconds / 20).max(MIN_PASSES)
    }

    /// The units in canonical order.
    pub fn stock_units(self) -> Vec<Unit> {
        let tplus = CoreConfig::riscyoo_t_plus();
        let unit = |name, gen: fn() -> Program, kind, cfg, golden| Unit {
            name,
            gen,
            kind,
            cfg,
            golden,
        };
        let one = Kind::Soc { cores: 1 };
        let four = Kind::Soc { cores: 4 };
        let tso = CoreConfig::multicore(MemModel::Tso);
        match self {
            Workload::SpecHot => vec![
                unit(
                    "hmmer",
                    || spec::hmmer(Scale::Test),
                    one,
                    tplus,
                    soc(25_508, 33_695),
                ),
                unit(
                    "sjeng",
                    || spec::sjeng(Scale::Test),
                    one,
                    tplus,
                    soc(52_620, 46_844),
                ),
                unit(
                    "bzip2",
                    || spec::bzip2(Scale::Test),
                    one,
                    tplus,
                    soc(54_388, 57_210),
                ),
                unit(
                    "gobmk",
                    || spec::gobmk(Scale::Test),
                    one,
                    tplus,
                    soc(52_956, 45_162),
                ),
            ],
            Workload::SpecStall => vec![
                unit(
                    "gcc",
                    || spec::gcc(Scale::Test),
                    one,
                    tplus,
                    soc(124_903, 31_007),
                ),
                unit(
                    "xalancbmk",
                    || spec::xalancbmk(Scale::Test),
                    one,
                    tplus,
                    soc(128_760, 29_028),
                ),
                unit(
                    "omnetpp",
                    || spec::omnetpp(Scale::Test),
                    one,
                    tplus,
                    soc(125_547, 18_585),
                ),
                unit(
                    "astar",
                    || spec::astar(Scale::Test),
                    one,
                    tplus,
                    soc(91_089, 18_037),
                ),
                unit(
                    "mcf",
                    || spec::mcf(Scale::Test),
                    one,
                    tplus,
                    soc(80_001, 13_637),
                ),
            ],
            Workload::Parsec4Core => vec![
                unit(
                    "blackscholes",
                    || parsec::blackscholes(Scale::Test, 4),
                    four,
                    tso,
                    soc(3_190, 4_201),
                ),
                unit(
                    "swaptions",
                    || parsec::swaptions(Scale::Test, 4),
                    four,
                    tso,
                    soc(3_367, 12_422),
                ),
                unit(
                    "ferret",
                    || parsec::ferret(Scale::Test, 4),
                    four,
                    tso,
                    soc(8_283, 21_459),
                ),
                unit(
                    "fluidanimate",
                    || parsec::fluidanimate(Scale::Test, 4),
                    four,
                    tso,
                    soc(22_504, 56_697),
                ),
                unit(
                    "freqmine",
                    || parsec::freqmine(Scale::Test, 4),
                    four,
                    tso,
                    soc(27_469, 13_597),
                ),
            ],
            Workload::SampledFf => vec![unit(
                "libquantum",
                || spec::libquantum(Scale::Test),
                Kind::Sampled,
                tplus,
                Golden {
                    cycles: 74_567,
                    insts: 2_152_145,
                    est_ipc_bits: 0x3fda_7519_d748_4d3f,
                },
            )],
        }
    }

    /// The units in the order a run with `seed` executes them: canonical
    /// at seed 0, shuffled otherwise. The same seed gives the same order.
    ///
    /// The seed moves nothing else. Drawing queue sizes per unit, as the
    /// issue proposed, moved `commit_kips` on `parsec_4core` by 7 % between
    /// seeds (spin-wait instructions) and `sim_cps` on `sampled_ff` by 13 %
    /// (one ROB size): the seed would have measured the size table, not
    /// the simulator. With fixed machines every run is checked against the
    /// goldens instead of seed 0 alone.
    pub fn units(self, seed: u64) -> Vec<Unit> {
        let mut units = self.stock_units();
        if seed != 0 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            for i in (1..units.len()).rev() {
                units.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        units
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count_is_a_pure_function_of_the_arguments() {
        assert_eq!(ALL.map(|w| w.passes(20)), [10, 11, 12, 6]);
        assert_eq!(ALL.map(|w| w.passes(1)), [6, 6, 6, 6]);
        assert_eq!(ALL.map(|w| w.passes(60)), [30, 33, 36, 18]);
        for w in ALL {
            for s in 1..=60 {
                assert_eq!(w.passes(s), w.passes(s));
                assert!(w.passes(s) >= MIN_PASSES);
            }
        }
    }

    #[test]
    fn a_seed_fixes_the_order_and_nothing_else() {
        let names = |w: Workload, seed| w.units(seed).iter().map(|u| u.name).collect::<Vec<_>>();
        for w in ALL {
            let canonical = names(w, 0);
            assert_eq!(
                canonical,
                w.stock_units().iter().map(|u| u.name).collect::<Vec<_>>()
            );
            for seed in 1..20 {
                assert_eq!(names(w, seed), names(w, seed));
                let mut sorted = names(w, seed);
                sorted.sort_unstable();
                let mut expect = canonical.clone();
                expect.sort_unstable();
                assert_eq!(sorted, expect);
            }
            // Some seed moves something wherever there is something to move.
            assert!(canonical.len() == 1 || (1..20).any(|s| names(w, s) != canonical));
        }
    }

    #[test]
    fn golden_totals_match_the_issue() {
        let total = |w: Workload| {
            w.stock_units().iter().fold((0, 0), |(c, i), u| {
                (c + u.golden.cycles, i + u.golden.insts)
            })
        };
        assert_eq!(total(Workload::SpecHot), (185_472, 182_911));
        assert_eq!(total(Workload::SpecStall), (550_300, 110_294));
        assert_eq!(total(Workload::Parsec4Core), (64_813, 108_376));
    }
}
