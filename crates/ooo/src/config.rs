//! Core and SoC configurations, including every named configuration of the
//! paper's evaluation (Figs. 12–14) and the comparison-processor proxies.

use riscy_mem::cache::L1Config;
use riscy_mem::dram::DramConfig;
use riscy_mem::l2::L2Config;
use riscy_mem::system::MemConfig;

pub use riscy_mem::system::ConfigError;

/// Memory consistency model implemented by the load-store unit (paper §V-B,
/// Fig. 20).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemModel {
    /// Total store order: stores issue to L1 in order from the SQ; loads
    /// killed on cache eviction (`cacheEvict`).
    Tso,
    /// The paper's weak memory model \[39\]: committed stores coalesce in a
    /// store buffer and drain out of order.
    Wmm,
}

/// TLB microarchitecture (paper Fig. 14: RiscyOO-B vs RiscyOO-T+).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 I/D TLB entries (fully associative).
    pub l1_entries: usize,
    /// L2 TLB entries.
    pub l2_entries: usize,
    /// L2 TLB associativity.
    pub l2_ways: usize,
    /// Maximum concurrent L1 D TLB misses (1 = blocking; T+: 4).
    pub l1d_miss_slots: usize,
    /// Maximum concurrent L2 TLB misses / page walks (1 = blocking; T+: 2).
    pub l2_miss_slots: usize,
    /// Split translation (page-walk) cache entries per level (0 = none;
    /// T+: 24).
    pub walk_cache_entries: usize,
}

impl TlbConfig {
    /// RiscyOO-B: blocking TLBs, no walk cache.
    #[must_use]
    pub fn blocking() -> Self {
        TlbConfig {
            l1_entries: 32,
            l2_entries: 2048,
            l2_ways: 4,
            l1d_miss_slots: 1,
            l2_miss_slots: 1,
            walk_cache_entries: 0,
        }
    }

    /// RiscyOO-T+: non-blocking TLBs with a 24-entry-per-level walk cache.
    #[must_use]
    pub fn nonblocking() -> Self {
        TlbConfig {
            l1d_miss_slots: 4,
            l2_miss_slots: 2,
            walk_cache_entries: 24,
            ..Self::blocking()
        }
    }
}

/// Branch-prediction configuration (paper Fig. 12: 256-entry BTB,
/// Alpha-21264-style tournament predictor, 8-entry RAS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpConfig {
    /// BTB entries (direct-mapped).
    pub btb_entries: usize,
    /// Local history table entries.
    pub local_hist_entries: usize,
    /// Bits of local history.
    pub local_hist_bits: u32,
    /// Global/choice table entries.
    pub global_entries: usize,
    /// Return-address-stack entries.
    pub ras_entries: usize,
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig {
            btb_entries: 256,
            local_hist_entries: 1024,
            local_hist_bits: 10,
            global_entries: 4096,
            ras_entries: 8,
        }
    }
}

/// Full configuration of one core (paper Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Superscalar width: fetch/decode/rename/commit per cycle.
    pub width: usize,
    /// ROB entries.
    pub rob_entries: usize,
    /// Number of ALU pipelines.
    pub alu_pipes: usize,
    /// Entries per issue queue.
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Store-buffer entries (64 B each).
    pub sb_entries: usize,
    /// Physical registers.
    pub phys_regs: usize,
    /// Speculation tags (simultaneously unresolved branches).
    pub spec_tags: usize,
    /// Branch prediction.
    pub bp: BpConfig,
    /// TLBs.
    pub tlb: TlbConfig,
    /// Memory model.
    pub mem_model: MemModel,
    /// Kill speculatively bound loads when their cache line is evicted
    /// (the TSO `cacheEvict` repair of paper §V-B). **Verification
    /// backdoor**: always `true` in real configurations; the litmus-test
    /// harness flips it off to prove the consistency checker catches the
    /// resulting TSO violations (see `docs/CONSISTENCY.md`). No effect
    /// under WMM, which never kills on eviction.
    pub evict_kill: bool,
}

impl CoreConfig {
    /// RiscyOO-B, the paper's base configuration (Fig. 12) — blocking TLBs.
    #[must_use]
    pub fn riscyoo_b() -> Self {
        CoreConfig {
            width: 2,
            rob_entries: 64,
            alu_pipes: 2,
            iq_entries: 16,
            lq_entries: 24,
            sq_entries: 14,
            sb_entries: 4,
            phys_regs: 96,
            spec_tags: 12,
            bp: BpConfig::default(),
            tlb: TlbConfig::blocking(),
            mem_model: MemModel::Wmm,
            evict_kill: true,
        }
    }

    /// RiscyOO-T+ (Fig. 14): RiscyOO-B with non-blocking TLBs and a page
    /// walk cache.
    #[must_use]
    pub fn riscyoo_t_plus() -> Self {
        CoreConfig {
            tlb: TlbConfig::nonblocking(),
            ..Self::riscyoo_b()
        }
    }

    /// RiscyOO-T+R+ (Fig. 14): T+ with an 80-entry ROB (to match BOOM).
    #[must_use]
    pub fn riscyoo_t_plus_r_plus() -> Self {
        CoreConfig {
            rob_entries: 80,
            spec_tags: 16,
            phys_regs: 112,
            ..Self::riscyoo_t_plus()
        }
    }

    /// The quad-core configuration of Fig. 20: 48-entry ROB, proportionally
    /// reduced buffers, still 2-wide with four pipelines.
    #[must_use]
    pub fn multicore(model: MemModel) -> Self {
        CoreConfig {
            rob_entries: 48,
            lq_entries: 18,
            sq_entries: 10,
            iq_entries: 12,
            phys_regs: 80,
            mem_model: model,
            ..Self::riscyoo_t_plus()
        }
    }

    /// A57 proxy: 3-wide superscalar OOO (commercial-ARM stand-in for
    /// Fig. 18; see DESIGN.md substitutions).
    #[must_use]
    pub fn a57_proxy() -> Self {
        CoreConfig {
            width: 3,
            alu_pipes: 3,
            rob_entries: 128,
            iq_entries: 24,
            lq_entries: 32,
            sq_entries: 24,
            phys_regs: 160,
            spec_tags: 16,
            ..Self::riscyoo_t_plus()
        }
    }

    /// Denver proxy: an aggressive 4-wide configuration with large buffers
    /// (Fig. 18 stand-in for the 7-wide Denver).
    #[must_use]
    pub fn denver_proxy() -> Self {
        CoreConfig {
            width: 4,
            alu_pipes: 4,
            rob_entries: 192,
            iq_entries: 32,
            lq_entries: 48,
            sq_entries: 32,
            phys_regs: 256,
            spec_tags: 20,
            ..Self::riscyoo_t_plus()
        }
    }

    /// BOOM proxy (Fig. 19): 2-wide, 80-entry ROB, matched caches, blocking
    /// TLBs (BOOM's TLB microarchitecture lacked RiscyOO-T+'s
    /// optimizations), slightly better branch prediction.
    #[must_use]
    pub fn boom_proxy() -> Self {
        CoreConfig {
            rob_entries: 80,
            phys_regs: 112,
            spec_tags: 16,
            tlb: TlbConfig::blocking(),
            bp: BpConfig {
                global_entries: 8192,
                local_hist_entries: 2048,
                ..BpConfig::default()
            },
            ..Self::riscyoo_b()
        }
    }
}

impl CoreConfig {
    /// Checks every field against what the core's structures need: at
    /// least one slot in each queue and pipeline, more physical than
    /// architectural registers, indices that fit the `u16` ROB, LSQ and
    /// physical-register tags and the `u8` speculation tag, power-of-two
    /// predictor and L2 TLB tables (they index by mask), and at least one
    /// TLB entry and miss slot on each level.
    ///
    /// # Errors
    ///
    /// The first field out of range.
    pub fn check(&self) -> Result<(), ConfigError> {
        const U16_SLOTS: usize = 1 << 16;
        let req = ConfigError::require;
        let nonzero = [
            ("width", self.width),
            ("alu_pipes", self.alu_pipes),
            ("iq_entries", self.iq_entries),
            ("sb_entries", self.sb_entries),
            ("bp.ras_entries", self.bp.ras_entries),
            ("tlb.l1_entries", self.tlb.l1_entries),
            ("tlb.l1d_miss_slots", self.tlb.l1d_miss_slots),
            ("tlb.l2_miss_slots", self.tlb.l2_miss_slots),
        ];
        for (field, v) in nonzero {
            req(v >= 1, field, v, ">= 1")?;
        }
        let u16_indexed = [
            ("rob_entries", self.rob_entries),
            ("lq_entries", self.lq_entries),
            ("sq_entries", self.sq_entries),
        ];
        for (field, v) in u16_indexed {
            req((1..=U16_SLOTS).contains(&v), field, v, "in 1..=65536")?;
        }
        req(
            (33..=U16_SLOTS).contains(&self.phys_regs),
            "phys_regs",
            self.phys_regs,
            "in 33..=65536",
        )?;
        req(
            (1..=256).contains(&self.spec_tags),
            "spec_tags",
            self.spec_tags,
            "in 1..=256",
        )?;
        let pow2 = [
            ("bp.btb_entries", self.bp.btb_entries),
            ("bp.local_hist_entries", self.bp.local_hist_entries),
            ("bp.global_entries", self.bp.global_entries),
        ];
        for (field, v) in pow2 {
            req(v.is_power_of_two(), field, v, "a power of two")?;
        }
        let bits = self.bp.local_hist_bits as usize;
        req(bits <= 16, "bp.local_hist_bits", bits, "<= 16")?;
        req(
            self.tlb.l2_ways >= 1,
            "tlb.l2_ways",
            self.tlb.l2_ways,
            ">= 1",
        )?;
        let sets = self.tlb.l2_entries / self.tlb.l2_ways;
        req(
            sets.is_power_of_two(),
            "tlb.l2_entries",
            self.tlb.l2_entries,
            "a power-of-two number of sets of `l2_ways`",
        )
    }
}

/// Cache/memory configurations of Figs. 12–14.
#[must_use]
pub fn mem_riscyoo_b() -> MemConfig {
    MemConfig::default()
}

/// RiscyOO-C-: 16 KB L1 I/D, 256 KB L2 (Fig. 14) — for the Rocket
/// comparison.
#[must_use]
pub fn mem_riscyoo_c_minus() -> MemConfig {
    MemConfig {
        l1i: L1Config {
            size_bytes: 16 * 1024,
            ..L1Config::default()
        },
        l1d: L1Config {
            size_bytes: 16 * 1024,
            ..L1Config::default()
        },
        l2: L2Config {
            size_bytes: 256 * 1024,
            ..L2Config::default()
        },
        ..MemConfig::default()
    }
}

/// A57/Denver proxy memory: 2 MB L2, larger L1 I.
#[must_use]
pub fn mem_arm_proxy() -> MemConfig {
    MemConfig {
        l1i: L1Config {
            size_bytes: 48 * 1024,
            ways: 12,
            ..L1Config::default()
        },
        l2: L2Config {
            size_bytes: 2 * 1024 * 1024,
            ..L2Config::default()
        },
        ..MemConfig::default()
    }
}

/// Rocket-like memory with a configurable flat latency and no L2
/// (the prototype "is said to have an L2 ... there is actually no L2").
#[must_use]
pub fn mem_rocket(latency: u64) -> MemConfig {
    MemConfig {
        l1i: L1Config {
            size_bytes: 16 * 1024,
            ..L1Config::default()
        },
        l1d: L1Config {
            size_bytes: 16 * 1024,
            ..L1Config::default()
        },
        // A tiny pass-through "L2" models the absence of one.
        l2: L2Config {
            size_bytes: 8 * 1024,
            ways: 2,
            max_trans: 4,
            dram: DramConfig {
                latency,
                max_outstanding: 4,
                cycles_per_line: 1,
            },
            mesi: false,
        },
        xbar_latency: 0,
        l2_pipe_latency: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_config_keeps_the_evict_kill_repair_on() {
        for cfg in [
            CoreConfig::riscyoo_b(),
            CoreConfig::riscyoo_t_plus(),
            CoreConfig::riscyoo_t_plus_r_plus(),
            CoreConfig::multicore(MemModel::Tso),
            CoreConfig::multicore(MemModel::Wmm),
            CoreConfig::a57_proxy(),
            CoreConfig::denver_proxy(),
            CoreConfig::boom_proxy(),
        ] {
            assert!(cfg.evict_kill, "evict_kill is a test-only backdoor");
        }
    }

    #[test]
    fn named_configs_match_figure_12_and_14() {
        let b = CoreConfig::riscyoo_b();
        assert_eq!(b.width, 2);
        assert_eq!(b.rob_entries, 64);
        assert_eq!(b.lq_entries, 24);
        assert_eq!(b.sq_entries, 14);
        assert_eq!(b.sb_entries, 4);
        assert_eq!(b.tlb.l1d_miss_slots, 1, "B has blocking TLBs");

        let t = CoreConfig::riscyoo_t_plus();
        assert_eq!(t.tlb.l1d_miss_slots, 4);
        assert_eq!(t.tlb.l2_miss_slots, 2);
        assert_eq!(t.tlb.walk_cache_entries, 24);

        let tr = CoreConfig::riscyoo_t_plus_r_plus();
        assert_eq!(tr.rob_entries, 80);
    }

    #[test]
    fn every_named_config_passes_its_check() {
        for cfg in [
            CoreConfig::riscyoo_b(),
            CoreConfig::riscyoo_t_plus(),
            CoreConfig::riscyoo_t_plus_r_plus(),
            CoreConfig::multicore(MemModel::Tso),
            CoreConfig::a57_proxy(),
            CoreConfig::denver_proxy(),
            CoreConfig::boom_proxy(),
        ] {
            assert_eq!(cfg.check(), Ok(()), "{cfg:?}");
        }
        for mem in [
            mem_riscyoo_b(),
            mem_riscyoo_c_minus(),
            mem_arm_proxy(),
            mem_rocket(10),
            mem_rocket(120),
        ] {
            assert_eq!(mem.check(), Ok(()), "{mem:?}");
        }
    }

    #[test]
    fn degenerate_core_configs_are_refused_by_name() {
        let b = CoreConfig::riscyoo_b();
        let cases: [(CoreConfig, &str, usize); 11] = [
            (CoreConfig { alu_pipes: 0, ..b }, "alu_pipes", 0),
            (CoreConfig { phys_regs: 32, ..b }, "phys_regs", 32),
            (CoreConfig { width: 0, ..b }, "width", 0),
            (
                CoreConfig {
                    rob_entries: 0,
                    ..b
                },
                "rob_entries",
                0,
            ),
            (CoreConfig { iq_entries: 0, ..b }, "iq_entries", 0),
            (CoreConfig { lq_entries: 0, ..b }, "lq_entries", 0),
            (CoreConfig { sq_entries: 0, ..b }, "sq_entries", 0),
            (CoreConfig { sb_entries: 0, ..b }, "sb_entries", 0),
            (CoreConfig { spec_tags: 0, ..b }, "spec_tags", 0),
            (
                CoreConfig {
                    spec_tags: 257,
                    ..b
                },
                "spec_tags",
                257,
            ),
            (
                CoreConfig {
                    tlb: TlbConfig {
                        l1d_miss_slots: 0,
                        ..b.tlb
                    },
                    ..b
                },
                "tlb.l1d_miss_slots",
                0,
            ),
        ];
        for (cfg, field, value) in cases {
            let err = cfg.check().expect_err(field);
            assert_eq!((err.field, err.value), (field, value), "{err}");
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn degenerate_memory_configs_are_refused_by_name() {
        let m = mem_riscyoo_b();
        let l1 = |f: fn(&mut L1Config)| {
            let mut l1d = m.l1d;
            f(&mut l1d);
            MemConfig { l1d, ..m }
        };
        let cases = [
            (l1(|c| c.mshrs = 0), "l1d.mshrs", 0),
            (l1(|c| c.mshrs = 256), "l1d.mshrs", 256),
            (l1(|c| c.ways = 0), "l1d.ways", 0),
            (l1(|c| c.size_bytes = 3 * 4096), "l1d.size_bytes", 3 * 4096),
            (
                MemConfig {
                    l2: L2Config {
                        max_trans: 0,
                        ..m.l2
                    },
                    ..m
                },
                "l2.max_trans",
                0,
            ),
        ];
        for (mem, field, value) in cases {
            let err = mem.check().expect_err(field);
            assert_eq!((err.field, err.value), (field, value), "{err}");
        }
    }

    #[test]
    fn proxies_are_wider() {
        assert_eq!(CoreConfig::a57_proxy().width, 3);
        assert_eq!(CoreConfig::denver_proxy().width, 4);
        assert_eq!(CoreConfig::boom_proxy().rob_entries, 80);
    }

    #[test]
    fn memory_variants_scale() {
        assert_eq!(mem_riscyoo_c_minus().l1d.size_bytes, 16 * 1024);
        assert_eq!(mem_riscyoo_b().l2.size_bytes, 1024 * 1024);
        assert_eq!(mem_rocket(120).l2.dram.latency, 120);
    }
}
