//! Deterministic fault injection for CMD designs.
//!
//! The paper's composability claim — modules can be refined or swapped
//! without a global verification effort — is only credible if a design can
//! be *stressed*: what happens when a guard sticks, a rule transiently
//! aborts, a state bit flips, or the interconnect drops a message? This
//! module provides a seeded, cycle-deterministic fault engine that the
//! scheduler ([`crate::sim::Sim`]) and the memory substrate consult, so a
//! whole fault campaign is reproducible bit-for-bit from one seed.
//!
//! # Fault taxonomy
//!
//! | kind | injection point | models |
//! |---|---|---|
//! | [`FaultKind::GuardStall`] | before a rule body runs | a stuck ready signal |
//! | [`FaultKind::RuleAbort`] | after a rule body runs, vetoing its commit | a transiently lost arbitration |
//! | [`FaultKind::BitFlip`] | a registered cell, at a cycle boundary | an SEU in a flop |
//! | [`FaultKind::MsgDrop`] | a message queue push | a lossy interconnect |
//! | [`FaultKind::MsgDelay`] | a message queue push | congestion / retry |
//! | [`FaultKind::MsgDup`] | a message queue push | a replayed packet |
//!
//! # Determinism
//!
//! Every decision is a *stateless hash* of `(seed, fault-entry, site,
//! cycle)` via [`crate::rng::mix`] — not a draw from a sequential PRNG — so
//! whether a fault fires at site *s* in cycle *c* does not depend on how
//! many other sites consulted the engine first. Re-running the same design
//! with the same [`FaultPlan`] yields the identical fault sequence, and an
//! **empty plan is a guaranteed no-op**: the instrumented simulation is
//! cycle-for-cycle identical to an uninstrumented one (property-tested in
//! `crates/core/tests/chaos_properties.rs`).
//!
//! # Example
//!
//! ```
//! use cmd_core::prelude::*;
//!
//! let plan = FaultPlan::new(42).guard_stall("worker", 0.5);
//! let engine = FaultEngine::new(plan);
//!
//! let clk = Clock::new();
//! let st = Ehr::new(&clk, 0u64);
//! let mut sim = Sim::new(clk, st.clone());
//! sim.rule("worker", move |s: &mut Ehr<u64>| {
//!     s.update(|v| *v += 1);
//!     Ok(())
//! });
//! sim.attach_chaos(&engine);
//! sim.run(100);
//! // Roughly half the cycles were vetoed, and every veto was logged.
//! assert_eq!(st.read() + engine.fault_count() as u64, 100);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::cell::Ehr;
use crate::rng::mix;

/// Stall reason attached to a chaos-forced guard failure.
pub const CHAOS_STALL_REASON: &str = "chaos: forced guard stall";
/// Stall reason attached to a chaos-forced transient rule abort.
pub const CHAOS_ABORT_REASON: &str = "chaos: transient rule abort";

/// The kinds of fault the engine can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Force a rule (or instrumented method) to stall as if its guard failed.
    GuardStall,
    /// Let the rule body run, then veto its commit (all-or-nothing abort).
    RuleAbort,
    /// Flip one uniformly chosen bit of a registered 64-bit cell at a cycle
    /// boundary.
    BitFlip,
    /// Silently drop a message at an instrumented queue push.
    MsgDrop,
    /// Add extra latency to a message at an instrumented queue push.
    MsgDelay,
    /// Deliver a message twice at an instrumented queue push.
    MsgDup,
}

impl FaultKind {
    fn tag(self) -> u64 {
        match self {
            FaultKind::GuardStall => 1,
            FaultKind::RuleAbort => 2,
            FaultKind::BitFlip => 3,
            FaultKind::MsgDrop => 4,
            FaultKind::MsgDelay => 5,
            FaultKind::MsgDup => 6,
        }
    }

    /// The snake-case name used in repro lines (matches the
    /// [`FaultPlan`] builder method names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::GuardStall => "guard_stall",
            FaultKind::RuleAbort => "rule_abort",
            FaultKind::BitFlip => "bit_flip",
            FaultKind::MsgDrop => "msg_drop",
            FaultKind::MsgDelay => "msg_delay",
            FaultKind::MsgDup => "msg_dup",
        }
    }

    /// Parses a repro-line kind name (inverse of [`FaultKind::name`]).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "guard_stall" => FaultKind::GuardStall,
            "rule_abort" => FaultKind::RuleAbort,
            "bit_flip" => FaultKind::BitFlip,
            "msg_drop" => FaultKind::MsgDrop,
            "msg_delay" => FaultKind::MsgDelay,
            "msg_dup" => FaultKind::MsgDup,
            _ => return None,
        })
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::GuardStall => "guard-stall",
            FaultKind::RuleAbort => "rule-abort",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::MsgDrop => "msg-drop",
            FaultKind::MsgDelay => "msg-delay",
            FaultKind::MsgDup => "msg-dup",
        };
        f.write_str(s)
    }
}

/// One injected fault, as recorded in the campaign log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Cycle at which the fault was injected.
    pub cycle: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// The site it hit (rule name, cell name, or queue name).
    pub site: String,
    /// Kind-specific detail: flipped bit index for [`FaultKind::BitFlip`],
    /// extra latency for [`FaultKind::MsgDelay`], otherwise 0.
    pub detail: u64,
}

#[derive(Debug, Clone)]
struct FaultEntry {
    kind: FaultKind,
    pattern: String,
    rate: f64,
    /// Extra latency for `MsgDelay`; unused otherwise.
    param: u64,
}

/// A declarative, seeded fault campaign: which kinds of fault hit which
/// sites, at what per-cycle (or per-event) probability.
///
/// Site patterns match rule/cell/queue names: `"*"` matches everything, a
/// trailing `*` is a prefix match (`"c0.*"` hits every rule of core 0), and
/// anything else must match exactly.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan with the given seed. An empty plan injects nothing and
    /// perturbs nothing.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            entries: Vec::new(),
        }
    }

    /// `true` when the plan has no fault entries (guaranteed no-op).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The campaign seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn with(mut self, kind: FaultKind, pattern: impl Into<String>, rate: f64, param: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        self.entries.push(FaultEntry {
            kind,
            pattern: pattern.into(),
            rate,
            param,
        });
        self
    }

    /// Force rules/methods matching `pattern` to stall with probability
    /// `rate` per cycle.
    #[must_use]
    pub fn guard_stall(self, pattern: impl Into<String>, rate: f64) -> Self {
        self.with(FaultKind::GuardStall, pattern, rate, 0)
    }

    /// Transiently abort rules matching `pattern` with probability `rate`
    /// per cycle (the body runs, then its writes are discarded).
    #[must_use]
    pub fn rule_abort(self, pattern: impl Into<String>, rate: f64) -> Self {
        self.with(FaultKind::RuleAbort, pattern, rate, 0)
    }

    /// Flip a random bit of registered cells matching `pattern` with
    /// probability `rate` per cycle boundary.
    #[must_use]
    pub fn bit_flip(self, pattern: impl Into<String>, rate: f64) -> Self {
        self.with(FaultKind::BitFlip, pattern, rate, 0)
    }

    /// Drop messages pushed at queues matching `pattern` with probability
    /// `rate` per push.
    #[must_use]
    pub fn msg_drop(self, pattern: impl Into<String>, rate: f64) -> Self {
        self.with(FaultKind::MsgDrop, pattern, rate, 0)
    }

    /// Delay messages pushed at queues matching `pattern` by `extra` cycles
    /// with probability `rate` per push.
    #[must_use]
    pub fn msg_delay(self, pattern: impl Into<String>, rate: f64, extra: u64) -> Self {
        self.with(FaultKind::MsgDelay, pattern, rate, extra)
    }

    /// Duplicate messages pushed at queues matching `pattern` with
    /// probability `rate` per push.
    #[must_use]
    pub fn msg_dup(self, pattern: impl Into<String>, rate: f64) -> Self {
        self.with(FaultKind::MsgDup, pattern, rate, 0)
    }

    /// Number of fault entries in the plan.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// A copy of the plan with entry `idx` removed — the primitive a
    /// failure shrinker uses to minimize a chaos campaign.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn without_entry(&self, idx: usize) -> Self {
        let mut plan = self.clone();
        plan.entries.remove(idx);
        plan
    }

    /// A copy of the plan with the same entries but a different seed — the
    /// timing of every fault changes while the campaign shape stays fixed.
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        let mut plan = self.clone();
        plan.seed = seed;
        plan
    }

    /// The plan as a one-line replayable repro string:
    ///
    /// ```text
    /// seed=42;msg_delay:mem.p2c:0.01:3;guard_stall:c0.*:0.005
    /// ```
    ///
    /// Each entry is `kind:pattern:rate` with a fourth `:param` field for
    /// kinds that carry one (`msg_delay`'s extra latency). Rates print in
    /// Rust's shortest-roundtrip form, so
    /// `FaultPlan::parse(&plan.to_repro_string())` reproduces the plan
    /// bit-for-bit.
    #[must_use]
    pub fn to_repro_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("seed={}", self.seed);
        for e in &self.entries {
            let _ = write!(out, ";{}:{}:{}", e.kind.name(), e.pattern, e.rate);
            if e.kind == FaultKind::MsgDelay {
                let _ = write!(out, ":{}", e.param);
            }
        }
        out
    }

    /// Parses a repro string produced by [`FaultPlan::to_repro_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.trim().split(';');
        let head = parts.next().unwrap_or_default();
        let seed = head
            .strip_prefix("seed=")
            .ok_or_else(|| format!("expected `seed=<n>`, got `{head}`"))?
            .parse::<u64>()
            .map_err(|e| format!("bad seed in `{head}`: {e}"))?;
        let mut plan = FaultPlan::new(seed);
        for entry in parts {
            if entry.is_empty() {
                continue;
            }
            let fields: Vec<&str> = entry.split(':').collect();
            if fields.len() < 3 {
                return Err(format!("entry `{entry}`: expected kind:pattern:rate"));
            }
            let kind = FaultKind::from_name(fields[0])
                .ok_or_else(|| format!("unknown fault kind `{}`", fields[0]))?;
            let rate = fields[2]
                .parse::<f64>()
                .map_err(|e| format!("entry `{entry}`: bad rate: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("entry `{entry}`: rate must be in [0, 1]"));
            }
            let param = match fields.get(3) {
                Some(p) => p
                    .parse::<u64>()
                    .map_err(|e| format!("entry `{entry}`: bad param: {e}"))?,
                None => 0,
            };
            plan = plan.with(kind, fields[1], rate, param);
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_repro_string())
    }
}

/// The scheduler-facing outcome of a per-rule fault query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFault {
    /// Do not run the rule body this cycle; account it as a guard stall.
    ForceStall,
    /// Run the body, then abort instead of committing.
    Abort,
}

/// The queue-facing outcome of a per-push fault query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Do not deliver the message.
    Drop,
    /// Deliver the message with this many extra cycles of latency.
    Delay(u64),
    /// Deliver the message twice.
    Dup,
}

struct FlipSite {
    name: String,
    apply: Box<dyn Fn(u32)>,
}

struct EngineInner {
    plan: FaultPlan,
    log: RefCell<Vec<FaultRecord>>,
    flips: RefCell<Vec<FlipSite>>,
}

/// A shared handle to a running fault campaign. Cloning is cheap (`Rc`);
/// every clone sees the same log and registrations.
#[derive(Clone)]
pub struct FaultEngine {
    inner: Rc<EngineInner>,
}

impl fmt::Debug for FaultEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultEngine")
            .field("seed", &self.inner.plan.seed)
            .field("entries", &self.inner.plan.entries.len())
            .field("faults_injected", &self.inner.log.borrow().len())
            .finish()
    }
}

/// FNV-1a over the site name: a stable, platform-independent site id.
fn site_hash(site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn pattern_matches(pattern: &str, site: &str) -> bool {
    if pattern == "*" {
        return true;
    }
    if let Some(prefix) = pattern.strip_suffix('*') {
        return site.starts_with(prefix);
    }
    pattern == site
}

impl FaultEngine {
    /// Builds an engine executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultEngine {
            inner: Rc::new(EngineInner {
                plan,
                log: RefCell::new(Vec::new()),
                flips: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The plan this engine executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }

    /// The stateless per-(entry, site, cycle) decision. Returns the hash
    /// word and entry parameter on a hit so callers can derive secondary
    /// choices (bit index, delay amount).
    fn decide(&self, kind: FaultKind, site: &str, cycle: u64) -> Option<(u64, u64)> {
        for (i, e) in self.inner.plan.entries.iter().enumerate() {
            if e.kind != kind || !pattern_matches(&e.pattern, site) {
                continue;
            }
            let h = mix(&[
                self.inner.plan.seed,
                kind.tag(),
                i as u64,
                site_hash(site),
                cycle,
            ]);
            let p = (h >> 11) as f64 / (1u64 << 53) as f64;
            if p < e.rate {
                return Some((h, e.param));
            }
        }
        None
    }

    fn record(&self, cycle: u64, kind: FaultKind, site: &str, detail: u64) {
        self.inner.log.borrow_mut().push(FaultRecord {
            cycle,
            kind,
            site: site.to_string(),
            detail,
        });
    }

    /// Scheduler hook: does a fault hit rule `rule` this cycle?
    ///
    /// Guard stalls take precedence over transient aborts when both match.
    #[must_use]
    pub fn rule_fault(&self, rule: &str, cycle: u64) -> Option<RuleFault> {
        if self.inner.plan.is_empty() {
            return None;
        }
        if self.decide(FaultKind::GuardStall, rule, cycle).is_some() {
            self.record(cycle, FaultKind::GuardStall, rule, 0);
            return Some(RuleFault::ForceStall);
        }
        if self.decide(FaultKind::RuleAbort, rule, cycle).is_some() {
            self.record(cycle, FaultKind::RuleAbort, rule, 0);
            return Some(RuleFault::Abort);
        }
        None
    }

    /// Interconnect hook: does a fault hit a message pushed at `site` now?
    #[must_use]
    pub fn link_fault(&self, site: &str, cycle: u64) -> Option<LinkFault> {
        if self.inner.plan.is_empty() {
            return None;
        }
        if self.decide(FaultKind::MsgDrop, site, cycle).is_some() {
            self.record(cycle, FaultKind::MsgDrop, site, 0);
            return Some(LinkFault::Drop);
        }
        if let Some((_, extra)) = self.decide(FaultKind::MsgDelay, site, cycle) {
            self.record(cycle, FaultKind::MsgDelay, site, extra);
            return Some(LinkFault::Delay(extra));
        }
        if self.decide(FaultKind::MsgDup, site, cycle).is_some() {
            self.record(cycle, FaultKind::MsgDup, site, 0);
            return Some(LinkFault::Dup);
        }
        None
    }

    /// Registers an arbitrary single-bit flip target. `apply` receives the
    /// bit index (0..64) and must XOR that bit into the cell; it is invoked
    /// at cycle boundaries, outside any rule, so writes apply immediately.
    fn register_flip(&self, name: impl Into<String>, apply: impl Fn(u32) + 'static) {
        self.inner.flips.borrow_mut().push(FlipSite {
            name: name.into(),
            apply: Box::new(apply),
        });
    }

    /// Registers an `Ehr<u64>` as a bit-flip target.
    pub fn register_ehr_u64(&self, name: impl Into<String>, cell: &Ehr<u64>) {
        let cell = cell.clone();
        self.register_flip(name, move |bit| {
            let v = cell.read();
            cell.write(v ^ (1u64 << bit));
        });
    }

    /// Scheduler hook: applies any due bit flips for cycle `cycle`. Must be
    /// called outside a rule (the scheduler calls it right after
    /// `end_cycle`, so the flip lands before the next cycle's rules read).
    pub fn apply_cycle_faults(&self, cycle: u64) {
        if self.inner.plan.is_empty() {
            return;
        }
        let flips = self.inner.flips.borrow();
        for site in flips.iter() {
            if let Some((h, _)) = self.decide(FaultKind::BitFlip, &site.name, cycle) {
                // An independent hash so the bit index is not correlated
                // with the trigger decision.
                let bit = (mix(&[h, 0xb17]) % 64) as u32;
                (site.apply)(bit);
                self.record(cycle, FaultKind::BitFlip, &site.name, u64::from(bit));
            }
        }
    }

    /// A copy of the fault log so far, in injection order.
    #[must_use]
    pub fn log(&self) -> Vec<FaultRecord> {
        self.inner.log.borrow().clone()
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.inner.log.borrow().len()
    }

    /// Injected-fault counts aggregated per site, sorted by site name —
    /// the per-site breakdown a stats report surfaces next to the totals.
    #[must_use]
    pub fn site_counts(&self) -> Vec<(String, u64)> {
        let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for r in self.inner.log.borrow().iter() {
            *counts.entry(r.site.clone()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;

    #[test]
    fn empty_plan_never_fires() {
        let e = FaultEngine::new(FaultPlan::new(99));
        for c in 0..1000 {
            assert!(e.rule_fault("anything", c).is_none());
            assert!(e.link_fault("any.queue", c).is_none());
        }
        assert_eq!(e.fault_count(), 0);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let mk = |seed| FaultEngine::new(FaultPlan::new(seed).guard_stall("*", 0.3));
        let a = mk(1);
        let b = mk(1);
        let c = mk(2);
        let hits = |e: &FaultEngine| -> Vec<u64> {
            (0..500)
                .filter(|&cy| e.rule_fault("r", cy).is_some())
                .collect()
        };
        let (ha, hb, hc) = (hits(&a), hits(&b), hits(&c));
        assert_eq!(ha, hb, "same seed, same schedule");
        assert_ne!(ha, hc, "different seed, different schedule");
        assert!(!ha.is_empty(), "rate 0.3 over 500 cycles must hit");
        // And the logs themselves are identical.
        assert_eq!(a.log(), b.log());
    }

    #[test]
    fn decision_is_call_order_independent() {
        let plan = || FaultPlan::new(7).guard_stall("x", 0.5).msg_drop("q", 0.5);
        let a = FaultEngine::new(plan());
        let b = FaultEngine::new(plan());
        // a queries x then q; b queries q then x. Decisions must agree.
        let ax: Vec<bool> = (0..100).map(|c| a.rule_fault("x", c).is_some()).collect();
        let aq: Vec<bool> = (0..100).map(|c| a.link_fault("q", c).is_some()).collect();
        let bq: Vec<bool> = (0..100).map(|c| b.link_fault("q", c).is_some()).collect();
        let bx: Vec<bool> = (0..100).map(|c| b.rule_fault("x", c).is_some()).collect();
        assert_eq!(ax, bx);
        assert_eq!(aq, bq);
    }

    #[test]
    fn patterns_select_sites() {
        let e = FaultEngine::new(FaultPlan::new(3).guard_stall("c0.*", 1.0));
        assert_eq!(e.rule_fault("c0.commit", 5), Some(RuleFault::ForceStall));
        assert_eq!(e.rule_fault("c1.commit", 5), None);
        let e = FaultEngine::new(FaultPlan::new(3).rule_abort("exact", 1.0));
        assert_eq!(e.rule_fault("exact", 0), Some(RuleFault::Abort));
        assert_eq!(e.rule_fault("exactly", 0), None);
    }

    #[test]
    fn rate_extremes() {
        let never = FaultEngine::new(FaultPlan::new(1).msg_drop("*", 0.0));
        let always = FaultEngine::new(FaultPlan::new(1).msg_drop("*", 1.0));
        for c in 0..200 {
            assert!(never.link_fault("q", c).is_none());
            assert_eq!(always.link_fault("q", c), Some(LinkFault::Drop));
        }
    }

    #[test]
    fn bit_flips_hit_registered_cells() {
        let clk = Clock::new();
        let cell = Ehr::new(&clk, 0u64);
        let e = FaultEngine::new(FaultPlan::new(11).bit_flip("pc", 1.0));
        e.register_ehr_u64("pc", &cell);
        e.apply_cycle_faults(0);
        let v = cell.read();
        assert_eq!(v.count_ones(), 1, "exactly one bit flipped");
        let rec = &e.log()[0];
        assert_eq!(rec.kind, FaultKind::BitFlip);
        assert_eq!(rec.site, "pc");
        assert_eq!(1u64 << rec.detail, v, "log names the flipped bit");
    }

    #[test]
    fn delay_carries_the_extra_latency() {
        let e = FaultEngine::new(FaultPlan::new(5).msg_delay("bus", 1.0, 9));
        assert_eq!(e.link_fault("bus", 3), Some(LinkFault::Delay(9)));
        assert_eq!(e.log()[0].detail, 9);
    }

    #[test]
    fn repro_string_roundtrips() {
        let plan = FaultPlan::new(42)
            .msg_delay("mem.p2c", 0.01, 3)
            .guard_stall("c0.*", 0.005)
            .msg_dup("mem.c2p_req", 0.25);
        let line = plan.to_repro_string();
        assert_eq!(
            line,
            "seed=42;msg_delay:mem.p2c:0.01:3;guard_stall:c0.*:0.005;msg_dup:mem.c2p_req:0.25"
        );
        let back = FaultPlan::parse(&line).unwrap();
        assert_eq!(back.to_repro_string(), line);
        // The reparsed plan drives identical fault decisions.
        let a = FaultEngine::new(plan);
        let b = FaultEngine::new(back);
        for c in 0..300 {
            assert_eq!(a.link_fault("mem.p2c", c), b.link_fault("mem.p2c", c));
            assert_eq!(a.rule_fault("c0.deqSt", c), b.rule_fault("c0.deqSt", c));
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(FaultPlan::parse("no-seed").is_err());
        assert!(FaultPlan::parse("seed=1;bogus_kind:x:0.5").is_err());
        assert!(FaultPlan::parse("seed=1;msg_drop:x").is_err());
        assert!(FaultPlan::parse("seed=1;msg_drop:x:1.5").is_err());
        let empty = FaultPlan::parse("seed=7").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.seed(), 7);
    }

    #[test]
    fn without_entry_shrinks_the_plan() {
        let plan = FaultPlan::new(1).msg_drop("a", 0.1).msg_dup("b", 0.2);
        assert_eq!(plan.entry_count(), 2);
        let shrunk = plan.without_entry(0);
        assert_eq!(shrunk.to_repro_string(), "seed=1;msg_dup:b:0.2");
    }

    #[test]
    fn site_counts_aggregate_the_log() {
        let e = FaultEngine::new(FaultPlan::new(1).msg_drop("*", 1.0));
        for c in 0..3 {
            let _ = e.link_fault("q1", c);
        }
        let _ = e.link_fault("q0", 9);
        assert_eq!(
            e.site_counts(),
            vec![("q0".to_string(), 1), ("q1".to_string(), 3)]
        );
    }
}
