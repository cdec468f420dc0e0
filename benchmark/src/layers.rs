//! What the kernel's profiler says about a pass: host self time by
//! rule-name group and the exact evaluation counts.

/// Rule-name groups of the SoC (`crates/ooo/src/soc.rs` registers the
/// rules; a name no group claims lands in `Other`, which is counted in the
/// total but reported nowhere, so a new rule cannot silently inflate a
/// share).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Front,
    Rename,
    Issue,
    Exec,
    Lsq,
    Commit,
    Substrate,
    Other,
}

const GROUPS: usize = 8;

/// The group of rule `name` (`substrate`, or `c<core>.<rule><index>`).
pub fn group_of(name: &str) -> Group {
    let rule = name.split_once('.').map_or(name, |(_, r)| r);
    match rule.trim_end_matches(|c: char| c.is_ascii_digit()) {
        "substrate" => Group::Substrate,
        "fetch" | "fetchResp" | "decode" => Group::Front,
        "rename" => Group::Rename,
        "issueAlu" | "issueMd" | "issueMem" => Group::Issue,
        "aluExec" | "mdExec" | "aluWb" | "mdWb" | "addrCalc" => Group::Exec,
        "updateLsq" | "issueLd" | "deqLd" | "deqSt" | "sbIssue" | "respLd" | "respSt"
        | "forward" | "cacheEvict" => Group::Lsq,
        "commit" => Group::Commit,
        _ => Group::Other,
    }
}

/// Profiler totals of one or more simulations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleTotals {
    body_ns: [u64; GROUPS],
    pub evals: u64,
    pub skipped: u64,
    pub fired: u64,
}

impl RuleTotals {
    /// Reads the per-rule rows of `SocSim::profile_json()`.
    pub fn from_profile_json(json: &str) -> Self {
        let mut t = RuleTotals::default();
        // Rows are `{"name":"…","fired":…,…,"evals":…,"skipped":…,"body_ns":…}`
        // and precede the critical-path section, which repeats rule names
        // as bare strings.
        let rules = json.split("\"critical_paths\"").next().unwrap_or(json);
        for row in rules.split("{\"name\":\"").skip(1) {
            let name = row.split('"').next().unwrap_or("");
            let field = |key: &str| -> u64 {
                row.split_once(&format!("\"{key}\":"))
                    .and_then(|(_, rest)| {
                        let end = rest.find(|c: char| !c.is_ascii_digit())?;
                        rest[..end].parse().ok()
                    })
                    .unwrap_or(0)
            };
            t.body_ns[group_of(name) as usize] += field("body_ns");
            t.evals += field("evals");
            t.skipped += field("skipped");
            t.fired += field("fired");
        }
        t
    }

    pub fn add(&mut self, other: &RuleTotals) {
        for (a, b) in self.body_ns.iter_mut().zip(other.body_ns) {
            *a += b;
        }
        self.evals += other.evals;
        self.skipped += other.skipped;
        self.fired += other.fired;
    }

    /// Host nanoseconds inside rule bodies, all groups.
    pub fn body_ns(&self) -> u64 {
        self.body_ns.iter().sum()
    }

    /// `group`'s share of the profiled rule self time.
    pub fn share(&self, group: Group) -> f64 {
        ratio(self.body_ns[group as usize], self.body_ns())
    }

    /// Asleep evaluations ÷ all scheduled evaluations.
    pub fn skip_ratio(&self) -> f64 {
        ratio(self.skipped, self.evals + self.skipped)
    }

    /// Fired ÷ evaluated.
    pub fn fire_ratio(&self) -> f64 {
        ratio(self.fired, self.evals)
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_soc_rule_has_a_group() {
        use riscy_ooo::config::{mem_riscyoo_b, CoreConfig};
        use riscy_workloads::spec::{hmmer, Scale};
        let w = hmmer(Scale::Test);
        let mut sim = riscy_ooo::soc::SocSim::new(
            CoreConfig::riscyoo_t_plus(),
            mem_riscyoo_b(),
            1,
            &w.program,
        );
        sim.enable_profiling();
        for _ in 0..2_000 {
            sim.cycle();
        }
        let json = sim.profile_json();
        let names: Vec<&str> = json
            .split("\"critical_paths\"")
            .next()
            .unwrap()
            .split("{\"name\":\"")
            .skip(1)
            .map(|row| row.split('"').next().unwrap())
            .collect();
        assert!(names.len() > 25, "{names:?}");
        for n in &names {
            assert_ne!(group_of(n), Group::Other, "rule {n} has no group");
        }
        let t = RuleTotals::from_profile_json(&json);
        assert!(t.evals > 0 && t.fired > 0 && t.body_ns() > 0);
        let shares: f64 = [
            Group::Front,
            Group::Rename,
            Group::Issue,
            Group::Exec,
            Group::Lsq,
            Group::Commit,
            Group::Substrate,
        ]
        .map(|g| t.share(g))
        .iter()
        .sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rows_parse_from_a_canned_profile() {
        let json = "{\"sim\":{\"rules\":[\
            {\"name\":\"substrate\",\"fired\":10,\"guard_stalls\":0,\"cm_stalls\":0,\"evals\":10,\"skipped\":0,\"body_ns\":300,\"fired_ns\":1},\
            {\"name\":\"c0.rename1\",\"fired\":4,\"guard_stalls\":2,\"cm_stalls\":0,\"evals\":6,\"skipped\":4,\"body_ns\":100,\"fired_ns\":1}],\
            \"critical_paths\":[{\"rules\":[\"c0.rename1\"]}]}}";
        let t = RuleTotals::from_profile_json(json);
        assert_eq!((t.evals, t.skipped, t.fired, t.body_ns()), (16, 4, 14, 400));
        assert_eq!(t.share(Group::Substrate), 0.75);
        assert_eq!(t.share(Group::Rename), 0.25);
        assert_eq!(t.skip_ratio(), 0.2);
        assert_eq!(t.fire_ratio(), 14.0 / 16.0);
    }
}
