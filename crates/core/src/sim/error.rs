//! What a run reports when it cannot go on: the structured [`SimError`] and
//! the watchdog's wait graph.

use std::error::Error;
use std::fmt;

use crate::clock::CmViolation;

/// Why a rule most recently failed to fire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitCause {
    /// A guard stalled, with the designer-supplied reason string.
    Guard(&'static str),
    /// A conflict-matrix edge with an already-fired rule.
    Cm(CmViolation),
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitCause::Guard(reason) => write!(f, "guard \"{reason}\""),
            WaitCause::Cm(v) => write!(f, "cm edge [{v}]"),
        }
    }
}

/// One node of the deadlock wait graph: a rule and what it waits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleWait {
    /// The stalled rule's name.
    pub rule: String,
    /// The guard or CM edge it last stalled on.
    pub cause: WaitCause,
}

impl fmt::Display for RuleWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.rule, self.cause)
    }
}

/// Diagnostic produced by the scheduler watchdog: every rule that is
/// stalled, and the guard/CM edge each waits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// How many consecutive cycles fired no (non-exempt) rule.
    pub stalled_for: u64,
    /// The wait graph, in schedule order.
    pub waits: Vec<RuleWait>,
}

impl DeadlockReport {
    /// Does the report name `rule` as stalled?
    #[must_use]
    pub fn names_rule(&self, rule: &str) -> bool {
        self.waits.iter().any(|w| w.rule == rule)
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no rule fired for {} consecutive cycles; wait graph:",
            self.stalled_for
        )?;
        for w in &self.waits {
            writeln!(f, "  {w}")?;
        }
        Ok(())
    }
}

/// Structured failure of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The watchdog saw no rule fire for too many consecutive cycles.
    Deadlock {
        /// Total cycles executed when the watchdog tripped.
        cycle: u64,
        /// The wait graph at that point.
        report: DeadlockReport,
    },
    /// `run_until`'s predicate never held within the cycle budget (but
    /// rules were still firing — livelock or simply not enough cycles).
    CycleLimit {
        /// The exhausted budget.
        max_cycles: u64,
    },
    /// Two rules wrote the same `Reg` in one cycle without declaring the
    /// conflict; the second writer was aborted instead of panicking.
    RegConflict {
        /// Cycle of the offense.
        cycle: u64,
        /// The rule whose commit was refused.
        rule: String,
        /// The register both rules wrote.
        reg: &'static str,
    },
    /// Saving or restoring a checkpoint failed (see
    /// [`crate::snap::SnapError`]); malformed snapshot bytes surface here
    /// instead of panicking.
    Snapshot(crate::snap::SnapError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, report } => {
                write!(f, "scheduler deadlock at cycle {cycle}: {report}")
            }
            SimError::CycleLimit { max_cycles } => {
                write!(
                    f,
                    "cycle budget of {max_cycles} exhausted before completion"
                )
            }
            SimError::RegConflict { cycle, rule, reg } => write!(
                f,
                "two rules wrote Reg `{reg}` in the same cycle (undeclared conflict); \
                 rule `{rule}` aborted at cycle {cycle}"
            ),
            SimError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl Error for SimError {}

impl From<crate::snap::SnapError> for SimError {
    fn from(e: crate::snap::SnapError) -> Self {
        SimError::Snapshot(e)
    }
}
