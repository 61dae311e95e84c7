//! Resource budgets: wall-clock deadlines and step caps for every hot loop
//! in the solving stack.
//!
//! A [`ResourceBudget`] rides inside [`crate::SmtConfig`] (and from there
//! into the SAT and simplex configs), so one value threads from the fixpoint
//! solver down to the innermost decision/pivot loops.  Exhaustion never
//! panics and never flips a verdict: every governed loop degrades to its
//! existing `Unknown` result (`SatResult::Unknown`, `LiaResult::Unknown`,
//! [`crate::Validity::Unknown`]), which the layers above already treat as
//! "not proved".
//!
//! The wall-clock half has two phases: a *relative* `timeout` (what configs
//! and the `FLUX_DEADLINE_MS` environment variable express) and an
//! *absolute* `deadline` stamped once at the top of a solve via
//! [`ResourceBudget::stamp`].  Checks are amortized — hot loops consult the
//! clock every few hundred iterations — so an unlimited budget costs a few
//! branch instructions per check site and changes no query counts.

use flux_logic::env_parse;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Step and wall-clock limits for one solve.  The default is unlimited
/// (every field `None`) except that [`SmtConfig::default`](crate::SmtConfig)
/// reads `FLUX_DEADLINE_MS` into `timeout`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Relative wall-clock limit per top-level solve; converted to an
    /// absolute [`ResourceBudget::deadline`] by [`ResourceBudget::stamp`].
    pub timeout: Option<Duration>,
    /// Absolute wall-clock deadline; set by [`ResourceBudget::stamp`] (or
    /// directly by a caller that owns the clock).
    pub deadline: Option<Instant>,
    /// Cap on SAT branching decisions per SAT-solver invocation.
    pub sat_decisions: Option<u64>,
    /// Cap on SAT conflicts per SAT-solver invocation.
    pub sat_conflicts: Option<u64>,
    /// Cap on simplex pivots per rational-feasibility repair.
    pub pivots: Option<u64>,
    /// Cap on branch-and-bound nodes per integer-feasibility check
    /// (tightens the existing `max_branch_nodes`).
    pub branch_nodes: Option<u64>,
    /// Cap on instances per quantifier (tightens the existing
    /// `max_instances_per_quantifier`).
    pub quant_instances: Option<u64>,
    /// Cap on fixpoint weakening iterations per solve (per κ-dependency
    /// component in parallel mode).  The only iteration bound: weakening
    /// terminates on its own (every changing iteration drops a candidate
    /// from a finite set), and a solve cut short by this cap reports
    /// `Unknown`, never a verdict.
    pub weaken_iterations: Option<u64>,
}

impl ResourceBudget {
    /// The unlimited budget: no deadline, no step caps.
    pub const UNLIMITED: ResourceBudget = ResourceBudget {
        timeout: None,
        deadline: None,
        sat_decisions: None,
        sat_conflicts: None,
        pivots: None,
        branch_nodes: None,
        quant_instances: None,
        weaken_iterations: None,
    };

    /// A budget with every *step* cap set to `steps` (no wall-clock limit);
    /// what the `table1 --budget N` flag installs.
    pub fn uniform_steps(steps: u64) -> ResourceBudget {
        ResourceBudget {
            sat_decisions: Some(steps),
            sat_conflicts: Some(steps),
            pivots: Some(steps),
            branch_nodes: Some(steps),
            quant_instances: Some(steps),
            weaken_iterations: Some(steps),
            ..ResourceBudget::UNLIMITED
        }
    }

    /// True when no limit of any kind is configured.
    pub fn is_unlimited(&self) -> bool {
        *self == ResourceBudget::UNLIMITED
    }

    /// Converts the relative `timeout` into an absolute `deadline`, once:
    /// a no-op when there is no timeout or a deadline is already stamped.
    /// Called at the top of each top-level solve (fixpoint solve entry,
    /// session open, one-shot query) so nested layers all race the same
    /// clock.
    pub fn stamp(&mut self) {
        if self.deadline.is_none() {
            if let Some(timeout) = self.timeout {
                self.deadline = Some(Instant::now() + timeout);
            }
        }
    }

    /// [`ResourceBudget::stamp`] by value.
    pub fn stamped(mut self) -> ResourceBudget {
        self.stamp();
        self
    }

    /// True when a stamped deadline has passed.  Costs nothing when no
    /// deadline is set (the common, unlimited case).
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The process-default solve timeout, read once from `FLUX_DEADLINE_MS`
/// (warn-and-default parsing; `0`, empty or unset mean no deadline).
pub fn default_timeout() -> Option<Duration> {
    static MS: OnceLock<Option<u64>> = OnceLock::new();
    MS.get_or_init(|| {
        let ms = env_parse("FLUX_DEADLINE_MS", 0u64);
        (ms > 0).then_some(ms)
    })
    .map(Duration::from_millis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = ResourceBudget::default();
        assert!(budget.is_unlimited());
        assert!(!budget.deadline_exceeded());
        assert_eq!(
            budget.stamped(),
            budget,
            "stamping without a timeout is a no-op"
        );
    }

    #[test]
    fn stamping_sets_a_deadline_once() {
        let mut budget = ResourceBudget {
            timeout: Some(Duration::from_secs(3600)),
            ..ResourceBudget::UNLIMITED
        };
        budget.stamp();
        let first = budget.deadline.expect("stamp sets the deadline");
        budget.stamp();
        assert_eq!(
            budget.deadline,
            Some(first),
            "re-stamping must not move the deadline"
        );
        assert!(
            !budget.deadline_exceeded(),
            "an hour-long deadline has not passed"
        );
    }

    #[test]
    fn an_expired_deadline_is_detected() {
        let budget = ResourceBudget {
            timeout: Some(Duration::ZERO),
            ..ResourceBudget::UNLIMITED
        }
        .stamped();
        assert!(budget.deadline_exceeded());
    }

    #[test]
    fn uniform_steps_caps_every_step_budget() {
        let budget = ResourceBudget::uniform_steps(7);
        assert_eq!(budget.sat_decisions, Some(7));
        assert_eq!(budget.sat_conflicts, Some(7));
        assert_eq!(budget.pivots, Some(7));
        assert_eq!(budget.branch_nodes, Some(7));
        assert_eq!(budget.quant_instances, Some(7));
        assert_eq!(budget.weaken_iterations, Some(7));
        assert_eq!(budget.timeout, None);
        assert!(!budget.is_unlimited());
    }
}
