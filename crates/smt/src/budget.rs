//! Resource budgets: wall-clock deadlines and step caps for every hot loop
//! in the solving stack.
//!
//! A [`ResourceBudget`] rides inside [`crate::SmtConfig`], and every SAT
//! core, simplex tableau and quantifier elimination is built from it, so one
//! value threads from the fixpoint solver down to the innermost
//! decision/pivot loops and is the only place a solver limit lives.
//! Exhaustion never panics and never flips a verdict: every governed loop
//! degrades to its existing `Unknown` result (`SatResult::Unknown`,
//! `LiaResult::Unknown`, [`crate::Validity::Unknown`]), which the layers
//! above already treat as "not proved".
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

/// Step and wall-clock limits for one solve.  A `None` step cap means its
/// dimension's built-in cap (the associated constants), or no cap for SAT
/// decisions and weakening iterations; `Some(n)` is the cap.  The default
/// sets every field to `None`, except that
/// [`SmtConfig::default`](crate::SmtConfig) reads `FLUX_DEADLINE_MS` into
/// `timeout`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ResourceBudget {
    /// Relative wall-clock limit per top-level solve; converted to an
    /// absolute [`ResourceBudget::deadline`] by [`ResourceBudget::stamp`].
    pub timeout: Option<Duration>,
    /// Absolute wall-clock deadline; set by [`ResourceBudget::stamp`] (or
    /// directly by a caller that owns the clock).
    pub deadline: Option<Instant>,
    /// Cap on SAT branching decisions per SAT-solver invocation.
    pub sat_decisions: Option<u64>,
    /// Cap on SAT conflicts per SAT-solver invocation
    /// ([`ResourceBudget::SAT_CONFLICTS`] when `None`).
    pub sat_conflicts: Option<u64>,
    /// Cap on simplex pivots per rational-feasibility repair
    /// ([`ResourceBudget::PIVOTS`] when `None`).
    pub pivots: Option<u64>,
    /// Cap on branch-and-bound nodes per integer-feasibility check
    /// ([`ResourceBudget::BRANCH_NODES`] when `None`).
    pub branch_nodes: Option<u64>,
    /// Cap on instances per quantifier per instantiation round
    /// ([`ResourceBudget::QUANT_INSTANCES`] when `None`).
    pub quant_instances: Option<u64>,
    /// Cap on fixpoint weakening iterations per solve.  The only iteration
    /// bound: weakening terminates on its own (every changing iteration
    /// drops a candidate from a finite set), and a solve cut short by this
    /// cap reports `Unknown`, never a verdict.
    pub weaken_iterations: Option<u64>,
}

impl ResourceBudget {
    /// Built-in cap on SAT conflicts per search.
    pub const SAT_CONFLICTS: u64 = 200_000;
    /// Built-in cap on simplex pivots per rational-feasibility repair.
    pub const PIVOTS: u64 = 10_000;
    /// Built-in cap on branch-and-bound nodes per integer-feasibility check.
    pub const BRANCH_NODES: u64 = 200;
    /// Built-in cap on instances per quantifier per instantiation round.
    pub const QUANT_INSTANCES: u64 = 600;

    /// The unlimited budget: no deadline, and only the built-in step caps.
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

    /// A budget with every *step* cap set to `steps`, but never above a
    /// built-in cap (no wall-clock limit); what the `table1 --budget N` flag
    /// and a `fluxd` request's `steps` install.
    pub fn uniform_steps(steps: u64) -> ResourceBudget {
        ResourceBudget {
            sat_decisions: Some(steps),
            sat_conflicts: Some(steps.min(ResourceBudget::SAT_CONFLICTS)),
            pivots: Some(steps.min(ResourceBudget::PIVOTS)),
            branch_nodes: Some(steps.min(ResourceBudget::BRANCH_NODES)),
            quant_instances: Some(steps.min(ResourceBudget::QUANT_INSTANCES)),
            weaken_iterations: Some(steps),
            ..ResourceBudget::UNLIMITED
        }
    }

    /// The SAT conflict cap in force.
    pub fn sat_conflict_cap(&self) -> u64 {
        self.sat_conflicts.unwrap_or(ResourceBudget::SAT_CONFLICTS)
    }

    /// The simplex pivot cap in force.
    pub fn pivot_cap(&self) -> u64 {
        self.pivots.unwrap_or(ResourceBudget::PIVOTS)
    }

    /// The branch-and-bound node cap in force.
    pub fn branch_node_cap(&self) -> u64 {
        self.branch_nodes.unwrap_or(ResourceBudget::BRANCH_NODES)
    }

    /// The per-quantifier instance cap in force.
    pub fn quant_instance_cap(&self) -> u64 {
        self.quant_instances
            .unwrap_or(ResourceBudget::QUANT_INSTANCES)
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
        assert_eq!(budget, ResourceBudget::UNLIMITED);
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
    }

    /// The effective caps: `None` resolves to the built-in cap, and
    /// `uniform_steps(n)` never raises a cap above it.
    #[test]
    fn none_is_the_built_in_cap_and_uniform_steps_stays_under_it() {
        let caps = |b: ResourceBudget| {
            [
                b.sat_conflict_cap(),
                b.pivot_cap(),
                b.branch_node_cap(),
                b.quant_instance_cap(),
            ]
        };
        assert_eq!(caps(ResourceBudget::UNLIMITED), [200_000, 10_000, 200, 600]);
        for n in [0, 1, 150, 599, 5_000, 10_000, 10_000_000] {
            let budget = ResourceBudget::uniform_steps(n);
            assert_eq!(
                caps(budget),
                [n.min(200_000), n.min(10_000), n.min(200), n.min(600)],
                "uniform_steps({n})"
            );
            assert_eq!(budget.sat_decisions, Some(n));
            assert_eq!(budget.weaken_iterations, Some(n));
        }
    }
}
