//! The obligation memo: every decided baseline obligation, keyed on exactly
//! what the solver reads, so a later obligation with the same key replays
//! the verdict instead of opening a session and solving it again.
//!
//! The solver reads an obligation's hypotheses and goal, the sorts of their
//! free variables and its configuration.  Quantifier instantiation turns
//! the formula into a ground one that depends only on those, and DPLL(T)
//! then decides it: only an `Unknown` depends on how the search went (round
//! caps, step budgets, the deadline), and an `Unknown` is never stored.  A
//! decided verdict is therefore a function of its [`ObligationKey`].
//! Instantiation is incomplete, so an `Invalid` holds only relative to the
//! quantifier configuration, which is part of the key.
//!
//! Keys hold [`ExprId`]s, which mean the same expression only until a
//! generation flush, so the process-global memo is cleared together with
//! the hash-consing arena (`flux::flush_generation`).  Nothing else bounds
//! it: a hit interns nothing and inserts nothing, so re-serving old
//! programs grows neither the arena nor the memo.  Re-verifying an old
//! program under a budget no earlier request used stores new entries
//! without growing the arena, so they wait for a flush that new programs
//! trigger.

use flux_logic::{lock_recover, Expr, ExprId, Name, Sort, SortCtx};
use flux_smt::SmtConfig;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// A decided verdict per key: `true` for valid, `false` for invalid.
/// Lookups compare keys in full.
type ObligationMemo = HashMap<ObligationKey, bool>;

/// Everything the solver reads when it decides one obligation.
///
/// There is no function-context fingerprint: every baseline query runs
/// under the function declarations of [`SortCtx::new`], so they are the
/// same for every key.  A declaration added to the verifier's context
/// must join the key.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct ObligationKey {
    /// The hypotheses handed to the solver, in order.
    hypotheses: Box<[ExprId]>,
    goal: ExprId,
    /// Every free variable of the hypotheses and the goal with its sort in
    /// the verifier's context, in name order.  The solver reads the
    /// context only by looking up the query's own names.
    sorts: Box<[(Name, Option<Sort>)]>,
    /// The SMT configuration with the deadline cleared: budgets, the
    /// quantifier-instantiation limits and the audit tier.
    smt: SmtConfig,
}

impl ObligationKey {
    /// The key of proving `hypotheses ⟹ goal` under `ctx` with `config`.
    pub(crate) fn new(
        hypotheses: &[Expr],
        goal: &Expr,
        ctx: &SortCtx,
        config: &SmtConfig,
    ) -> ObligationKey {
        let mut names = goal.free_vars();
        for hypothesis in hypotheses {
            names.extend(hypothesis.free_vars());
        }
        let mut smt = *config;
        smt.budget.deadline = None;
        ObligationKey {
            hypotheses: hypotheses.iter().map(ExprId::intern).collect(),
            goal: ExprId::intern(goal),
            sorts: names.into_iter().map(|n| (n, ctx.lookup(n))).collect(),
            smt,
        }
    }

    /// The stored verdict of this obligation, if one was decided.
    pub(crate) fn lookup(&self) -> Option<bool> {
        lock_recover(global_memo()).get(self).copied()
    }

    /// Stores the decided verdict of this obligation.  The lock is not held
    /// while solving, so two racing misses may both insert: they insert the
    /// same verdict.
    pub(crate) fn store(self, valid: bool) {
        lock_recover(global_memo()).insert(self, valid);
    }
}

fn global_memo() -> &'static Mutex<ObligationMemo> {
    static MEMO: OnceLock<Mutex<ObligationMemo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(ObligationMemo::new()))
}

/// Number of verdicts in the process-global obligation memo.
pub fn obligation_memo_len() -> usize {
    lock_recover(global_memo()).len()
}

/// Drops every verdict of the process-global obligation memo, returning how
/// many there were.  A generation flush must call it before the
/// hash-consing arena goes: its keys hold [`ExprId`]s.
pub fn clear_obligation_memo() -> usize {
    std::mem::take(&mut *lock_recover(global_memo())).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same formula under two sorts of one free variable is two
    /// obligations: the solver reads the sort, so the key must too.
    #[test]
    fn keys_differing_only_in_a_free_variable_sort_are_unequal() {
        let x = Name::intern("memo_sort_x");
        let goal = Expr::eq(Expr::Var(x), Expr::Var(x));
        let config = SmtConfig::default();
        let mut int_ctx = SortCtx::new();
        int_ctx.push(x, Sort::Int);
        let mut bool_ctx = SortCtx::new();
        bool_ctx.push(x, Sort::Bool);
        let as_int = ObligationKey::new(&[], &goal, &int_ctx, &config);
        let as_bool = ObligationKey::new(&[], &goal, &bool_ctx, &config);
        assert!(as_int != as_bool);
        assert!(as_int == ObligationKey::new(&[], &goal, &int_ctx, &config));
    }
}
