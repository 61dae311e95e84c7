//! The solve memo: every clean fixpoint result, keyed on everything it
//! depends on, so a later solve of the same system replays it instead of
//! seeding, weakening and checking again.
//!
//! Weakening keeps the greatest inductive subset of its seed, and that
//! subset is unique whatever order candidates are dropped in and whatever
//! the validity cache holds.  Without an `Unknown` verdict, a solve's
//! result — verdict, solution and blamed tags — is therefore a function of
//! its [`SolveKey`]: the flattened clauses, the κ sorts, the solve context,
//! the qualifier templates and the SMT configuration.  Results touched by
//! an `Unknown` (a budget cut, an undecided query) are budget-relative and
//! never stored.
//!
//! Keys hold [`ExprId`]s, which mean the same expression only until a
//! generation flush, so the process-global memo is cleared together with
//! the hash-consing arena (`flux::flush_generation`).  Nothing else
//! bounds it: a replay interns nothing and inserts nothing, so re-serving
//! old programs grows neither the arena nor the memo.  Re-verifying an old
//! program under a budget no earlier solve used stores a new entry per
//! function without growing the arena, so such entries wait for a flush
//! that new programs trigger.

use crate::cache::FnCtxId;
use crate::constraint::{Constraint, Guard, Head, Tag};
use crate::kvar::{KVarApp, KVarStore, KVid};
use crate::qualifier::Qualifier;
use crate::solve::{FixConfig, FixResult};
use flux_logic::{lock_recover, Expr, ExprId, Name, Sort, SortCtx};
use flux_smt::SmtConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A clean solve result per key.  Lookups compare keys in full.
pub(crate) type SolveMemo = HashMap<SolveKey, FixResult>;

/// Everything a clean solve result depends on.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct SolveKey {
    /// The flattened clauses, in order.
    clauses: Box<[ClauseKey]>,
    /// Each κ's argument sorts, in declaration order (the formals follow
    /// from the κ's id).
    kvar_sorts: Box<[Box<[Sort]>]>,
    /// The solve context: its function declarations and its binders.
    fns: FnCtxId,
    ctx: Box<[(Name, Sort)]>,
    qualifiers: QualifiersId,
    /// The SMT configuration with the per-solve deadline cleared: budgets,
    /// limits and the audit tier all decide what a solve computes.
    smt: SmtConfig,
}

/// One flattened clause, its expressions interned.
#[derive(PartialEq, Eq, Hash)]
struct ClauseKey {
    binders: Box<[(Name, Sort)]>,
    guards: Box<[Atom]>,
    head: Atom,
    /// The head's tag; `None` for a κ head.
    tag: Option<Tag>,
}

/// A guard or head: a concrete predicate or a κ application.  Every clause
/// under a guard copies it, so the arguments are shared, not cloned.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Atom {
    Pred(ExprId),
    KVar(KVid, Arc<[ExprId]>),
}

impl Atom {
    fn pred(p: &Expr) -> Atom {
        Atom::Pred(ExprId::intern(p))
    }

    fn kvar(app: &KVarApp) -> Atom {
        Atom::KVar(app.kvid, app.args.iter().map(ExprId::intern).collect())
    }

    fn guard(guard: &Guard) -> Atom {
        match guard {
            Guard::Pred(p) => Atom::pred(p),
            Guard::KVar(app) => Atom::kvar(app),
        }
    }
}

impl SolveKey {
    /// The key of solving `constraint` under `kvars` and `ctx` (whose
    /// function declarations intern to `fns`) with `config`.
    pub(crate) fn new(
        constraint: &Constraint,
        kvars: &KVarStore,
        ctx: &SortCtx,
        fns: FnCtxId,
        config: &FixConfig,
    ) -> SolveKey {
        // Each guard is interned once for all the clauses under it, not
        // once per clause: building the key is most of what a replay costs.
        let clauses: Vec<ClauseKey> =
            constraint.flatten_with(Atom::guard, |binders, guards, head| {
                let (head, tag) = match head {
                    Head::Pred(p, tag) => (Atom::pred(p), Some(*tag)),
                    Head::KVar(app) => (Atom::kvar(app), None),
                };
                ClauseKey {
                    binders: binders.into(),
                    guards: guards.into(),
                    head,
                    tag,
                }
            });
        let mut smt = config.smt;
        smt.budget.deadline = None;
        SolveKey {
            clauses: clauses.into(),
            kvar_sorts: kvars
                .iter()
                .map(|decl| decl.sorts.as_slice().into())
                .collect(),
            fns,
            ctx: ctx.iter().collect(),
            qualifiers: intern_qualifiers(&config.qualifiers),
            smt,
        }
    }

    /// Number of flattened clauses.
    pub(crate) fn clauses(&self) -> usize {
        self.clauses.len()
    }
}

/// Interned identifier of a qualifier template list.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct QualifiersId(u32);

/// Interns a qualifier template list: equal lists (templates and order)
/// get equal ids.  Templates hold no [`ExprId`], so the table survives a
/// generation flush.
fn intern_qualifiers(qualifiers: &[Qualifier]) -> QualifiersId {
    static TABLE: OnceLock<Mutex<HashMap<Vec<Qualifier>, u32>>> = OnceLock::new();
    let mut table = lock_recover(TABLE.get_or_init(|| Mutex::new(HashMap::new())));
    if let Some(&id) = table.get(qualifiers) {
        return QualifiersId(id);
    }
    let next = table.len() as u32;
    table.insert(qualifiers.to_vec(), next);
    QualifiersId(next)
}

/// The process-global solve memo, shared by every
/// [`crate::FixpointSolver`] with `global_cache` enabled.
pub(crate) fn global_memo() -> &'static Mutex<SolveMemo> {
    static MEMO: OnceLock<Mutex<SolveMemo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(SolveMemo::new()))
}

/// Number of results in the process-global solve memo.
pub fn solve_memo_len() -> usize {
    lock_recover(global_memo()).len()
}

/// Drops every result of the process-global solve memo, returning how many
/// there were.  A generation flush must call it before the hash-consing
/// arena goes: its keys and solutions hold [`ExprId`]s.
pub fn clear_solve_memo() -> usize {
    std::mem::take(&mut *lock_recover(global_memo())).len()
}
