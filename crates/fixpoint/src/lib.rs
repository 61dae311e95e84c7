//! Horn-constraint generation support and the liquid-inference fixpoint
//! solver used by the Flux reproduction.
//!
//! The type checker (crate `flux-check`) does not decide subtyping locally.
//! Instead it emits a [`Constraint`] tree whose leaves are either concrete
//! obligations or applications of unknown refinement variables κ
//! ([`KVid`]).  This crate solves such systems with the classic liquid-types
//! algorithm (§4.2 of the paper):
//!
//! 1. every κ starts as the conjunction of all well-sorted instantiations of
//!    the [`Qualifier`] templates with at most two parameters,
//! 2. candidates not implied by a clause's hypotheses are removed until a
//!    fixpoint is reached (iterative weakening), one strongly connected
//!    component of the κ dependency graph at a time, upstream first,
//! 3. the remaining concrete obligations are checked; failures are reported
//!    with their [`Tag`]s for precise blame,
//! 4. unless that verdict is Safe, steps 1–3 run again from the instances of
//!    every template, and their verdict is the one reported, and
//! 5. every component that weakened without an `Unknown` verdict, and the
//!    concrete verdicts when none was `Unknown`, are stored in the solve
//!    memo: a later solve installs each stored part instead of seeding,
//!    weakening or checking it ([`FixStats::component_replays`]), and a
//!    solve whose every part is stored replays whole
//!    ([`FixStats::replays`]).
//!
//! # Example
//!
//! Inferring the invariant of a counting loop:
//!
//! ```
//! use flux_fixpoint::{Constraint, FixpointSolver, Guard, KVarApp, KVarStore};
//! use flux_logic::{Expr, Name, Sort, SortCtx};
//!
//! let mut kvars = KVarStore::new();
//! let k = kvars.fresh(vec![Sort::Int, Sort::Int]);
//! let (i, n) = (Name::intern("i"), Name::intern("n"));
//!
//! // ∀n ≥ 0.  κ(0, n)  ∧  ∀i. κ(i, n) ∧ i < n ⟹ κ(i + 1, n)
//! let constraint = Constraint::forall(
//!     n,
//!     Sort::Int,
//!     Expr::ge(Expr::var(n), Expr::int(0)),
//!     Constraint::conj(vec![
//!         Constraint::kvar(KVarApp::new(k, vec![Expr::int(0), Expr::var(n)])),
//!         Constraint::forall(
//!             i,
//!             Sort::Int,
//!             Expr::tt(),
//!             Constraint::implies(
//!                 Guard::KVar(KVarApp::new(k, vec![Expr::var(i), Expr::var(n)])),
//!                 Constraint::implies(
//!                     Guard::Pred(Expr::lt(Expr::var(i), Expr::var(n))),
//!                     Constraint::kvar(KVarApp::new(
//!                         k,
//!                         vec![Expr::var(i) + Expr::int(1), Expr::var(n)],
//!                     )),
//!                 ),
//!             ),
//!         ),
//!     ]),
//! );
//!
//! let mut solver = FixpointSolver::with_defaults();
//! let result = solver.solve(&constraint, &kvars, &SortCtx::new());
//! assert!(result.is_safe());
//! ```

#![warn(missing_docs)]

mod audit;
mod cache;
mod constraint;
mod kvar;
mod memo;
mod qualifier;
mod solve;

pub use audit::{lint_clauses, lint_solution};
pub use cache::{QueryKey, ShardedValidityCache, VALIDITY_SHARDS};
// Cache internals (the global map, epoch/owner stamping, function-context
// interning) are exposed only so the workspace-level concurrency stress
// tests can hammer them directly; they are test plumbing, not API — hidden
// from docs and free to change.
#[doc(hidden)]
pub use cache::{
    global_cache, intern_fn_ctx, next_epoch, next_owner, set_global_cache_capacity,
    validity_shard_contentions, CacheEntry, FnCtxId,
};
pub use constraint::{Clause, Constraint, Guard, Head, Tag};
pub use kvar::{KVarApp, KVarDecl, KVarStore, KVid};
pub use memo::{clear_solve_memo, solve_memo_len};
pub use qualifier::{default_qualifiers, well_sorted, Qualifier};
pub use solve::{
    partition, FixConfig, FixResult, FixStats, FixpointSolver, Solution, UnknownReason,
};

#[cfg(test)]
mod randtests {
    use super::*;
    use flux_logic::{Expr, Name, Sort, SortCtx};

    /// Any solution returned as Safe must actually satisfy every flattened
    /// clause when κ applications are replaced by the solution (checked with
    /// the SMT solver directly, independent of the weakening loop).
    #[test]
    fn safe_solutions_satisfy_all_clauses() {
        let mut kvars = KVarStore::new();
        let k = kvars.fresh(vec![Sort::Int, Sort::Int]);
        let i = Name::intern("pi");
        let n = Name::intern("pn");
        let constraint = Constraint::forall(
            n,
            Sort::Int,
            Expr::gt(Expr::var(n), Expr::int(0)),
            Constraint::conj(vec![
                Constraint::kvar(KVarApp::new(k, vec![Expr::int(0), Expr::var(n)])),
                Constraint::forall(
                    i,
                    Sort::Int,
                    Expr::tt(),
                    Constraint::implies(
                        Guard::KVar(KVarApp::new(k, vec![Expr::var(i), Expr::var(n)])),
                        Constraint::implies(
                            Guard::Pred(Expr::lt(Expr::var(i), Expr::var(n))),
                            Constraint::kvar(KVarApp::new(
                                k,
                                vec![Expr::var(i) + Expr::int(1), Expr::var(n)],
                            )),
                        ),
                    ),
                ),
            ]),
        );
        let mut solver = FixpointSolver::with_defaults();
        let FixResult::Safe(solution) = solver.solve(&constraint, &kvars, &SortCtx::new()) else {
            panic!("expected safe");
        };
        // Independent validation of each clause.
        let mut smt = flux_smt::Solver::with_defaults();
        for clause in constraint.flatten() {
            let mut ctx = SortCtx::new();
            for (name, sort) in &clause.binders {
                ctx.push(*name, *sort);
            }
            let hyps: Vec<Expr> = clause
                .guards
                .iter()
                .map(|g| match g {
                    Guard::Pred(p) => p.clone(),
                    Guard::KVar(app) => solution.apply(app, &kvars),
                })
                .collect();
            let goal = match &clause.head {
                Head::Pred(p, _) => p.clone(),
                Head::KVar(app) => solution.apply(app, &kvars),
            };
            assert!(
                smt.check_valid_imp(&ctx, &hyps, &goal).is_valid(),
                "clause not satisfied by returned solution"
            );
        }
    }

    /// For every entry value and bound in a small grid, a simple counting
    /// loop constraint system must always be reported safe (the solver must
    /// never be flaky on this family).  This enumerates the full grid the
    /// old property-based test sampled from.
    #[test]
    fn counting_loops_with_random_strides_are_safe() {
        for start in 0i128..3 {
            for bound_low in 0i128..4 {
                let mut kvars = KVarStore::new();
                let k = kvars.fresh(vec![Sort::Int, Sort::Int]);
                let i = Name::intern("qi");
                let n = Name::intern("qn");
                let constraint = Constraint::forall(
                    n,
                    Sort::Int,
                    Expr::ge(Expr::var(n), Expr::int(bound_low)),
                    Constraint::conj(vec![
                        Constraint::implies(
                            Guard::Pred(Expr::le(Expr::int(start), Expr::var(n))),
                            Constraint::kvar(KVarApp::new(k, vec![Expr::int(start), Expr::var(n)])),
                        ),
                        Constraint::forall(
                            i,
                            Sort::Int,
                            Expr::tt(),
                            Constraint::implies(
                                Guard::KVar(KVarApp::new(k, vec![Expr::var(i), Expr::var(n)])),
                                Constraint::implies(
                                    Guard::Pred(Expr::lt(Expr::var(i), Expr::var(n))),
                                    Constraint::conj(vec![
                                        Constraint::kvar(KVarApp::new(
                                            k,
                                            vec![Expr::var(i) + Expr::int(1), Expr::var(n)],
                                        )),
                                        Constraint::pred(Expr::lt(Expr::var(i), Expr::var(n)), 0),
                                    ]),
                                ),
                            ),
                        ),
                    ]),
                );
                let mut solver = FixpointSolver::with_defaults();
                assert!(
                    solver.solve(&constraint, &kvars, &SortCtx::new()).is_safe(),
                    "start={start} bound_low={bound_low}"
                );
            }
        }
    }

    /// Solving under the full audit tier — clause/candidate lint up front,
    /// certified SMT theory steps, independent re-validation of the
    /// converged solution, the full-template cross-check of a stage-1 Safe
    /// — yields exactly the same solution and work counters as solving
    /// unaudited, and the audit counters actually move.  (The tier is set
    /// through the config, not the process-global `FLUX_AUDIT`, and both
    /// solvers cache hermetically, so the test is hermetic.)
    #[test]
    fn full_audit_tier_solves_identically() {
        let mut kvars = KVarStore::new();
        // The third argument gives the full template set instances that
        // stage 1 lacks, so the audited solve runs the cross-check.
        let k = kvars.fresh(vec![Sort::Int, Sort::Int, Sort::Int]);
        let i = Name::intern("ri");
        let n = Name::intern("rn");
        let m = Name::intern("rm");
        let body = Constraint::forall(
            n,
            Sort::Int,
            Expr::gt(Expr::var(n), Expr::int(0)),
            Constraint::conj(vec![
                Constraint::kvar(KVarApp::new(
                    k,
                    vec![Expr::int(0), Expr::var(n), Expr::var(m)],
                )),
                Constraint::forall(
                    i,
                    Sort::Int,
                    Expr::tt(),
                    Constraint::implies(
                        Guard::KVar(KVarApp::new(
                            k,
                            vec![Expr::var(i), Expr::var(n), Expr::var(m)],
                        )),
                        Constraint::implies(
                            Guard::Pred(Expr::lt(Expr::var(i), Expr::var(n))),
                            Constraint::conj(vec![
                                Constraint::kvar(KVarApp::new(
                                    k,
                                    vec![Expr::var(i) + Expr::int(1), Expr::var(n), Expr::var(m)],
                                )),
                                Constraint::pred(Expr::le(Expr::int(0), Expr::var(i)), 11),
                            ]),
                        ),
                    ),
                ),
            ]),
        );
        let constraint = Constraint::forall(m, Sort::Int, Expr::tt(), body);
        let audited_config = FixConfig {
            smt: flux_smt::SmtConfig {
                audit: flux_logic::AuditTier::Full,
                ..flux_smt::SmtConfig::default()
            },
            global_cache: false,
            ..FixConfig::default()
        };
        let plain_config = FixConfig {
            smt: flux_smt::SmtConfig {
                audit: flux_logic::AuditTier::Off,
                ..flux_smt::SmtConfig::default()
            },
            global_cache: false,
            ..FixConfig::default()
        };
        let ctx = SortCtx::new();
        let mut audited = FixpointSolver::new(audited_config);
        let mut plain = FixpointSolver::new(plain_config);
        let (FixResult::Safe(a), FixResult::Safe(p)) = (
            audited.solve(&constraint, &kvars, &ctx),
            plain.solve(&constraint, &kvars, &ctx),
        ) else {
            panic!("expected both solves safe");
        };
        assert_eq!(
            a.of(k),
            p.of(k),
            "audit tier changed the inferred invariant"
        );
        assert!(audited.stats.lint_checks > 0, "lint never ran");
        assert_eq!(
            audited.stats.revalidations,
            constraint.flatten().len(),
            "every clause must be independently re-validated"
        );
        assert_eq!(plain.stats.lint_checks, 0);
        assert_eq!(plain.stats.revalidations, 0);
        // Lock contentions are left out: other tests run alongside.
        let work = |s: FixStats| {
            (
                s.initial_candidates,
                s.iterations,
                s.escalations,
                s.smt_queries,
                s.cache_hits,
                s.cache_misses,
                s.sessions,
                s.model_prunes,
            )
        };
        assert_eq!(work(audited.stats), work(plain.stats));
    }
}
