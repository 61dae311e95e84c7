//! The constraint well-formedness lint and solution re-validation for the
//! fixpoint layer.
//!
//! Under [`flux_logic::AuditTier::Lint`] (or above) every flattened Horn
//! clause is sort- and scope-checked before the weakening loop ever sees it
//! — concrete guards and heads must be boolean in the clause's binder
//! scope, and every κ-application argument must match the declared sort of
//! its formal.  The initial candidate assignment is checked the same way
//! over each κ's formals.  This makes the PR 2 bug class (a κ head with a
//! free variable, which silently made the weakening loop delete every
//! candidate) a hard error at constraint-generation time, blamed on the
//! offending hash-consed subterm.
//!
//! The companion full-tier check, [`FixpointSolver`]'s independent solution
//! re-validation, lives in `solve.rs` next to the loop it audits.
//!
//! [`FixpointSolver`]: crate::FixpointSolver

use crate::constraint::{Clause, Guard, Head};
use crate::kvar::{KVarApp, KVarStore, KVid};
use crate::solve::Solution;
use flux_logic::{lint, ExprId, LintError, Name, Sort, SortCtx, SortError};

/// Lints one κ application in `scope`: arity against the declaration, then
/// each actual argument against its formal's declared sort.  Returns the
/// number of obligations checked.
fn lint_kvar_app(
    what: &str,
    app: &KVarApp,
    kvars: &KVarStore,
    scope: &SortCtx,
) -> Result<usize, LintError> {
    let decl = kvars.get(app.kvid);
    if app.args.len() != decl.sorts.len() {
        // Arity errors have no single offending subterm; blame the whole
        // application through its first argument (or `true` if nullary).
        let blamed = app
            .args
            .first()
            .map(ExprId::intern)
            .unwrap_or_else(|| ExprId::intern(&flux_logic::Expr::tt()));
        return Err(LintError {
            what: what.to_owned(),
            expr: blamed,
            offender: blamed,
            error: SortError::Arity {
                func: Name::intern(&app.kvid.to_string()),
                expected: decl.sorts.len(),
                found: app.args.len(),
            },
            scope: scope.iter().collect(),
        });
    }
    for (i, (arg, &sort)) in app.args.iter().zip(&decl.sorts).enumerate() {
        lint(
            || format!("argument {i} of {} in {what}", app.kvid),
            ExprId::intern(arg),
            sort,
            scope,
        )?;
    }
    Ok(app.args.len())
}

/// Lints every flattened clause: each concrete guard and head must be a
/// boolean predicate in the clause's binder scope, and every κ application
/// (guard or head) must apply well-sorted arguments of the declared arity.
/// Returns the number of obligations checked; the error names the innermost
/// offending [`ExprId`] and the binder scope it was checked under.
pub fn lint_clauses(
    clauses: &[Clause],
    kvars: &KVarStore,
    ctx: &SortCtx,
) -> Result<usize, LintError> {
    let mut checks = 0usize;
    for (ci, clause) in clauses.iter().enumerate() {
        let mut scope = ctx.clone();
        for (name, sort) in &clause.binders {
            scope.push(*name, *sort);
        }
        for (gi, guard) in clause.guards.iter().enumerate() {
            match guard {
                Guard::Pred(p) => {
                    lint(
                        || format!("guard {gi} of clause #{ci}"),
                        ExprId::intern(p),
                        Sort::Bool,
                        &scope,
                    )?;
                    checks += 1;
                }
                Guard::KVar(app) => {
                    checks +=
                        lint_kvar_app(&format!("guard {gi} of clause #{ci}"), app, kvars, &scope)?;
                }
            }
        }
        match &clause.head {
            Head::Pred(p, tag) => {
                lint(
                    || format!("head of clause #{ci} (tag {tag})"),
                    ExprId::intern(p),
                    Sort::Bool,
                    &scope,
                )?;
                checks += 1;
            }
            Head::KVar(app) => {
                checks += lint_kvar_app(&format!("head of clause #{ci}"), app, kvars, &scope)?;
            }
        }
    }
    Ok(checks)
}

/// Lints a candidate assignment: the conjunction of each κ it assigns must
/// be a boolean predicate over that κ's formal parameters (plus whatever
/// `ctx` declares globally — uninterpreted functions in particular).
/// Weakening only ever deletes conjuncts, so linting the initial assignment
/// covers every later state of the loop.  Returns the number of κ bodies
/// checked.
pub fn lint_solution(
    solution: &Solution,
    kvars: &KVarStore,
    ctx: &SortCtx,
) -> Result<usize, LintError> {
    let mut checks = 0;
    for kvid in solution.kvids() {
        let decl = kvars.get(kvid);
        let mut scope = ctx.clone();
        for (i, &sort) in decl.sorts.iter().enumerate() {
            scope.push(decl.formal(i), sort);
        }
        lint(
            || format!("candidate body of {}", decl.id),
            solution.of_id(decl.id),
            Sort::Bool,
            &scope,
        )?;
        checks += 1;
    }
    Ok(checks)
}

/// Convenience for test assertions: the κ id a lint error mentions, if any.
#[allow(dead_code)]
pub(crate) fn mentions_kvid(err: &LintError, kvid: KVid) -> bool {
    err.what.contains(&kvid.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use flux_logic::Expr;

    fn int_kvar(kvars: &mut KVarStore) -> KVid {
        kvars.fresh(vec![Sort::Int])
    }

    #[test]
    fn well_formed_system_passes() {
        let mut kvars = KVarStore::new();
        let k = int_kvar(&mut kvars);
        let x = Name::intern("ax");
        let constraint = Constraint::forall(
            x,
            Sort::Int,
            Expr::ge(Expr::var(x), Expr::int(0)),
            Constraint::conj(vec![
                Constraint::kvar(KVarApp::new(k, vec![Expr::var(x)])),
                Constraint::pred(Expr::ge(Expr::var(x), Expr::int(0)), 7),
            ]),
        );
        let clauses = constraint.flatten();
        let checks = lint_clauses(&clauses, &kvars, &SortCtx::new()).unwrap();
        assert!(checks >= 3, "guards + κ head + concrete head, got {checks}");
    }

    /// The PR 2 bug class, planted deliberately: a κ head whose argument
    /// mentions a variable that is not bound by the clause.  The lint must
    /// reject it, blaming the free variable's ExprId and reporting the
    /// binder scope it searched.
    #[test]
    fn planted_free_variable_in_kvar_head_is_rejected() {
        let mut kvars = KVarStore::new();
        let k = int_kvar(&mut kvars);
        let x = Name::intern("bx");
        let free = Name::intern("escaped_binder");
        let constraint = Constraint::forall(
            x,
            Sort::Int,
            Expr::tt(),
            Constraint::kvar(KVarApp::new(k, vec![Expr::var(x) + Expr::var(free)])),
        );
        let err = lint_clauses(&constraint.flatten(), &kvars, &SortCtx::new()).unwrap_err();
        assert_eq!(err.error, SortError::UnboundVar(free));
        assert_eq!(err.offender, ExprId::intern(&Expr::var(free)));
        assert_eq!(err.scope, vec![(x, Sort::Int)]);
        assert!(mentions_kvid(&err, k), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("escaped_binder"), "{msg}");
        assert!(msg.contains("bx: int"), "{msg}");
    }

    /// A concrete head that is well-scoped but integer-sorted — not a
    /// predicate — must also be rejected.
    #[test]
    fn planted_wrong_sort_obligation_is_rejected() {
        let x = Name::intern("cx");
        let constraint = Constraint::forall(
            x,
            Sort::Int,
            Expr::tt(),
            Constraint::Head(Head::Pred(Expr::var(x) + Expr::int(1), 3)),
        );
        let err =
            lint_clauses(&constraint.flatten(), &KVarStore::new(), &SortCtx::new()).unwrap_err();
        assert!(
            matches!(
                err.error,
                SortError::Mismatch {
                    expected: Sort::Bool,
                    found: Sort::Int,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.what.contains("tag 3"), "{err}");
    }

    /// κ applied with the wrong sort or the wrong arity is rejected.
    #[test]
    fn planted_bad_kvar_application_is_rejected() {
        let mut kvars = KVarStore::new();
        let k = int_kvar(&mut kvars);
        let b = Name::intern("dflag");
        // Boolean argument where an integer is declared.
        let wrong_sort = Constraint::forall(
            b,
            Sort::Bool,
            Expr::tt(),
            Constraint::kvar(KVarApp::new(k, vec![Expr::var(b)])),
        );
        let err = lint_clauses(&wrong_sort.flatten(), &kvars, &SortCtx::new()).unwrap_err();
        assert!(
            matches!(
                err.error,
                SortError::Mismatch {
                    expected: Sort::Int,
                    ..
                }
            ),
            "{err}"
        );
        // Two arguments where one is declared.
        let wrong_arity = Constraint::kvar(KVarApp::new(k, vec![Expr::int(0), Expr::int(1)]));
        let err = lint_clauses(&wrong_arity.flatten(), &kvars, &SortCtx::new()).unwrap_err();
        assert!(
            matches!(
                err.error,
                SortError::Arity {
                    expected: 1,
                    found: 2,
                    ..
                }
            ),
            "{err}"
        );
    }
}
