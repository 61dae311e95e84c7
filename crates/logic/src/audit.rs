//! Audit tiers and the constraint well-formedness lint.
//!
//! The single worst bug in this repo's history was a scoping violation: κ
//! head clauses with free variables made the weakening loop delete every
//! candidate (the PR 2 post-mortem in DESIGN.md).  Nothing checked for it —
//! constraints flowed from the checkers straight into the solver, and the
//! solver happily treated an unbound name as an unconstrained integer.
//!
//! This module is the root of the audit layer that closes that gap.  It
//! defines the process-wide audit tier (selected by the `FLUX_AUDIT`
//! environment variable, overridable per-config so tests stay hermetic) and
//! the lint primitive itself: every obligation the verifiers emit can be
//! passed through [`lint`], which sort-checks and scope-checks the hash-
//! consed DAG via [`ExprId::sort_in`] and, on failure, reports the innermost
//! offending subterm by id together with the binder scope it was checked
//! under.  Downstream crates (`flux-wp`, `flux-fixpoint`) call it at their
//! constraint-generation boundaries; the SMT theory certificates and the
//! fixpoint re-validation pass (the other two audit tiers' machinery) live
//! next to the code they check, in `flux-smt` and `flux-fixpoint`.

use crate::{ExprId, Name, Sort, SortCtx, SortError};
use std::fmt;
use std::sync::OnceLock;

/// How much self-checking the verification pipeline performs.
///
/// Tiers are cumulative: `Full` implies everything `Lint` does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AuditTier {
    /// No auditing.  The production default; adds zero work to any path.
    #[default]
    Off,
    /// Well-formedness lint: every emitted obligation and every κ
    /// head/body is sort- and scope-checked at constraint-generation time.
    Lint,
    /// `Lint` plus theory certificates (Farkas-checked infeasible cores,
    /// model evaluation, SAT invariant sweeps) and independent re-validation
    /// of converged fixpoint solutions with a cache-free one-shot solver.
    Full,
}

impl AuditTier {
    /// True if constraint lints should run at this tier.
    pub fn lints(self) -> bool {
        self >= AuditTier::Lint
    }

    /// True if theory certificates and solution re-validation should run.
    pub fn certifies(self) -> bool {
        self >= AuditTier::Full
    }
}

impl fmt::Display for AuditTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditTier::Off => write!(f, "off"),
            AuditTier::Lint => write!(f, "lint"),
            AuditTier::Full => write!(f, "full"),
        }
    }
}

/// The audit tier selected by the `FLUX_AUDIT` environment variable, read
/// once per process (like `FLUX_DEADLINE_MS`; unlike `FLUX_THREADS`, which
/// is re-read by every default config): unset, empty, `0` or `off` mean
/// [`AuditTier::Off`]; `lint` means
/// [`AuditTier::Lint`]; any other value (canonically `full` or `1`) means
/// [`AuditTier::Full`] — an unrecognized setting buys more checking, never
/// silently less.  Configs default from this; tests override the config
/// field instead of the (process-global) environment.
pub fn audit_tier() -> AuditTier {
    static TIER: OnceLock<AuditTier> = OnceLock::new();
    *TIER.get_or_init(|| match std::env::var("FLUX_AUDIT") {
        Ok(v) if v.is_empty() || v == "0" || v == "off" => AuditTier::Off,
        Ok(v) if v == "lint" => AuditTier::Lint,
        Ok(_) => AuditTier::Full,
        Err(_) => AuditTier::Off,
    })
}

/// A well-formedness violation caught by the audit lint.
///
/// Identifies the checked obligation, the innermost offending subterm, the
/// sort error itself, and the binder scope the obligation was checked under
/// — everything needed to localize a PR 2-class bug to the emission site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintError {
    /// What was being checked (e.g. `"head of clause `vec_push#post`"`).
    pub what: String,
    /// The full obligation the lint was invoked on.
    pub expr: ExprId,
    /// The innermost subterm the sort checker blames.
    pub offender: ExprId,
    /// The underlying sort/scope error.
    pub error: SortError,
    /// The binder scope (name, sort) pairs the obligation was checked
    /// under, outermost first.
    pub scope: Vec<(Name, Sort)>,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit lint rejected {}: {} (offending subterm ExprId #{} of ExprId #{}; binder scope [",
            self.what,
            self.error,
            self.offender.index(),
            self.expr.index(),
        )?;
        for (i, (name, sort)) in self.scope.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {sort}")?;
        }
        write!(f, "])")
    }
}

impl std::error::Error for LintError {}

/// Lints one obligation: checks that `expr` has sort `expected` under `ctx`.
///
/// On failure the returned [`LintError`] names the offending [`ExprId`] and
/// carries the binder scope from `ctx`.  `what` describes the obligation for
/// the error message; it is only materialized on failure.
pub fn lint(
    what: impl FnOnce() -> String,
    expr: ExprId,
    expected: Sort,
    ctx: &SortCtx,
) -> Result<(), LintError> {
    let fail = |offender, error| LintError {
        what: what(),
        expr,
        offender,
        error,
        scope: ctx.iter().collect(),
    };
    match expr.sort_in(ctx) {
        Ok(found) if found == expected => Ok(()),
        Ok(found) => Err(fail(
            expr,
            SortError::Mismatch {
                expected,
                found,
                context: "linted obligation".to_owned(),
            },
        )),
        Err((offender, error)) => Err(fail(offender, error)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expr;

    #[test]
    fn tier_ordering_and_predicates() {
        assert!(AuditTier::Off < AuditTier::Lint);
        assert!(AuditTier::Lint < AuditTier::Full);
        assert!(!AuditTier::Off.lints());
        assert!(!AuditTier::Off.certifies());
        assert!(AuditTier::Lint.lints());
        assert!(!AuditTier::Lint.certifies());
        assert!(AuditTier::Full.lints());
        assert!(AuditTier::Full.certifies());
        assert_eq!(AuditTier::default(), AuditTier::Off);
    }

    #[test]
    fn lint_accepts_well_sorted_obligation() {
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("lx"), Sort::Int);
        let ob = ExprId::intern(&Expr::ge(Expr::var(Name::intern("lx")), Expr::int(0)));
        assert_eq!(lint(|| unreachable!(), ob, Sort::Bool, &ctx), Ok(()));
    }

    #[test]
    fn lint_names_offender_and_scope_for_free_variable() {
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("lx"), Sort::Int);
        let free = Name::intern("lint_free_var");
        let bad = Expr::and(
            Expr::ge(Expr::var(Name::intern("lx")), Expr::int(0)),
            Expr::lt(Expr::var(free), Expr::int(3)),
        );
        let err = lint(
            || "planted head".to_owned(),
            ExprId::intern(&bad),
            Sort::Bool,
            &ctx,
        )
        .unwrap_err();
        assert_eq!(err.error, SortError::UnboundVar(free));
        assert_eq!(err.offender, ExprId::intern(&Expr::var(free)));
        assert_eq!(err.scope, vec![(Name::intern("lx"), Sort::Int)]);
        let msg = err.to_string();
        assert!(msg.contains("planted head"), "{msg}");
        assert!(msg.contains("lint_free_var"), "{msg}");
        assert!(msg.contains(&format!("#{}", err.offender.index())), "{msg}");
        assert!(msg.contains("lx: int"), "{msg}");
    }

    #[test]
    fn lint_rejects_wrong_sort_obligation() {
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("lx"), Sort::Int);
        // An integer-sorted "obligation" — well-sorted, but not a predicate.
        let ob = ExprId::intern(&(Expr::var(Name::intern("lx")) + Expr::int(1)));
        let err = lint(|| "planted obligation".to_owned(), ob, Sort::Bool, &ctx).unwrap_err();
        assert_eq!(err.offender, ob);
        assert!(matches!(
            err.error,
            SortError::Mismatch {
                expected: Sort::Bool,
                found: Sort::Int,
                ..
            }
        ));
    }
}
