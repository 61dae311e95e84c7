//! Refinement logic for the Flux reproduction.
//!
//! This crate defines the *refinement logic* used throughout the workspace:
//! sorts, logical expressions (terms and predicates), substitution, free
//! variables, well-sortedness checking, light-weight simplification and
//! pretty printing.
//!
//! The logic mirrors the refinement language of λ_LR from the paper
//! "Flux: Liquid Types for Rust": variables, integer and boolean constants,
//! equality, boolean connectives and linear integer arithmetic.  On top of
//! that we add a few constructs required by the rest of the system:
//!
//! * uninterpreted function applications ([`Expr::App`]), used by the
//!   program-logic baseline to model container contents (`select`, `len`),
//! * `if-then-else` terms ([`Expr::Ite`]),
//! * universal and existential quantifiers ([`Expr::Forall`] /
//!   [`Expr::Exists`]), used only by the baseline verifier (Flux itself
//!   emits quantifier-free verification conditions, which is the point of
//!   the paper).
//!
//! # Example
//!
//! ```
//! use flux_logic::{Expr, Name, Sort, SortCtx};
//!
//! let n = Name::intern("n");
//! // n >= 0 && n + 1 > n
//! let pred = Expr::and(
//!     Expr::ge(Expr::var(n), Expr::int(0)),
//!     Expr::gt(Expr::var(n) + Expr::int(1), Expr::var(n)),
//! );
//! let mut ctx = SortCtx::new();
//! ctx.push(n, Sort::Int);
//! assert_eq!(pred.sort_of(&ctx).unwrap(), Sort::Bool);
//! ```

#![warn(missing_docs)]

mod audit;
mod eval;
mod expr;
mod fmt;
mod hcons;
mod intern;
mod simplify;
mod sort;
mod subst;
mod util;

pub use audit::{audit_tier, lint, AuditTier, LintError};
pub use eval::{evaluate, Value};
pub use expr::{BinOp, Constant, Expr, UnOp};
pub use hcons::{
    hcons_contentions, hcons_memo_evictions, interned_nodes, read_generation, reset_hcons,
    set_hcons_memo_capacity, try_write_generation, write_generation, ExprId, GenerationGuard,
};
pub use intern::{Name, NameSupply};
pub use simplify::simplify;
pub use sort::{Sort, SortCtx, SortError};
pub use subst::Subst;
pub use util::{env_parse, lock_counted, lock_recover, panic_message, thread_tally, ThreadTally};

/// A convenience alias: predicates are just boolean-sorted expressions.
pub type Pred = Expr;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_compiles() {
        let n = Name::intern("n");
        let pred = Expr::and(
            Expr::ge(Expr::var(n), Expr::int(0)),
            Expr::gt(Expr::var(n) + Expr::int(1), Expr::var(n)),
        );
        let mut ctx = SortCtx::new();
        ctx.push(n, Sort::Int);
        assert_eq!(pred.sort_of(&ctx).unwrap(), Sort::Bool);
    }
}
