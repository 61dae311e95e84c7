//! A from-scratch SMT solver for the Flux reproduction.
//!
//! The original Flux implementation discharges its verification conditions
//! with Z3 (via liquid-fixpoint).  This workspace has no external solver
//! available, so this crate provides the substrate: a lazy DPLL(T) solver
//! combining
//!
//! * a CDCL SAT core ([`sat`]),
//! * a linear integer arithmetic theory solver (general simplex with
//!   branch-and-bound, [`simplex`]),
//! * Tseitin CNF conversion over theory atoms ([`cnf`]),
//! * preprocessing passes (integer division elimination, `ite` removal,
//!   Ackermann reduction of uninterpreted functions, comparison
//!   normalisation; [`preprocess`]), and
//! * bounded quantifier instantiation ([`quant`]) used only by the
//!   program-logic baseline.
//!
//! The public entry points are [`Solver::check_sat`],
//! [`Solver::check_valid_imp`] and, for callers that check many goals
//! against one set of hypotheses, the incremental [`Session`] API
//! ([`Solver::assume`] / [`Session::check`]), which preprocesses and
//! CNF-converts the shared hypothesis context once and persists learned
//! theory lemmas across goals.
//!
//! # Example
//!
//! ```
//! use flux_logic::{Expr, Name, Sort, SortCtx};
//! use flux_smt::Solver;
//!
//! let mut ctx = SortCtx::new();
//! ctx.push(Name::intern("n"), Sort::Int);
//! let n = Expr::var(Name::intern("n"));
//!
//! let mut solver = Solver::with_defaults();
//! let hyps = vec![Expr::gt(n.clone(), Expr::int(0))];
//! let goal = Expr::ge(n - Expr::int(1), Expr::int(0));
//! assert!(solver.check_valid_imp(&ctx, &hyps, &goal).is_valid());
//! ```

#![warn(missing_docs)]

pub mod atoms;
pub mod audit;
pub mod budget;
pub mod cnf;
pub mod linear;
pub mod preprocess;
pub mod quant;
pub mod rational;
pub mod sat;
mod session;
pub mod simplex;
mod solver;
pub mod testing;

pub use budget::ResourceBudget;
pub use quant::QuantConfig;
pub use sat::SatConfig;
pub use session::{
    cnf_atoms, cnf_cache_evictions, cnf_cache_len, cnf_shard_contentions, reset_cnf_cache,
    set_cnf_cache_capacity, Session,
};
pub use simplex::LiaConfig;
pub use solver::{MaxTheoryRounds, Model, SatOutcome, SmtConfig, SmtStats, Solver, Validity};

#[cfg(test)]
mod randtests {
    //! Randomised differential tests against the brute-force evaluator.
    //!
    //! The build environment has no access to crates.io, so instead of
    //! proptest these use a small deterministic xorshift generator: the same
    //! formulas are exercised on every run, which keeps failures
    //! reproducible by case index.

    use super::*;
    use crate::testing::Rng;
    use flux_logic::{BinOp, Expr, Name, Sort, SortCtx};

    /// A small quantifier-free formula over integer variables `a`, `b` and
    /// boolean variable `p`, mirroring the old proptest strategy.
    fn gen_expr(rng: &mut Rng, depth: usize) -> Expr {
        fn gen_term(rng: &mut Rng) -> Expr {
            match rng.below(3) {
                0 => Expr::var(Name::intern("a")),
                1 => Expr::var(Name::intern("b")),
                _ => Expr::int(rng.below(7) as i128 - 3),
            }
        }
        if depth == 0 || rng.below(3) == 0 {
            // Leaf: a comparison atom or the boolean variable.
            if rng.below(6) == 0 {
                return Expr::var(Name::intern("p"));
            }
            let l = gen_term(rng);
            let r = gen_term(rng);
            return match rng.below(5) {
                0 => Expr::lt(l, r),
                1 => Expr::le(l, r),
                2 => Expr::eq(l, r),
                3 => Expr::ge(l + Expr::int(1), r),
                _ => Expr::ne(l, r - Expr::int(1)),
            };
        }
        let l = gen_expr(rng, depth - 1);
        match rng.below(4) {
            0 => Expr::and(l, gen_expr(rng, depth - 1)),
            1 => Expr::or(l, gen_expr(rng, depth - 1)),
            2 => Expr::imp(l, gen_expr(rng, depth - 1)),
            _ => Expr::not(l),
        }
    }

    fn ctx() -> SortCtx {
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("a"), Sort::Int);
        ctx.push(Name::intern("b"), Sort::Int);
        ctx.push(Name::intern("p"), Sort::Bool);
        ctx
    }

    /// The solver and the brute-force evaluator agree on satisfiability
    /// whenever brute force over a small box finds a model, and the solver
    /// never reports UNSAT for a formula with a model in the box.
    #[test]
    fn solver_agrees_with_brute_force() {
        let mut rng = Rng::new(0x5EED_0001);
        for case in 0..96 {
            let e = gen_expr(&mut rng, 3);
            let ctx = ctx();
            let domain: Vec<i128> = (-4..=4).collect();
            let brute = testing::brute_force_sat(&ctx, &e, &domain);
            let mut solver = Solver::with_defaults();
            match solver.check_sat(&ctx, &e) {
                SatOutcome::Unsat => {
                    // Definitely no model anywhere, so certainly none in the box.
                    assert_ne!(
                        brute,
                        Some(true),
                        "case {case}: unsat but box model exists: {e}"
                    );
                }
                SatOutcome::Sat(model) => {
                    // Check the model against the original formula directly.
                    let mut env = testing::Env::new();
                    for (name, value) in &model.ints {
                        env.insert(*name, testing::Value::Int(*value));
                    }
                    for (name, value) in &model.bools {
                        env.insert(*name, testing::Value::Bool(*value));
                    }
                    // Unmentioned variables default to 0 / false.
                    for (name, sort) in ctx.iter() {
                        env.entry(name).or_insert(match sort {
                            Sort::Bool => testing::Value::Bool(false),
                            _ => testing::Value::Int(0),
                        });
                    }
                    if let Some(testing::Value::Bool(holds)) = testing::eval(&e, &env, &[]) {
                        assert!(holds, "case {case}: model does not satisfy formula {e}");
                    }
                }
                SatOutcome::Unknown => {}
            }
        }
    }

    /// Validity of `h ⟹ g` agrees with brute-force over the box: if the
    /// solver says valid, no point in the box may violate it.
    #[test]
    fn validity_is_sound_on_box() {
        let mut rng = Rng::new(0x5EED_0002);
        for case in 0..96 {
            let h = gen_expr(&mut rng, 3);
            let g = gen_expr(&mut rng, 3);
            let ctx = ctx();
            let domain: Vec<i128> = (-3..=3).collect();
            let mut solver = Solver::with_defaults();
            if solver
                .check_valid_imp(&ctx, std::slice::from_ref(&h), &g)
                .is_valid()
            {
                let negated = Expr::and(h, Expr::binop(BinOp::And, Expr::not(g), Expr::tt()));
                assert_ne!(
                    testing::brute_force_sat(&ctx, &negated, &domain),
                    Some(true),
                    "case {case}: solver claimed validity but brute force found a counterexample"
                );
            }
        }
    }

    /// The incremental session path and the one-shot path agree on every
    /// randomly generated implication (the tentpole equivalence property).
    #[test]
    fn session_agrees_with_one_shot_on_random_implications() {
        let mut rng = Rng::new(0x5EED_0003);
        for case in 0..96 {
            let h = gen_expr(&mut rng, 3);
            let g1 = gen_expr(&mut rng, 3);
            let g2 = gen_expr(&mut rng, 3);
            let ctx = ctx();
            let mut one_shot = Solver::with_defaults();
            let hyps = std::slice::from_ref(&h);
            let mut session = Session::assume(SmtConfig::default(), &ctx, hyps);
            for goal in [&g1, &g2] {
                let reference = one_shot.check_valid_imp(&ctx, hyps, goal);
                let incremental = session.check(goal);
                assert_eq!(
                    incremental.is_valid(),
                    reference.is_valid(),
                    "case {case}: session and one-shot disagree on {h} => {goal}"
                );
            }
        }
    }

    /// Running the full audit tier — certified conflicts, validated models,
    /// Tseitin spot-checks, SAT invariant sweeps — is verdict-identical to
    /// running unaudited, on both the session and one-shot paths, and the
    /// certificate counter actually moves.  (The tier is set through the
    /// config, not the process-global `FLUX_AUDIT`, so the test is
    /// hermetic.)
    #[test]
    fn full_audit_tier_is_verdict_identical() {
        let audited_config = SmtConfig {
            audit: flux_logic::AuditTier::Full,
            ..SmtConfig::default()
        };
        let plain_config = SmtConfig {
            audit: flux_logic::AuditTier::Off,
            ..SmtConfig::default()
        };
        let mut rng = Rng::new(0x5EED_0004);
        let mut certs = 0usize;
        for case in 0..96 {
            let h = gen_expr(&mut rng, 3);
            let g = gen_expr(&mut rng, 3);
            let ctx = ctx();
            let mut plain = Solver::new(plain_config);
            let mut audited = Solver::new(audited_config);
            let reference = plain.check_valid_imp(&ctx, std::slice::from_ref(&h), &g);
            let checked = audited.check_valid_imp(&ctx, std::slice::from_ref(&h), &g);
            assert_eq!(
                checked.is_valid(),
                reference.is_valid(),
                "case {case}: audited and plain solvers disagree on {h} => {g}"
            );
            assert_eq!(plain.stats.certs_checked, 0);
            certs += audited.stats.certs_checked;
        }
        assert!(certs > 0, "the full tier never checked a certificate");
    }
}
