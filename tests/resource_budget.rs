//! Resource-governor properties (PR 8): generous budgets are bit-identical
//! to the unlimited defaults, and tight budgets degrade *soundly* — a run
//! cut short by a deadline or step cap reports `Unknown`, never a false
//! "verified" and never a fabricated counterexample.

use flux::{Mode, VerifyConfig};
use flux_fixpoint::{Constraint, FixConfig, FixResult, FixpointSolver, Guard, KVarApp, KVarStore};
use flux_logic::{Expr, ExprId, Name, Sort, SortCtx};
use flux_smt::{ResourceBudget, Session, SmtConfig, Validity};
use std::time::Duration;

/// A counting-loop system that is safe under the default qualifiers and
/// needs more than one weakening iteration to converge.  `salt` keeps the
/// variable names (and so the validity-cache keys) distinct per test, so
/// one test's cached verdicts cannot mask another's budget behaviour.
fn safe_loop(salt: &str) -> (Constraint, KVarStore) {
    let mut kvars = KVarStore::new();
    let k = kvars.fresh(vec![Sort::Int, Sort::Int]);
    let i = Name::intern(&format!("rb_{salt}_i"));
    let n = Name::intern(&format!("rb_{salt}_n"));
    let c = Constraint::forall(
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
                        Constraint::conj(vec![
                            Constraint::kvar(KVarApp::new(
                                k,
                                vec![Expr::var(i) + Expr::int(1), Expr::var(n)],
                            )),
                            Constraint::pred(Expr::le(Expr::int(0), Expr::var(i)), 0),
                        ]),
                    ),
                ),
            ),
        ]),
    );
    (c, kvars)
}

/// A system whose concrete head genuinely fails: `x ≥ 5` does not give
/// `x > 100`, whatever κ converges to.
fn unsafe_system(salt: &str) -> (Constraint, KVarStore) {
    let mut kvars = KVarStore::new();
    let k = kvars.fresh(vec![Sort::Int]);
    let x = Name::intern(&format!("rb_{salt}_x"));
    let c = Constraint::forall(
        x,
        Sort::Int,
        Expr::ge(Expr::var(x), Expr::int(5)),
        Constraint::conj(vec![
            Constraint::kvar(KVarApp::new(k, vec![Expr::var(x)])),
            Constraint::implies(
                Guard::KVar(KVarApp::new(k, vec![Expr::var(x)])),
                Constraint::pred(Expr::gt(Expr::var(x), Expr::int(100)), 7),
            ),
        ]),
    );
    (c, kvars)
}

fn config_with(budget: ResourceBudget) -> FixConfig {
    FixConfig {
        smt: flux_smt::SmtConfig {
            budget,
            ..flux_smt::SmtConfig::default()
        },
        ..FixConfig::default()
    }
}

/// A budget generous enough to never bind gives exactly the same result —
/// same verdict, same inferred solution, same query trajectory — as the
/// unlimited default.  This is the bit-identity half of the governor's
/// contract: paying for the checks must not change what is computed.
#[test]
fn generous_budget_is_bit_identical_to_unlimited() {
    let (c, kvars) = safe_loop("gen");
    let ctx = SortCtx::new();
    let mut plain = FixpointSolver::with_defaults();
    let reference = plain.solve(&c, &kvars, &ctx);

    let mut generous = ResourceBudget::uniform_steps(10_000_000);
    generous.timeout = Some(Duration::from_secs(3600));
    let mut governed = FixpointSolver::new(config_with(generous));
    let result = governed.solve(&c, &kvars, &ctx);

    assert_eq!(result, reference, "a non-binding budget changed the result");
    assert!(reference.is_safe(), "the reference system must verify");
    assert_eq!(governed.stats.smt_queries, plain.stats.smt_queries);
    assert_eq!(governed.stats.unknown_drops, 0);
    assert_eq!(governed.smt_stats().budget_exhausted, 0);
}

/// An already-elapsed deadline must terminate promptly with `Unknown` —
/// not hang, not report `Safe`, and not invent a counterexample.
#[test]
fn zero_deadline_degrades_to_unknown() {
    let (c, kvars) = safe_loop("zdl");
    let mut budget = ResourceBudget::UNLIMITED;
    budget.timeout = Some(Duration::ZERO);
    let mut solver = FixpointSolver::new(config_with(budget));
    let result = solver.solve(&c, &kvars, &SortCtx::new());
    let FixResult::Unknown { reasons, .. } = result else {
        panic!("zero deadline must be inconclusive, got {result:?}");
    };
    assert!(!reasons.is_empty(), "an Unknown result must say why");
}

/// Sweeping step budgets from starvation to plenty never flips polarity:
/// the safe system is `Safe` or `Unknown` at every budget (never `Unsafe`),
/// the unsafe system is `Unsafe` or `Unknown` (never `Safe`), and the
/// tightest budget actually binds (the safe system cannot converge in one
/// weakening iteration, so it must degrade rather than claim a proof).
#[test]
fn tight_step_budgets_never_flip_polarity() {
    let ctx = SortCtx::new();
    for steps in [1u64, 2, 4, 8, 16, 64, 256, 4096] {
        let budget = ResourceBudget::uniform_steps(steps);

        let (c, kvars) = safe_loop("tight");
        let mut solver = FixpointSolver::new(config_with(budget));
        let result = solver.solve(&c, &kvars, &ctx);
        assert!(
            !matches!(result, FixResult::Unsafe { .. }),
            "budget {steps}: a safe system degraded to a counterexample: {result:?}"
        );
        if steps == 1 {
            assert!(
                matches!(result, FixResult::Unknown { .. }),
                "budget 1: one weakening iteration cannot prove this system, \
                 got {result:?}"
            );
        }

        let (c, kvars) = unsafe_system("tight");
        let mut solver = FixpointSolver::new(config_with(budget));
        let result = solver.solve(&c, &kvars, &ctx);
        assert!(
            !matches!(result, FixResult::Safe(_)),
            "budget {steps}: an unsafe system was reported verified: {result:?}"
        );
    }
}

/// The end-to-end pipeline honours the budget soundly: a starved run of a
/// benchmark that verifies under defaults produces no spurious errors — it
/// either still verifies (everything answered from cache) or reports the
/// starved functions as unknown, which the outcome counts but never calls
/// safe.
#[test]
fn starved_pipeline_reports_unknown_not_errors() {
    let b = flux::benchmark("dotprod").expect("dotprod benchmark exists");
    let mut config = VerifyConfig::default();
    config.check.fixpoint.smt.budget = ResourceBudget::uniform_steps(2);
    let outcome = flux::verify_source(b.flux_src, Mode::Flux, &config)
        .expect("frontend must still succeed under budgets");
    assert!(
        outcome.errors.is_empty(),
        "a starved run of a safe benchmark fabricated errors: {:?}",
        outcome.errors
    );
    if !outcome.safe {
        assert!(
            outcome.stats.unknowns > 0,
            "an inconclusive run must report which functions degraded"
        );
    }
}

/// `unknowns` counts inconclusive *functions* in both verifiers: a starved
/// baseline run of a one-function benchmark reports one unknown function,
/// however many of its obligations went undecided.
#[test]
fn baseline_unknowns_count_inconclusive_functions() {
    let b = flux::benchmark("bsearch").expect("bsearch benchmark exists");
    let mut config = VerifyConfig::default();
    config.wp.smt.budget = ResourceBudget::uniform_steps(1);
    let outcome = flux::verify_source(b.baseline_src, Mode::Baseline, &config)
        .expect("frontend must still succeed under budgets");
    assert!(
        outcome.errors.is_empty(),
        "a starved run of a safe benchmark fabricated errors: {:?}",
        outcome.errors
    );
    assert_eq!(outcome.functions, 1);
    assert_eq!(
        outcome.stats.unknowns, outcome.functions,
        "bsearch's one function is inconclusive, so exactly one unknown"
    );
}

/// A session that retracts a hypothesis conjunct rebuilds its SAT core, and
/// the rebuilt core must search under the session's own budget.  With no
/// SAT decision allowed, every check that reaches the core answers
/// `Unknown`: before the update, after it, and from a fresh session over
/// the surviving hypothesis.
#[test]
fn a_retracting_update_keeps_the_session_budget() {
    let x = Name::intern("rb_retract_x");
    let y = Name::intern("rb_retract_y");
    let mut ctx = SortCtx::new();
    ctx.push(x, Sort::Int);
    ctx.push(y, Sort::Int);
    let x_nonzero = ExprId::intern(&Expr::or(
        Expr::ge(Expr::var(x), Expr::int(1)),
        Expr::le(Expr::var(x), Expr::int(-1)),
    ));
    let y_nonneg = ExprId::intern(&Expr::ge(Expr::var(y), Expr::int(0)));
    let goal = ExprId::intern(&Expr::ne(Expr::var(x), Expr::int(0)));
    let config = SmtConfig {
        budget: ResourceBudget {
            sat_decisions: Some(0),
            ..ResourceBudget::UNLIMITED
        },
        ..SmtConfig::default()
    };

    let mut session = Session::assume_ids(config, &ctx, &[x_nonzero, y_nonneg]);
    assert_eq!(session.check_id(goal), Validity::Unknown);
    assert!(
        session.update_hypotheses(&[x_nonzero]),
        "retracting `y >= 0` keeps the session incremental"
    );
    assert_eq!(session.stats().conjunct_retractions, 1);

    let mut fresh = Session::assume_ids(config, &ctx, &[x_nonzero]);
    assert_eq!(fresh.check_id(goal), Validity::Unknown);
    assert_eq!(
        session.check_id(goal),
        Validity::Unknown,
        "the retraction rebuild dropped the session's budget"
    );
}
