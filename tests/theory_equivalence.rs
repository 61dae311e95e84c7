//! Acceptance tests for the incremental theory layer: the persistent
//! simplex under arbitrary assert/push/pop scripts must agree with one-shot
//! [`check_lia`] on feasibility, with every infeasible core independently
//! certified; retained sessions must agree with fresh ones across
//! retract/re-assert scripts.  (The SAT core is checked against brute-force
//! enumeration by `flux_smt::sat`'s unit tests.)

use flux::{verify_source, Mode, VerifyConfig};
use flux_logic::{Expr, ExprId, Name, Sort, SortCtx};
use flux_smt::audit::{certify_infeasible_core, Certificate};
use flux_smt::rational::Rational;
use flux_smt::simplex::{check_lia, model_satisfies, IncrementalSimplex, LiaResult};
use flux_smt::testing::Rng;
use flux_smt::{ResourceBudget, Session, SmtConfig, Validity};

type LinConstraint = flux_smt::linear::LinConstraint;

const VARS: [&str; 4] = ["teq_a", "teq_b", "teq_c", "teq_d"];

fn random_constraint(rng: &mut Rng) -> LinConstraint {
    let mut e = flux_smt::linear::LinExpr::constant(Rational::int(rng.int_in(-4, 4)));
    for v in VARS {
        e.add_term(Name::intern(v), Rational::int(rng.int_in(-3, 3)));
    }
    LinConstraint::le_zero(e)
}

/// Materializes the asserted-phase list as one-shot constraints.
fn materialize(family: &[LinConstraint], asserted: &[(usize, bool)]) -> Vec<LinConstraint> {
    asserted
        .iter()
        .map(|&(i, positive)| {
            if positive {
                family[i].clone()
            } else {
                family[i].negate_integer()
            }
        })
        .collect()
}

/// Certifies an infeasible core independently of the tableau that produced
/// it: a checked Farkas combination, or for branch-and-bound conflicts an
/// integer replay.  Agreeing with [`check_lia`] alone proves little —
/// it runs the same tableau code.
fn assert_certified(core: &[LinConstraint], context: &str) {
    match certify_infeasible_core(core) {
        Ok(Certificate::Farkas(_) | Certificate::IntegerReplay) => {}
        other => panic!("{context}: core {core:?} is not certified infeasible: {other:?}"),
    }
}

/// Random assert/push/pop scripts over one persistent tableau, checked
/// against fresh one-shot solves of the currently asserted set at every
/// step.  Every infeasible core — from a conflicting assert or a check — is
/// certified: the subset it names must itself be infeasible.
#[test]
fn incremental_simplex_scripts_agree_with_one_shot() {
    let cfg = ResourceBudget::UNLIMITED;
    let mut rng = Rng::new(0x1A51_3D0C);
    for case in 0..48 {
        let family: Vec<LinConstraint> = (0..10).map(|_| random_constraint(&mut rng)).collect();
        let mut simplex = IncrementalSimplex::new(cfg);
        let slots: Vec<_> = family.iter().map(|c| simplex.register(c)).collect();

        let mut asserted: Vec<(usize, bool)> = Vec::new();
        let mut marks: Vec<usize> = Vec::new();
        for step in 0..16 {
            match rng.below(4) {
                // Open a scope and assert a few random phases.
                0 | 1 => {
                    simplex.push();
                    marks.push(asserted.len());
                    for _ in 0..rng.int_in(1, 3) {
                        let i = rng.below(10) as usize;
                        let positive = rng.flip();
                        let tag = asserted.len();
                        match simplex.assert_constraint(slots[i], positive, tag) {
                            Ok(()) => asserted.push((i, positive)),
                            Err(core) => {
                                // The bound contradicted an asserted one:
                                // the named subset must be infeasible on
                                // its own.
                                let mut with_failed = asserted.clone();
                                with_failed.push((i, positive));
                                let subset = materialize(
                                    &family,
                                    &core.iter().map(|&t| with_failed[t]).collect::<Vec<_>>(),
                                );
                                assert_certified(
                                    &subset,
                                    &format!("case {case} step {step}: assert conflict"),
                                );
                            }
                        }
                    }
                }
                // Retract the innermost scope.
                2 if !marks.is_empty() => {
                    simplex.pop();
                    asserted.truncate(marks.pop().expect("mark exists"));
                }
                // Check and compare against a fresh one-shot solve.
                _ => {
                    let one_shot_input = materialize(&family, &asserted);
                    let incremental = simplex.check_integer();
                    let one_shot = check_lia(&one_shot_input, &cfg);
                    match (&incremental, &one_shot) {
                        (LiaResult::Feasible(model), LiaResult::Feasible(_)) => {
                            assert!(
                                model_satisfies(&one_shot_input, model),
                                "case {case} step {step}: incremental model does not satisfy"
                            );
                        }
                        (LiaResult::Infeasible(core), LiaResult::Infeasible(_)) => {
                            let subset = materialize(
                                &family,
                                &core.iter().map(|&t| asserted[t]).collect::<Vec<_>>(),
                            );
                            assert_certified(&subset, &format!("case {case} step {step}: check"));
                        }
                        (LiaResult::Unknown, _) | (_, LiaResult::Unknown) => {}
                        (inc, os) => panic!(
                            "case {case} step {step}: incremental says {inc:?}, one-shot {os:?}"
                        ),
                    }
                }
            }
        }
    }
}

/// Random weaken-shaped scripts over one retained session: each step
/// retracts some hypothesis conjuncts and re-asserts others, re-pointing
/// the live session at the new set via [`Session::update_hypotheses`] —
/// the clause-DB rebuild keeps the SAT variable space, learned theory
/// lemmas and the simplex basis alive.  After every update the retained
/// session must return the same verdict as a session freshly opened over
/// the same hypotheses, for every goal in the battery.
#[test]
fn retract_reassert_scripts_match_fresh_sessions() {
    let vars = ["rr_a", "rr_b", "rr_c"];
    let mut ctx = SortCtx::new();
    for v in vars {
        ctx.push(Name::intern(v), Sort::Int);
    }
    let var = |s: &str| Expr::var(Name::intern(s));
    // Quantifier-free conjuncts of the shapes the weakening loop produces:
    // qualifier instantiations over the clause's variables.  Subsets may be
    // mutually contradictory — that exercises the fallback path below.
    let pool: Vec<ExprId> = [
        Expr::ge(var("rr_a"), Expr::int(0)),
        Expr::le(var("rr_a"), Expr::int(7)),
        Expr::lt(var("rr_a"), var("rr_b")),
        Expr::ge(var("rr_b"), Expr::int(1)),
        Expr::le(var("rr_b"), var("rr_c")),
        Expr::ge(var("rr_c"), var("rr_a")),
        Expr::le(var("rr_c"), Expr::int(20)),
        Expr::eq(var("rr_a") + var("rr_b"), var("rr_c")),
    ]
    .iter()
    .map(ExprId::intern)
    .collect();
    let goals: Vec<ExprId> = [
        Expr::ge(var("rr_b"), Expr::int(0)),
        Expr::le(var("rr_a"), var("rr_c")),
        Expr::lt(var("rr_a"), Expr::int(8)),
        Expr::ge(var("rr_c"), Expr::int(1)),
        Expr::eq(var("rr_a"), Expr::int(3)),
    ]
    .iter()
    .map(ExprId::intern)
    .collect();
    let hyps_of = |active: &[bool]| -> Vec<ExprId> {
        active
            .iter()
            .zip(&pool)
            .filter_map(|(&on, &id)| on.then_some(id))
            .collect()
    };

    let mut rng = Rng::new(0x5E55_10F4);
    for case in 0..12 {
        let mut active: Vec<bool> = (0..pool.len()).map(|_| rng.flip()).collect();
        let mut live = Session::assume_ids(SmtConfig::default(), &ctx, &hyps_of(&active));
        for step in 0..10 {
            // Toggle a few conjuncts: each flip is a retraction or a
            // re-assertion depending on the current state.
            for _ in 0..rng.int_in(1, 3) {
                let i = rng.below(pool.len() as u64) as usize;
                active[i] = !active[i];
            }
            let hyps = hyps_of(&active);
            if !live.update_hypotheses(&hyps) {
                // The production caller's fallback: the new conjunct set is
                // outside the incremental diff (e.g. contradictory), so the
                // session is discarded and reopened.
                live = Session::assume_ids(SmtConfig::default(), &ctx, &hyps);
            }
            let mut fresh = Session::assume_ids(SmtConfig::default(), &ctx, &hyps);
            for &goal in &goals {
                let retained = live.check_id(goal);
                let reference = fresh.check_id(goal);
                match (&retained, &reference) {
                    (Validity::Valid, Validity::Valid)
                    | (Validity::Invalid(_), Validity::Invalid(_))
                    | (Validity::Unknown, Validity::Unknown) => {}
                    _ => panic!(
                        "case {case} step {step}: retained session says {retained:?}, \
                         fresh session {reference:?}"
                    ),
                }
            }
        }
    }
}

/// The new observability counters must actually count: a benchmark that
/// exercises branching arithmetic reports pivots and propagations.
#[test]
fn pivot_and_propagation_counters_are_reported() {
    let b = flux::benchmark("bsearch").expect("bsearch is in the suite");
    let outcome = verify_source(b.flux_src, Mode::Flux, &VerifyConfig::default()).unwrap();
    assert!(outcome.safe);
    assert!(
        outcome.stats.smt.propagations > 0,
        "watched propagation must report its unit propagations: {:?}",
        outcome.stats
    );
    assert!(
        outcome.stats.smt.pivots > 0,
        "the persistent simplex must report its pivots: {:?}",
        outcome.stats
    );
}
