//! Theory certificates: independent validation of solver verdicts.
//!
//! The DPLL(T) loop trusts two oracles: the simplex core's *infeasible*
//! verdicts (each one becomes a learned blocking lemma — a wrong core makes
//! the solver unsound) and its *feasible* verdicts (each one becomes a
//! counter-model — a wrong model makes candidate pruning delete sound
//! candidates).  Under [`flux_logic::AuditTier::Full`] both are re-checked
//! by machinery that shares nothing with the engine being audited:
//!
//! * **Infeasible cores** are certified by extracting a *Farkas
//!   combination* of the asserted bounds: non-negative multipliers λᵢ with
//!   `Σ λᵢ·lhsᵢ` equal to a positive constant.  Since every asserted
//!   constraint says `lhsᵢ ≤ 0`, such a combination is an unconditional
//!   one-line proof of infeasibility, checked here with the exact rational
//!   arithmetic of [`crate::rational`] — no simplex, no tableau, no
//!   incrementality.  Cores produced by branch-and-bound may be rationally
//!   *feasible* (their infeasibility is an integrality fact); those fall
//!   back to an independent one-shot [`check_lia`] replay with generous
//!   limits.
//! * **Models** are validated by evaluating every live clause under the SAT
//!   assignment, every asserted theory atom under the integer model, and
//!   (in sessions) the original pre-CNF hypotheses/goal under the reported
//!   model via the hash-consed evaluator — a Tseitin/CNF equisatisfiability
//!   spot-check.
//!
//! A failed certificate is a bug in the engine (or the audit layer), never
//! a property of the input program, so the wired call sites panic; the
//! checkers themselves return `Result` so negative tests can assert that
//! planted forgeries are reported.

use crate::linear::{LinConstraint, LinExpr};
use crate::rational::Rational;
use crate::simplex::{check_lia, LiaConfig, LiaResult};
use crate::solver::Model;
use flux_logic::{ExprId, Name};
use std::collections::BTreeMap;

/// A checked proof that a conjunction of asserted bounds is infeasible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// Non-negative multipliers over the core constraints whose combination
    /// is a positive constant; verified by [`check_farkas`].
    Farkas(Vec<Rational>),
    /// The core is rationally feasible (its infeasibility is an integrality
    /// fact from branch-and-bound); an independent one-shot LIA replay
    /// confirmed integer infeasibility.
    IntegerReplay,
    /// The independent replay exhausted its limits without a verdict.  Not
    /// a forgery — the audited conflict stands unconfirmed, which is
    /// tolerated (the replay limits are generous, so this is rare).
    Inconclusive,
}

/// Verifies a Farkas certificate against `core` from first principles:
/// every multiplier non-negative, and `Σ λᵢ·lhsᵢ` a *constant, positive*
/// expression.  Since each `lhsᵢ ≤ 0`, any non-negative combination is
/// `≤ 0` under every assignment — so a positive constant combination
/// proves no assignment satisfies all of `core`.
pub fn check_farkas(core: &[LinConstraint], coeffs: &[Rational]) -> Result<(), String> {
    if coeffs.len() != core.len() {
        return Err(format!(
            "Farkas certificate has {} multipliers for {} constraints",
            coeffs.len(),
            core.len()
        ));
    }
    if let Some(bad) = coeffs.iter().find(|c| c.is_negative()) {
        return Err(format!("Farkas multiplier {bad} is negative"));
    }
    let mut sum = LinExpr::zero();
    for (c, &lambda) in core.iter().zip(coeffs) {
        sum.add_scaled(&c.lhs, lambda);
    }
    if !sum.is_constant() {
        return Err(format!("Farkas combination is not constant: {sum}"));
    }
    if !sum.constant_part().is_positive() {
        return Err(format!(
            "Farkas combination is the non-positive constant {}",
            sum.constant_part()
        ));
    }
    Ok(())
}

/// Magnitude bound on numerators/denominators of derived rows; past this
/// the extraction bails to the integer replay rather than risking i128
/// overflow in the exact arithmetic (conflict cores are small — a handful
/// of bounds with program-sized coefficients — so this never fires in
/// practice).
const FM_MAGNITUDE_LIMIT: i128 = 1 << 48;

/// Row-count cap for Fourier–Motzkin elimination.
const FM_ROW_LIMIT: usize = 512;

/// Attempts to extract Farkas multipliers for `core` by Fourier–Motzkin
/// elimination with multiplier tracking.  Returns `None` when the system is
/// rationally feasible or the elimination exceeds its caps.
fn extract_farkas(core: &[LinConstraint]) -> Option<Vec<Rational>> {
    // Each row is a derived inequality `lhs ≤ 0` together with the
    // non-negative multipliers over the original constraints that produced
    // it; combining rows combines multipliers the same way, so whichever
    // row becomes a positive constant carries its own certificate.
    let mut rows: Vec<(LinExpr, Vec<Rational>)> = core
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut m = vec![Rational::ZERO; core.len()];
            m[i] = Rational::ONE;
            (c.lhs.clone(), m)
        })
        .collect();
    loop {
        for (lhs, mults) in &rows {
            if lhs.is_constant() && lhs.constant_part().is_positive() {
                return Some(mults.clone());
            }
        }
        // Pick the variable with the fewest positive×negative pairings (the
        // classical blowup-minimizing heuristic).
        let mut best: Option<(Name, usize)> = None;
        {
            let mut counts: BTreeMap<Name, (usize, usize)> = BTreeMap::new();
            for (lhs, _) in &rows {
                for (x, c) in lhs.terms() {
                    let entry = counts.entry(x).or_default();
                    if c.is_positive() {
                        entry.0 += 1;
                    } else {
                        entry.1 += 1;
                    }
                }
            }
            for (x, (pos, neg)) in counts {
                let cost = pos * neg;
                if best.map(|(_, c)| cost < c).unwrap_or(true) {
                    best = Some((x, cost));
                }
            }
        }
        let Some((var, _)) = best else {
            // No variables left anywhere and no positive constant row: the
            // system is rationally feasible.
            return None;
        };
        let mut next: Vec<(LinExpr, Vec<Rational>)> = Vec::new();
        let mut pos: Vec<(LinExpr, Vec<Rational>)> = Vec::new();
        let mut neg: Vec<(LinExpr, Vec<Rational>)> = Vec::new();
        for row in rows {
            let c = row.0.coeff(var);
            if c.is_positive() {
                pos.push(row);
            } else if c.is_negative() {
                neg.push(row);
            } else {
                next.push(row);
            }
        }
        // A variable bounded on one side only cannot contribute to rational
        // infeasibility; its rows are dropped with it.
        for (p_lhs, p_mults) in &pos {
            let a = p_lhs.coeff(var);
            for (n_lhs, n_mults) in &neg {
                let b = n_lhs.coeff(var); // negative
                                          // (-b)·p + a·n eliminates `var`; both scales are positive,
                                          // so the combination remains implied.
                let mut lhs = p_lhs.scaled(-b);
                lhs.add_scaled(n_lhs, a);
                if lhs
                    .terms()
                    .map(|(_, c)| c)
                    .chain([lhs.constant_part()])
                    .any(|c| c.numer().abs() > FM_MAGNITUDE_LIMIT || c.denom() > FM_MAGNITUDE_LIMIT)
                {
                    return None;
                }
                let mults = p_mults
                    .iter()
                    .zip(n_mults)
                    .map(|(&pm, &nm)| pm * -b + nm * a)
                    .collect();
                next.push((lhs, mults));
                if next.len() > FM_ROW_LIMIT {
                    return None;
                }
            }
        }
        rows = next;
        if rows.is_empty() {
            return None;
        }
    }
}

/// Certifies that the conjunction of `core` is infeasible over the
/// integers, independently of whatever solver produced the conflict.
///
/// Rationally infeasible cores yield a checked [`Certificate::Farkas`];
/// rationally feasible ones (branch-and-bound conflicts) fall back to an
/// independent one-shot LIA replay with generous limits.  `Err` means the
/// conflict was a *forgery*: the replay found an integer model of the
/// supposedly-infeasible core.
pub fn certify_infeasible_core(core: &[LinConstraint]) -> Result<Certificate, String> {
    if let Some(coeffs) = extract_farkas(core) {
        check_farkas(core, &coeffs)?;
        return Ok(Certificate::Farkas(coeffs));
    }
    let replay = LiaConfig {
        max_branch_nodes: 10_000,
        max_pivots: 200_000,
        budget: crate::ResourceBudget::UNLIMITED,
    };
    match check_lia(core, &replay) {
        LiaResult::Infeasible(_) => Ok(Certificate::IntegerReplay),
        LiaResult::Unknown => Ok(Certificate::Inconclusive),
        LiaResult::Feasible(model) => Err(format!(
            "forged theory conflict: the {}-constraint core is satisfied by {model:?}",
            core.len()
        )),
    }
}

/// Folds each literal's phase into its linear constraint: a positive
/// literal asserts the atom's constraint, a negative one its integer
/// negation — exactly what the DPLL(T) loop asserts to the theory.
/// Non-linear atoms are skipped (`Bool` atoms are pure SAT; `Opaque`
/// atoms are never asserted to the theory).
pub fn asserted_constraints(
    lits: &[crate::atoms::Lit],
    atoms: &crate::atoms::AtomTable,
) -> Vec<LinConstraint> {
    lits.iter()
        .filter_map(|lit| match atoms.get(lit.atom) {
            crate::atoms::Atom::Lin(c) => Some(if lit.positive {
                c.clone()
            } else {
                c.negate_integer()
            }),
            _ => None,
        })
        .collect()
}

/// Validates a SAT assignment against a clause set: every clause must
/// contain a literal whose value (per `value`; `None` = unassigned) is
/// `true`.  `what` names the clause set in the error.
pub fn validate_clauses<C, F>(what: &str, clauses: C, value: F) -> Result<(), String>
where
    C: IntoIterator,
    C::Item: AsRef<[crate::atoms::Lit]>,
    F: Fn(crate::atoms::Lit) -> Option<bool>,
{
    for (i, clause) in clauses.into_iter().enumerate() {
        let clause = clause.as_ref();
        if !clause.iter().any(|&lit| value(lit) == Some(true)) {
            return Err(format!(
                "model leaves {what} clause #{i} unsatisfied: {clause:?}"
            ));
        }
    }
    Ok(())
}

/// Validates the asserted theory atoms against the integer model: each
/// `(constraint, asserted)` pair must have `constraint` hold exactly when
/// `asserted` (negations were already folded into the constraint by the
/// caller via [`LinConstraint::negate_integer`], so `asserted` is always
/// `true` in practice; the parameter keeps the checker direction-agnostic).
pub fn validate_theory_assignment(
    asserted: &[(LinConstraint, bool)],
    ints: &BTreeMap<Name, i128>,
) -> Result<(), String> {
    let rats: BTreeMap<Name, Rational> =
        ints.iter().map(|(n, v)| (*n, Rational::int(*v))).collect();
    for (i, (constraint, expected)) in asserted.iter().enumerate() {
        if constraint.holds(&rats) != *expected {
            return Err(format!(
                "integer model violates asserted theory atom #{i}: {constraint} \
                 expected to hold = {expected} under {ints:?}"
            ));
        }
    }
    Ok(())
}

/// Tseitin/CNF equisatisfiability spot-check: the reported counter-model
/// must not decidably falsify any pre-CNF hypothesis, and must decidably
/// falsify the goal conjunction (i.e. not make *every* goal true) when
/// goals are present.  `None` evaluations are tolerated — models are
/// partial (only the query's relevant variables are assigned).
pub fn spot_check_model(model: &Model, hyps: &[ExprId], goals: &[ExprId]) -> Result<(), String> {
    for &hyp in hyps {
        if model.eval_bool_id(hyp) == Some(false) {
            return Err(format!(
                "counter-model falsifies hypothesis ExprId #{} — the CNF encoding \
                 and the original formula disagree",
                hyp.index()
            ));
        }
    }
    if !goals.is_empty() && goals.iter().all(|&g| model.eval_bool_id(g) == Some(true)) {
        return Err(
            "counter-model satisfies every goal conjunct it was meant to refute".to_owned(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::intern(s)
    }

    /// `x ≤ a` as a constraint.
    fn le_const(x: &str, a: i128) -> LinConstraint {
        let mut lhs = LinExpr::var(n(x));
        lhs.add_constant(Rational::int(-a));
        LinConstraint::le_zero(lhs)
    }

    /// `x ≥ a` as a constraint.
    fn ge_const(x: &str, a: i128) -> LinConstraint {
        let mut lhs = LinExpr::var(n(x)).scaled(-Rational::ONE);
        lhs.add_constant(Rational::int(a));
        LinConstraint::le_zero(lhs)
    }

    #[test]
    fn farkas_extraction_on_contradictory_bounds() {
        // x ≤ 3 ∧ x ≥ 5 is rationally infeasible.
        let core = vec![le_const("fx", 3), ge_const("fx", 5)];
        match certify_infeasible_core(&core).unwrap() {
            Certificate::Farkas(coeffs) => {
                check_farkas(&core, &coeffs).unwrap();
                assert!(coeffs.iter().all(|c| !c.is_negative()));
            }
            other => panic!("expected a Farkas certificate, got {other:?}"),
        }
    }

    #[test]
    fn farkas_extraction_through_a_chain() {
        // x ≤ y ∧ y ≤ z ∧ z ≤ x - 1 is infeasible via a 3-step combination.
        let le = |a: &str, b: &str, shift: i128| {
            let mut lhs = LinExpr::var(n(a));
            lhs.add_scaled(&LinExpr::var(n(b)), -Rational::ONE);
            lhs.add_constant(Rational::int(shift));
            LinConstraint::le_zero(lhs)
        };
        let core = vec![le("fa", "fb", 0), le("fb", "fc", 0), le("fc", "fa", 1)];
        match certify_infeasible_core(&core).unwrap() {
            Certificate::Farkas(coeffs) => check_farkas(&core, &coeffs).unwrap(),
            other => panic!("expected a Farkas certificate, got {other:?}"),
        }
    }

    #[test]
    fn integer_only_core_falls_back_to_replay() {
        // 2x ≥ 1 ∧ 2x ≤ 1 is rationally feasible (x = 1/2) but has no
        // integer solution.
        let mut up = LinExpr::var(n("gx")).scaled(Rational::int(2));
        up.add_constant(Rational::int(-1));
        let mut down = LinExpr::var(n("gx")).scaled(Rational::int(-2));
        down.add_constant(Rational::int(1));
        let core = vec![LinConstraint::le_zero(up), LinConstraint::le_zero(down)];
        assert_eq!(
            certify_infeasible_core(&core).unwrap(),
            Certificate::IntegerReplay
        );
    }

    #[test]
    fn satisfiable_core_is_reported_as_forgery() {
        let core = vec![le_const("hx", 5), ge_const("hx", 3)];
        let err = certify_infeasible_core(&core).unwrap_err();
        assert!(err.contains("forged"), "{err}");
    }

    #[test]
    fn corrupted_farkas_coefficient_is_rejected() {
        let core = vec![le_const("ix", 3), ge_const("ix", 5)];
        let Certificate::Farkas(mut coeffs) = certify_infeasible_core(&core).unwrap() else {
            panic!("expected a Farkas certificate");
        };
        check_farkas(&core, &coeffs).unwrap();
        // Corrupt one multiplier: the combination stops being constant (or
        // stops being positive), and the checker must say so.
        coeffs[0] += Rational::ONE;
        assert!(check_farkas(&core, &coeffs).is_err());
        // A negated multiplier is rejected outright.
        coeffs[0] = -Rational::ONE;
        assert!(check_farkas(&core, &coeffs).is_err());
        // And a truncated certificate never passes.
        assert!(check_farkas(&core, &[]).is_err());
    }

    #[test]
    fn theory_assignment_validation_catches_flipped_bit() {
        let c = le_const("jx", 3);
        let mut ints = BTreeMap::new();
        ints.insert(n("jx"), 2);
        validate_theory_assignment(&[(c.clone(), true)], &ints).unwrap();
        // Flip the asserted phase: 2 ≤ 3 does not violate the constraint.
        assert!(validate_theory_assignment(&[(c.clone(), false)], &ints).is_err());
        // Flip the model bit past the bound.
        ints.insert(n("jx"), 4);
        assert!(validate_theory_assignment(&[(c, true)], &ints).is_err());
    }

    #[test]
    fn clause_validation_catches_flipped_model_bit() {
        use crate::atoms::{AtomId, Lit};
        let clauses = vec![vec![Lit::pos(AtomId(0)), Lit::neg(AtomId(1))]];
        let good = |lit: Lit| Some(lit.atom == AtomId(0) && lit.positive);
        validate_clauses("test", &clauses, good).unwrap();
        // Flip atom 0 to false: the clause loses its only true literal
        // (atom 1 stays true, so its negation is false).
        let flipped = |lit: Lit| Some(!lit.positive && lit.atom != AtomId(1));
        assert!(validate_clauses("test", &clauses, flipped).is_err());
    }

    #[test]
    fn spot_check_rejects_model_violating_hypothesis() {
        use flux_logic::Expr;
        let mut model = Model::default();
        model.ints.insert(n("kx"), 1);
        let hyp = ExprId::intern(&Expr::ge(Expr::var(n("kx")), Expr::int(0)));
        let goal = ExprId::intern(&Expr::ge(Expr::var(n("kx")), Expr::int(5)));
        spot_check_model(&model, &[hyp], &[goal]).unwrap();
        // A model that falsifies the hypothesis is a forgery...
        model.ints.insert(n("kx"), -1);
        assert!(spot_check_model(&model, &[hyp], &[goal]).is_err());
        // ...and so is one that satisfies the goal it allegedly refutes.
        model.ints.insert(n("kx"), 7);
        assert!(spot_check_model(&model, &[hyp], &[goal]).is_err());
        // Partial models are tolerated.
        let partial = Model::default();
        spot_check_model(&partial, &[hyp], &[goal]).unwrap();
    }
}
