//! The DPLL(T) driver and the public solver interface.
//!
//! [`Solver::check_sat`] decides satisfiability of a refinement-logic
//! formula modulo linear integer arithmetic; [`Solver::check_valid_imp`]
//! decides validity of an implication, which is what the type checker and
//! the Horn-constraint solver ask for.  `check_valid_imp` is a thin wrapper
//! over a one-shot [`crate::Session`]; callers issuing many goals against
//! the same hypotheses should open a session directly (via
//! [`Solver::assume`]) so the hypothesis context is preprocessed once.
//!
//! The loop is the classical lazy SMT architecture: the formula is
//! preprocessed and converted to CNF over theory atoms; the CDCL SAT core
//! proposes boolean models; the linear-arithmetic solver checks the
//! conjunction of asserted atoms and, on conflict, contributes a blocking
//! clause built from an infeasible core.

use crate::atoms::{Atom, AtomTable, Lit};
use crate::audit;
use crate::budget::{default_timeout, ResourceBudget};
use crate::cnf::tseitin;
use crate::preprocess::{ackermannize, eliminate_div_mod, eliminate_ite, normalize_comparisons};
use crate::quant::eliminate_quantifiers;
use crate::sat::{SatLit, SatResult, SatSolver};
use crate::session::Session;
use crate::simplex::{IncrementalSimplex, LiaResult};
use flux_logic::{evaluate, simplify, AuditTier, Expr, ExprId, Name, SortCtx, Value};
use std::collections::BTreeMap;

/// Configuration of the SMT solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SmtConfig {
    /// Audit tier.  Under [`AuditTier::Full`] every theory conflict is
    /// certified (Farkas combination or independent LIA replay), every
    /// model is re-evaluated against the live clauses and asserted atoms,
    /// and the SAT core's invariants are swept after each search; a failure
    /// panics, because it is a solver bug, not a property of the input.
    pub audit: AuditTier,
    /// Every solver limit: the wall-clock deadline and the step caps.  Every
    /// SAT core, simplex tableau and quantifier elimination of a query or
    /// session is built from this budget, so setting it here governs the
    /// whole stack.  The default has only the built-in step caps, plus a
    /// `FLUX_DEADLINE_MS` timeout when that variable is set.
    pub budget: ResourceBudget,
}

impl Default for SmtConfig {
    fn default() -> Self {
        SmtConfig {
            audit: flux_logic::audit_tier(),
            budget: ResourceBudget {
                timeout: default_timeout(),
                ..ResourceBudget::UNLIMITED
            },
        }
    }
}

/// Maximum number of SAT/theory rounds per query or session check.
pub(crate) const MAX_THEORY_ROUNDS: usize = 2_000;

flux_logic::counters! {
    /// Cumulative statistics of a [`Solver`] (or a [`crate::Session`]).
    pub struct SmtStats {
        /// Number of satisfiability queries.
        pub queries: usize,
        /// Number of solver sessions opened (including the implicit one-shot
        /// session behind every `check_valid_imp` call).
        pub sessions: usize,
        /// Number of SAT-solver invocations across all queries.
        pub sat_rounds: usize,
        /// Goal checks discharged on a session's already-built persistent CDCL
        /// core (clause database and learned clauses retained from an earlier
        /// goal of the same session) instead of rebuilding SAT state.
        pub sat_reuse: usize,
        /// Number of theory (LIA) checks.
        pub theory_checks: usize,
        /// Number of simplex pivots across all theory checks.
        pub pivots: usize,
        /// Number of literals assigned by SAT unit propagation.
        pub propagations: usize,
        /// Number of quantifier instances generated.
        pub quant_instances: usize,
        /// Watcher visits answered by the cached blocking literal alone,
        /// without touching the clause.
        pub blocked_visits: usize,
        /// Learned-clause-database reductions performed by the SAT cores.
        pub db_reductions: usize,
        /// Simplex rows visited through the column occurrence lists and the
        /// suspect set (bound slides, pivot updates, violated-row selection).
        pub col_scans: usize,
        /// Hypothesis conjuncts retracted from a live session (by rebuilding
        /// the SAT clause database from the surviving conjuncts' cached CNFs,
        /// keeping the variable space and the simplex tableau) instead of
        /// discarding the session when the hypothesis context changed.
        pub conjunct_retractions: usize,
        /// Theory certificates checked under `FLUX_AUDIT=full`: one per
        /// certified conflict core, validated model, and SAT invariant sweep.
        pub certs_checked: usize,
        /// Checks that gave up because a [`ResourceBudget`] limit tripped: SAT
        /// searches stopped at a decision/conflict cap, plus deadline-driven
        /// exits from the DPLL(T) theory-round loops.  Zero under the default
        /// budget unless a search reaches the built-in conflict cap.
        pub budget_exhausted: usize,
    }
}

/// A model of a satisfiable formula.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    /// Values of integer-sorted variables.
    pub ints: BTreeMap<Name, i128>,
    /// Values of boolean-sorted variables.
    pub bools: BTreeMap<Name, bool>,
}

impl Model {
    /// The value this model assigns to `name`, if any.
    pub fn value_of(&self, name: Name) -> Option<Value> {
        if let Some(&i) = self.ints.get(&name) {
            return Some(Value::Int(i));
        }
        self.bools.get(&name).map(|&b| Value::Bool(b))
    }

    /// Evaluates `expr` under this (possibly partial) model; `None` when the
    /// value cannot be determined (unassigned variable, uninterpreted
    /// application, quantifier, division by zero — see
    /// [`flux_logic::evaluate`]).
    pub fn eval(&self, expr: &Expr) -> Option<Value> {
        evaluate(expr, &|name| self.value_of(name))
    }

    /// Evaluates a predicate to a boolean, when decidable.
    pub fn eval_bool(&self, expr: &Expr) -> Option<bool> {
        self.eval(expr).and_then(Value::as_bool)
    }

    /// [`Model::eval`] over a hash-consed expression: evaluates directly on
    /// the shared DAG with per-call memoization, so callers that track
    /// [`ExprId`]s (the fixpoint weakening loop) never materialize trees
    /// just to test a counter-model.
    pub fn eval_id(&self, expr: ExprId) -> Option<Value> {
        expr.evaluate(&|name| self.value_of(name))
    }

    /// [`Model::eval_bool`] over a hash-consed expression.
    pub fn eval_bool_id(&self, expr: ExprId) -> Option<bool> {
        self.eval_id(expr).and_then(Value::as_bool)
    }

    /// True iff every predicate in `preds` decidably evaluates to `true`
    /// under this model.  The fixpoint solver uses this to confirm that a
    /// counter-model genuinely satisfies a clause's hypotheses before
    /// trusting it to prune candidates: the check makes pruning sound even
    /// when the solver produced the model through an abstraction (opaque
    /// non-linear atoms) that the evaluator interprets exactly.
    pub fn satisfies_all_ids(&self, preds: &[ExprId]) -> bool {
        preds.iter().all(|&p| self.eval_bool_id(p) == Some(true))
    }
}

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// The formula is satisfiable.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The solver could not decide within its limits.
    Unknown,
}

/// Result of a validity check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Validity {
    /// The implication is valid.
    Valid,
    /// The implication is invalid; a counter-model may be available.
    Invalid(Option<Model>),
    /// The solver could not decide within its limits.
    Unknown,
}

impl Validity {
    /// True if the result is [`Validity::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid)
    }
}

/// The SMT solver.
#[derive(Debug, Default)]
pub struct Solver {
    /// Configuration limits.
    pub config: SmtConfig,
    /// Statistics accumulated across queries.
    pub stats: SmtStats,
}

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SmtConfig) -> Solver {
        Solver {
            config,
            stats: SmtStats::default(),
        }
    }

    /// Creates a solver with default configuration.
    pub fn with_defaults() -> Solver {
        Solver::new(SmtConfig::default())
    }

    /// Checks satisfiability of `formula` under `ctx`.
    pub fn check_sat(&mut self, ctx: &SortCtx, formula: &Expr) -> SatOutcome {
        self.stats.queries += 1;
        check_sat_impl(&self.config, ctx, formula, &mut self.stats)
    }

    /// Checks the validity of `hypotheses ⟹ goal` under `ctx`.
    ///
    /// This is a thin wrapper over a one-shot [`Session`]: it assumes the
    /// hypotheses, checks the single goal, and folds the session statistics
    /// back into [`Solver::stats`].
    pub fn check_valid_imp(&mut self, ctx: &SortCtx, hypotheses: &[Expr], goal: &Expr) -> Validity {
        let mut session = Session::assume(self.config, ctx, hypotheses);
        let verdict = session.check(goal);
        self.stats.absorb(*session.stats());
        verdict
    }

    /// Opens an incremental session that assumes `hypotheses` once and can
    /// then check many goals against them.  Fold the session's statistics
    /// back into [`Solver::stats`] with [`SmtStats::absorb`] when done.
    pub fn assume(&mut self, ctx: &SortCtx, hypotheses: &[Expr]) -> Session {
        Session::assume(self.config, ctx, hypotheses)
    }
}

/// The work counters the SAT core and the simplex tableau keep themselves,
/// read into an [`SmtStats`].  A one-shot query absorbs the reading whole;
/// a session's persistent core differences two readings taken around each
/// check.
pub(crate) fn engine_stats(sat: &SatSolver, theory: &IncrementalSimplex) -> SmtStats {
    SmtStats {
        pivots: theory.pivots() as usize,
        propagations: sat.propagations(),
        blocked_visits: sat.blocked_visits(),
        db_reductions: sat.db_reductions(),
        col_scans: theory.col_scans() as usize,
        budget_exhausted: sat.budget_stops(),
        ..SmtStats::default()
    }
}

/// The one-shot satisfiability pipeline shared by [`Solver::check_sat`] and
/// the non-incremental fallback of [`Session`].  Does not count the query
/// itself; callers track `stats.queries`.
pub(crate) fn check_sat_impl(
    config: &SmtConfig,
    ctx: &SortCtx,
    formula: &Expr,
    stats: &mut SmtStats,
) -> SatOutcome {
    // Stamp the wall-clock deadline for this query (a no-op when already
    // stamped by an enclosing solve or when no timeout is configured).
    let config = &SmtConfig {
        budget: config.budget.stamped(),
        ..*config
    };
    // 1. Simplify.
    let f = simplify(formula);
    // 2. Quantifiers.
    let (f, ctx, qstats) = eliminate_quantifiers(&f, ctx, &config.budget);
    stats.quant_instances += qstats.instances;
    // 3. Integer division / remainder.
    let mut defs = Vec::new();
    let f = eliminate_div_mod(&f, &mut defs);
    let f = Expr::and(f, Expr::and_all(defs));
    // 4. If-then-else.
    let f = eliminate_ite(&f);
    // 5. Uninterpreted applications.
    let mut axioms = Vec::new();
    let (f, ctx) = ackermannize(&f, &ctx, &mut axioms);
    let f = Expr::and(f, Expr::and_all(axioms));
    // 6. Comparison normalisation + final simplification.
    let f = normalize_comparisons(&f, &ctx);
    let f = simplify(&f);

    if f.is_trivially_true() {
        return SatOutcome::Sat(Model::default());
    }
    if f.is_trivially_false() {
        return SatOutcome::Unsat;
    }

    // 7. CNF conversion.
    let mut atoms = AtomTable::new();
    let cnf = match tseitin(&f, &mut atoms) {
        Ok(cnf) => cnf,
        Err(_) => return SatOutcome::Unknown,
    };

    // 8. Lazy DPLL(T) loop.
    let mut lemmas = Vec::new();
    dpll_t(config, &cnf.clauses, &[], &mut atoms, &mut lemmas, stats)
}

/// The lazy DPLL(T) loop over `clauses ∪ extra ∪ lemmas`.
///
/// One SAT solver and one [`IncrementalSimplex`] persist across all theory
/// rounds of the query: theory conflicts are added to the live clause
/// database (keeping everything the CDCL core has learned so far), and the
/// simplex tableau keeps its pivoted basis between checks, so each round
/// only repairs the bounds that changed.  Theory conflicts are also
/// appended to `lemmas`.  Those clauses are *theory tautologies* (the
/// negation of a LIA-infeasible conjunction of literals), so they remain
/// valid for any later query sharing the same [`AtomTable`].
pub(crate) fn dpll_t(
    config: &SmtConfig,
    clauses: &[Vec<Lit>],
    extra: &[Vec<Lit>],
    atoms: &mut AtomTable,
    lemmas: &mut Vec<Vec<Lit>>,
    stats: &mut SmtStats,
) -> SatOutcome {
    // A session's atom table accumulates atoms from every goal it has
    // checked; atoms not mentioned by the *current* clause sets are
    // unconstrained in this query and must not be asserted to the theory —
    // they would cost O(table) work per round and their arbitrary SAT
    // values could manufacture spurious theory conflicts.  Lemmas learned
    // below only ever use atoms marked here, so one pass suffices.
    let mut relevant = vec![false; atoms.len()];
    for clause in clauses.iter().chain(extra.iter()).chain(lemmas.iter()) {
        for lit in clause {
            relevant[lit.atom.0 as usize] = true;
        }
    }
    let mut sat = SatSolver::new(atoms.len(), config.budget);
    for clause in clauses.iter().chain(extra.iter()).chain(lemmas.iter()) {
        sat.add_clause(
            clause
                .iter()
                .map(|l| SatLit::new(l.atom.0 as usize, l.positive))
                .collect(),
        );
    }
    // Register the relevant linear atoms' constraint rows once.
    let mut theory = IncrementalSimplex::new(config.budget);
    let mut lin_atoms = Vec::new();
    for (id, atom) in atoms.iter() {
        if !relevant[id.0 as usize] {
            continue;
        }
        if let Atom::Lin(c) = atom {
            lin_atoms.push((id, theory.register(c)));
        }
    }
    let outcome = 'search: {
        for _ in 0..MAX_THEORY_ROUNDS {
            // The theory-round loop is the coarse deadline check of the
            // one-shot path; the SAT core checks (amortized) inside a round.
            if config.budget.deadline_exceeded() {
                stats.budget_exhausted += 1;
                break 'search SatOutcome::Unknown;
            }
            stats.sat_rounds += 1;
            match sat.solve() {
                SatResult::Unsat => break 'search SatOutcome::Unsat,
                SatResult::Unknown => break 'search SatOutcome::Unknown,
                SatResult::Sat(assignment) => {
                    stats.theory_checks += 1;
                    // Assert the linear atoms' bounds under the SAT
                    // assignment inside one backtracking scope.
                    let mut involved = Vec::with_capacity(lin_atoms.len());
                    let mut assert_conflict: Option<Vec<usize>> = None;
                    theory.push();
                    for (k, (id, slot)) in lin_atoms.iter().enumerate() {
                        let value = assignment[id.0 as usize];
                        involved.push(Lit {
                            atom: *id,
                            positive: value,
                        });
                        if let Err(core) = theory.assert_constraint(*slot, value, k) {
                            assert_conflict = Some(core);
                            break;
                        }
                    }
                    let result = match assert_conflict {
                        Some(core) => LiaResult::Infeasible(core),
                        None => theory.check_integer(),
                    };
                    theory.pop();
                    match result {
                        LiaResult::Feasible(int_model) => {
                            if config.audit.certifies() {
                                let value = |lit: Lit| {
                                    Some(assignment[lit.atom.0 as usize] == lit.positive)
                                };
                                let asserted: Vec<_> =
                                    audit::asserted_constraints(&involved, atoms)
                                        .into_iter()
                                        .map(|c| (c, true))
                                        .collect();
                                audit::validate_clauses(
                                    "query",
                                    clauses.iter().chain(extra.iter()).chain(lemmas.iter()),
                                    value,
                                )
                                .and_then(|()| {
                                    audit::validate_theory_assignment(&asserted, &int_model)
                                })
                                .unwrap_or_else(|e| panic!("FLUX_AUDIT: {e}"));
                                stats.certs_checked += 1;
                            }
                            break 'search SatOutcome::Sat(build_model(
                                &assignment,
                                atoms,
                                int_model,
                            ));
                        }
                        LiaResult::Unknown => break 'search SatOutcome::Unknown,
                        LiaResult::Infeasible(core) => {
                            if config.audit.certifies() {
                                let conflict: Vec<Lit> = if core.is_empty() {
                                    involved.clone()
                                } else {
                                    core.iter().map(|&i| involved[i]).collect()
                                };
                                let constraints = audit::asserted_constraints(&conflict, atoms);
                                if let Err(e) = audit::certify_infeasible_core(&constraints) {
                                    panic!("FLUX_AUDIT: {e}");
                                }
                                stats.certs_checked += 1;
                            }
                            let clause: Vec<Lit> = if core.is_empty() {
                                // Defensive: block the entire assignment.
                                involved.iter().map(|l| l.negated()).collect()
                            } else {
                                core.iter().map(|&i| involved[i].negated()).collect()
                            };
                            sat.add_clause(
                                clause
                                    .iter()
                                    .map(|l| SatLit::new(l.atom.0 as usize, l.positive))
                                    .collect(),
                            );
                            lemmas.push(clause);
                        }
                    }
                }
            }
        }
        SatOutcome::Unknown
    };
    if config.audit.certifies() {
        if let Err(e) = sat.check_invariants() {
            panic!("FLUX_AUDIT: SAT invariant violated after search: {e}");
        }
        stats.certs_checked += 1;
    }
    stats.absorb(engine_stats(&sat, &theory));
    outcome
}

pub(crate) fn build_model(
    assignment: &[bool],
    atoms: &AtomTable,
    int_model: BTreeMap<Name, i128>,
) -> Model {
    let mut model = Model {
        ints: int_model,
        bools: BTreeMap::new(),
    };
    // Tseitin definitions are `Atom::Def`, not named variables; the `$`
    // test drops the fresh names preprocessing introduces.
    for (id, atom) in atoms.iter() {
        if let Atom::Bool(name) = atom {
            if !name.as_str().starts_with('$') {
                model.bools.insert(*name, assignment[id.0 as usize]);
            }
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_logic::Sort;

    fn v(s: &str) -> Expr {
        Expr::var(Name::intern(s))
    }

    fn int_ctx(vars: &[&str]) -> SortCtx {
        let mut ctx = SortCtx::new();
        for name in vars {
            ctx.push(Name::intern(name), Sort::Int);
        }
        ctx
    }

    #[test]
    fn trivial_validity() {
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["x"]);
        assert!(solver
            .check_valid_imp(&ctx, &[], &Expr::ge(v("x"), v("x")))
            .is_valid());
    }

    #[test]
    fn decr_verification_condition_is_valid() {
        // n >= 0 ∧ n > 0 ⟹ n - 1 >= 0   (the VC from the paper's `decr`)
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["n"]);
        let hyps = vec![
            Expr::ge(v("n"), Expr::int(0)),
            Expr::gt(v("n"), Expr::int(0)),
        ];
        let goal = Expr::ge(v("n") - Expr::int(1), Expr::int(0));
        assert!(solver.check_valid_imp(&ctx, &hyps, &goal).is_valid());
    }

    #[test]
    fn invalid_implication_produces_counter_model() {
        // n >= 0 ⟹ n - 1 >= 0 is invalid (n = 0).
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["n"]);
        let hyps = vec![Expr::ge(v("n"), Expr::int(0))];
        let goal = Expr::ge(v("n") - Expr::int(1), Expr::int(0));
        match solver.check_valid_imp(&ctx, &hyps, &goal) {
            Validity::Invalid(Some(model)) => {
                let n = model.ints.get(&Name::intern("n")).copied().unwrap_or(0);
                assert!(n == 0, "counter-model should pick n = 0, got {n}");
            }
            other => panic!("expected invalid with model, got {other:?}"),
        }
    }

    #[test]
    fn list_append_verification_condition() {
        // The VC from §2.3 of the paper:
        // (0 = n ⟹ m = n + m) ∧ (v + 1 = n ⟹ v + m + 1 = n + m)
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["n", "m", "v"]);
        let goal = Expr::and(
            Expr::imp(
                Expr::eq(Expr::int(0), v("n")),
                Expr::eq(v("m"), v("n") + v("m")),
            ),
            Expr::imp(
                Expr::eq(v("v") + Expr::int(1), v("n")),
                Expr::eq(v("v") + v("m") + Expr::int(1), v("n") + v("m")),
            ),
        );
        assert!(solver.check_valid_imp(&ctx, &[], &goal).is_valid());
    }

    #[test]
    fn binary_search_midpoint_bound() {
        // lo <= hi ∧ hi < n ∧ mid = (lo + hi) / 2 ⟹ mid < n  ∧ mid >= lo
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["lo", "hi", "n"]);
        let mid = Expr::binop(flux_logic::BinOp::Div, v("lo") + v("hi"), Expr::int(2));
        let hyps = vec![
            Expr::ge(v("lo"), Expr::int(0)),
            Expr::le(v("lo"), v("hi")),
            Expr::lt(v("hi"), v("n")),
        ];
        let goal = Expr::and(Expr::lt(mid.clone(), v("n")), Expr::ge(mid, v("lo")));
        assert!(solver.check_valid_imp(&ctx, &hyps, &goal).is_valid());
    }

    #[test]
    fn boolean_reasoning() {
        // p ∧ (p => q) ⟹ q
        let mut solver = Solver::with_defaults();
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("p"), Sort::Bool);
        ctx.push(Name::intern("q"), Sort::Bool);
        let hyps = vec![v("p"), Expr::imp(v("p"), v("q"))];
        assert!(solver.check_valid_imp(&ctx, &hyps, &v("q")).is_valid());
        // p ∨ q ⟹ q is invalid.
        let hyps = vec![Expr::or(v("p"), v("q"))];
        assert!(!solver.check_valid_imp(&ctx, &hyps, &v("q")).is_valid());
    }

    #[test]
    fn mixed_boolean_and_arithmetic() {
        // b = (x > 0) ∧ b ⟹ x >= 1
        let mut solver = Solver::with_defaults();
        let mut ctx = int_ctx(&["x"]);
        ctx.push(Name::intern("b"), Sort::Bool);
        let hyps = vec![Expr::eq(v("b"), Expr::gt(v("x"), Expr::int(0))), v("b")];
        let goal = Expr::ge(v("x"), Expr::int(1));
        assert!(solver.check_valid_imp(&ctx, &hyps, &goal).is_valid());
    }

    #[test]
    fn unsat_conjunction_of_bounds() {
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["i", "n"]);
        let f = Expr::and_all([Expr::lt(v("i"), v("n")), Expr::ge(v("i"), v("n"))]);
        assert_eq!(solver.check_sat(&ctx, &f), SatOutcome::Unsat);
    }

    #[test]
    fn sat_formula_produces_satisfying_model() {
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["i", "n"]);
        let f = Expr::and_all([
            Expr::ge(v("i"), Expr::int(0)),
            Expr::lt(v("i"), v("n")),
            Expr::le(v("n"), Expr::int(10)),
        ]);
        match solver.check_sat(&ctx, &f) {
            SatOutcome::Sat(model) => {
                let i = model.ints[&Name::intern("i")];
                let n = model.ints[&Name::intern("n")];
                assert!(i >= 0 && i < n && n <= 10);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn quantified_hypothesis_is_used() {
        // (forall j. 0 <= j && j < len ⟹ select(a, j) >= 0) ∧ 0 <= i < len
        //   ⟹ select(a, i) >= 0
        let mut solver = Solver::with_defaults();
        let mut ctx = int_ctx(&["i", "lenv"]);
        ctx.push(Name::intern("a"), Sort::Array);
        let j = Name::intern("j");
        let axiom = Expr::forall(
            vec![(j, Sort::Int)],
            Expr::imp(
                Expr::and(
                    Expr::ge(Expr::var(j), Expr::int(0)),
                    Expr::lt(Expr::var(j), v("lenv")),
                ),
                Expr::ge(
                    Expr::app("select", vec![v("a"), Expr::var(j)]),
                    Expr::int(0),
                ),
            ),
        );
        let hyps = vec![
            axiom,
            Expr::ge(v("i"), Expr::int(0)),
            Expr::lt(v("i"), v("lenv")),
        ];
        let goal = Expr::ge(Expr::app("select", vec![v("a"), v("i")]), Expr::int(0));
        assert!(solver.check_valid_imp(&ctx, &hyps, &goal).is_valid());
    }

    #[test]
    fn statistics_accumulate() {
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["x"]);
        let _ = solver.check_valid_imp(&ctx, &[], &Expr::ge(v("x"), v("x")));
        let _ = solver.check_valid_imp(&ctx, &[], &Expr::ge(v("x"), Expr::int(0)));
        assert_eq!(solver.stats.queries, 2);
        assert!(solver.stats.sat_rounds >= 1);
    }

    #[test]
    fn overflow_check_shape() {
        // x <= 2147483647 - 1 ⟹ x + 1 <= 2147483647
        let mut solver = Solver::with_defaults();
        let ctx = int_ctx(&["x"]);
        let max = 2_147_483_647i128;
        let hyps = vec![Expr::le(v("x"), Expr::int(max - 1))];
        let goal = Expr::le(v("x") + Expr::int(1), Expr::int(max));
        assert!(solver.check_valid_imp(&ctx, &hyps, &goal).is_valid());
    }
}
