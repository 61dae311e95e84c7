//! Bounded quantifier handling.
//!
//! Flux itself only ever emits quantifier-free verification conditions —
//! that is the central ergonomic claim of the paper.  The program-logic
//! baseline (`flux-wp`), however, models containers with universally
//! quantified axioms and user-written quantified loop invariants, exactly
//! like Prusti.  This module gives the SMT solver a sound but incomplete way
//! to discharge such formulas:
//!
//! * existentials in satisfiability position are *skolemised* to fresh
//!   constants,
//! * universals in satisfiability position are replaced by finite
//!   conjunctions of *ground instances*, drawn from candidate terms that
//!   appear in the formula; instantiation runs for a configurable number of
//!   rounds so that instances can feed new candidate terms,
//! * any quantifier that survives (e.g. nested alternation the heuristics do
//!   not cover) is abstracted by a fresh boolean variable.
//!
//! All three steps only ever *weaken* the formula whose unsatisfiability the
//! verifier is trying to establish, so the verifier can fail to prove a
//! valid program but can never accept an invalid one.  The instantiation
//! work is also the reason the baseline is slow — mirroring the behaviour
//! the paper reports for Prusti (§5.2).

use flux_logic::{BinOp, Constant, Expr, Name, Sort, SortCtx, UnOp};
use std::collections::BTreeSet;

/// Configuration for quantifier elimination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QuantConfig {
    /// Number of instantiation rounds.
    pub rounds: usize,
    /// Maximum number of candidate terms considered per sort.
    pub max_candidates: usize,
    /// Maximum number of instances generated per quantifier per round.
    pub max_instances_per_quantifier: usize,
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig {
            rounds: 2,
            max_candidates: 24,
            max_instances_per_quantifier: 600,
        }
    }
}

/// Statistics about the elimination, used by benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantStats {
    /// Total number of ground instances generated.
    pub instances: usize,
    /// Number of skolem constants introduced.
    pub skolems: usize,
    /// Number of quantifiers abstracted away as opaque booleans.
    pub abstracted: usize,
}

/// Eliminates quantifiers from `expr` (interpreted in satisfiability
/// position).  Returns the quantifier-free formula, the sort context
/// extended with skolem constants, and statistics.
pub fn eliminate_quantifiers(
    expr: &Expr,
    ctx: &SortCtx,
    config: &QuantConfig,
) -> (Expr, SortCtx, QuantStats) {
    let mut stats = QuantStats::default();
    if !expr.has_quantifier() {
        return (expr.clone(), ctx.clone(), stats);
    }
    let mut extended = ctx.clone();
    let skolemized = skolemize(expr, true, &mut extended, &mut stats);

    let mut current = skolemized.clone();
    for _ in 0..config.rounds.max(1) {
        let candidates = collect_candidates(&current, &extended, config);
        current = instantiate(&skolemized, true, &candidates, config, &mut stats);
        if !current.has_quantifier() {
            break;
        }
    }
    let result = abstract_remaining(&current, &mut stats);
    (result, extended, stats)
}

/// Skolemises existentials (and universals in negative position) that are
/// not nested under a universal quantifier.
fn skolemize(expr: &Expr, positive: bool, ctx: &mut SortCtx, stats: &mut QuantStats) -> Expr {
    match expr {
        Expr::Var(_) | Expr::Const(_) | Expr::App(..) => expr.clone(),
        Expr::UnOp(UnOp::Not, inner) => Expr::not(skolemize(inner, !positive, ctx, stats)),
        Expr::UnOp(op, inner) => Expr::unop(*op, skolemize(inner, positive, ctx, stats)),
        Expr::BinOp(BinOp::Imp, lhs, rhs) => Expr::binop(
            BinOp::Imp,
            skolemize(lhs, !positive, ctx, stats),
            skolemize(rhs, positive, ctx, stats),
        ),
        Expr::BinOp(BinOp::Iff, ..) => expr.clone(), // handled conservatively later
        Expr::BinOp(op, lhs, rhs) => Expr::binop(
            *op,
            skolemize(lhs, positive, ctx, stats),
            skolemize(rhs, positive, ctx, stats),
        ),
        Expr::Ite(c, t, e) => Expr::ite(
            (**c).clone(),
            skolemize(t, positive, ctx, stats),
            skolemize(e, positive, ctx, stats),
        ),
        Expr::Exists(binders, body) if positive => {
            let renamed = skolem_subst(binders, ctx, stats);
            skolemize(&renamed.apply(body), positive, ctx, stats)
        }
        Expr::Forall(binders, body) if !positive => {
            let renamed = skolem_subst(binders, ctx, stats);
            skolemize(&renamed.apply(body), positive, ctx, stats)
        }
        Expr::Forall(binders, body) => {
            // Positive universal: keep; do not skolemise inside (nested
            // existentials under a universal are abstracted later).
            Expr::Forall(binders.clone(), body.clone())
        }
        Expr::Exists(binders, body) => Expr::Exists(binders.clone(), body.clone()),
    }
}

fn skolem_subst(
    binders: &[(Name, Sort)],
    ctx: &mut SortCtx,
    stats: &mut QuantStats,
) -> flux_logic::Subst {
    let mut subst = flux_logic::Subst::new();
    for (name, sort) in binders {
        let fresh = Name::fresh(&format!("$sk_{name}"));
        ctx.push(fresh, *sort);
        subst.insert(*name, Expr::Var(fresh));
        stats.skolems += 1;
    }
    subst
}

/// Candidate ground terms per sort.
#[derive(Default, Debug)]
struct Candidates {
    ints: Vec<Expr>,
    /// Ground integer-sorted terms that occur as *arguments of uninterpreted
    /// applications* (array indices, mostly).  Binders with at least one
    /// occurrence in application-argument position are instantiated from
    /// this smaller set — a trigger/E-matching-style restriction that is
    /// deliberately stronger than "only ever used as an argument": it keeps
    /// frame axioms from being multiplied by every scalar term in the
    /// formula, at the cost of missing instances a mixed-use binder might
    /// have needed at a non-index term (sound: instantiation can only
    /// weaken what the verifier assumes).
    app_ints: Vec<Expr>,
    others: Vec<(Sort, Expr)>,
}

impl Candidates {
    fn of_sort(&self, sort: Sort) -> Vec<Expr> {
        match sort {
            Sort::Int => self.ints.clone(),
            _ => self
                .others
                .iter()
                .filter(|(s, _)| *s == sort)
                .map(|(_, e)| e.clone())
                .collect(),
        }
    }

    fn triggered(&self, sort: Sort) -> Vec<Expr> {
        match sort {
            Sort::Int => self.app_ints.clone(),
            other => self.of_sort(other),
        }
    }
}

fn collect_candidates(expr: &Expr, ctx: &SortCtx, config: &QuantConfig) -> Candidates {
    let mut ints: BTreeSet<Expr> = BTreeSet::new();
    let mut app_ints: BTreeSet<Expr> = BTreeSet::new();
    let mut others: BTreeSet<(Sort, Expr)> = BTreeSet::new();
    // Always include small integer constants: they seed instantiations such
    // as "the first element" that quantified invariants frequently need.
    ints.insert(Expr::int(0));
    app_ints.insert(Expr::int(0));

    fn go(
        e: &Expr,
        bound: &mut Vec<Name>,
        in_app: bool,
        ctx: &SortCtx,
        ints: &mut BTreeSet<Expr>,
        app_ints: &mut BTreeSet<Expr>,
        others: &mut BTreeSet<(Sort, Expr)>,
    ) {
        let ground = e.free_vars().iter().all(|v| !bound.contains(v));
        if ground {
            match e {
                Expr::Var(name) => {
                    if let Some(sort) = ctx.lookup(*name) {
                        match sort {
                            Sort::Int => {
                                ints.insert(e.clone());
                                if in_app {
                                    app_ints.insert(e.clone());
                                }
                            }
                            Sort::Bool => {}
                            other => {
                                others.insert((other, e.clone()));
                            }
                        }
                    }
                }
                Expr::Const(Constant::Int(_)) => {
                    ints.insert(e.clone());
                    if in_app {
                        app_ints.insert(e.clone());
                    }
                }
                Expr::App(f, _) => {
                    if let Some((_, ret)) = ctx.lookup_fn(*f) {
                        match ret {
                            Sort::Int => {
                                ints.insert(e.clone());
                                if in_app {
                                    app_ints.insert(e.clone());
                                }
                            }
                            Sort::Bool => {}
                            other => {
                                others.insert((other, e.clone()));
                            }
                        }
                    }
                }
                _ => {
                    // A compound ground term (e.g. `len - 1`) in argument
                    // position is itself a trigger candidate.
                    if in_app {
                        if let Ok(Sort::Int) = sort_of_ground(e, ctx) {
                            app_ints.insert(e.clone());
                        }
                    }
                }
            }
        }
        match e {
            Expr::UnOp(_, inner) => go(inner, bound, in_app, ctx, ints, app_ints, others),
            Expr::BinOp(_, l, r) => {
                go(l, bound, in_app, ctx, ints, app_ints, others);
                go(r, bound, in_app, ctx, ints, app_ints, others);
            }
            Expr::Ite(c, t, el) => {
                go(c, bound, in_app, ctx, ints, app_ints, others);
                go(t, bound, in_app, ctx, ints, app_ints, others);
                go(el, bound, in_app, ctx, ints, app_ints, others);
            }
            Expr::App(_, args) => {
                for a in args {
                    go(a, bound, true, ctx, ints, app_ints, others);
                }
            }
            Expr::Forall(binders, body) | Expr::Exists(binders, body) => {
                let before = bound.len();
                bound.extend(binders.iter().map(|(n, _)| *n));
                go(body, bound, in_app, ctx, ints, app_ints, others);
                bound.truncate(before);
            }
            _ => {}
        }
    }
    go(
        expr,
        &mut Vec::new(),
        false,
        ctx,
        &mut ints,
        &mut app_ints,
        &mut others,
    );

    Candidates {
        ints: ints.into_iter().take(config.max_candidates).collect(),
        app_ints: app_ints.into_iter().take(config.max_candidates).collect(),
        others: others.into_iter().take(config.max_candidates).collect(),
    }
}

fn sort_of_ground(e: &Expr, ctx: &SortCtx) -> Result<Sort, ()> {
    e.sort_of(ctx).map_err(|_| ())
}

/// True if some occurrence of `name` in `e` sits inside an argument of an
/// uninterpreted application (e.g. `select(a, name)`).  Such a binder has a
/// trigger: instantiating it beyond the ground application-argument terms
/// cannot create new matches, so its candidate set is restricted to
/// [`Candidates::app_ints`].
fn occurs_in_app_arg(e: &Expr, name: Name, in_app: bool) -> bool {
    match e {
        Expr::Var(v) => *v == name && in_app,
        Expr::Const(_) => false,
        Expr::UnOp(_, inner) => occurs_in_app_arg(inner, name, in_app),
        Expr::BinOp(_, l, r) => {
            occurs_in_app_arg(l, name, in_app) || occurs_in_app_arg(r, name, in_app)
        }
        Expr::Ite(c, t, el) => {
            occurs_in_app_arg(c, name, in_app)
                || occurs_in_app_arg(t, name, in_app)
                || occurs_in_app_arg(el, name, in_app)
        }
        Expr::App(_, args) => args.iter().any(|a| occurs_in_app_arg(a, name, true)),
        Expr::Forall(binders, body) | Expr::Exists(binders, body) => {
            !binders.iter().any(|(b, _)| *b == name) && occurs_in_app_arg(body, name, in_app)
        }
    }
}

/// Replaces positive universals by conjunctions of ground instances.
fn instantiate(
    expr: &Expr,
    positive: bool,
    candidates: &Candidates,
    config: &QuantConfig,
    stats: &mut QuantStats,
) -> Expr {
    match expr {
        Expr::Var(_) | Expr::Const(_) | Expr::App(..) => expr.clone(),
        Expr::UnOp(UnOp::Not, inner) => {
            Expr::not(instantiate(inner, !positive, candidates, config, stats))
        }
        Expr::UnOp(op, inner) => {
            Expr::unop(*op, instantiate(inner, positive, candidates, config, stats))
        }
        Expr::BinOp(BinOp::Imp, lhs, rhs) => Expr::binop(
            BinOp::Imp,
            instantiate(lhs, !positive, candidates, config, stats),
            instantiate(rhs, positive, candidates, config, stats),
        ),
        Expr::BinOp(BinOp::Iff, ..) => expr.clone(),
        Expr::BinOp(op, lhs, rhs) => Expr::binop(
            *op,
            instantiate(lhs, positive, candidates, config, stats),
            instantiate(rhs, positive, candidates, config, stats),
        ),
        Expr::Ite(c, t, e) => Expr::ite(
            (**c).clone(),
            instantiate(t, positive, candidates, config, stats),
            instantiate(e, positive, candidates, config, stats),
        ),
        Expr::Forall(binders, body) if positive => {
            let body = instantiate(body, positive, candidates, config, stats);
            // Per-binder candidate sets: a binder with a trigger (it occurs
            // as an application argument) draws from the trigger terms only.
            let per_binder: Vec<Vec<Expr>> = binders
                .iter()
                .map(|(name, sort)| {
                    if *sort == Sort::Int && occurs_in_app_arg(&body, *name, false) {
                        candidates.triggered(*sort)
                    } else {
                        candidates.of_sort(*sort)
                    }
                })
                .collect();
            let mut instances = Vec::new();
            let mut tuple = Vec::new();
            build_instances(
                binders,
                0,
                &mut tuple,
                &per_binder,
                &body,
                &mut instances,
                config.max_instances_per_quantifier,
            );
            stats.instances += instances.len();
            if instances.is_empty() {
                // No candidates of the right sort: the quantifier is dropped
                // entirely (weakest possible approximation).
                Expr::tt()
            } else {
                Expr::and_all(instances)
            }
        }
        // Negative universals and any existential reaching this point are
        // left for `abstract_remaining`.
        Expr::Forall(..) | Expr::Exists(..) => expr.clone(),
    }
}

fn build_instances(
    binders: &[(Name, Sort)],
    index: usize,
    tuple: &mut Vec<(Name, Expr)>,
    per_binder: &[Vec<Expr>],
    body: &Expr,
    out: &mut Vec<Expr>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    if index == binders.len() {
        let subst: flux_logic::Subst = tuple.iter().cloned().collect();
        out.push(subst.apply(body));
        return;
    }
    let (name, _) = binders[index];
    for candidate in &per_binder[index] {
        tuple.push((name, candidate.clone()));
        build_instances(binders, index + 1, tuple, per_binder, body, out, limit);
        tuple.pop();
        if out.len() >= limit {
            return;
        }
    }
}

/// Replaces any remaining quantified subformula with a fresh boolean
/// variable.
fn abstract_remaining(expr: &Expr, stats: &mut QuantStats) -> Expr {
    match expr {
        Expr::Forall(..) | Expr::Exists(..) => {
            stats.abstracted += 1;
            Expr::Var(Name::fresh("$quant"))
        }
        Expr::Var(_) | Expr::Const(_) => expr.clone(),
        Expr::UnOp(op, e) => Expr::unop(*op, abstract_remaining(e, stats)),
        Expr::BinOp(op, l, r) => Expr::binop(
            *op,
            abstract_remaining(l, stats),
            abstract_remaining(r, stats),
        ),
        Expr::Ite(c, t, e) => Expr::ite(
            abstract_remaining(c, stats),
            abstract_remaining(t, stats),
            abstract_remaining(e, stats),
        ),
        Expr::App(f, args) => Expr::App(
            *f,
            args.iter().map(|a| abstract_remaining(a, stats)).collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Expr {
        Expr::var(Name::intern(s))
    }

    fn ctx_with_ints(vars: &[&str]) -> SortCtx {
        let mut ctx = SortCtx::new();
        for name in vars {
            ctx.push(Name::intern(name), Sort::Int);
        }
        ctx
    }

    #[test]
    fn quantifier_free_formulas_pass_through() {
        let ctx = ctx_with_ints(&["x"]);
        let e = Expr::ge(v("x"), Expr::int(0));
        let (out, _, stats) = eliminate_quantifiers(&e, &ctx, &QuantConfig::default());
        assert_eq!(out, e);
        assert_eq!(stats, QuantStats::default());
    }

    #[test]
    fn positive_forall_is_instantiated_with_ground_terms() {
        // (forall j. j <= n)  ∧  k >= 5    -- candidates: n, k, 5-ish terms
        let ctx = ctx_with_ints(&["n", "k"]);
        let j = Name::intern("j");
        let e = Expr::and(
            Expr::forall(vec![(j, Sort::Int)], Expr::le(Expr::var(j), v("n"))),
            Expr::ge(v("k"), Expr::int(5)),
        );
        let (out, _, stats) = eliminate_quantifiers(&e, &ctx, &QuantConfig::default());
        assert!(!out.has_quantifier());
        assert!(
            stats.instances >= 2,
            "expected several instances, got {stats:?}"
        );
        // The instantiation must mention k <= n (instance at candidate k).
        let printed = format!("{out}");
        assert!(printed.contains("k <= n"), "missing instance in {printed}");
    }

    #[test]
    fn negated_forall_is_skolemised() {
        // ¬(forall i. i >= 0) becomes ¬(sk >= 0) for a fresh sk.
        let ctx = SortCtx::new();
        let i = Name::intern("i");
        let e = Expr::not(Expr::forall(
            vec![(i, Sort::Int)],
            Expr::ge(Expr::var(i), Expr::int(0)),
        ));
        let (out, ext, stats) = eliminate_quantifiers(&e, &ctx, &QuantConfig::default());
        assert!(!out.has_quantifier());
        assert_eq!(stats.skolems, 1);
        // The skolem constant is registered in the extended context.
        assert_eq!(ext.len(), 1);
    }

    #[test]
    fn existential_is_skolemised() {
        let ctx = SortCtx::new();
        let y = Name::intern("y");
        let e = Expr::exists(vec![(y, Sort::Int)], Expr::ge(Expr::var(y), Expr::int(3)));
        let (out, _, stats) = eliminate_quantifiers(&e, &ctx, &QuantConfig::default());
        assert!(!out.has_quantifier());
        assert_eq!(stats.skolems, 1);
        assert!(format!("{out}").contains(">= 3"));
    }

    #[test]
    fn array_axiom_instantiates_at_read_index() {
        // forall j. select(a, j) >= 0, conjoined with a fact about select(a, i).
        let mut ctx = ctx_with_ints(&["i"]);
        ctx.push(Name::intern("a"), Sort::Array);
        let j = Name::intern("j");
        let axiom = Expr::forall(
            vec![(j, Sort::Int)],
            Expr::ge(
                Expr::app("select", vec![v("a"), Expr::var(j)]),
                Expr::int(0),
            ),
        );
        let fact = Expr::lt(Expr::app("select", vec![v("a"), v("i")]), Expr::int(0));
        let e = Expr::and(axiom, fact);
        let (out, _, _) = eliminate_quantifiers(&e, &ctx, &QuantConfig::default());
        let printed = format!("{out}");
        assert!(
            printed.contains("select(a, i) >= 0"),
            "instantiation at i missing from {printed}"
        );
    }

    #[test]
    fn instantiation_respects_the_limit() {
        let ctx = ctx_with_ints(&["a", "b", "c", "d", "e", "f"]);
        let i = Name::intern("i");
        let jj = Name::intern("jj");
        let body = Expr::le(Expr::var(i), Expr::var(jj));
        let e = Expr::forall(vec![(i, Sort::Int), (jj, Sort::Int)], body);
        let config = QuantConfig {
            rounds: 1,
            max_candidates: 10,
            max_instances_per_quantifier: 5,
        };
        let (_, _, stats) = eliminate_quantifiers(&e, &ctx, &config);
        assert!(stats.instances <= 5);
    }

    #[test]
    fn remaining_alternation_is_abstracted() {
        // forall x. exists y. y > x -- the nested existential survives and
        // the whole instantiated body keeps quantifiers, so abstraction
        // kicks in and the result is quantifier-free.
        let ctx = ctx_with_ints(&["z"]);
        let x = Name::intern("x");
        let y = Name::intern("y");
        let e = Expr::forall(
            vec![(x, Sort::Int)],
            Expr::exists(vec![(y, Sort::Int)], Expr::gt(Expr::var(y), Expr::var(x))),
        );
        let (out, _, _) = eliminate_quantifiers(&e, &ctx, &QuantConfig::default());
        assert!(!out.has_quantifier());
    }
}
