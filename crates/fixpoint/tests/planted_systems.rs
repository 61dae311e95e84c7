//! Randomly generated constraint systems with planted κ-chains, solved by
//! the weakening engine and checked against independent oracles.
//!
//! The generator plants a configurable number of independent κ-chains
//! (disjoint κs, disjoint binder names), each ending in a concrete exit
//! obligation that is either always true or sometimes false, so both Safe
//! and Unsafe systems come out.  Every system is solved under the full
//! audit tier: a Safe solution is re-validated clause by clause with a
//! fresh one-shot solver inside the solve, and every clause must have been
//! re-validated.  An Unsafe result must be confirmed the same way: a fresh
//! solver refutes the clause of every blamed tag under the returned
//! solution.
//!
//! The environment has no crates.io access, so instead of proptest this
//! uses the workspace's deterministic xorshift generator
//! ([`flux_smt::testing::Rng`]): every failure reproduces by seed.

use flux_fixpoint::{
    Clause, Constraint, FixConfig, FixResult, FixpointSolver, Guard, Head, KVarApp, KVarStore,
    KVid, Solution,
};
use flux_logic::{AuditTier, Expr, Name, Sort, SortCtx};
use flux_smt::testing::Rng;
use flux_smt::{SmtConfig, Solver, Validity};

/// One planted component: a chain of κs over fresh names, κ_{j+1} guarded
/// by κ_j, with a loop-shaped first κ and a concrete exit obligation.
fn gen_component(rng: &mut Rng, kvars: &mut KVarStore, uid: String) -> Constraint {
    let chain_len = 1 + rng.below(3) as usize;
    let chain: Vec<KVid> = (0..chain_len)
        .map(|_| kvars.fresh(vec![Sort::Int, Sort::Int]))
        .collect();
    let n = Name::intern(&format!("pp_n_{uid}"));
    let i = Name::intern(&format!("pp_i_{uid}"));
    let start = rng.int_in(0, 2);
    let lower = rng.int_in(0, 2);
    // An always-true or sometimes-false exit goal, so both Safe and Unsafe
    // systems are generated.
    let exit_goal = if rng.flip() {
        Expr::ge(Expr::var(i), Expr::int(start.min(lower)))
    } else {
        Expr::eq(Expr::var(i), Expr::var(n) + Expr::int(rng.int_in(0, 1)))
    };
    let k0 = chain[0];
    let mut body = vec![
        // Entry: κ0(start, n), guarded so it is satisfiable.
        Constraint::implies(
            Guard::Pred(Expr::le(Expr::int(start), Expr::var(n))),
            Constraint::kvar(KVarApp::new(k0, vec![Expr::int(start), Expr::var(n)])),
        ),
        // Preservation: κ0(i, n) ∧ i < n ⟹ κ0(i+1, n).
        Constraint::implies(
            Guard::KVar(KVarApp::new(k0, vec![Expr::var(i), Expr::var(n)])),
            Constraint::implies(
                Guard::Pred(Expr::lt(Expr::var(i), Expr::var(n))),
                Constraint::kvar(KVarApp::new(
                    k0,
                    vec![Expr::var(i) + Expr::int(1), Expr::var(n)],
                )),
            ),
        ),
    ];
    // Chain links: κ_{j}(i, n) ⟹ κ_{j+1}(i, n).
    for window in chain.windows(2) {
        body.push(Constraint::implies(
            Guard::KVar(KVarApp::new(window[0], vec![Expr::var(i), Expr::var(n)])),
            Constraint::kvar(KVarApp::new(window[1], vec![Expr::var(i), Expr::var(n)])),
        ));
    }
    // Concrete exit obligation on the last κ of the chain.
    let last = *chain.last().expect("chain is nonempty");
    body.push(Constraint::implies(
        Guard::KVar(KVarApp::new(last, vec![Expr::var(i), Expr::var(n)])),
        Constraint::implies(
            Guard::Pred(Expr::not(Expr::lt(Expr::var(i), Expr::var(n)))),
            Constraint::pred(exit_goal, kvars.len()),
        ),
    ));
    Constraint::forall(
        n,
        Sort::Int,
        Expr::ge(Expr::var(n), Expr::int(lower)),
        Constraint::forall(i, Sort::Int, Expr::tt(), Constraint::conj(body)),
    )
}

/// The full audit tier with a hermetic cache: every verdict of the solve
/// comes from its own engine, and a Safe solution is re-validated by a
/// fresh one-shot solver before it is returned.
fn audited() -> FixConfig {
    FixConfig {
        smt: SmtConfig {
            audit: AuditTier::Full,
            ..SmtConfig::default()
        },
        global_cache: false,
        ..FixConfig::default()
    }
}

/// Checks `clause` with `solution` substituted for its κ applications on a
/// fresh one-shot solver, sharing nothing with the solve.
fn check_substituted(clause: &Clause, kvars: &KVarStore, solution: &Solution) -> Validity {
    let mut ctx = SortCtx::new();
    for (name, sort) in &clause.binders {
        ctx.push(*name, *sort);
    }
    let hyps: Vec<Expr> = clause
        .guards
        .iter()
        .map(|g| match g {
            Guard::Pred(p) => p.clone(),
            Guard::KVar(app) => solution.apply(app, kvars),
        })
        .collect();
    let goal = match &clause.head {
        Head::Pred(p, _) => p.clone(),
        Head::KVar(app) => solution.apply(app, kvars),
    };
    Solver::with_defaults().check_valid_imp(&ctx, &hyps, &goal)
}

#[test]
fn planted_systems_agree_with_independent_oracles() {
    let mut safe_seen = 0usize;
    let mut unsafe_seen = 0usize;
    for seed in 0..110u64 {
        let mut rng = Rng::new(0x9A87_110E_5EED ^ (seed.wrapping_mul(0x9E37_79B9)));
        let planted = 1 + rng.below(3) as usize;
        let mut kvars = KVarStore::new();
        let parts: Vec<Constraint> = (0..planted)
            .map(|comp| gen_component(&mut rng, &mut kvars, format!("{seed}_{comp}")))
            .collect();
        let constraint = Constraint::conj(parts);
        let clauses = constraint.flatten();
        let mut solver = FixpointSolver::new(audited());
        match solver.solve(&constraint, &kvars, &SortCtx::new()) {
            FixResult::Safe(_) => {
                assert_eq!(
                    solver.stats.revalidations,
                    clauses.len(),
                    "seed {seed}: every clause of a Safe system must be re-validated"
                );
                safe_seen += 1;
            }
            FixResult::Unsafe { solution, failed } => {
                assert!(!failed.is_empty(), "seed {seed}: Unsafe without blame");
                for tag in failed {
                    let blamed: Vec<&Clause> = clauses
                        .iter()
                        .filter(|c| matches!(c.head, Head::Pred(_, t) if t == tag))
                        .collect();
                    assert_eq!(blamed.len(), 1, "seed {seed}: one clause per tag {tag}");
                    assert!(
                        matches!(
                            check_substituted(blamed[0], &kvars, &solution),
                            Validity::Invalid(_)
                        ),
                        "seed {seed}: a fresh solver does not refute blamed tag {tag}"
                    );
                }
                unsafe_seen += 1;
            }
            FixResult::Unknown { reasons, .. } => {
                panic!("seed {seed}: degraded under unlimited budgets: {reasons:?}")
            }
        }
    }
    // The generator must exercise both verdicts, or one oracle is vacuous.
    assert!(
        safe_seen > 10,
        "too few safe systems generated: {safe_seen}"
    );
    assert!(
        unsafe_seen > 10,
        "too few unsafe systems generated: {unsafe_seen}"
    );
}
