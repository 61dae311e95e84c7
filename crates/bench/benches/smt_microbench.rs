//! Micro-benchmarks of the SMT substrate: quantifier-free queries (as issued
//! by Flux) versus quantified queries (as issued by the baseline), isolating
//! the §5.2 explanation for the verification-time gap — plus a comparison of
//! one-shot solving against the incremental [`flux_smt::Session`] path, which
//! preprocesses and CNF-converts the shared hypotheses once per session.

use flux_bench::harness::Criterion;
use flux_logic::{Expr, ExprId, Name, Sort, SortCtx};
use flux_smt::linear::{LinConstraint, LinExpr};
use flux_smt::rational::Rational;
use flux_smt::simplex::{check_lia, IncrementalSimplex, LiaResult};
use flux_smt::{ResourceBudget, Session, SmtConfig, SmtStats, Solver};

fn qf_vc() -> (SortCtx, Vec<Expr>, Expr) {
    let mut ctx = SortCtx::new();
    ctx.push(Name::intern("i"), Sort::Int);
    ctx.push(Name::intern("n"), Sort::Int);
    let i = Expr::var(Name::intern("i"));
    let n = Expr::var(Name::intern("n"));
    let hyps = vec![
        Expr::ge(i.clone(), Expr::int(0)),
        Expr::lt(i.clone(), n.clone()),
    ];
    let goal = Expr::le(i + Expr::int(1), n);
    (ctx, hyps, goal)
}

fn bench_smt(c: &mut Criterion) {
    let mut group = c.benchmark_group("smt");
    group.sample_size(30);

    // Quantifier-free: i >= 0 && i < n  ⟹  i + 1 <= n
    group.bench_function("quantifier-free-vc", |b| {
        let (ctx, hyps, goal) = qf_vc();
        b.iter(|| {
            let mut solver = Solver::with_defaults();
            assert!(solver.check_valid_imp(&ctx, &hyps, &goal).is_valid());
        })
    });

    // The same implication checked 32 times: one-shot rebuilds the pipeline
    // for every query, the session preprocesses the hypotheses once.
    group.bench_function("32-goals-one-shot", |b| {
        let (ctx, hyps, _) = qf_vc();
        b.iter(|| {
            let mut solver = Solver::with_defaults();
            for k in 0..32 {
                let g = Expr::le(
                    Expr::var(Name::intern("i")) + Expr::int(1),
                    Expr::var(Name::intern("n")) + Expr::int(k),
                );
                assert!(solver.check_valid_imp(&ctx, &hyps, &g).is_valid());
            }
        })
    });
    group.bench_function("32-goals-session", |b| {
        let (ctx, hyps, _) = qf_vc();
        b.iter(|| {
            let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
            for k in 0..32 {
                let g = Expr::le(
                    Expr::var(Name::intern("i")) + Expr::int(1),
                    Expr::var(Name::intern("n")) + Expr::int(k),
                );
                assert!(session.check(&g).is_valid());
            }
        })
    });

    // Simplex reuse: one constraint family asserted and retracted 32 times
    // with a varying extra bound — the DPLL(T) theory-check pattern.  The
    // one-shot path rebuilds a tableau from scratch every round; the
    // incremental tableau registers the rows once and each round merely
    // toggles bounds inside a push/pop scope, reusing the pivoted basis.
    let family: Vec<LinConstraint> = {
        let names = ["sx1", "sx2", "sx3", "sx4", "sx5", "sx6"];
        let mut cs = Vec::new();
        for w in names.windows(2) {
            // w[0] <= w[1]
            let mut lhs = LinExpr::var(Name::intern(w[0]));
            lhs.add_term(Name::intern(w[1]), -Rational::ONE);
            cs.push(LinConstraint::le_zero(lhs));
        }
        // sx1 >= 0
        let mut lhs = LinExpr::var(Name::intern("sx1")).scaled(-Rational::ONE);
        lhs.add_constant(Rational::ZERO);
        cs.push(LinConstraint::le_zero(lhs));
        cs
    };
    let round_bound = |k: i128| {
        // sx6 <= 40 + k
        let mut lhs = LinExpr::var(Name::intern("sx6"));
        lhs.add_constant(Rational::int(-40 - k));
        LinConstraint::le_zero(lhs)
    };
    group.bench_function("lia-32-rounds-one-shot", |b| {
        b.iter(|| {
            for k in 0..32 {
                let mut cs = family.clone();
                cs.push(round_bound(k));
                assert!(matches!(
                    check_lia(&cs, &ResourceBudget::UNLIMITED),
                    LiaResult::Feasible(_)
                ));
            }
        })
    });
    group.bench_function("lia-32-rounds-incremental", |b| {
        b.iter(|| {
            let mut simplex = IncrementalSimplex::new(ResourceBudget::UNLIMITED);
            let slots: Vec<_> = family.iter().map(|c| simplex.register(c)).collect();
            let bounds: Vec<_> = (0..32).map(|k| simplex.register(&round_bound(k))).collect();
            for &bound in &bounds {
                simplex.push();
                for (tag, slot) in slots.iter().enumerate() {
                    simplex.assert_constraint(*slot, true, tag).unwrap();
                }
                simplex.assert_constraint(bound, true, slots.len()).unwrap();
                assert!(matches!(simplex.check_integer(), LiaResult::Feasible(_)));
                simplex.pop();
            }
        })
    });

    // Session retention: the weakening loop's retract/re-assert pattern.
    // The schedule walks 16 hypothesis conjunct sets, each toggling two
    // conjuncts of its predecessor (a retraction plus a re-assertion — the
    // shape a κ-weakening produces), and checks a goal battery after every
    // move.  The rebuild path opens a fresh session per set, paying atom
    // registration and hypothesis assertion each time; the retained path
    // re-points one live session via `update_hypotheses`, keeping the SAT
    // core's variable space, its learned theory lemmas and the simplex
    // basis with its warm pivots.
    let retention_ctx = {
        let mut ctx = SortCtx::new();
        for v in ["sr_a", "sr_b", "sr_c", "sr_d"] {
            ctx.push(Name::intern(v), Sort::Int);
        }
        ctx
    };
    let (retention_schedule, retention_goals) = {
        let var = |s: &str| Expr::var(Name::intern(s));
        // Simultaneously satisfiable, so every subset keeps the session in
        // the incremental mode and `update_hypotheses` always succeeds.
        let pool: Vec<ExprId> = [
            Expr::ge(var("sr_a"), Expr::int(0)),
            Expr::le(var("sr_a"), var("sr_b")),
            Expr::le(var("sr_b"), var("sr_c")),
            Expr::le(var("sr_c"), var("sr_d")),
            Expr::le(var("sr_d"), Expr::int(100)),
            Expr::ge(var("sr_b"), Expr::int(1)),
            Expr::ge(var("sr_c"), Expr::int(2)),
            Expr::le(var("sr_a") + var("sr_b"), var("sr_d")),
        ]
        .iter()
        .map(ExprId::intern)
        .collect();
        let goals: Vec<ExprId> = [
            Expr::ge(var("sr_b"), Expr::int(0)),
            Expr::le(var("sr_a"), var("sr_d")),
            Expr::ge(var("sr_d"), Expr::int(2)),
            Expr::eq(var("sr_a"), Expr::int(3)),
        ]
        .iter()
        .map(ExprId::intern)
        .collect();
        let mut active = vec![true; pool.len()];
        let mut schedule = Vec::new();
        for k in 0..16usize {
            active[(k * 5 + 1) % pool.len()] ^= true;
            active[(k * 3 + 2) % pool.len()] ^= true;
            schedule.push(
                active
                    .iter()
                    .zip(&pool)
                    .filter_map(|(&on, &id)| on.then_some(id))
                    .collect::<Vec<ExprId>>(),
            );
        }
        (schedule, goals)
    };
    group.bench_function("session-retention-rebuild", |b| {
        b.iter(|| {
            for hyps in &retention_schedule {
                let mut session = Session::assume_ids(SmtConfig::default(), &retention_ctx, hyps);
                for &g in &retention_goals {
                    let _ = session.check_id(g);
                }
            }
        })
    });
    group.bench_function("session-retention-incremental", |b| {
        b.iter(|| {
            let mut session =
                Session::assume_ids(SmtConfig::default(), &retention_ctx, &retention_schedule[0]);
            for hyps in &retention_schedule {
                assert!(session.update_hypotheses(hyps));
                for &g in &retention_goals {
                    let _ = session.check_id(g);
                }
            }
        })
    });

    // Long-session simplex: 479 registered rows, and check rounds that each
    // touch only four of them.  Setup (registration and the base asserts)
    // happens outside the timed region — what is measured is the steady
    // state of an aged session, where the occurrence lists touch only the
    // rows containing the slid variable, so the cost should stay flat as
    // the session grows.
    let long_session_setup = || {
        let n = 160usize;
        let name = |i: usize| Name::intern(&format!("lsx{i}"));
        let mut family = Vec::new();
        for i in 0..n - 1 {
            // x_i <= x_{i+1}
            let mut lhs = LinExpr::var(name(i));
            lhs.add_term(name(i + 1), -Rational::ONE);
            family.push(LinConstraint::le_zero(lhs));
        }
        for i in 0..n {
            // x_i >= 0 and x_i <= 1000.
            family.push(LinConstraint::le_zero(
                LinExpr::var(name(i)).scaled(-Rational::ONE),
            ));
            let mut lhs = LinExpr::var(name(i));
            lhs.add_constant(Rational::int(-1000));
            family.push(LinConstraint::le_zero(lhs));
        }
        let extras: Vec<LinConstraint> = (0..n / 4)
            .map(|i| {
                // x_{4i} <= 500: a tighter, still satisfiable round bound.
                let mut lhs = LinExpr::var(name(4 * i));
                lhs.add_constant(Rational::int(-500));
                LinConstraint::le_zero(lhs)
            })
            .collect();
        let mut simplex = IncrementalSimplex::new(ResourceBudget::UNLIMITED);
        let slots: Vec<_> = family.iter().map(|c| simplex.register(c)).collect();
        let extra_slots: Vec<_> = extras.iter().map(|c| simplex.register(c)).collect();
        for (tag, slot) in slots.iter().enumerate() {
            simplex.assert_constraint(*slot, true, tag).unwrap();
        }
        (simplex, extra_slots, slots.len())
    };
    let long_session_rounds = |simplex: &mut IncrementalSimplex,
                               extra_slots: &[flux_smt::simplex::SlotId],
                               base: usize| {
        for round in 0..64 {
            simplex.push();
            for j in 0..4 {
                let pick = (round * 4 + j) % extra_slots.len();
                simplex
                    .assert_constraint(extra_slots[pick], true, base + j)
                    .unwrap();
            }
            assert!(matches!(simplex.check_integer(), LiaResult::Feasible(_)));
            simplex.pop();
        }
    };
    group.bench_function("lia-long-session-occ-lists", |b| {
        let (mut simplex, extra_slots, base) = long_session_setup();
        b.iter(|| long_session_rounds(&mut simplex, &extra_slots, base))
    });

    // Quantified: an array frame axiom must be instantiated to prove a read.
    group.bench_function("quantified-vc", |b| {
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("i"), Sort::Int);
        ctx.push(Name::intern("lenv"), Sort::Int);
        ctx.push(Name::intern("a"), Sort::Array);
        let i = Expr::var(Name::intern("i"));
        let lenv = Expr::var(Name::intern("lenv"));
        let a = Expr::var(Name::intern("a"));
        let j = Name::intern("j");
        let axiom = Expr::forall(
            vec![(j, Sort::Int)],
            Expr::imp(
                Expr::and(
                    Expr::ge(Expr::var(j), Expr::int(0)),
                    Expr::lt(Expr::var(j), lenv.clone()),
                ),
                Expr::ge(
                    Expr::app("select", vec![a.clone(), Expr::var(j)]),
                    Expr::int(0),
                ),
            ),
        );
        let hyps = vec![
            axiom,
            Expr::ge(i.clone(), Expr::int(0)),
            Expr::lt(i.clone(), lenv),
        ];
        let goal = Expr::ge(Expr::app("select", vec![a, i]), Expr::int(0));
        b.iter(|| {
            let mut solver = Solver::with_defaults();
            assert!(solver.check_valid_imp(&ctx, &hyps, &goal).is_valid());
        })
    });

    group.finish();
}

/// Prints the engine statistics for one sweep of the session workload so the
/// perf trajectory (queries, sessions, SAT rounds) is visible in bench logs.
fn report_engine_stats() {
    let (ctx, hyps, _) = qf_vc();
    let mut solver = Solver::with_defaults();
    let mut session = solver.assume(&ctx, &hyps);
    for k in 0..32 {
        let g = Expr::le(
            Expr::var(Name::intern("i")) + Expr::int(1),
            Expr::var(Name::intern("n")) + Expr::int(k),
        );
        let _ = session.check(&g);
    }
    let session_stats: SmtStats = *session.stats();
    solver.stats.absorb(session_stats);
    let s = solver.stats;
    println!(
        "engine stats: {} queries, {} sessions opened, {} sat rounds, {} theory checks",
        s.queries, s.sessions, s.sat_rounds, s.theory_checks
    );
}

fn main() {
    let mut c = Criterion::new();
    bench_smt(&mut c);
    report_engine_stats();
}
