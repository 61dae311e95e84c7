//! Deterministic fault-injection fuzz (PR 8): seeded fault plans inject
//! spurious solver `Unknown`s, worker panics and lock-hold delays at the
//! engine's choke points while full fixpoint solves run on two worker
//! threads.  Three properties, checked across every seed:
//!
//! 1. **No panic escapes** — injected worker panics are contained by the
//!    scheduler; the solve returns a structured result.
//! 2. **No hang** — the whole fuzz loop runs under a watchdog.
//! 3. **No false verification** — a faulted run may report a system safe
//!    only when the fault-free run does too.
//!
//! The fault plan is process-global, so this file holds a single test; the
//! seed count is `FLUX_FAULT_SEEDS` (default 100).

use flux_fixpoint::{Constraint, FixConfig, FixpointSolver, Guard, KVarApp, KVarStore};
use flux_logic::{env_parse, Expr, Name, Sort, SortCtx};
use flux_smt::testing::{clear_fault_plan, install_fault_plan, with_watchdog, FaultPlan};

/// Two independent κ components (so the parallel scheduler actually spawns
/// workers at `threads: 2`) with a shared entry bound.  `safe` selects
/// whether the concrete head is provable.
fn system(salt: &str, safe: bool) -> (Constraint, KVarStore) {
    let mut kvars = KVarStore::new();
    let k1 = kvars.fresh(vec![Sort::Int]);
    let k2 = kvars.fresh(vec![Sort::Int]);
    let x = Name::intern(&format!("fi_{salt}_x"));
    let bound = if safe { 0 } else { 100 };
    let component = |k: flux_fixpoint::KVid, off: i128| {
        Constraint::conj(vec![
            Constraint::kvar(KVarApp::new(k, vec![Expr::var(x) + Expr::int(off)])),
            Constraint::implies(
                Guard::KVar(KVarApp::new(k, vec![Expr::var(x) + Expr::int(off)])),
                Constraint::pred(
                    Expr::gt(Expr::var(x) + Expr::int(off), Expr::int(bound)),
                    off as usize,
                ),
            ),
        ])
    };
    let c = Constraint::forall(
        x,
        Sort::Int,
        Expr::ge(Expr::var(x), Expr::int(5)),
        Constraint::conj(vec![component(k1, 0), component(k2, 1)]),
    );
    (c, kvars)
}

/// A κ established only under a binder hypothesis (`x ≥ 5`) and needed by
/// a concrete head in another binder's scope, which holds only under the
/// κ's inferred assignment.
fn escaping_system(salt: &str) -> (Constraint, KVarStore) {
    let mut kvars = KVarStore::new();
    let k = kvars.fresh(vec![Sort::Int]);
    let x = Name::intern(&format!("fe_{salt}_x"));
    let y = Name::intern(&format!("fe_{salt}_y"));
    let c = Constraint::conj(vec![
        Constraint::forall(
            x,
            Sort::Int,
            Expr::ge(Expr::var(x), Expr::int(5)),
            Constraint::kvar(KVarApp::new(k, vec![Expr::var(x)])),
        ),
        Constraint::forall(
            y,
            Sort::Int,
            Expr::tt(),
            Constraint::implies(
                Guard::KVar(KVarApp::new(k, vec![Expr::var(y)])),
                Constraint::pred(Expr::gt(Expr::var(y), Expr::int(0)), 0),
            ),
        ),
    ]);
    (c, kvars)
}

fn solve(c: &Constraint, kvars: &KVarStore) -> flux_fixpoint::FixResult {
    let mut solver = FixpointSolver::new(FixConfig {
        threads: 2,
        ..FixConfig::default()
    });
    solver.solve(c, kvars, &SortCtx::new())
}

#[test]
fn faulted_solves_never_panic_hang_or_falsely_verify() {
    with_watchdog("fault fuzz", 600, || {
        // Injected worker panics are expected by the hundreds; keep the
        // default hook's backtrace spam out of the log but forward every
        // *other* panic (a genuine assertion failure must stay visible).
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected worker fault"));
            if !injected {
                prev(info);
            }
        }));

        // Fault-free references pin the corpus's polarity: the `true`
        // variant verifies, the `false` variant does not, whatever the salt
        // (the salt only renames variables).
        let references = [system("ref_a", true), system("ref_b", false)];
        let expect_safe = [true, false];
        let reference_results: Vec<_> = references.iter().map(|(c, k)| solve(c, k)).collect();
        for (i, reference) in reference_results.iter().enumerate() {
            assert_eq!(
                reference.is_safe(),
                expect_safe[i],
                "fault-free reference {i} has the wrong polarity: {reference:?}"
            );
        }

        let seeds = env_parse("FLUX_FAULT_SEEDS", 100u64);
        for seed in 1..=seeds {
            install_fault_plan(FaultPlan {
                seed,
                unknown_permille: 250,
                panic_permille: 120,
                delay_permille: 30,
                ..FaultPlan::default()
            });
            // Fresh per-seed vocabularies: every solve misses the global
            // verdict cache and drives the engine (and so the SAT/session/
            // worker fault sites) for real, instead of replaying cached
            // verdicts from the previous seed.
            for (i, safe) in [(0usize, true), (1usize, false)] {
                let (c, kvars) = system(&format!("s{seed}v{i}"), safe);
                // Any panic escaping `solve` fails the test right here —
                // containment is the property, not an accident.
                let result = solve(&c, &kvars);
                if safe {
                    assert!(
                        !matches!(result, flux_fixpoint::FixResult::Unsafe { .. }),
                        "seed {seed}: faults fabricated a counterexample for a \
                         safe system: {result:?}"
                    );
                } else {
                    assert!(
                        !result.is_safe(),
                        "seed {seed}: faults made an unsafe system verify: {result:?}"
                    );
                }
            }
            clear_fault_plan();
        }

        // Faulted runs must leave no residue: with the plan cleared, fresh
        // solves reproduce the fault-free references exactly (injected
        // `Unknown`s are never shared through the global verdict cache).
        for (i, (c, kvars)) in references.iter().enumerate() {
            assert_eq!(
                &solve(c, kvars),
                &reference_results[i],
                "system {i} diverged after the fault storm"
            );
        }

        // A panicked weakening worker leaves its κs unassigned, which reads
        // as `true`, so the concrete head that needs them fails.  That
        // failure is the panic's, not the program's: `Unknown`, never
        // `Unsafe`.
        let (c, kvars) = escaping_system("ref");
        let reference = solve(&c, &kvars);
        assert!(reference.is_safe(), "fault-free: {reference:?}");
        install_fault_plan(FaultPlan {
            seed: 1,
            panic_permille: 1000,
            ..FaultPlan::default()
        });
        let (c, kvars) = escaping_system("panicked");
        let result = solve(&c, &kvars);
        clear_fault_plan();
        assert!(
            matches!(result, flux_fixpoint::FixResult::Unknown { .. }),
            "a worker panic was blamed on the program: {result:?}"
        );
    });
}
