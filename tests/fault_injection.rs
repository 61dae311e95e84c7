//! Deterministic fault-injection fuzz (PR 8): seeded fault plans inject
//! spurious solver `Unknown`s, worker panics and lock-hold delays at the
//! engine's choke points, in two legs: whole fixpoint solves, and whole
//! programs checked through `flux_check::check_source` at function fan-out
//! widths 1 and 2.  Three properties, checked across every seed:
//!
//! 1. **No panic escapes** — injected worker panics are contained by the
//!    fan-out at every width; the check returns a structured report.
//! 2. **No hang** — the whole fuzz loop runs under a watchdog.
//! 3. **No false verdict** — a faulted run may report a system or function
//!    safe only when the fault-free run does too, and may blame one only
//!    when the fault-free run blames it too.
//!
//! The fault plan is process-global, so this file holds a single test; the
//! seed count is `FLUX_FAULT_SEEDS` (default 100).

use flux_check::{check_source, CheckConfig, Report};
use flux_fixpoint::{
    Constraint, FixConfig, FixpointSolver, Guard, KVarApp, KVarStore, UnknownReason,
};
use flux_logic::{env_parse, Expr, Name, Sort, SortCtx};
use flux_smt::testing::{clear_fault_plan, install_fault_plan, with_watchdog, FaultPlan};

/// Two κs with a shared entry bound.  `safe` selects whether the concrete
/// heads are provable.
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

/// Two safe functions (one with a loop invariant to infer) and one whose
/// postcondition is wrong.
const PROGRAM: &str = r#"
    #[flux::sig(fn(usize[@n]) -> usize[n])]
    fn count_up(n: usize) -> usize {
        let mut i = 0;
        while i < n {
            i += 1;
        }
        i
    }

    #[flux::sig(fn(i32[@x]) -> i32{v: v >= x && v >= 0})]
    fn abs(x: i32) -> i32 {
        if x < 0 { -x } else { x }
    }

    #[flux::sig(fn(i32[@a], i32[@b]) -> i32[a + b + 1])]
    fn add_wrong(a: i32, b: i32) -> i32 {
        a + b
    }
"#;

/// Checks [`PROGRAM`] at fan-out width `fn_threads` with a hermetic cache,
/// so every run drives the engine (and its fault sites) instead of
/// replaying verdicts from an earlier run.
fn check(fn_threads: usize) -> Report {
    let config = CheckConfig {
        fixpoint: FixConfig {
            global_cache: false,
            ..FixConfig::default()
        },
        fn_threads,
    };
    check_source(PROGRAM, &config).expect("the program parses and resolves")
}

fn solve(c: &Constraint, kvars: &KVarStore) -> flux_fixpoint::FixResult {
    FixpointSolver::with_defaults().solve(c, kvars, &SortCtx::new())
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
        let program_reference = check(1);
        let polarity: Vec<(&str, bool)> = program_reference
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.is_safe()))
            .collect();
        assert_eq!(
            polarity,
            [("count_up", true), ("abs", true), ("add_wrong", false)],
            "fault-free program reference: {program_reference:?}"
        );

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
            // verdict cache and drives the engine (and so the SAT/session
            // fault sites) for real, instead of replaying cached verdicts
            // from the previous seed.
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
            // Any panic escaping the fan-out fails the test right here, at
            // either width.
            for fn_threads in [1, 2] {
                let report = check(fn_threads);
                assert_eq!(report.functions.len(), polarity.len());
                for (f, &(name, safe)) in report.functions.iter().zip(&polarity) {
                    assert_eq!(f.name, name, "seed {seed}: function order changed");
                    assert!(
                        !f.is_safe() || safe,
                        "seed {seed} at fn_threads={fn_threads}: faults made {} verify",
                        f.name
                    );
                    assert!(
                        f.errors.is_empty() || !safe,
                        "seed {seed} at fn_threads={fn_threads}: faults fabricated an \
                         error in {}: {:?}",
                        f.name,
                        f.errors
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

        // A check that panics on every function, at either width: each is
        // inconclusive with a contained `WorkerPanic` and blamed for nothing.
        install_fault_plan(FaultPlan {
            seed: 1,
            panic_permille: 1000,
            ..FaultPlan::default()
        });
        let panicked = [check(1), check(2)];
        clear_fault_plan();
        for (report, fn_threads) in panicked.iter().zip([1, 2]) {
            assert_eq!(report.functions.len(), polarity.len());
            for f in &report.functions {
                assert!(
                    f.is_unknown()
                        && matches!(f.unknowns.as_slice(), [UnknownReason::WorkerPanic { .. }]),
                    "fn_threads={fn_threads}: {} was not contained as a worker panic: {f:?}",
                    f.name
                );
            }
        }
    });
}
