//! The solve memo: a solve whose key (flattened clauses, κ sorts, context,
//! qualifiers and SMT configuration) was already solved cleanly replays the
//! stored result, and any change to the key solves again.  Results touched
//! by an `Unknown` are never stored, a replayed `Unsafe` blames the same
//! obligations, and a hermetic solver keeps a memo of its own.
//!
//! The tests read the process-global memo's size and install a
//! process-global fault plan, so they serialize themselves on one lock.

use flux_check::{check_source, CheckConfig, FnReport};
use flux_fixpoint::{
    default_qualifiers, solve_memo_len, Constraint, FixConfig, FixResult, FixpointSolver, Guard,
    KVarApp, KVarStore,
};
use flux_logic::{AuditTier, Expr, Name, Sort, SortCtx};
use flux_smt::testing::{clear_fault_plan, install_fault_plan, FaultPlan};
use std::sync::{Mutex, MutexGuard};

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The parts of [`counting_loop`] that the key must see.
#[derive(Clone, Copy)]
struct Shape {
    /// Lower bound of `n` in the outer guard.
    bound: i128,
    /// Sort of an unused outer binder.
    binder: Sort,
    /// Sorts of an unused κ.
    spare_kvar: Sort,
    /// Tag of the exit obligation.
    tag: usize,
}

const BASE: Shape = Shape {
    bound: 0,
    binder: Sort::Int,
    spare_kvar: Sort::Int,
    tag: 0,
};

/// A safe counting loop, over names prefixed with `salt`:
///
/// ```text
/// ∀b. ∀n. n ≥ bound ⟹
///   κ(0, n) ∧ ∀i. κ(i, n) ∧ i < n ⟹ κ(i+1, n)
///           ∧ ∀i. κ(i, n) ∧ ¬(i < n) ⟹ i = n     -- tagged `tag`
/// ```
///
/// plus a κ that no clause mentions.
fn counting_loop(salt: &str, shape: Shape) -> (Constraint, KVarStore) {
    let mut kvars = KVarStore::new();
    let k = kvars.fresh(vec![Sort::Int, Sort::Int]);
    kvars.fresh(vec![Sort::Int, shape.spare_kvar]);
    let name = |s: &str| Name::intern(&format!("{salt}_{s}"));
    let (b, n, i) = (name("b"), name("n"), name("i"));
    let (nv, iv) = (Expr::var(n), Expr::var(i));
    let app = |first: Expr| Guard::KVar(KVarApp::new(k, vec![first, nv.clone()]));
    let body = Constraint::forall(
        n,
        Sort::Int,
        Expr::ge(nv.clone(), Expr::int(shape.bound)),
        Constraint::conj(vec![
            Constraint::kvar(KVarApp::new(k, vec![Expr::int(0), nv.clone()])),
            Constraint::forall(
                i,
                Sort::Int,
                Expr::tt(),
                Constraint::conj(vec![
                    Constraint::implies(
                        app(iv.clone()),
                        Constraint::implies(
                            Guard::Pred(Expr::lt(iv.clone(), nv.clone())),
                            Constraint::kvar(KVarApp::new(
                                k,
                                vec![iv.clone() + Expr::int(1), nv.clone()],
                            )),
                        ),
                    ),
                    Constraint::implies(
                        app(iv.clone()),
                        Constraint::implies(
                            Guard::Pred(Expr::not(Expr::lt(iv.clone(), nv.clone()))),
                            Constraint::pred(Expr::eq(iv.clone(), nv.clone()), shape.tag),
                        ),
                    ),
                ]),
            ),
        ]),
    );
    (Constraint::forall(b, shape.binder, Expr::tt(), body), kvars)
}

/// Solves `system` with a fresh solver configured by `config`.
fn solve(system: &(Constraint, KVarStore), config: &FixConfig) -> FixpointSolver {
    let mut solver = FixpointSolver::new(config.clone());
    let result = solver.solve(&system.0, &system.1, &SortCtx::new());
    assert!(result.is_safe(), "the counting loop is safe: {result:?}");
    solver
}

#[test]
fn identical_system_replays_and_any_key_change_solves_again() {
    let _guard = lock();
    let config = FixConfig::default();
    let base = counting_loop("sm_key", BASE);
    let mut first = FixpointSolver::new(config.clone());
    let stored = first.solve(&base.0, &base.1, &SortCtx::new());
    assert!(stored.is_safe());
    assert_eq!(first.stats.replays, 0);

    let mut second = FixpointSolver::new(config.clone());
    let replayed = second.solve(&base.0, &base.1, &SortCtx::new());
    assert_eq!(replayed, stored, "a replay must return the stored result");
    let s = second.stats;
    assert_eq!(
        (s.replays, s.smt_queries, s.cache_misses, s.sessions),
        (1, 0, 0, 0),
        "{s:?}"
    );
    assert_eq!((s.clauses, s.kvars), (first.stats.clauses, 2));
    assert_eq!(
        (s.initial_candidates, s.iterations),
        (0, 0),
        "a replay seeds and weakens nothing: {s:?}"
    );

    let reshaped = [
        ("a guard constant", Shape { bound: 1, ..BASE }),
        (
            "a binder's sort",
            Shape {
                binder: Sort::Bool,
                ..BASE
            },
        ),
        (
            "a κ sort",
            Shape {
                spare_kvar: Sort::Bool,
                ..BASE
            },
        ),
        ("a tag", Shape { tag: 1, ..BASE }),
    ];
    for (what, shape) in reshaped {
        let solver = solve(&counting_loop("sm_key", shape), &config);
        assert_eq!(solver.stats.replays, 0, "changing {what} replayed");
    }

    let mut qualifiers = default_qualifiers();
    qualifiers.pop();
    let mut budget = config.smt.budget;
    budget.pivots = Some(1_000_000);
    let mut audit = config.smt;
    audit.audit = match audit.audit {
        AuditTier::Off => AuditTier::Lint,
        _ => AuditTier::Off,
    };
    let reconfigured = [
        (
            "the qualifier list",
            FixConfig {
                qualifiers,
                ..config.clone()
            },
        ),
        ("one budget field", {
            let mut c = config.clone();
            c.smt.budget = budget;
            c
        }),
        (
            "the audit tier",
            FixConfig {
                smt: audit,
                ..config.clone()
            },
        ),
    ];
    for (what, config) in reconfigured {
        let solver = solve(&base, &config);
        assert_eq!(solver.stats.replays, 0, "changing {what} replayed");
    }
}

#[test]
fn unknown_results_are_never_stored() {
    let _guard = lock();
    let config = FixConfig::default();
    let system = counting_loop("sm_unknown", BASE);
    install_fault_plan(FaultPlan {
        unknown_permille: 1000,
        ..FaultPlan::default()
    });
    let mut faulted = FixpointSolver::new(config.clone());
    let result = faulted.solve(&system.0, &system.1, &SortCtx::new());
    clear_fault_plan();
    assert!(
        matches!(result, FixResult::Unknown { .. }),
        "every query answered Unknown, yet the solve concluded: {result:?}"
    );

    let solver = solve(&system, &config);
    assert_eq!(
        solver.stats.replays, 0,
        "an Unknown result was stored and replayed"
    );
    assert!(solver.stats.smt_queries > 0);
}

/// A two-counter loop whose `while i <= v.len()` reads one past the end.
const REV_SUM_OFF_BY_ONE: &str = r#"
    #[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]
    fn rev_sum(v: &RVec<i32>) -> i32 {
        let mut total = 0;
        let mut i = 0;
        let mut j = v.len();
        while i <= v.len() {
            j -= 1;
            total = total + v.get(j);
            i += 1;
        }
        total
    }
"#;

/// A counting loop that stops one past its bound.
const COUNT_OFF_BY_ONE: &str = r#"
    #[flux::sig(fn(usize[@n]) -> usize[n])]
    fn count(n: usize) -> usize {
        let mut i = 0;
        while i <= n {
            i += 1;
        }
        i
    }
"#;

/// Each diagnostic of `report` as its message and span.
fn blame(report: &FnReport) -> Vec<(String, usize, usize)> {
    report
        .errors
        .iter()
        .map(|d| (d.message.clone(), d.span.start, d.span.end))
        .collect()
}

fn check(source: &str) -> Vec<FnReport> {
    let config = CheckConfig {
        fn_threads: 1,
        ..CheckConfig::default()
    };
    check_source(source, &config)
        .expect("the program resolves")
        .functions
}

#[test]
fn replayed_unsafe_results_keep_their_blame() {
    let _guard = lock();
    for source in [REV_SUM_OFF_BY_ONE, COUNT_OFF_BY_ONE] {
        let cold = check(source);
        let warm = check(source);
        for (cold, warm) in cold.iter().zip(&warm) {
            assert!(!cold.errors.is_empty(), "{}: the bug was missed", cold.name);
            assert!(
                cold.unknowns.is_empty(),
                "{}: {:?}",
                cold.name,
                cold.unknowns
            );
            assert_eq!(cold.fixpoint_stats.replays, 0, "{}", cold.name);
            assert_eq!(warm.fixpoint_stats.replays, 1, "{}", warm.name);
            assert_eq!(warm.fixpoint_stats.smt_queries, 0, "{}", warm.name);
            assert_eq!(blame(warm), blame(cold), "{}: the blame moved", warm.name);
        }
    }
}

#[test]
fn identical_functions_share_one_solve() {
    let _guard = lock();
    let body = |name: &str, cmp: &str| {
        format!(
            "#[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]\n\
             fn {name}(v: &RVec<i32>) -> i32 {{\n\
             \x20   let mut total = 0;\n\
             \x20   let mut i = 0;\n\
             \x20   while i {cmp} v.len() {{\n\
             \x20       total = total + v.get(i);\n\
             \x20       i += 1;\n\
             \x20   }}\n\
             \x20   total\n\
             }}\n"
        )
    };
    let source = [
        body("up_a", "<"),
        body("up_b", "<"),
        body("past_a", "<="),
        body("past_b", "<="),
    ]
    .concat();
    let reports = check(&source);
    let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["up_a", "up_b", "past_a", "past_b"]);
    let replays: Vec<usize> = reports.iter().map(|r| r.fixpoint_stats.replays).collect();
    assert_eq!(replays, [0, 1, 0, 1], "the second of each pair replays");
    assert!(reports[0].is_safe() && reports[1].is_safe());
    for report in &reports[2..] {
        // Each function's blame lands in its own body.
        let start = source
            .find(&format!("fn {}(", report.name))
            .expect("the function is in the source");
        let end = start + source[start..].find("\n}\n").expect("the body ends");
        assert_eq!(
            report.errors.len(),
            1,
            "{}: {:?}",
            report.name,
            report.errors
        );
        let span = report.errors[0].span;
        assert!(
            start <= span.start && span.end <= end,
            "{}: blamed {span:?} outside its body {start}..{end}",
            report.name
        );
    }
    assert_eq!(reports[2].errors[0].message, reports[3].errors[0].message);
}

#[test]
fn hermetic_solvers_keep_their_own_memo() {
    let _guard = lock();
    let system = counting_loop("sm_hermetic", BASE);
    solve(&system, &FixConfig::default());
    let global_len = solve_memo_len();

    let hermetic = FixConfig {
        global_cache: false,
        ..FixConfig::default()
    };
    let mut solver = FixpointSolver::new(hermetic);
    let first = solver.solve(&system.0, &system.1, &SortCtx::new());
    assert!(first.is_safe());
    assert_eq!(
        solver.stats.replays, 0,
        "a hermetic solver replayed from the global memo"
    );
    let second = solver.solve(&system.0, &system.1, &SortCtx::new());
    assert_eq!(second, first);
    assert_eq!(solver.stats.replays, 1, "its own memo replays");
    assert_eq!(
        solve_memo_len(),
        global_len,
        "a hermetic solver stored in the global memo"
    );
}
