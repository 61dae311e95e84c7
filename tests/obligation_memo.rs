//! The baseline's obligation memo: an obligation whose key (hypotheses,
//! goal, the sorts of their free variables and the SMT configuration) was
//! already decided replays the stored verdict, and any change to the key
//! solves again.  `Unknown` verdicts are never stored, and a replayed
//! `Invalid` blames the obligation's own span.
//!
//! The tests read the process-global memo's size, clear it and install a
//! process-global fault plan, so they serialize themselves on one lock.

use flux::{verify_source, Mode, VerifyConfig, VerifyOutcome};
use flux_logic::AuditTier;
use flux_smt::testing::{clear_fault_plan, install_fault_plan, FaultPlan};
use flux_wp::{clear_obligation_memo, obligation_memo_len, WpConfig};
use std::sync::{Mutex, MutexGuard};

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn baseline(src: &str, config: &VerifyConfig) -> VerifyOutcome {
    verify_source(src, Mode::Baseline, config).expect("the program parses")
}

#[test]
fn reverifying_table1_hits_every_obligation() {
    let _exclusive = lock();
    let config = VerifyConfig::default();
    for b in flux::benchmarks() {
        let cold = baseline(b.baseline_src, &config);
        let memo_len = obligation_memo_len();
        let warm = baseline(b.baseline_src, &config);
        let (c, w) = (&cold.stats.fix, &warm.stats.fix);
        assert_eq!(warm.safe, cold.safe, "{}: the verdict changed", b.name);
        assert_eq!(warm.errors, cold.errors, "{}: the errors changed", b.name);
        assert_eq!(w.smt_queries, c.smt_queries, "{}: obligations", b.name);
        assert_eq!(w.cache_hits, w.smt_queries, "{}: a warm obligation", b.name);
        assert_eq!(w.cache_misses, 0, "{}: a warm miss", b.name);
        assert_eq!(w.sessions, 0, "{}: a warm session", b.name);
        assert_eq!(warm.stats.smt.queries, 0, "{}: a warm query", b.name);
        assert_eq!(c.smt_queries, c.cache_hits + c.cache_misses, "{}", b.name);
        assert_eq!(obligation_memo_len(), memo_len, "{}: a warm insert", b.name);
    }
}

/// A loop with a precondition, an invariant, an assertion and a
/// postcondition; `requires`, `invariant` and `asserted` are its constants.
fn counting(requires: i32, invariant: i32, asserted: i32) -> String {
    format!(
        r#"
        #[requires(n > {requires})]
        #[ensures(result > 0)]
        fn memo_count(n: usize) -> usize {{
            let mut i = 1;
            while i < n {{
                invariant!(i >= {invariant});
                invariant!(i <= n);
                i += 1;
            }}
            assert!(i > {asserted});
            i
        }}
        "#
    )
}

#[test]
fn any_key_change_solves_again() {
    let _exclusive = lock();
    let config = VerifyConfig::default();
    let base = counting(2, 1, 0);
    let cold = baseline(&base, &config);
    assert!(cold.safe, "{:?}", cold.errors);
    let warm = baseline(&base, &config);
    assert!(warm.safe);
    assert_eq!(
        warm.stats.fix.cache_misses, 0,
        "the identical program missed"
    );

    let mut pivots = config.clone();
    pivots.wp.smt.budget.pivots = Some(1 << 40);
    let mut audit = config.clone();
    audit.wp.smt.audit = if config.wp.smt.audit == AuditTier::Off {
        AuditTier::Lint
    } else {
        AuditTier::Off
    };
    // The changed assertion `i > 5` does not hold, and it is asked under
    // the same hypotheses as the stored `i > 0`.
    let variants = [
        ("a requires constant", counting(3, 1, 0), &config, true),
        ("an invariant constant", counting(2, 0, 0), &config, true),
        ("an asserted goal", counting(2, 1, 5), &config, false),
        ("a budget field", base.clone(), &pivots, true),
        ("the audit tier", base.clone(), &audit, true),
    ];
    for (what, src, config, safe) in variants {
        let outcome = baseline(&src, config);
        assert_eq!(outcome.safe, safe, "{what}: {:?}", outcome.errors);
        assert!(
            outcome.stats.fix.cache_misses > 0,
            "changing {what} must solve again: {:?}",
            outcome.stats.fix
        );
    }
}

#[test]
fn unknown_verdicts_are_never_stored() {
    let _exclusive = lock();
    clear_obligation_memo();
    let config = VerifyConfig::default();
    let kmp = flux::benchmark("kmp").expect("kmp benchmark exists");
    install_fault_plan(FaultPlan {
        unknown_permille: 1000,
        ..FaultPlan::default()
    });
    let faulted = baseline(kmp.baseline_src, &config);
    clear_fault_plan();
    assert!(!faulted.safe, "an all-Unknown solver verified kmp");
    assert!(faulted.errors.is_empty(), "{:?}", faulted.errors);
    assert!(faulted.stats.unknowns > 0);

    let solved = baseline(kmp.baseline_src, &config);
    assert!(solved.safe, "{:?}", solved.errors);
    assert!(
        solved.stats.fix.cache_misses > 0,
        "an undecided obligation was replayed: {:?}",
        solved.stats.fix
    );
}

#[test]
fn replayed_invalid_verdicts_keep_their_blame() {
    let _exclusive = lock();
    // The same off-by-one store loop twice: `v[n]` is out of bounds.
    let body = |name: &str| {
        format!(
            r#"
            #[requires(vlen(v) == n)]
            fn {name}(v: &mut RVec<i32>, n: usize) {{
                let mut i = 0;
                while i <= n {{
                    invariant!(i >= 0);
                    invariant!(vlen(v) == n);
                    v[i] = 0;
                    i += 1;
                }}
            }}
            "#
        )
    };
    let src = format!("{}{}", body("zero_first"), body("zero_second"));
    let program = flux_syntax::parse_program(&src).expect("the program parses");
    let report = flux_wp::verify_program(&program, &WpConfig::default());
    let [first, second] = &report.functions[..] else {
        panic!("two functions expected");
    };
    assert_eq!(second.memo_hits, first.memo_hits + first.smt_stats.queries);
    assert_eq!(second.smt_stats.queries, 0, "the second function solved");
    for (report, def) in [first, second].into_iter().zip(&program.functions) {
        let [error] = &report.errors[..] else {
            panic!("{}: one error expected, got {:?}", def.name, report.errors);
        };
        assert_eq!(error.message, "store index in bounds might not hold");
        assert!(
            def.span.start <= error.span.start && error.span.end <= def.span.end,
            "{}: blamed outside its own body",
            def.name
        );
    }
}
