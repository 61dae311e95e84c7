//! The two qualifier stages of the fixpoint solver, end to end: a function
//! that only the three-parameter templates can prove escalates to the full
//! template set and verifies, its off-by-one mutant is blamed at the same
//! span after escalating, and a buggy function whose κs have fewer than
//! three int arguments never pays for a second stage.

use flux_check::checker::Generator;
use flux_check::{check_source, CheckConfig, FnReport};
use flux_ir::ResolvedProgram;
use flux_logic::Sort;

/// A two-counter loop: `j` starts at `v.len()` and counts down while `i`
/// counts up, so `v.get(j)` is in bounds only through `j = n − i`, an
/// instance of the three-parameter template `ν = A − B`.
const REV_SUM: &str = r#"
    #[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]
    fn rev_sum(v: &RVec<i32>) -> i32 {
        let mut total = 0;
        let mut i = 0;
        let mut j = v.len();
        while i < v.len() {
            j -= 1;
            total = total + v.get(j);
            i += 1;
        }
        total
    }
"#;

/// Checks the single function of `source` at the default configuration.
fn check_one(source: &str) -> FnReport {
    let mut report = check_source(source, &CheckConfig::default()).expect("program resolves");
    assert_eq!(report.functions.len(), 1);
    report.functions.remove(0)
}

#[test]
fn two_counter_loop_verifies_after_escalating() {
    let report = check_one(REV_SUM);
    assert!(
        report.errors.is_empty() && report.unknowns.is_empty(),
        "rev_sum must verify: {:?} {:?}",
        report.errors,
        report.unknowns
    );
    assert_eq!(report.fixpoint_stats.escalations, 1);
}

#[test]
fn off_by_one_two_counter_loop_is_blamed_at_the_read() {
    let mutant = REV_SUM.replace("while i < v.len()", "while i <= v.len()");
    let report = check_one(&mutant);
    assert_eq!(report.fixpoint_stats.escalations, 1);
    assert!(report.unknowns.is_empty(), "{:?}", report.unknowns);
    let read = mutant.find("v.get(j)").expect("the mutant reads v.get(j)");
    let spans: Vec<(usize, usize)> = report
        .errors
        .iter()
        .map(|d| (d.span.start, d.span.end))
        .collect();
    assert_eq!(
        spans,
        vec![(read, read + "v.get(j)".len())],
        "expected one diagnostic at `v.get(j)`, got {:?}",
        report.errors
    );
}

#[test]
fn buggy_function_with_small_kvars_skips_the_second_stage() {
    // The loop's κs have fewer than three int arguments, so the full
    // template set has no instance the first stage lacked.  The loop stops
    // at 9, not at the claimed 10.
    let source = r#"
        #[flux::sig(fn() -> i32[10])]
        fn count_to() -> i32 {
            let mut i = 0;
            while i < 9 {
                i += 1;
            }
            i
        }
    "#;
    let program = ResolvedProgram::resolve(&flux_syntax::parse_program(source).unwrap()).unwrap();
    let generated = Generator::new(&program).gen_function("count_to").unwrap();
    for decl in generated.kvars.iter() {
        let ints = decl.sorts.iter().filter(|s| **s == Sort::Int).count();
        assert!(ints < 3, "{} has {ints} int arguments", decl.id);
    }
    let report = check_one(source);
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert_eq!(report.fixpoint_stats.escalations, 0);
}
