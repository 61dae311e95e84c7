//! Binder names are counted per function body and per signature, so the
//! constraint generated for a function depends on that function alone: not
//! on how often the program was resolved, not on the order of its functions
//! and not on unrelated functions around it.  A counter shared by the whole
//! program would fail the reordered and padded cases.

use flux_check::checker::Generator;
use flux_fixpoint::{Constraint, KVarStore};
use flux_ir::ResolvedProgram;
use flux_logic::Name;
use flux_syntax::ast::Program;
use std::collections::HashSet;

/// Unannotated, so its default signature draws signature names, and its
/// body opens binders of its own.
const UNRELATED: &str = r#"
    fn unrelated(x: i32, flag: bool, v: RVec<i32>) -> i32 {
        let y = x + 1;
        y
    }
"#;

fn parse(src: &str) -> Program {
    flux_syntax::parse_program(src).expect("the source parses")
}

fn generate(program: &Program, name: &str) -> (Constraint, KVarStore) {
    let resolved = ResolvedProgram::resolve(program).expect("the program resolves");
    let generated = Generator::new(&resolved)
        .gen_function(name)
        .unwrap_or_else(|e| panic!("{name}: generation failed: {e:?}"));
    (generated.constraint, generated.kvars)
}

/// Panics if a name is bound twice anywhere in `constraint`.
fn assert_bound_once(constraint: &Constraint, bound: &mut HashSet<Name>) {
    match constraint {
        Constraint::ForAll(name, _, _, inner) => {
            assert!(bound.insert(*name), "`{name}` is bound twice");
            assert_bound_once(inner, bound);
        }
        Constraint::Implies(_, inner) => assert_bound_once(inner, bound),
        Constraint::Conj(children) => {
            for child in children {
                assert_bound_once(child, bound);
            }
        }
        Constraint::Head(_) | Constraint::True => {}
    }
}

#[test]
fn constraints_depend_only_on_the_function() {
    let unrelated = parse(UNRELATED).functions.remove(0);
    for b in flux_suite::benchmarks() {
        let program = parse(b.flux_src);
        let mut reversed = program.clone();
        reversed.functions.reverse();
        let mut padded = program.clone();
        padded.functions.insert(0, unrelated.clone());
        let variants = [
            ("a second resolve", parse(b.flux_src)),
            ("reversed order", reversed),
            ("an unrelated function in front", padded),
        ];
        for def in program.functions.iter().filter(|f| !f.trusted) {
            let reference = generate(&program, &def.name);
            assert_bound_once(&reference.0, &mut HashSet::new());
            for (variant, source) in &variants {
                assert!(
                    generate(source, &def.name) == reference,
                    "{}::{}: {variant} changed the constraint or its κs",
                    b.name,
                    def.name
                );
            }
        }
    }
}
