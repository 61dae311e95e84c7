//! Self-check of the benchmark's program generator: determinism, and every
//! template's label agreeing with both verifiers' verdicts.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use flux::{verify_source, Mode, VerifyConfig};
use perfbench::gen::{self, Bug, Template, TEMPLATES};
use std::collections::HashSet;

#[test]
fn same_seed_gives_byte_identical_programs() {
    for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
        let a = gen::corpus(seed, 6, 10);
        let b = gen::corpus(seed, 6, 10);
        assert_eq!(a, b, "seed {seed} is not deterministic");
        let c = gen::corpus(seed + 1, 6, 10);
        assert_ne!(a, c, "seeds {seed} and {} collide", seed + 1);
    }
}

#[test]
fn corpus_is_stratified() {
    let corpus = gen::corpus(7, 9, 10);
    assert_eq!(corpus.iter().filter(|p| p.bug.is_some()).count(), 3);
    for program in &corpus {
        for template in TEMPLATES {
            let units = program
                .functions
                .iter()
                .filter(|f| f.template == template && !f.name.starts_with("add_"))
                .count();
            assert_eq!(units, 2, "{template:?} in seed {}", program.seed);
        }
    }
}

/// Every function's verdict matches its label, per function and under both
/// verifiers, and every kind of bug in every template is caught.
#[test]
fn labels_match_verdicts_for_several_seeds() {
    let config = VerifyConfig::default();
    let mut planted: HashSet<(Template, Bug)> = HashSet::new();
    for seed in 0..40u64 {
        for buggy in [false, true] {
            let program = gen::program(seed, 10, buggy);
            if let Some(bug) = program.bug {
                let template = program
                    .functions
                    .iter()
                    .find(|f| !f.expect_safe)
                    .expect("a buggy program labels one function unsafe")
                    .template;
                planted.insert((template, bug));
            }
            let flux_report = flux_check::check_source(&program.flux_src, &config.check)
                .unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: flux frontend error {e:?}\n{}",
                        program.flux_src
                    )
                });
            assert_eq!(flux_report.functions.len(), program.functions.len());
            for (got, want) in flux_report.functions.iter().zip(&program.functions) {
                assert_eq!(got.name, want.name);
                assert!(
                    got.unknowns.is_empty(),
                    "seed {seed}: {} inconclusive",
                    want.name
                );
                assert_eq!(
                    got.is_safe(),
                    want.expect_safe,
                    "seed {seed}: flux verdict of {} ({:?}) against its label",
                    want.name,
                    want.template
                );
            }
            let wp_report = flux_wp::verify_source(&program.baseline_src, &config.wp)
                .unwrap_or_else(|e| panic!("seed {seed}: baseline frontend error {e:?}"));
            for (got, want) in wp_report.functions.iter().zip(&program.functions) {
                assert_eq!(got.name, want.name);
                assert_eq!(got.unknowns, 0, "seed {seed}: {} inconclusive", want.name);
                assert_eq!(
                    got.is_safe(),
                    want.expect_safe,
                    "seed {seed}: baseline verdict of {} ({:?}) against its label",
                    want.name,
                    want.template
                );
            }
            let outcome = verify_source(&program.flux_src, Mode::Flux, &config).unwrap();
            assert_eq!(outcome.safe, program.expect_safe());
        }
    }
    let expected = [
        (Template::Count, Bug::OffByOne),
        (Template::Push, Bug::OffByOne),
        (Template::Sum, Bug::OffByOne),
        (Template::GuardedIndex, Bug::DroppedGuard),
        (Template::GuardedIndex, Bug::WrongConstant),
        (Template::RefinedCall, Bug::WrongConstant),
    ];
    for pair in expected {
        assert!(planted.contains(&pair), "{pair:?} was never planted");
    }
}
