//! Integration tests for the evaluation claims (the *shape* of Table 1):
//! Flux flavours carry zero loop-invariant annotations, the baseline carries
//! a substantial annotation burden, and the benchmarks that both verifiers
//! handle show Flux at least as fast as the baseline on the quantifier-heavy
//! workloads.

use flux::{run_benchmark, verify_source, Mode, VerifyConfig};
use std::time::Duration;

#[test]
fn flux_flavours_never_need_loop_invariants() {
    for b in flux::benchmarks() {
        assert_eq!(
            flux_syntax::SourceMetrics::of_source(b.flux_src).annot_lines,
            0,
            "{} should need no invariant! lines under Flux",
            b.name
        );
    }
}

#[test]
fn baseline_annotation_overhead_is_substantial() {
    let mut total_loc = 0usize;
    let mut total_annot = 0usize;
    for b in flux::benchmarks() {
        let m = b.baseline_metrics();
        total_loc += m.loc;
        total_annot += m.annot_lines;
    }
    let percent = total_annot * 100 / total_loc;
    assert!(
        (5..=40).contains(&percent),
        "baseline annotation overhead should be roughly the paper's ~9-24% band, got {percent}%"
    );
}

#[test]
fn dotprod_and_kmeans_verify_under_flux_and_baseline() {
    let config = VerifyConfig::default();
    for name in ["dotprod", "kmeans", "bsearch"] {
        let row = run_benchmark(&flux::benchmark(name).unwrap(), &config);
        assert!(row.flux.safe, "{name} flux flavour: {:?}", row.flux.errors);
        assert!(
            row.baseline.safe,
            "{name} baseline flavour: {:?}",
            row.baseline.errors
        );
    }
}

#[test]
fn quantified_baseline_pays_an_instantiation_burden_flux_never_does() {
    // E3: the paper's fundamental asymmetry is that the program-logic
    // baseline must discharge universally quantified container axioms by
    // instantiation, while Flux VCs are quantifier-free by construction.
    // (Wall-clock on any single benchmark is too substrate-dependent to
    // assert: goal-directed relevance filtering prunes fft's frame axioms
    // entirely, so the content-invariant-carrying kmp is the witness.)
    // The quantified baseline run builds very deep formulas, so give it a
    // generous stack (unoptimised builds have large frames).
    let handle = std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            let mut config = VerifyConfig::default();
            // The obligation memo is process-global: after another test of
            // this binary verified kmp's baseline, this run would replay
            // every obligation and instantiate nothing.  A timeout no other
            // test sets keys the obligations apart (the memo key clears only
            // the stamped deadline), and an hour never expires here.
            config.wp.smt.budget.timeout = Some(Duration::from_secs(3600));
            let b = flux::benchmark("kmp").unwrap();
            let flux_outcome = verify_source(b.flux_src, Mode::Flux, &config).unwrap();
            let baseline_outcome = verify_source(b.baseline_src, Mode::Baseline, &config).unwrap();
            assert!(
                flux_outcome.safe,
                "kmp flux flavour: {:?}",
                flux_outcome.errors
            );
            assert!(
                baseline_outcome.safe,
                "kmp baseline flavour: {:?}",
                baseline_outcome.errors
            );
            assert_eq!(
                flux_outcome.stats.smt.quant_instances, 0,
                "Flux VCs must stay quantifier-free"
            );
            assert!(
                baseline_outcome.stats.fix.cache_misses > 0,
                "the baseline replayed kmp's obligations instead of solving them"
            );
            assert!(
                baseline_outcome.stats.smt.quant_instances > 0,
                "the baseline should have instantiated container axioms on kmp"
            );
        })
        .expect("spawn verification thread");
    handle.join().expect("kmp comparison thread panicked");
}
