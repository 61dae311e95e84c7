//! Re-verifying an unchanged program is free.  The checker names binders
//! from deterministic per-function and per-signature supplies, so a second
//! verification generates the same constraints: every function replays its
//! result from the solve memo, asks no query and interns nothing new.  With
//! the memo cleared, a third verification still answers every query from
//! the validity cache, replays the cached counter-models as they are, and
//! interns nothing.  The baseline names its binders per function too, so
//! its second verification answers every obligation from the obligation
//! memo and interns nothing.
//!
//! This is its own test binary with a single test: it reads process-global
//! cache sizes and clears the process-global solve memo, which any
//! concurrent verification would move.

use flux::{verify_source, Mode, VerifyConfig, VerifyOutcome};

fn cache_sizes() -> (usize, usize, usize) {
    (
        flux_logic::interned_nodes(),
        flux_smt::cnf_cache_len(),
        flux_smt::cnf_atoms(),
    )
}

#[test]
fn second_verification_of_the_corpus_hits_the_cache_and_grows_nothing() {
    // Uncapped caches keep every entry of the first pass.
    flux_fixpoint::set_global_cache_capacity(None);
    flux_smt::set_cnf_cache_capacity(None);
    flux_logic::set_hcons_memo_capacity(None);
    let mut config = VerifyConfig::default();
    config.check.fn_threads = 1;
    let verify = |src: &str| -> VerifyOutcome {
        verify_source(src, Mode::Flux, &config).expect("the corpus parses and resolves")
    };

    let benchmarks = flux::benchmarks();
    let cold: Vec<VerifyOutcome> = benchmarks.iter().map(|b| verify(b.flux_src)).collect();
    let before = cache_sizes();
    let memo_len = flux_fixpoint::solve_memo_len();
    for (b, cold) in benchmarks.iter().zip(&cold) {
        assert_eq!(cold.stats.fix.replays, 0, "{}: a cold replay", b.name);
        let warm = verify(b.flux_src);
        assert_eq!(warm.safe, cold.safe, "{}: the verdict changed", b.name);
        assert_eq!(warm.errors, cold.errors, "{}: the errors changed", b.name);
        assert_eq!(
            warm.stats.fix.replays, warm.functions,
            "{}: every function must replay its solve",
            b.name
        );
        assert_eq!(warm.stats.fix.smt_queries, 0, "{}: a warm query", b.name);
        assert_eq!(warm.stats.fix.cache_misses, 0, "{}: a warm miss", b.name);
        assert_eq!(warm.stats.fix.sessions, 0, "{}: a warm session", b.name);
    }
    assert_eq!(
        cache_sizes(),
        before,
        "the replaying pass grew (hcons nodes, CNF entries, CNF atoms)"
    );
    assert_eq!(
        flux_fixpoint::solve_memo_len(),
        memo_len,
        "the replaying pass stored a result"
    );

    // Without the memo, every solve runs the weakening loop again, through
    // the warm validity cache.
    flux_fixpoint::clear_solve_memo();
    for (b, cold) in benchmarks.iter().zip(&cold) {
        let warm = verify(b.flux_src);
        assert_eq!(warm.safe, cold.safe, "{}: the verdict changed", b.name);
        assert_eq!(warm.errors, cold.errors, "{}: the errors changed", b.name);
        assert_eq!(
            warm.stats.fix.replays, 0,
            "{}: replayed a cleared memo",
            b.name
        );
        assert_eq!(
            warm.stats.fix.smt_queries, cold.stats.fix.smt_queries,
            "{}: the warm pass must ask the same queries",
            b.name
        );
        assert_eq!(
            warm.stats.fix.cache_misses, 0,
            "{}: every warm query must hit the cache",
            b.name
        );
        assert_eq!(
            warm.stats.fix.sessions, 0,
            "{}: no warm query may open a solver session",
            b.name
        );
    }
    assert_eq!(
        cache_sizes(),
        before,
        "the warm pass grew (hcons nodes, CNF entries, CNF atoms)"
    );

    // The baseline asks the same obligations again and solves none.
    let baseline = |src: &str| -> VerifyOutcome {
        verify_source(src, Mode::Baseline, &config).expect("the corpus parses")
    };
    let cold: Vec<VerifyOutcome> = benchmarks
        .iter()
        .map(|b| baseline(b.baseline_src))
        .collect();
    let before = cache_sizes();
    let memo_len = flux_wp::obligation_memo_len();
    for (b, cold) in benchmarks.iter().zip(&cold) {
        let warm = baseline(b.baseline_src);
        assert_eq!(warm.safe, cold.safe, "{}: the verdict changed", b.name);
        assert_eq!(warm.errors, cold.errors, "{}: the errors changed", b.name);
        assert_eq!(warm.stats.fix.cache_misses, 0, "{}: a warm miss", b.name);
        assert_eq!(warm.stats.fix.sessions, 0, "{}: a warm session", b.name);
    }
    assert_eq!(
        cache_sizes(),
        before,
        "the warm baseline pass grew (hcons nodes, CNF entries, CNF atoms)"
    );
    assert_eq!(
        flux_wp::obligation_memo_len(),
        memo_len,
        "the warm baseline pass stored a verdict"
    );
}
