//! Re-verifying an unchanged program is free.  The checker names binders
//! from deterministic per-function and per-signature supplies, so a second
//! verification generates the same hash-consed obligations, answers every
//! query from the validity cache, replays the cached counter-models as they
//! are, and interns nothing new.
//!
//! This is its own test binary with a single test: it reads process-global
//! cache sizes, which any concurrent verification would move.

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
    // Reading the node count first initializes the hash-consing table, which
    // seeds its memo cap from `FLUX_CACHE_CAP`; the explicit calls below
    // then win.  Uncapped caches keep every entry of the first pass.
    cache_sizes();
    flux_fixpoint::set_global_cache_capacity(None);
    flux_smt::set_cnf_cache_capacity(None);
    flux_logic::set_hcons_memo_capacity(None);
    let mut config = VerifyConfig::default();
    config.check.fixpoint.threads = 1;
    config.check.fn_threads = 1;
    let verify = |src: &str| -> VerifyOutcome {
        verify_source(src, Mode::Flux, &config).expect("the corpus parses and resolves")
    };

    let benchmarks = flux::benchmarks();
    let cold: Vec<VerifyOutcome> = benchmarks.iter().map(|b| verify(b.flux_src)).collect();
    let before = cache_sizes();
    for (b, cold) in benchmarks.iter().zip(&cold) {
        let warm = verify(b.flux_src);
        assert_eq!(warm.safe, cold.safe, "{}: the verdict changed", b.name);
        assert_eq!(warm.errors, cold.errors, "{}: the errors changed", b.name);
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
}
