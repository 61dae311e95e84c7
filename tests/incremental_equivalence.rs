//! Acceptance tests for the incremental query engine: the weakening loop
//! answers its queries through persistent sessions and the validity cache,
//! so its converged solutions are re-checked clause by clause with a fresh
//! one-shot solver across the entire benchmark corpus, and the Table 1
//! workload must actually exercise the engine's machinery.

use flux::{verify_source, Mode, VerifyConfig};
use flux_logic::AuditTier;

/// Every benchmark's Flux flavour under the full audit tier: each solve's
/// converged solution is re-validated clause by clause with a fresh
/// one-shot solver (no session reuse, no cache), which panics on any
/// clause the incremental engine accepted but the one-shot solver refutes.
/// The process-global verdict cache is disabled, so nothing another test
/// proved can stand in for the engine's own answers.
#[test]
fn incremental_and_one_shot_agree_on_the_whole_corpus() {
    let mut config = VerifyConfig::default();
    config.check.fixpoint.global_cache = false;
    config.check.fixpoint.smt.audit = AuditTier::Full;
    for b in flux::benchmarks() {
        let outcome = verify_source(b.flux_src, Mode::Flux, &config)
            .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
        assert!(outcome.safe, "{}: {:?}", b.name, outcome.errors);
        assert!(
            outcome.stats.fix.revalidations > 0,
            "{}: no clause was re-validated",
            b.name
        );
    }
}

/// The default engine on the Table 1 workload must exercise every part of
/// its machinery — the validity cache, clause sessions, counter-model
/// pruning, persistent-core reuse and conjunct retraction — and account
/// for every query as a hit or a miss.
#[test]
fn table1_workload_reports_cache_hits_and_sessions() {
    let config = VerifyConfig::default();
    let mut total_hits = 0;
    let mut total_sessions = 0;
    let mut total_queries = 0;
    let mut total_prunes = 0;
    let mut total_sat_reuse = 0;
    let mut total_retractions = 0;
    for b in flux::benchmarks() {
        let outcome = verify_source(b.flux_src, Mode::Flux, &config).unwrap();
        let stats = &outcome.stats;
        assert_eq!(
            stats.fix.cache_hits + stats.fix.cache_misses,
            stats.fix.smt_queries,
            "{}: hits + misses must account for every query",
            b.name
        );
        total_hits += stats.fix.cache_hits;
        total_sessions += stats.fix.sessions;
        total_queries += stats.fix.smt_queries;
        total_prunes += stats.fix.model_prunes;
        total_sat_reuse += stats.smt.sat_reuse;
        total_retractions += stats.smt.conjunct_retractions;
    }
    assert!(
        total_queries > 0,
        "corpus issued no validity queries at all"
    );
    assert!(
        total_hits > 0,
        "expected a nonzero cache-hit count on the table1 workload \
         ({total_queries} queries, {total_sessions} sessions)"
    );
    assert!(
        total_sessions > 0,
        "expected the weakening loop to open solver sessions"
    );
    assert!(
        total_prunes > 0,
        "the corpus must exercise counter-model pruning"
    );
    assert!(
        total_sat_reuse > 0,
        "the corpus must exercise persistent-core reuse"
    );
    assert!(
        total_retractions > 0,
        "the corpus must exercise conjunct retraction"
    );
}
