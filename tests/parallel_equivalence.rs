//! Acceptance tests for the function fan-out of `check_program`, the
//! checker's only thread pool.  Checking with any fan-out width must be
//! observationally identical to checking on the calling thread — same
//! Safe/Unsafe verdicts and blamed obligations, in program order, across
//! the whole benchmark corpus — while the summed statistics still account
//! for every query and report the fan-out width.

use flux::{verify_source, Mode, VerifyConfig};

/// The shipped configuration with the function fan-out pinned to
/// `fn_threads`.  Above one thread the workers cache hermetically: each
/// owns its own validity cache and solve memo, so the fan-out legs solve
/// every function themselves instead of replaying what another leg (or
/// another test of this binary) stored in the process-global memo.
fn with_fn_threads(fn_threads: usize) -> VerifyConfig {
    let mut config = VerifyConfig::default();
    config.check.fn_threads = fn_threads;
    config.check.fixpoint.global_cache = fn_threads == 1;
    config
}

/// Summed statistics must account for the whole workload: hits and misses
/// account for every query, and the hit classifications never exceed the
/// hits — at every fan-out width, across the whole corpus.
#[test]
fn parallel_stats_merge_is_lossless_on_the_corpus() {
    for fn_threads in [1, 2, 8] {
        let config = with_fn_threads(fn_threads);
        for b in flux::benchmarks() {
            let outcome = verify_source(b.flux_src, Mode::Flux, &config)
                .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
            let s = &outcome.stats;
            if fn_threads > 1 {
                assert_eq!(s.fix.replays, 0, "{} at fn={fn_threads}: a replay", b.name);
            }
            assert_eq!(
                s.fix.cache_hits + s.fix.cache_misses,
                s.fix.smt_queries,
                "{} at fn={fn_threads}: hits + misses must account for every query",
                b.name
            );
            assert!(
                s.fix.cross_fn_hits + s.fix.xbench_hits <= s.fix.cache_hits,
                "{} at fn={fn_threads}: hit classifications exceed total hits",
                b.name
            );
            assert!(
                s.fn_threads >= 1 && s.fn_threads <= fn_threads,
                "{} at fn={fn_threads}: reported fan-out width {} out of range",
                b.name,
                s.fn_threads
            );
            assert!(
                !s.fn_times_ms.is_empty(),
                "{} at fn={fn_threads}: per-function wall-clock vector must have one \
                 slot per checked function",
                b.name
            );
        }
    }
}

/// Function fan-out equivalence: the whole corpus must verify identically
/// — verdicts *and* blamed obligations, in the same order — when functions
/// are checked concurrently, and the per-function time vector keeps one
/// slot per function regardless of schedule.
#[test]
fn corpus_verdicts_are_identical_across_function_fanout_widths() {
    let sequential = with_fn_threads(1);
    for b in flux::benchmarks() {
        let reference = verify_source(b.flux_src, Mode::Flux, &sequential)
            .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
        for fn_threads in [2, 8] {
            let parallel = verify_source(b.flux_src, Mode::Flux, &with_fn_threads(fn_threads))
                .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
            assert_eq!(
                parallel.safe, reference.safe,
                "{} at fn={fn_threads}: fan-out and sequential runs disagree \
                 (parallel errors: {:?}, sequential errors: {:?})",
                b.name, parallel.errors, reference.errors
            );
            assert_eq!(
                parallel.errors, reference.errors,
                "{} at fn={fn_threads}: verdicts agree but blamed obligations differ \
                 or are reordered (the merge must follow program order, not \
                 completion order)",
                b.name
            );
            assert_eq!(
                parallel.stats.fix.replays, 0,
                "{} at fn={fn_threads}: a fan-out leg replayed a stored result",
                b.name
            );
            assert_eq!(
                parallel.stats.fn_times_ms.len(),
                reference.stats.fn_times_ms.len(),
                "{} at fn={fn_threads}: one wall-clock slot per checked function, \
                 regardless of schedule",
                b.name
            );
        }
    }
}
