//! Acceptance tests for the parallel solving pipeline — both pools: the
//! clause-level weakening scheduler inside each fixpoint solve, and the
//! function-level fan-out above it.  Solving with any combination of
//! worker-thread counts must be observationally identical to the
//! sequential engine — same Safe/Unsafe verdicts and blamed obligations
//! across the whole benchmark corpus, and bit-identical inferred
//! `Solution`s for every function's constraint system — while the merged
//! per-worker statistics still account for every query and report each
//! pool's width distinctly.

use flux::{verify_source, FixConfig, Mode, VerifyConfig};
use flux_fixpoint::{FixResult, FixpointSolver};
use flux_logic::SortCtx;

/// The shipped configuration with a pinned worker-thread cap.  The
/// function-level fan-out is pinned to 1 so each sweep varies exactly one
/// pool.
fn with_threads(threads: usize) -> VerifyConfig {
    let mut config = VerifyConfig::default();
    config.check.fixpoint.threads = threads;
    config.check.fn_threads = 1;
    config
}

/// A configuration pinning both pools: `fn_threads` functions checked
/// concurrently, each solve using `clause_threads` weakening workers.
fn with_pools(fn_threads: usize, clause_threads: usize) -> VerifyConfig {
    let mut config = with_threads(clause_threads);
    config.check.fn_threads = fn_threads;
    config
}

/// A hermetic fixpoint configuration (per-solver cache) with a pinned
/// worker-thread cap, for the solution-level comparisons: isolation from
/// the process-global cache keeps a failure attributable to the scheduler
/// rather than to whatever other tests already proved.
fn hermetic_fixpoint(threads: usize) -> FixConfig {
    FixConfig {
        global_cache: false,
        threads,
        ..FixConfig::default()
    }
}

#[test]
fn corpus_verdicts_are_identical_across_thread_counts() {
    let sequential = with_threads(1);
    for b in flux::benchmarks() {
        let reference = verify_source(b.flux_src, Mode::Flux, &sequential)
            .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
        for threads in [2, 8] {
            let parallel = verify_source(b.flux_src, Mode::Flux, &with_threads(threads))
                .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
            assert_eq!(
                parallel.safe, reference.safe,
                "{} at threads={threads}: parallel and sequential engines disagree \
                 (parallel errors: {:?}, sequential errors: {:?})",
                b.name, parallel.errors, reference.errors
            );
            assert_eq!(
                parallel.errors, reference.errors,
                "{} at threads={threads}: verdicts agree but blamed obligations differ",
                b.name
            );
            assert_eq!(
                parallel.stats.threads, threads,
                "{}: the configured thread cap must be reported",
                b.name
            );
        }
    }
}

/// The inferred invariants themselves — not just the verdicts — must be
/// bit-identical at every thread count, for every function of every
/// benchmark: the weakening fixpoint is a function of the constraint
/// system, not of the schedule.
#[test]
fn corpus_solutions_are_identical_across_thread_counts() {
    for b in flux::benchmarks() {
        let program = flux_syntax::parse_program(b.flux_src)
            .unwrap_or_else(|e| panic!("{}: parse error {e:?}", b.name));
        let resolved = flux_ir::ResolvedProgram::resolve(&program)
            .unwrap_or_else(|e| panic!("{}: resolve error {e:?}", b.name));
        for func in resolved.iter() {
            if func.def.trusted {
                continue;
            }
            let generator = flux_check::checker::Generator::new(&resolved);
            let gen = generator
                .gen_function(&func.def.name)
                .unwrap_or_else(|e| panic!("{}/{}: genexpr error {e:?}", b.name, func.def.name));
            let mut sequential = FixpointSolver::new(hermetic_fixpoint(1));
            let reference = sequential.solve(&gen.constraint, &gen.kvars, &SortCtx::new());
            for threads in [2, 8] {
                let mut parallel = FixpointSolver::new(hermetic_fixpoint(threads));
                let result = parallel.solve(&gen.constraint, &gen.kvars, &SortCtx::new());
                assert_eq!(
                    result, reference,
                    "{}/{} at threads={threads}: parallel fixpoint (solution or blame) \
                     diverged from sequential",
                    b.name, func.def.name
                );
            }
            // The reference run's safety verdict must match what end-to-end
            // checking reports for this function (sanity that the harness
            // exercised the real constraint system).
            if matches!(reference, FixResult::Unsafe { .. }) {
                let outcome = verify_source(b.flux_src, Mode::Flux, &with_threads(1)).unwrap();
                assert!(
                    !outcome.safe,
                    "{}/{}: fixpoint says unsafe but the corpus verdict is safe",
                    b.name, func.def.name
                );
            }
        }
    }
}

/// Merged per-worker statistics must account for the whole workload:
/// worker-slot query counts sum to the engine total, hits and misses
/// account for every query, and the hit classifications never exceed the
/// hits — at every thread count, across the whole corpus.
#[test]
fn parallel_stats_merge_is_lossless_on_the_corpus() {
    // Sweep both pools, including combinations where they coexist: the
    // merge must stay lossless whether queries come from one solver's
    // worker slots or from eight concurrent per-function solvers.
    for (fn_threads, threads) in [(1, 1), (1, 2), (1, 8), (2, 2), (8, 1)] {
        let config = with_pools(fn_threads, threads);
        for b in flux::benchmarks() {
            let outcome = verify_source(b.flux_src, Mode::Flux, &config)
                .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
            let s = &outcome.stats;
            assert_eq!(
                s.worker_queries.iter().sum::<usize>(),
                s.fix.smt_queries,
                "{} at fn={fn_threads}/cl={threads}: per-worker query counts must sum                  to the total (per-function vectors must never interleave)",
                b.name
            );
            assert!(
                // One slot vector per function under fan-out, each at most
                // `threads` wide.
                s.worker_queries.len() <= threads * s.fn_times_ms.len().max(1),
                "{} at fn={fn_threads}/cl={threads}: more worker slots ({}) than workers",
                b.name,
                s.worker_queries.len()
            );
            assert_eq!(
                s.fix.cache_hits + s.fix.cache_misses,
                s.fix.smt_queries,
                "{} at fn={fn_threads}/cl={threads}: hits + misses must account for                  every query",
                b.name
            );
            assert!(
                s.fix.cross_fn_hits + s.fix.xbench_hits <= s.fix.cache_hits,
                "{} at fn={fn_threads}/cl={threads}: hit classifications exceed total hits",
                b.name
            );
            assert!(
                s.fix.partitions > 0,
                "{} at fn={fn_threads}/cl={threads}: a verified benchmark must report                  its κ-partitions",
                b.name
            );
            // Each pool's width is reported distinctly (regression: a
            // single max-merged figure let the fan-out width masquerade as
            // clause-level parallelism once both pools coexisted).
            assert_eq!(
                s.threads, threads,
                "{} at fn={fn_threads}/cl={threads}: the clause pool width must not                  absorb the function fan-out width",
                b.name
            );
            assert!(
                s.fn_threads >= 1 && s.fn_threads <= fn_threads,
                "{} at fn={fn_threads}/cl={threads}: reported fan-out width {} out of                  range",
                b.name,
                s.fn_threads
            );
            assert!(
                !s.fn_times_ms.is_empty(),
                "{} at fn={fn_threads}/cl={threads}: per-function wall-clock vector                  must have one slot per checked function",
                b.name
            );
        }
    }
}

/// Function-level fan-out equivalence: the whole corpus must verify
/// identically — verdicts *and* blamed obligations, in the same order —
/// when functions are checked concurrently, at every pool-width
/// combination, and the per-function time vector keeps one slot per
/// function regardless of schedule.
#[test]
fn corpus_verdicts_are_identical_across_function_fanout_widths() {
    let sequential = with_threads(1);
    for b in flux::benchmarks() {
        let reference = verify_source(b.flux_src, Mode::Flux, &sequential)
            .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
        for (fn_threads, clause_threads) in [(2, 1), (8, 1), (2, 2), (8, 2)] {
            let config = with_pools(fn_threads, clause_threads);
            let parallel = verify_source(b.flux_src, Mode::Flux, &config)
                .unwrap_or_else(|e| panic!("{}: frontend error {e}", b.name));
            assert_eq!(
                parallel.safe, reference.safe,
                "{} at fn={fn_threads}/cl={clause_threads}: fan-out and sequential                  engines disagree (parallel errors: {:?}, sequential errors: {:?})",
                b.name, parallel.errors, reference.errors
            );
            assert_eq!(
                parallel.errors, reference.errors,
                "{} at fn={fn_threads}/cl={clause_threads}: verdicts agree but blamed                  obligations differ or are reordered (the merge must follow program                  order, not completion order)",
                b.name
            );
            assert_eq!(
                parallel.stats.fn_times_ms.len(),
                reference.stats.fn_times_ms.len(),
                "{} at fn={fn_threads}/cl={clause_threads}: one wall-clock slot per                  checked function, regardless of schedule",
                b.name
            );
        }
    }
}
