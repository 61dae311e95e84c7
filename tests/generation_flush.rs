//! A generation flush is a clean restart.  `flux::flush_generation` drops
//! every process-global holder of hash-consed ids at once — the verdict
//! cache, the solve memo, the obligation memo, the CNF memo and its atom
//! table, and the hash-consing arena — so the next verification runs
//! exactly as in a fresh process, and the one after it is warm again.
//!
//! This is its own test binary with a single test: it resets the
//! process-global tables, which would pull ids out from under any
//! concurrent verification.

use flux::{flush_generation, verify_source, Mode, VerifyConfig, VerifyOutcome};
use flux_bench::json::{parse, Value};
use flux_daemon::{proto, run, ServerConfig};
use std::io::Cursor;

fn cache_sizes() -> (usize, usize, usize, usize, usize, usize) {
    (
        flux_logic::interned_nodes(),
        flux_smt::cnf_atoms(),
        flux_smt::cnf_cache_len(),
        flux_fixpoint::global_cache().len(),
        flux_fixpoint::solve_memo_len(),
        flux_wp::obligation_memo_len(),
    )
}

#[test]
fn a_flushed_generation_verifies_like_a_fresh_process() {
    flux_fixpoint::set_global_cache_capacity(None);
    flux_smt::set_cnf_cache_capacity(None);
    flux_logic::set_hcons_memo_capacity(None);
    let mut config = VerifyConfig::default();
    config.check.fn_threads = 1;
    let benchmarks = flux::benchmarks();
    let pass = || -> Vec<VerifyOutcome> {
        benchmarks
            .iter()
            .map(|b| {
                verify_source(b.flux_src, Mode::Flux, &config)
                    .expect("the corpus parses and resolves")
            })
            .collect()
    };

    let baseline_pass = || -> Vec<VerifyOutcome> {
        benchmarks
            .iter()
            .map(|b| {
                verify_source(b.baseline_src, Mode::Baseline, &config).expect("the corpus parses")
            })
            .collect()
    };

    let first = pass();
    let first_baseline = baseline_pass();
    flush_generation(&flux_logic::write_generation());
    assert_eq!(
        cache_sizes(),
        (0, 0, 0, 0, 0, 0),
        "the flush left state behind (hcons nodes, CNF atoms, CNF entries, \
         verdicts, solve results, obligation verdicts)"
    );

    // The pass after the flush is the first pass again, counter for
    // counter: the fan-out is pinned to one thread, so the run is
    // deterministic.
    let cold = pass();
    for ((b, first), cold) in benchmarks.iter().zip(&first).zip(&cold) {
        assert_eq!(cold.safe, first.safe, "{}: the verdict changed", b.name);
        assert_eq!(cold.errors, first.errors, "{}: the errors changed", b.name);
        assert_eq!(
            cold.stats.fix, first.stats.fix,
            "{}: fixpoint counters",
            b.name
        );
        assert_eq!(cold.stats.smt, first.stats.smt, "{}: SMT counters", b.name);
    }
    // The baseline too: the same obligations repeat within a pass, and none
    // is answered from an earlier generation.
    let cold_baseline = baseline_pass();
    for ((b, first), cold) in benchmarks.iter().zip(&first_baseline).zip(&cold_baseline) {
        assert_eq!(cold.safe, first.safe, "{}: the verdict changed", b.name);
        assert_eq!(cold.errors, first.errors, "{}: the errors changed", b.name);
        let (c, f) = (&cold.stats.fix, &first.stats.fix);
        assert_eq!(c.cache_hits, f.cache_hits, "{}: baseline hits", b.name);
        assert_eq!(
            c.cache_misses, f.cache_misses,
            "{}: baseline misses",
            b.name
        );
    }

    // Warm again: every function replays its solve from the memo.
    let before = cache_sizes();
    let replayed = pass();
    for ((b, cold), warm) in benchmarks.iter().zip(&cold).zip(&replayed) {
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
    assert_eq!(cache_sizes(), before, "the replaying pass grew a cache");

    // Without the memo, the warm validity cache answers every query.
    flux_fixpoint::clear_solve_memo();
    let warm = pass();
    for ((b, cold), warm) in benchmarks.iter().zip(&cold).zip(&warm) {
        assert_eq!(warm.safe, cold.safe, "{}: the verdict changed", b.name);
        assert_eq!(warm.errors, cold.errors, "{}: the errors changed", b.name);
        assert_eq!(warm.stats.fix.replays, 0, "{}: a replay", b.name);
        assert_eq!(
            warm.stats.fix.smt_queries, cold.stats.fix.smt_queries,
            "{}: the warm pass must ask the same queries",
            b.name
        );
        assert_eq!(warm.stats.fix.cache_misses, 0, "{}: a warm miss", b.name);
        assert_eq!(warm.stats.fix.sessions, 0, "{}: a warm session", b.name);
    }
    assert_eq!(cache_sizes(), before, "the warm pass grew a cache");

    // The daemon flushes on its own once a job leaves the arena above the
    // watermark: with a watermark of one node, after every job.
    let daemon = ServerConfig {
        workers: 1,
        max_deadline_ms: 600_000,
        hcons_node_watermark: 1,
        ..ServerConfig::default()
    };
    let mut input = Vec::new();
    for payload in [
        r#"{"id":1,"method":"verify","program":"bsearch"}"#,
        r#"{"id":2,"method":"verify","program":"bsearch"}"#,
        r#"{"id":3,"method":"shutdown"}"#,
    ] {
        proto::write_frame(&mut input, payload).expect("framing into a Vec cannot fail");
    }
    let mut output = Vec::new();
    run(&daemon, Cursor::new(input), &mut output);
    let mut cursor = Cursor::new(output);
    let mut responses = Vec::new();
    while let proto::Frame::Payload(payload) = proto::read_frame(&mut cursor, usize::MAX) {
        responses.push(parse(&payload).expect("the daemon emits JSON"));
    }
    let results: Vec<&str> = responses
        .iter()
        .map(|r| r.get("result").and_then(Value::as_str).expect("a result"))
        .collect();
    assert_eq!(results, ["verified", "verified", "final"], "{responses:?}");
    let fin = &responses[2];
    let generations = fin.get("generations").and_then(Value::as_u64);
    assert!(
        generations.expect("the final frame counts generations") >= 1,
        "the daemon never flushed: {fin:?}"
    );
    let nodes = fin
        .get("caches")
        .and_then(|c| c.get("hcons_nodes"))
        .and_then(Value::as_u64)
        .expect("the final frame reports hcons_nodes");
    assert!(nodes <= 1, "the idle daemon kept {nodes} nodes");
}
