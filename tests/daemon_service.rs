//! In-process exercise of the `fluxd` server loop (PR 9): the same `run`
//! function the binary wraps, driven over byte buffers so tier-1 coverage
//! needs no child process.
//!
//! The fault plan and the daemon's cache caps are process-global, so the
//! tests serialize themselves on a shared mutex.

use flux_bench::json::{parse, Value};
use flux_daemon::{proto, quiet_injected_panics, run, ServerConfig};
use flux_smt::testing::{clear_fault_plan, install_fault_plan, with_watchdog, FaultPlan};
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Mutex;

/// Serializes the tests: the fault plan and the global cache caps are
/// process-wide, so concurrent daemon runs would bleed into each other.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A config safe for slow debug builds: effectively no deadline.
fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        max_deadline_ms: 600_000,
        ..ServerConfig::default()
    }
}

/// Frames `payloads` into one input buffer.
fn script(payloads: &[String]) -> Vec<u8> {
    let mut input = Vec::new();
    for payload in payloads {
        proto::write_frame(&mut input, payload).expect("framing into a Vec cannot fail");
    }
    input
}

/// Runs the server over `input` and indexes the response frames by id.
/// Duplicate answers for one nonzero id fail the test — every request must
/// be answered exactly once.  Id-0 frames (frame-level errors with no
/// recoverable request id, and the end-of-input statistics flush) are
/// returned separately in emission order.
fn serve(config: &ServerConfig, input: Vec<u8>) -> (HashMap<u64, Value>, Vec<Value>) {
    let mut output = Vec::new();
    run(config, Cursor::new(input), &mut output);
    let mut responses = HashMap::new();
    let mut uncorrelated = Vec::new();
    let mut cursor = Cursor::new(output);
    loop {
        match proto::read_frame(&mut cursor, usize::MAX) {
            proto::Frame::Eof => break,
            proto::Frame::Payload(payload) => {
                let value = parse(&payload).expect("daemon emitted unparseable JSON");
                let id = value
                    .get("id")
                    .and_then(Value::as_u64)
                    .expect("response id");
                if id == 0 {
                    uncorrelated.push(value);
                } else {
                    assert!(
                        responses.insert(id, value).is_none(),
                        "two responses for id {id}"
                    );
                }
            }
            other => panic!("daemon emitted a malformed frame: {other:?}"),
        }
    }
    (responses, uncorrelated)
}

fn result_of(response: &Value) -> &str {
    response
        .get("result")
        .and_then(Value::as_str)
        .expect("response has a result")
}

const SAFE_SRC: &str = r#"
    #[flux::sig(fn(i32{v: v > 0}) -> i32{v: v > 1})]
    fn bump(x: i32) -> i32 { x + 1 }
"#;

const UNSAFE_SRC: &str = r#"
    #[flux::sig(fn(x: &strg i32[@n]) ensures *x: i32[n + 2])]
    fn incr(x: &mut i32) {
        *x += 1;
    }
"#;

/// The `caches` object of a `final` statistics frame.
fn caches_of(frame: &Value) -> &Value {
    assert_eq!(result_of(frame), "final");
    frame.get("caches").expect("final frames report caches")
}

fn cache_size(caches: &Value, field: &str) -> u64 {
    caches
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("caches report {field}"))
}

#[test]
fn serves_verify_status_reload_shutdown_with_warm_second_pass() {
    let _guard = lock();
    with_watchdog("daemon service flow", 600, || {
        let config = test_config();
        let (cold, _) = serve(
            &config,
            script(&[
                r#"{"id":1,"method":"verify","program":"bsearch"}"#.to_string(),
                r#"{"id":2,"method":"status"}"#.to_string(),
                r#"{"id":4,"method":"verify","program":"bsearch","mode":"baseline"}"#.to_string(),
                r#"{"id":3,"method":"shutdown"}"#.to_string(),
            ]),
        );
        assert_eq!(result_of(&cold[&1]), "verified");
        assert_eq!(result_of(&cold[&4]), "verified");
        // `status` may be answered before the worker finishes verifying,
        // so the cache sizes are read from the drained `final` frames.
        assert_eq!(result_of(&cold[&2]), "status");
        let caches = cold[&2].get("caches").expect("status reports caches");
        assert!(caches.get("hcons_nodes").and_then(Value::as_u64).is_some());
        assert_eq!(
            caches
                .get("hcons_watermark_exceeded")
                .and_then(Value::as_bool),
            Some(false),
            "the node arena cannot plausibly exceed the default watermark here"
        );
        let cold_caches = caches_of(&cold[&3]);
        assert!(
            cache_size(cold_caches, "cnf_atoms") > 0,
            "the final frame reports the CNF atom table the verify filled"
        );
        assert_eq!(cold[&3].get("admitted").and_then(Value::as_u64), Some(2));
        assert_eq!(cold[&3].get("verified").and_then(Value::as_u64), Some(2));

        // A second session verifying the same program: binder names are
        // deterministic, so every function replays its solve from the warm
        // process-global solve memo, every baseline obligation replays its
        // verdict from the obligation memo, and nothing new is interned.
        let (warm, _) = serve(
            &config,
            script(&[
                r#"{"id":1,"method":"verify","program":"bsearch","mode":"flux"}"#.to_string(),
                r#"{"id":3,"method":"verify","program":"bsearch","mode":"baseline"}"#.to_string(),
                r#"{"id":2,"method":"shutdown"}"#.to_string(),
            ]),
        );
        assert_eq!(result_of(&warm[&1]), "verified");
        let stats = warm[&1].get("stats").expect("verify responses carry stats");
        let stat = |field: &str| stats.get(field).and_then(Value::as_u64).expect(field);
        assert_eq!(
            Some(stat("replays")),
            warm[&1].get("functions").and_then(Value::as_u64),
            "every function of the second pass must replay its solve"
        );
        assert_eq!(stat("smt_queries"), 0, "the second pass must not query");
        assert_eq!(stat("cache_misses"), 0, "the second pass must not miss");
        assert_eq!(stat("sessions"), 0, "the second pass must open no session");
        assert_eq!(
            warm[&1].get("errors"),
            cold[&1].get("errors"),
            "the second pass changed the errors"
        );
        assert_eq!(result_of(&warm[&3]), "verified");
        let stats = warm[&3].get("stats").expect("verify responses carry stats");
        let stat = |field: &str| stats.get(field).and_then(Value::as_u64).expect(field);
        assert_eq!(stat("cache_hits"), stat("smt_queries"), "a baseline solve");
        assert_eq!(stat("cache_misses"), 0, "the baseline must not miss");
        assert_eq!(stat("sessions"), 0, "the baseline must open no session");
        let warm_caches = caches_of(&warm[&2]);
        assert!(
            cache_size(cold_caches, "solve_memo_len") > 0,
            "the first session stored its results"
        );
        assert!(
            cache_size(cold_caches, "obligation_memo_len") > 0,
            "the first session stored its baseline verdicts"
        );
        for field in [
            "hcons_nodes",
            "cnf_len",
            "cnf_atoms",
            "solve_memo_len",
            "obligation_memo_len",
        ] {
            assert_eq!(
                cache_size(warm_caches, field),
                cache_size(cold_caches, field),
                "the second pass grew {field}"
            );
        }

        // A second daemon run over the same process (the caches are
        // process-global and still warm): `reload` must report dropping
        // the validity entries the first run created.  Running it in its
        // own session makes the flush deterministic — inside the first
        // session the supervisor would race the worker still solving.
        let (responses, _) = serve(
            &config,
            script(&[
                r#"{"id":1,"method":"reload"}"#.to_string(),
                r#"{"id":2,"method":"shutdown"}"#.to_string(),
            ]),
        );
        assert_eq!(result_of(&responses[&1]), "reloaded");
        assert!(
            responses[&1]
                .get("validity_entries_dropped")
                .and_then(Value::as_u64)
                .expect("reload reports what it dropped")
                > 0,
            "the warm verdict cache from the first session should be flushed"
        );
        assert!(
            responses[&1]
                .get("solve_memo_entries_dropped")
                .and_then(Value::as_u64)
                .expect("reload reports the solve results it dropped")
                > 0,
            "the first session's solve results should be flushed too"
        );
        assert!(
            responses[&1]
                .get("obligation_memo_entries_dropped")
                .and_then(Value::as_u64)
                .expect("reload reports the baseline verdicts it dropped")
                > 0,
            "the first session's baseline verdicts should be flushed too"
        );
        assert!(
            responses[&1]
                .get("cnf_entries_flushed")
                .and_then(Value::as_u64)
                .expect("reload reports the CNF entries it flushed")
                > 0,
            "the first session's CNF encodings should be flushed too"
        );
        assert_eq!(result_of(&responses[&2]), "final");
    });
}

#[test]
fn reload_observes_fresh_environment() {
    let _guard = lock();
    with_watchdog("daemon live reload", 600, || {
        // Start with one worker, then retune the environment mid-run: the
        // reload answer must echo the *new* widths.  This pins the
        // regression where `FLUX_THREADS` was latched in a process-global
        // `OnceLock` at first use, which made `reload` a silent no-op for
        // thread counts — the daemon kept serving the stale startup value.
        std::env::set_var("FLUXD_WORKERS", "3");
        std::env::set_var("FLUX_THREADS", "5");
        // Keep the post-reload deadline ceiling test-safe on slow debug
        // builds (a reload re-reads *every* knob, including this one).
        std::env::set_var("FLUXD_MAX_DEADLINE_MS", "600000");
        let config = test_config();
        let (responses, _) = serve(
            &config,
            script(&[
                r#"{"id":1,"method":"reload"}"#.to_string(),
                // The pool was just grown 1 → 3 and per-request configs are
                // cloned fresh: verification must still work afterwards.
                r#"{"id":2,"method":"verify","program":"bsearch"}"#.to_string(),
                r#"{"id":3,"method":"status"}"#.to_string(),
                r#"{"id":4,"method":"shutdown"}"#.to_string(),
            ]),
        );
        std::env::remove_var("FLUXD_WORKERS");
        std::env::remove_var("FLUX_THREADS");
        std::env::remove_var("FLUXD_MAX_DEADLINE_MS");
        assert_eq!(result_of(&responses[&1]), "reloaded");
        assert_eq!(
            responses[&1].get("workers").and_then(Value::as_u64),
            Some(3),
            "reload must observe the new FLUXD_WORKERS, not the startup value"
        );
        assert_eq!(
            responses[&1].get("fn_threads").and_then(Value::as_u64),
            Some(5),
            "reload must observe the new FLUX_THREADS, not a OnceLock'd one"
        );
        assert_eq!(result_of(&responses[&2]), "verified");
        assert_eq!(result_of(&responses[&3]), "status");
        assert_eq!(
            responses[&3].get("workers").and_then(Value::as_u64),
            Some(3),
            "status must report the reloaded pool width"
        );
        assert_eq!(result_of(&responses[&4]), "final");
    });
}

#[test]
fn malformed_input_yields_structured_errors_never_exit() {
    let _guard = lock();
    with_watchdog("daemon framing errors", 600, || {
        let config = test_config();
        let mut input = Vec::new();
        // Malformed header: resynchronises at the newline.
        input.extend_from_slice(b"not-a-length\n");
        // Well-formed frame holding malformed JSON.
        proto::write_frame(&mut input, "{\"id\":7,").unwrap();
        // Unknown method: answered, id preserved.
        proto::write_frame(&mut input, r#"{"id":8,"method":"explode"}"#).unwrap();
        // Oversized frame: skipped in sync.
        let big = format!(
            r#"{{"id":9,"method":"verify","source":"{}"}}"#,
            "x".repeat(2048)
        );
        proto::write_frame(&mut input, &big).unwrap();
        // Missing program/source.
        proto::write_frame(&mut input, r#"{"id":10,"method":"verify"}"#).unwrap();
        // Unknown program name.
        proto::write_frame(
            &mut input,
            r#"{"id":11,"method":"verify","program":"nope"}"#,
        )
        .unwrap();
        // Frontend error: truncated source text.
        proto::write_frame(
            &mut input,
            r#"{"id":12,"method":"verify","source":"fn broken( {"}"#,
        )
        .unwrap();
        // The daemon must still be alive and serving after all of that.
        proto::write_frame(
            &mut input,
            r#"{"id":13,"method":"verify","program":"dotprod"}"#,
        )
        .unwrap();
        proto::write_frame(&mut input, r#"{"id":14,"method":"shutdown"}"#).unwrap();

        let config = ServerConfig {
            max_frame: 1024,
            ..config
        };
        let (responses, uncorrelated) = serve(&config, input);
        // Errors with no recoverable request id carry id 0; exactly three
        // land here: the bad header, the malformed JSON (its `id` field is
        // unparseable along with the rest of it) and the oversized frame.
        assert_eq!(uncorrelated.len(), 3, "{uncorrelated:?}");
        for frame in &uncorrelated {
            assert_eq!(result_of(frame), "error");
        }
        for id in [8, 10, 11, 12] {
            assert_eq!(
                result_of(&responses[&id]),
                "error",
                "id {id}: {:?}",
                responses[&id]
            );
        }
        assert_eq!(result_of(&responses[&13]), "verified");
        assert_eq!(result_of(&responses[&14]), "final");
    });
}

#[test]
fn overload_answers_structured_busy() {
    let _guard = lock();
    with_watchdog("daemon admission control", 600, || {
        let config = ServerConfig {
            workers: 1,
            queue_cap: 1,
            retry_after_ms: 25,
            max_deadline_ms: 600_000,
            ..ServerConfig::default()
        };
        // Eight verifications flood in far faster than one worker clears
        // them (admission is microseconds, a verification milliseconds):
        // the queue (depth 1) must overflow into structured busy answers.
        let mut payloads: Vec<String> = (1..=8)
            .map(|id| format!("{{\"id\":{id},\"method\":\"verify\",\"program\":\"kmp\"}}"))
            .collect();
        payloads.push(r#"{"id":9,"method":"shutdown"}"#.to_string());
        let (responses, _) = serve(&config, script(&payloads));

        let mut admitted = 0u64;
        let mut busy = 0u64;
        for id in 1..=8u64 {
            let response = &responses[&id];
            match result_of(response) {
                "busy" => {
                    busy += 1;
                    assert_eq!(
                        response.get("retry_after_ms").and_then(Value::as_u64),
                        Some(25),
                        "busy responses carry the configured back-off"
                    );
                }
                "verified" => admitted += 1,
                other => panic!("id {id}: unexpected result {other}"),
            }
        }
        assert!(busy >= 1, "a depth-1 queue must reject part of the flood");
        assert_eq!(admitted + busy, 8, "every request answered exactly once");
        let fin = &responses[&9];
        assert_eq!(fin.get("admitted").and_then(Value::as_u64), Some(admitted));
        assert_eq!(fin.get("busy").and_then(Value::as_u64), Some(busy));
    });
}

#[test]
fn faulted_daemon_contains_panics_and_never_falsely_verifies() {
    let _guard = lock();
    with_watchdog("daemon fault containment", 600, || {
        quiet_injected_panics();
        install_fault_plan(FaultPlan {
            seed: 42,
            unknown_permille: 200,
            panic_permille: 300,
            delay_permille: 50,
            ..FaultPlan::default()
        });

        // 40 alternating safe/unsafe inline programs under a heavy fault
        // storm.  Faults may degrade any verdict to `unknown` or `error`,
        // but an unsafe program must never come back `verified`.
        let quoted_safe = flux_bench::json::quote(SAFE_SRC);
        let quoted_unsafe = flux_bench::json::quote(UNSAFE_SRC);
        let mut payloads = Vec::new();
        for id in 1..=40u64 {
            let source = if id % 2 == 0 {
                &quoted_unsafe
            } else {
                &quoted_safe
            };
            payloads.push(format!(
                "{{\"id\":{id},\"method\":\"verify\",\"source\":{source}}}"
            ));
        }
        payloads.push(r#"{"id":41,"method":"shutdown"}"#.to_string());
        let config = ServerConfig {
            workers: 2,
            max_deadline_ms: 600_000,
            ..ServerConfig::default()
        };
        let (responses, _) = serve(&config, script(&payloads));
        clear_fault_plan();

        for id in 1..=40u64 {
            let response = responses
                .get(&id)
                .unwrap_or_else(|| panic!("id {id} was never answered"));
            let result = result_of(response);
            assert!(
                ["verified", "rejected", "unknown", "error", "busy"].contains(&result),
                "id {id}: unstructured result {result}"
            );
            if id % 2 == 0 {
                assert_ne!(
                    result, "verified",
                    "id {id}: faults made an unsafe program verify"
                );
            }
        }
        assert_eq!(result_of(&responses[&41]), "final");

        // No residue: with the plan cleared, a fresh daemon run over the
        // same process-global caches gives clean conclusive verdicts.
        let (clean, _) = serve(
            &ServerConfig {
                workers: 1,
                max_deadline_ms: 600_000,
                ..ServerConfig::default()
            },
            script(&[
                format!("{{\"id\":1,\"method\":\"verify\",\"source\":{quoted_safe}}}"),
                format!("{{\"id\":2,\"method\":\"verify\",\"source\":{quoted_unsafe}}}"),
            ]),
        );
        assert_eq!(result_of(&clean[&1]), "verified");
        assert_eq!(result_of(&clean[&2]), "rejected");
    });
}
