//! Fault soak against a live `fluxd` child: a long mixed request stream —
//! suite benchmarks, safe and unsafe inline programs, `status` and
//! `reload` probes, bursty admission — under a seeded fault storm
//! injected *inside the child* through the `FLUXD_FAULT_*` environment.
//!
//! Soaked properties:
//!
//! 1. **No crash** — the child answers every request and exits 0 at the
//!    end, despite a panic band that fells workers by the dozen.
//! 2. **No hang** — the whole stream runs under a watchdog.
//! 3. **No false verdicts** — faults may degrade any answer to `unknown`,
//!    `error` or `busy`, but a conclusive verdict must match the Table-1
//!    expectation matrix: an unsafe program never comes back `verified`,
//!    an expected-safe one never `rejected`.
//! 4. **Generations churn** — the node watermark is set so low that the
//!    stream crosses it again and again.  Each crossing flushes the whole
//!    generation once no job is in flight, so the final frame, from an
//!    idle daemon, counts at least one generation and shows an arena at or
//!    below the watermark.  Property 3 then covers verdicts that span
//!    flushes under the fault storm.
//!
//! The stream length is `FLUXD_SOAK_REQUESTS` (default 500 in release —
//! CI runs 200, the nightly job 1000 — and 24 under a debug profile,
//! where a single cold program solve is an order of magnitude slower and
//! the full stream would dominate the whole workspace suite), the seed
//! `FLUXD_SOAK_SEED`.

use flux_bench::daemon_client::DaemonClient;
use flux_bench::json::{quote, Value};
use flux_logic::env_parse;
use flux_smt::testing::with_watchdog;
use flux_suite::{benchmarks, expect_verifies, Mode};
use std::collections::HashMap;

/// Hash-consing nodes the daemon may keep before it flushes a generation:
/// below what one bsearch or fft Flux verification interns (~1.3k and
/// ~2.9k nodes), so the stream crosses it many times.
const HCONS_WATERMARK: u64 = 1000;

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

/// One request of the stream, with its classification contract.
#[derive(Clone, Debug)]
enum Kind {
    /// A suite benchmark; `expect_verified` pins the conclusive verdict.
    Program {
        name: &'static str,
        mode: &'static str,
        expect_verified: bool,
    },
    SafeInline,
    UnsafeInline,
    Status,
    Reload,
}

fn schedule(i: u64, cells: &[(&'static str, &'static str, bool)]) -> Kind {
    if i % 31 == 17 {
        Kind::Status
    } else if i % 61 == 23 {
        Kind::Reload
    } else if i % 4 == 3 {
        let (name, mode, expect_verified) = cells[(i as usize / 4) % cells.len()];
        Kind::Program {
            name,
            mode,
            expect_verified,
        }
    } else if i.is_multiple_of(2) {
        Kind::SafeInline
    } else {
        Kind::UnsafeInline
    }
}

fn payload(id: u64, kind: &Kind) -> String {
    match kind {
        Kind::Program { name, mode, .. } => format!(
            "{{\"id\":{id},\"method\":\"verify\",\"program\":{},\"mode\":{}}}",
            quote(name),
            quote(mode)
        ),
        Kind::SafeInline => format!(
            "{{\"id\":{id},\"method\":\"verify\",\"source\":{}}}",
            quote(SAFE_SRC)
        ),
        Kind::UnsafeInline => format!(
            "{{\"id\":{id},\"method\":\"verify\",\"source\":{}}}",
            quote(UNSAFE_SRC)
        ),
        Kind::Status => format!("{{\"id\":{id},\"method\":\"status\"}}"),
        Kind::Reload => format!("{{\"id\":{id},\"method\":\"reload\"}}"),
    }
}

fn result_of(response: &Value) -> &str {
    response
        .get("result")
        .and_then(Value::as_str)
        .expect("response carries a result")
}

/// Checks one answered request against its contract.  Returns whether the
/// answer was conclusive (for the end-of-run sanity count).
fn classify(id: u64, kind: &Kind, response: &Value) -> bool {
    let result = result_of(response);
    match kind {
        Kind::Status => {
            assert_eq!(result, "status", "id {id}: {response:?}");
            assert!(
                response
                    .get("generations")
                    .and_then(Value::as_u64)
                    .is_some(),
                "id {id}: status reports the generations flushed: {response:?}"
            );
            false
        }
        Kind::Reload => {
            assert_eq!(result, "reloaded", "id {id}: {response:?}");
            false
        }
        Kind::Program {
            name,
            mode,
            expect_verified,
        } => {
            assert!(
                ["verified", "rejected", "unknown", "error"].contains(&result),
                "id {id} ({name}/{mode}): unstructured result {response:?}"
            );
            match result {
                "verified" => {
                    assert!(expect_verified, "id {id}: faults made {name}/{mode} verify");
                    true
                }
                "rejected" => {
                    assert!(
                        !expect_verified,
                        "id {id}: faults made {name}/{mode} fail: {response:?}"
                    );
                    true
                }
                _ => false,
            }
        }
        Kind::SafeInline => {
            assert_ne!(
                result, "rejected",
                "id {id}: faults rejected a safe program: {response:?}"
            );
            result == "verified"
        }
        Kind::UnsafeInline => {
            assert_ne!(
                result, "verified",
                "id {id}: faults verified an unsafe program: {response:?}"
            );
            result == "rejected"
        }
    }
}

#[test]
fn fault_soak_never_crashes_hangs_or_lies() {
    let default_requests: u64 = if cfg!(debug_assertions) { 24 } else { 500 };
    let requests: u64 = env_parse("FLUXD_SOAK_REQUESTS", default_requests);
    let seed: u64 = env_parse("FLUXD_SOAK_SEED", 42u64);
    with_watchdog("fluxd fault soak", 3000, move || {
        let cells: Vec<(&'static str, &'static str, bool)> = benchmarks()
            .iter()
            .filter(|b| !b.is_library)
            .flat_map(|b| {
                [
                    (b.name, "flux", expect_verifies(b.name, Mode::Flux)),
                    (b.name, "baseline", expect_verifies(b.name, Mode::Baseline)),
                ]
            })
            .collect();

        let mut daemon = DaemonClient::spawn_at(
            std::path::Path::new(env!("CARGO_BIN_EXE_fluxd")),
            &[
                ("FLUXD_MAX_DEADLINE_MS", "600000".to_string()),
                // A shallow queue so request bursts actually overflow into
                // `busy`, and a low node watermark so generations churn.
                ("FLUXD_QUEUE_CAP", "2".to_string()),
                ("FLUXD_HCONS_WATERMARK", HCONS_WATERMARK.to_string()),
                ("FLUXD_RETRY_AFTER_MS", "5".to_string()),
                ("FLUXD_FAULT_SEED", seed.to_string()),
                ("FLUXD_FAULT_UNKNOWN_PERMILLE", "80".to_string()),
                ("FLUXD_FAULT_PANIC_PERMILLE", "60".to_string()),
                ("FLUXD_FAULT_DELAY_PERMILLE", "40".to_string()),
                ("FLUXD_FAULT_DELAY_MS", "2".to_string()),
            ],
        )
        .expect("spawn faulted fluxd");

        let mut conclusive = 0u64;
        let mut busy_retries = 0u64;
        let mut next_id = 1u64;
        // Bursts of four keep several requests in flight against the
        // two workers and depth-2 queue, so admission control sees real
        // contention (on top of the injected `queue`-site faults).
        for burst_start in (0..requests).step_by(4) {
            let burst: Vec<(u64, Kind)> = (burst_start..(burst_start + 4).min(requests))
                .map(|i| {
                    let id = next_id;
                    next_id += 1;
                    (id, schedule(i, &cells))
                })
                .collect();
            for (id, kind) in &burst {
                daemon.send(&payload(*id, kind)).expect("send request");
            }
            let mut answers: HashMap<u64, Value> = HashMap::new();
            while answers.len() < burst.len() {
                let response = daemon
                    .read_response()
                    .expect("daemon answers every request");
                let id = response.get("id").and_then(Value::as_u64).expect("id");
                assert!(
                    answers.insert(id, response).is_none(),
                    "two responses for id {id}"
                );
            }
            for (id, kind) in &burst {
                let mut response = answers.remove(id).expect("every id answered");
                // Structured back-pressure: honour the advertised back-off
                // and retry (the `queue` fault band also lands here).
                let mut attempts = 0;
                while result_of(&response) == "busy" {
                    busy_retries += 1;
                    attempts += 1;
                    assert!(attempts <= 50, "id {id}: busy-looped 50 times");
                    let back_off = response
                        .get("retry_after_ms")
                        .and_then(Value::as_u64)
                        .expect("busy responses carry retry_after_ms");
                    std::thread::sleep(std::time::Duration::from_millis(back_off));
                    response = daemon
                        .request(&payload(*id, kind))
                        .expect("busy retry round-trip");
                }
                if classify(*id, kind, &response) {
                    conclusive += 1;
                }
            }
        }

        // Even a heavy storm leaves most answers conclusive — a stream
        // that degraded wholesale to `unknown`/`error` would satisfy the
        // per-request contracts while verifying nothing.
        assert!(
            conclusive >= requests / 4,
            "only {conclusive} of {requests} requests were conclusive"
        );

        // Clean exit 0 after the storm: the final frame reports the
        // panics the pool absorbed and the generations it flushed, and the
        // idle daemon sits at or below its watermark.
        let fin = daemon.shutdown().expect("faulted daemon drains cleanly");
        assert_eq!(result_of(&fin), "final");
        let respawns = fin
            .get("worker_respawns")
            .and_then(Value::as_u64)
            .expect("final frame reports respawns");
        let generations = fin
            .get("generations")
            .and_then(Value::as_u64)
            .expect("final frame reports generations");
        assert!(generations >= 1, "the stream never flushed a generation");
        let nodes = fin
            .get("caches")
            .and_then(|c| c.get("hcons_nodes"))
            .and_then(Value::as_u64)
            .expect("final frame reports hcons_nodes");
        assert!(
            nodes <= HCONS_WATERMARK,
            "the idle daemon holds {nodes} nodes, above its watermark"
        );
        if requests >= 200 {
            assert!(
                respawns > 0,
                "a 6% panic band over {requests} requests must fell at least one worker"
            );
        }
        eprintln!(
            "soak: {requests} requests, {conclusive} conclusive, \
             {busy_retries} busy retries, {respawns} worker respawns, \
             {generations} generations"
        );

        // A fresh, fault-free daemon over the same programs answers
        // conclusively — the storm was confined to the child that hosted
        // it.
        let mut clean = DaemonClient::spawn_at(
            std::path::Path::new(env!("CARGO_BIN_EXE_fluxd")),
            &[("FLUXD_MAX_DEADLINE_MS", "600000".to_string())],
        )
        .expect("spawn clean fluxd");
        let safe = clean.verify_source(SAFE_SRC, "flux").expect("clean safe");
        assert_eq!(result_of(&safe), "verified");
        let unsafe_ = clean
            .verify_source(UNSAFE_SRC, "flux")
            .expect("clean unsafe");
        assert_eq!(result_of(&unsafe_), "rejected");
        clean.shutdown().expect("clean daemon drains");
    });
}
