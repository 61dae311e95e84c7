//! End-to-end exercise of the real `fluxd` binary over a pipe: the full
//! Table-1 matrix cold, then warm (asserting every warm Flux function
//! replays its solve, every warm baseline obligation replays its verdict,
//! and nothing new is interned), wire-level garbage mid-session, and a
//! clean drain.
//!
//! Cargo builds the binary before running integration tests and exposes
//! its path as `CARGO_BIN_EXE_fluxd`.

use flux_bench::daemon_client::DaemonClient;
use flux_bench::json::Value;
use flux_smt::testing::with_watchdog;
use flux_suite::{benchmarks, expect_verifies, Mode};
use std::collections::HashMap;

fn spawn_daemon() -> DaemonClient {
    // Debug builds verify slowly; lift the server deadline ceiling so a
    // loaded CI machine cannot time a request out.
    DaemonClient::spawn_at(
        std::path::Path::new(env!("CARGO_BIN_EXE_fluxd")),
        &[("FLUXD_MAX_DEADLINE_MS", "600000".to_string())],
    )
    .expect("spawn fluxd")
}

fn result_of(response: &Value) -> &str {
    response
        .get("result")
        .and_then(Value::as_str)
        .expect("response carries a result")
}

/// The live size of the daemon's hash-consing arena.
fn hcons_nodes(daemon: &mut DaemonClient) -> u64 {
    daemon
        .status()
        .expect("status round-trip")
        .get("caches")
        .and_then(|c| c.get("hcons_nodes"))
        .and_then(Value::as_u64)
        .expect("status reports hcons_nodes")
}

fn expected_verdict(name: &str, mode: Mode) -> &'static str {
    if expect_verifies(name, mode) {
        "verified"
    } else {
        "rejected"
    }
}

#[test]
fn full_matrix_cold_then_warm_with_cross_request_hits() {
    with_watchdog("fluxd e2e matrix", 1200, || {
        let mut daemon = spawn_daemon();
        let cells: Vec<(&str, Mode, &str)> = benchmarks()
            .iter()
            .filter(|b| !b.is_library)
            .flat_map(|b| {
                [
                    (b.name, Mode::Flux, "flux"),
                    (b.name, Mode::Baseline, "baseline"),
                ]
            })
            .collect();

        // Cold pass: every verdict must match the Table-1 expectation
        // matrix (no faults are injected, so no degradation is allowed).
        let mut cold_errors = HashMap::new();
        for (name, mode, wire_mode) in &cells {
            let response = daemon
                .verify_program(name, wire_mode)
                .expect("cold verify round-trip");
            assert_eq!(
                result_of(&response),
                expected_verdict(name, *mode),
                "cold {name}/{wire_mode}: {response:?}"
            );
            cold_errors.insert((*name, *wire_mode), response.get("errors").cloned());
        }

        // Warm pass: identical requests again.  The verdicts must not
        // drift.  Both verifiers name binders deterministically, so a re-run
        // generates the same constraints and obligations, and the daemon
        // keeps its caches uncapped below the node watermark: every warm
        // Flux function replays its solve from the solve memo and asks no
        // query, every warm baseline obligation replays its verdict from the
        // obligation memo, no cell opens a solver session, and the whole
        // pass interns nothing.
        let nodes_before = hcons_nodes(&mut daemon);
        for (name, mode, wire_mode) in &cells {
            let response = daemon
                .verify_program(name, wire_mode)
                .expect("warm verify round-trip");
            assert_eq!(
                result_of(&response),
                expected_verdict(name, *mode),
                "warm {name}/{wire_mode}: {response:?}"
            );
            let stat = |field: &str| {
                response
                    .get("stats")
                    .and_then(|s| s.get(field))
                    .and_then(Value::as_u64)
                    .expect("verify responses carry stats")
            };
            if *mode == Mode::Flux {
                let functions = response.get("functions").and_then(Value::as_u64);
                assert_eq!(
                    Some(stat("replays")),
                    functions,
                    "warm {name}/flux: every function must replay its solve"
                );
                assert_eq!(stat("smt_queries"), 0, "warm {name}/flux asked a query");
            } else {
                assert_eq!(
                    stat("cache_hits"),
                    stat("smt_queries"),
                    "warm {name}/baseline: every obligation must replay its verdict"
                );
            }
            assert_eq!(stat("cache_misses"), 0, "warm {name}/{wire_mode} missed");
            assert_eq!(
                stat("sessions"),
                0,
                "warm {name}/{wire_mode} opened a session"
            );
            assert_eq!(
                response.get("errors").cloned(),
                cold_errors[&(*name, *wire_mode)],
                "warm {name}/{wire_mode}: the errors changed"
            );
        }
        assert_eq!(
            hcons_nodes(&mut daemon),
            nodes_before,
            "the warm pass interned new nodes"
        );

        // Wire-level garbage mid-session: a structured error comes back
        // and the daemon keeps serving.
        daemon.send("this is not json").expect("send garbage");
        let error = daemon.read_response().expect("error response for garbage");
        assert_eq!(result_of(&error), "error");
        let alive = daemon
            .verify_program("bsearch", "flux")
            .expect("daemon still serves after garbage");
        assert_eq!(result_of(&alive), "verified");

        // Status reflects the workload; the node arena stays below the
        // default watermark in this small session, so no flush ran.
        let status = daemon.status().expect("status round-trip");
        assert_eq!(result_of(&status), "status");
        assert_eq!(
            status.get("admitted").and_then(Value::as_u64),
            Some(cells.len() as u64 * 2 + 1)
        );
        let caches = status.get("caches").expect("status reports caches");
        assert_eq!(
            caches
                .get("hcons_watermark_exceeded")
                .and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(status.get("generations").and_then(Value::as_u64), Some(0));

        // Clean drain: the final frame answers the shutdown id and the
        // child exits successfully.
        let fin = daemon.shutdown().expect("clean shutdown");
        assert_eq!(result_of(&fin), "final");
        assert_eq!(fin.get("errors").and_then(Value::as_u64), Some(1));
    });
}

#[test]
fn deadline_clamp_degrades_to_unknown_not_wrong() {
    with_watchdog("fluxd e2e deadline", 600, || {
        let mut daemon = spawn_daemon();
        // A 1ms deadline cannot complete a debug-build verification; the
        // daemon must answer conclusively-inconclusive (`unknown`), never
        // a fabricated verdict — and never hang.
        let response = daemon
            .verify_program_opts("heapsort", "flux", Some(1), None)
            .expect("deadline round-trip");
        let result = result_of(&response).to_string();
        assert!(
            result == "unknown" || result == "rejected",
            "a starved run must not claim success: {response:?}"
        );
        if result == "rejected" {
            // If the budget cut surfaced as errors, they must say so.
            let errors = response.get("errors").and_then(Value::as_array).unwrap();
            assert!(!errors.is_empty());
        }
        // The same program with a real budget still verifies.
        let response = daemon
            .verify_program_opts("heapsort", "flux", Some(600_000), None)
            .expect("full-budget round-trip");
        assert_eq!(result_of(&response), "verified");
        daemon.shutdown().expect("clean shutdown");
    });
}
