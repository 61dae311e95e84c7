//! Regenerates Table 1 of "Flux: Liquid Types for Rust".
//!
//! For every benchmark the harness verifies the Flux flavour with the
//! refinement-type checker and the baseline flavour with the program-logic
//! verifier, then prints LOC / spec lines / annotation lines / verification
//! time for both, mirroring the layout of the paper's table, plus a
//! per-benchmark PASS/FAIL verdict against the expected-outcome matrix.
//!
//! The process exits nonzero when any `(benchmark, mode)` cell deviates from
//! `flux_suite::expect_verifies`, so CI can gate on the full matrix.
//!
//! With `--json [PATH]` the run is additionally written as machine-readable
//! JSON (default path `BENCH_table1.json`): per benchmark and verifier the
//! run-level fields (`safe`, `time_s`, `functions`, `fn_threads`,
//! `unknowns`, `fn_times_ms`), then every `FixStats` counter under its
//! field name (`smt_queries`, `cache_hits`, `sessions`, ...), then an
//! `smt` object with every `SmtStats` counter (`pivots`, `propagations`,
//! ...), so per-PR regressions in queries issued (or prunes/reuse lost)
//! are visible by diffing one file.  The committed
//! snapshot is a `--threads 1` run, whose counters are deterministic.
//! Before overwriting, the fresh run is *gated* against the committed
//! snapshot — totals **and** each benchmark individually, so a 3× `kmp`
//! regression can no longer hide behind a `heapsort` win.  The tolerances
//! (time factor, query factor, and the floors that keep sub-50 ms rows from
//! tripping on scheduler jitter) live in the committed snapshot's `gate`
//! object; `--no-gate` skips the comparison, e.g. when a regression is
//! intentional and the snapshot is being re-baselined.
//!
//! `--threads N` pins the function fan-out, the checker's only thread pool;
//! every fixpoint solve runs on its fan-out worker's thread (the default
//! width is the `FLUX_THREADS` environment variable, else the machine's
//! available parallelism).  The run's effective parallelism is recorded per
//! benchmark in the JSON (`fn_threads`, `fn_times_ms`, and the per-lock
//! `hcons_contentions`, `cnf_contentions` and `validity_contentions`).
//!
//! `--audit [TIER]` runs both verifiers under the audit layer (`lint`, or
//! `full` when the operand is omitted): every obligation is sort- and
//! scope-checked, theory steps are certified, and converged fixpoint
//! solutions are independently re-validated — any violation panics.  The
//! audit counters (`lint_checks`, `certs_checked`, `revalidations`) appear
//! in the engine-statistics block and the JSON.  Audited runs are slower by
//! design, so the perf gate is automatically skipped.  The `FLUX_AUDIT`
//! environment variable sets the same tier without the flag (but does not
//! skip the gate on its own).
//!
//! `--deadline-ms N` gives every function's solve a wall-clock deadline of
//! `N` milliseconds and `--budget N` caps each solver step counter (SAT
//! decisions/conflicts, simplex pivots, branch-and-bound nodes, quantifier
//! instances, weakening iterations) at `N`.  Runs that exhaust a budget
//! degrade to an inconclusive `unk` outcome — never a false "verified" —
//! counted in the `unknowns` column of the engine-statistics block and the
//! JSON.  Budgeted runs are not comparable to the committed snapshot, so the
//! perf gate is automatically skipped.  The `FLUX_DEADLINE_MS` environment
//! variable sets a process-wide default deadline without the flag.

use flux_bench::daemon_client::DaemonClient;
use flux_bench::json::Value;
use std::process::ExitCode;
use std::time::Duration;

/// The figures the perf gate compares, for one benchmark or for the totals:
/// wall-clock (Flux + baseline) and validity queries (Flux + baseline).
struct GateFigures {
    time_s: f64,
    smt_queries: f64,
}

/// Reads the gate tolerances from a committed snapshot's `gate` object,
/// field by field (missing fields — e.g. an older snapshot — keep their
/// defaults).  The values read here are also what the refreshed snapshot
/// writes back out, so hand-tuned tolerances survive every refresh.
fn tolerances_from_snapshot(value: &Value) -> flux::GateTolerances {
    let defaults = flux::GateTolerances::default();
    let field = |key: &str, default: f64| {
        value
            .get("gate")
            .and_then(|g| g.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or(default)
    };
    flux::GateTolerances {
        time_factor: field("time_factor", defaults.time_factor),
        query_factor: field("query_factor", defaults.query_factor),
        min_time_s: field("min_time_s", defaults.min_time_s),
        min_queries: field("min_queries", defaults.min_queries),
    }
}

fn row_figures(row: &Value, name: &str) -> Result<GateFigures, String> {
    let mut time_s = 0.0;
    let mut smt_queries = 0.0;
    for side in ["flux", "baseline"] {
        let outcome = row
            .get(side)
            .ok_or_else(|| format!("snapshot row `{name}` lacks `{side}`"))?;
        time_s += outcome
            .get("time_s")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("snapshot row `{name}` lacks `{side}.time_s`"))?;
        smt_queries += outcome
            .get("smt_queries")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("snapshot row `{name}` lacks `{side}.smt_queries`"))?;
    }
    Ok(GateFigures {
        time_s,
        smt_queries,
    })
}

/// Per-benchmark figures of the committed snapshot, in file order.
fn snapshot_benchmarks(value: &Value) -> Result<Vec<(String, GateFigures)>, String> {
    let benchmarks = value
        .get("benchmarks")
        .and_then(|v| v.as_array())
        .ok_or("snapshot has no `benchmarks` array")?;
    benchmarks
        .iter()
        .map(|row| {
            let name = match row.get("name") {
                Some(Value::String(name)) => name.clone(),
                _ => return Err("snapshot row has no `name`".to_owned()),
            };
            let figures = row_figures(row, &name)?;
            Ok((name, figures))
        })
        .collect()
}

fn fresh_figures(row: &flux::TableRow) -> GateFigures {
    GateFigures {
        time_s: row.flux.time.as_secs_f64() + row.baseline.time.as_secs_f64(),
        smt_queries: (row.flux.stats.fix.smt_queries + row.baseline.stats.fix.smt_queries) as f64,
    }
}

/// Compares the fresh run against the committed snapshot: totals first,
/// then every benchmark individually against the snapshot's tolerances.
/// Returns `false` on any regression beyond the thresholds.
fn gate(rows: &[flux::TableRow], snapshot: &Value, tolerances: &flux::GateTolerances) -> bool {
    let committed_rows = match snapshot_benchmarks(snapshot) {
        Ok(rows) => rows,
        Err(e) => {
            // An unreadable snapshot cannot gate anything; report and pass
            // (the refreshed file written below re-baselines it).
            println!("perf gate: committed snapshot not comparable ({e})");
            return true;
        }
    };
    let fresh_rows: Vec<(&str, GateFigures)> = rows
        .iter()
        .filter(|r| !r.is_library)
        .map(|r| (r.name.as_str(), fresh_figures(r)))
        .collect();
    let mut ok = true;

    // Totals, as before: catches slow global drift spread thinly enough to
    // stay under every per-benchmark threshold.
    let committed_totals = GateFigures {
        time_s: committed_rows.iter().map(|(_, f)| f.time_s).sum(),
        smt_queries: committed_rows.iter().map(|(_, f)| f.smt_queries).sum(),
    };
    let fresh_totals = GateFigures {
        time_s: fresh_rows.iter().map(|(_, f)| f.time_s).sum(),
        smt_queries: fresh_rows.iter().map(|(_, f)| f.smt_queries).sum(),
    };
    println!(
        "perf gate: wall-clock {:.3}s vs committed {:.3}s (limit {:.3}s), \
         smt_queries {} vs committed {} (limit {})",
        fresh_totals.time_s,
        committed_totals.time_s,
        committed_totals.time_s * tolerances.time_factor,
        fresh_totals.smt_queries,
        committed_totals.smt_queries,
        committed_totals.smt_queries * tolerances.query_factor,
    );
    if fresh_totals.time_s > committed_totals.time_s * tolerances.time_factor {
        println!("perf gate FAILED: total wall-clock regressed beyond the time factor");
        ok = false;
    }
    if fresh_totals.smt_queries > committed_totals.smt_queries * tolerances.query_factor {
        println!("perf gate FAILED: total smt_queries regressed beyond the query factor");
        ok = false;
    }

    // Per benchmark: a regression on one row must fail even when wins
    // elsewhere keep the totals green.
    for (name, committed) in &committed_rows {
        let Some((_, fresh)) = fresh_rows.iter().find(|(n, _)| n == name) else {
            println!("perf gate FAILED: benchmark `{name}` is in the snapshot but did not run");
            ok = false;
            continue;
        };
        let time_limit = committed.time_s.max(tolerances.min_time_s) * tolerances.time_factor;
        let query_limit =
            committed.smt_queries.max(tolerances.min_queries) * tolerances.query_factor;
        if fresh.time_s > time_limit {
            println!(
                "perf gate FAILED: {name} wall-clock {:.3}s exceeds {:.3}s \
                 (committed {:.3}s x {})",
                fresh.time_s, time_limit, committed.time_s, tolerances.time_factor,
            );
            ok = false;
        }
        if fresh.smt_queries > query_limit {
            println!(
                "perf gate FAILED: {name} smt_queries {} exceeds {} (committed {} x {})",
                fresh.smt_queries, query_limit, committed.smt_queries, tolerances.query_factor,
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "perf gate passed ({} benchmarks within tolerances)",
            committed_rows.len()
        );
    }
    ok
}

/// Routes the benchmark rows of Table 1 through a spawned `fluxd` daemon
/// (`--daemon`): library rows are still reported locally (they carry
/// metrics only), every benchmark × mode cell becomes a `verify` request.
/// The daemon is drained cleanly at the end; its final statistics frame is
/// echoed so warm-cache behaviour (`xbench_hits`) is visible in the log.
fn daemon_table1(
    deadline_ms: Option<u64>,
    steps: Option<u64>,
) -> Result<Vec<flux::TableRow>, String> {
    let mut client = DaemonClient::spawn(&[]).map_err(|e| format!("spawning fluxd: {e}"))?;
    let mut rows = flux::library_rows();
    for benchmark in flux::benchmarks() {
        let flux_outcome = daemon_verify(
            &mut client,
            benchmark.name,
            flux::Mode::Flux,
            deadline_ms,
            steps,
        )?;
        let baseline_outcome = daemon_verify(
            &mut client,
            benchmark.name,
            flux::Mode::Baseline,
            deadline_ms,
            steps,
        )?;
        rows.push(flux::TableRow {
            name: benchmark.name.to_owned(),
            is_library: benchmark.is_library,
            flux: flux_outcome,
            baseline: baseline_outcome,
        });
    }
    let final_stats = client
        .shutdown()
        .map_err(|e| format!("shutting down fluxd: {e}"))?;
    let counter = |key: &str| {
        final_stats
            .get(key)
            .and_then(Value::as_u64)
            .unwrap_or_default()
    };
    println!(
        "fluxd drained: {} admitted, {} verified, {} rejected, {} unknown, \
         {} errors, {} busy, {} worker respawns",
        counter("admitted"),
        counter("verified"),
        counter("rejected"),
        counter("unknown"),
        counter("errors"),
        counter("busy"),
        counter("worker_respawns"),
    );
    Ok(rows)
}

/// One benchmark × mode cell through the daemon, retrying bounded `busy`
/// rejections with the server-suggested back-off.
fn daemon_verify(
    client: &mut DaemonClient,
    program: &str,
    mode: flux::Mode,
    deadline_ms: Option<u64>,
    steps: Option<u64>,
) -> Result<flux::VerifyOutcome, String> {
    let mode_str = match mode {
        flux::Mode::Flux => "flux",
        flux::Mode::Baseline => "baseline",
    };
    for _ in 0..10 {
        let response = client
            .verify_program_opts(program, mode_str, deadline_ms, steps)
            .map_err(|e| format!("{program}/{mode_str}: {e}"))?;
        if response.get("result").and_then(Value::as_str) == Some("busy") {
            let back_off = response
                .get("retry_after_ms")
                .and_then(Value::as_u64)
                .unwrap_or(100);
            std::thread::sleep(Duration::from_millis(back_off));
            continue;
        }
        return Ok(outcome_from_response(mode, &response));
    }
    Err(format!("{program}/{mode_str}: daemon stayed busy"))
}

/// Rebuilds a [`flux::VerifyOutcome`] from a daemon response so the
/// familiar renderers (`render_table1`, `render_table1_json`) and the
/// expected-outcome matrix check run unchanged.  Statistics the response
/// does not carry stay zero.
fn outcome_from_response(mode: flux::Mode, response: &Value) -> flux::VerifyOutcome {
    let field = |key: &str| {
        response
            .get(key)
            .and_then(Value::as_u64)
            .unwrap_or_default() as usize
    };
    let stat = |key: &str| {
        response
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(Value::as_u64)
            .unwrap_or_default() as usize
    };
    let result = response
        .get("result")
        .and_then(Value::as_str)
        .unwrap_or("error");
    let mut errors: Vec<String> = response
        .get("errors")
        .and_then(Value::as_array)
        .map(|list| {
            list.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if result == "error" {
        let detail = response
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("daemon error");
        errors.push(format!("daemon: {detail}"));
    }
    // `unknowns` drives `ok_label`'s `unk` cell; an inconclusive daemon
    // verdict must not render as a hard `NO`.
    let unknowns = if result == "unknown" {
        stat("unknowns").max(1)
    } else {
        stat("unknowns")
    };
    let mut stats = flux::QueryStats {
        unknowns,
        ..Default::default()
    };
    // The wire carries fixpoint counters under their `FixStats` names.
    for (name, slot) in stats.fix.counters_mut() {
        *slot = stat(name);
    }
    stats.smt.budget_exhausted = stat("budget_exhausted");
    flux::VerifyOutcome {
        mode,
        safe: result == "verified",
        errors,
        time: Duration::from_millis(
            response
                .get("time_ms")
                .and_then(Value::as_u64)
                .unwrap_or_default(),
        ),
        functions: field("functions"),
        loc: field("loc"),
        spec_lines: field("spec_lines"),
        annot_lines: field("annot_lines"),
        stats,
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mut json_path: Option<String> = None;
    let mut gate_enabled = true;
    let mut daemon_mode = false;
    let mut threads: Option<usize> = None;
    let mut audit: Option<flux_logic::AuditTier> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut budget_steps: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--audit" => {
                // The tier operand is optional: bare `--audit` means `full`.
                audit = Some(match args.peek().map(String::as_str) {
                    Some("lint") => {
                        args.next();
                        flux_logic::AuditTier::Lint
                    }
                    Some("full") => {
                        args.next();
                        flux_logic::AuditTier::Full
                    }
                    _ => flux_logic::AuditTier::Full,
                });
            }
            "--json" => {
                // The path operand is optional: a following flag (e.g.
                // `--json --no-gate`) must not be swallowed as a filename.
                json_path = Some(match args.peek() {
                    Some(next) if !next.starts_with("--") => {
                        args.next().expect("peeked operand exists")
                    }
                    _ => "BENCH_table1.json".to_owned(),
                });
            }
            "--daemon" => daemon_mode = true,
            "--no-gate" => gate_enabled = false,
            "--threads" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => threads = Some(std::cmp::max(n, 1)),
                _ => {
                    eprintln!("--threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--deadline-ms" => match args.next().as_deref().map(str::parse) {
                Some(Ok(ms)) if ms > 0 => deadline_ms = Some(ms),
                _ => {
                    eprintln!("--deadline-ms requires a positive integer (milliseconds)");
                    return ExitCode::FAILURE;
                }
            },
            "--budget" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n > 0 => budget_steps = Some(n),
                _ => {
                    eprintln!("--budget requires a positive integer (solver steps)");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "unknown argument: {other} (supported: --json [PATH], --no-gate, \
                     --threads N, --audit [lint|full], --deadline-ms N, --budget N, \
                     --daemon)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let mut config = flux::VerifyConfig::default();
    if let Some(threads) = threads {
        config.check.fn_threads = threads;
    }
    if let Some(tier) = audit {
        config.check.fixpoint.smt.audit = tier;
        config.wp.smt.audit = tier;
        if gate_enabled && tier != flux_logic::AuditTier::Off {
            println!("perf gate: skipped (audited runs pay for their checking)");
            gate_enabled = false;
        }
    }
    if deadline_ms.is_some() || budget_steps.is_some() {
        let mut budget = budget_steps
            .map(flux_smt::ResourceBudget::uniform_steps)
            .unwrap_or(flux_smt::ResourceBudget::UNLIMITED);
        if let Some(ms) = deadline_ms {
            budget.timeout = Some(std::time::Duration::from_millis(ms));
        }
        config.check.fixpoint.smt.budget = budget;
        config.wp.smt.budget = budget;
        if gate_enabled {
            println!("perf gate: skipped (budgeted runs may degrade to unknown)");
            gate_enabled = false;
        }
    }
    if daemon_mode && gate_enabled {
        // Daemon-routed responses carry a reduced statistics block (no
        // pivot counts), so the rows are not comparable to a committed
        // in-process snapshot.
        println!("perf gate: skipped (daemon-routed runs report reduced statistics)");
        gate_enabled = false;
    }
    println!("function fan-out threads: {}", config.check.fn_threads);
    println!("audit tier: {}", config.check.fixpoint.smt.audit);
    let rows = if daemon_mode {
        match daemon_table1(deadline_ms, budget_steps) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("--daemon failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        flux::run_table1(&config)
    };
    println!("{}", flux::render_table1(&rows));
    println!("incremental query engine (Flux mode | baseline):");
    println!("{}", flux::render_query_stats(&rows));
    let mut gate_ok = true;
    if let Some(path) = &json_path {
        // Parse the committed snapshot once: its `gate` tolerances both
        // drive the comparison and round-trip into the refreshed file, so
        // hand-tuned values survive the rewrite — even under `--no-gate`.
        // A missing file and a corrupt one are reported distinctly: an
        // unreadable snapshot that *exists* (a bad merge, say) should not
        // masquerade as a first run in the log.
        let committed = match std::fs::read_to_string(path) {
            Ok(raw) => match flux_bench::json::parse(&raw) {
                Ok(value) => Some(value),
                Err(e) => {
                    println!(
                        "perf gate: committed snapshot at {path} exists but is not \
                         parseable ({e}); gating skipped, snapshot will be re-baselined"
                    );
                    None
                }
            },
            Err(e) => {
                println!("perf gate: no committed snapshot at {path} ({e})");
                None
            }
        };
        let tolerances = committed
            .as_ref()
            .map(tolerances_from_snapshot)
            .unwrap_or_default();
        // Gate against the committed snapshot *before* overwriting it.
        if gate_enabled {
            if let Some(snapshot) = &committed {
                gate_ok = gate(&rows, snapshot, &tolerances);
            }
        }
        let json = flux::render_table1_json(&rows, &tolerances);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}:");
        println!("{json}");
    }

    // Per-benchmark verdicts against the expected-outcome matrix.
    println!(
        "{:<10} | {:>6} {:>9} | verdict",
        "benchmark", "flux", "baseline"
    );
    println!("{}", "-".repeat(44));
    let mut deviations: Vec<&flux::TableRow> = Vec::new();
    for row in rows.iter().filter(|r| !r.is_library) {
        let cells = [
            (flux_suite::Mode::Flux, row.flux.safe),
            (flux_suite::Mode::Baseline, row.baseline.safe),
        ];
        let ok = cells
            .iter()
            .all(|(mode, safe)| *safe == flux_suite::expect_verifies(&row.name, *mode));
        if !ok {
            deviations.push(row);
        }
        println!(
            "{:<10} | {:>6} {:>9} | {}",
            row.name,
            if row.flux.safe { "yes" } else { "NO" },
            if row.baseline.safe { "yes" } else { "NO" },
            if ok { "PASS" } else { "FAIL" },
        );
    }
    println!("{}", "-".repeat(44));

    if deviations.is_empty() {
        println!("all benchmarks match the expected Table 1 outcome matrix");
        if gate_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else {
        println!(
            "{} benchmark(s) deviate from the expected outcome matrix:",
            deviations.len()
        );
        for row in deviations {
            let errors: Vec<&String> = row
                .flux
                .errors
                .iter()
                .chain(row.baseline.errors.iter())
                .collect();
            if errors.is_empty() {
                println!(
                    "--- {}: verified although the matrix expects failure",
                    row.name
                );
            }
            for e in errors {
                println!("--- {}:\n{}", row.name, e);
            }
        }
        ExitCode::FAILURE
    }
}
