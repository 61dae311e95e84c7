//! The `fluxd` server loop: supervised workers, bounded admission, and
//! generational cache reclaim while idle.
//!
//! # Supervision tree
//!
//! ```text
//! supervisor (read loop, admission control)
//! ├── writer        — sole owner of the output stream; workers and the
//! │                   supervisor send rendered frames through a channel,
//! │                   so concurrent responses never interleave bytes
//! └── worker × N    — shared job queue behind a mutex; each job runs
//!                     under `catch_unwind`.  A worker that catches a
//!                     panic answers with a structured `error` response
//!                     and *retires* (fresh stack, no half-poisoned
//!                     thread-locals); the supervisor respawns it before
//!                     admitting the next request.
//! ```
//!
//! The supervisor never verifies anything itself, so a hostile request can
//! only take down a worker.  During the final drain the supervisor *does*
//! process leftover jobs inline (still under `catch_unwind`) — by then the
//! queue is closed, so this is bounded work.
//!
//! # Generational reclaim
//!
//! A long-running daemon must not grow without bound across requests, and
//! must not evict the warm set that makes a repeated request free.  No
//! process-global cache has a cap: the verdict cache, the solve memo,
//! the baseline's obligation memo, the CNF memo and its atom table, and the
//! hash-consing memos.  They all hold `ExprId`s, which are indices into the
//! hash-consing arena, so they all grow with it; the arena is the one thing
//! the daemon bounds.
//!
//! When a job leaves the arena above `hcons_node_watermark` and no other
//! verify job is in flight, the worker flushes the whole *generation* in
//! one hold of the generation lock ([`flux::flush_generation`]): the
//! verdict cache, the solve memo, the obligation memo, the CNF memo and
//! atom table, and the arena with its index and memos.  Dropping only some
//! of them would be unsound — a surviving verdict keyed on a recycled id
//! would answer for a different formula — so they go together.  Each
//! verify job holds the lock's read side for its whole run, so a flush
//! never pulls ids out from under a solve; a busy daemon skips the flush,
//! and the next job to finish retries it.  An idle daemon is therefore
//! never above its watermark.  `reload` runs the same flush, waiting for
//! the jobs in flight.
//!
//! # Live reconfiguration
//!
//! `reload` re-reads the `FLUXD_*` environment and applies it to the
//! running instance: the worker pool is resized (grown eagerly; shrunk
//! lazily — an excess worker retires after its next job), and per-request
//! settings such as the deadline ceiling and the watermark take effect for
//! every subsequent admission.  The resolved widths are
//! reported in the `reload` answer so a client can confirm the daemon
//! actually observed the new environment — the historical bug this guards
//! against was `FLUX_THREADS` being cached in a process-global `OnceLock`,
//! which made `reload` a silent no-op for thread counts.  Only the
//! admission queue depth (`FLUXD_QUEUE_CAP`) and frame cap of frames
//! already buffered stay fixed, since the queue channel is created once.

use crate::proto::{
    busy_response, error_response, parse_request, read_frame, write_frame, Frame, ReqMode, Request,
    VerifyRequest, DEFAULT_MAX_FRAME,
};
use flux::{flush_generation, verify_source, Mode, VerifyConfig, VerifyOutcome};
use flux_bench::json::quote;
use flux_logic::{env_parse, lock_recover};
use flux_smt::testing::{fault_delay, inject_fault, Fault};
use flux_smt::ResourceBudget;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of one daemon instance.  `from_env` reads the `FLUXD_*`
/// variables so the binary and the test harnesses configure it the same
/// way.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads verifying requests (`FLUXD_WORKERS`).  The default
    /// is 4: the global caches' locks are held only for memo probes (the
    /// validity verdicts are also lock-striped), so a pool wider than 2
    /// does not convoy on them.
    pub workers: usize,
    /// Bounded admission queue depth; a full queue answers `busy`
    /// (`FLUXD_QUEUE_CAP`).
    pub queue_cap: usize,
    /// Maximum accepted frame payload in bytes (`FLUXD_MAX_FRAME`).
    pub max_frame: usize,
    /// Hard server-side ceiling on any request's wall-clock deadline; the
    /// smaller of this and the request's `deadline_ms` wins
    /// (`FLUXD_MAX_DEADLINE_MS`).
    pub max_deadline_ms: u64,
    /// Suggested client back-off carried in `busy` responses
    /// (`FLUXD_RETRY_AFTER_MS`).
    pub retry_after_ms: u64,
    /// Ignored: no cache has a capacity.  The three cap fields are kept only
    /// because the benchmark harness still reads them; they go at the next
    /// change to the benchmark.
    pub validity_cache_cap: usize,
    /// See `validity_cache_cap`.
    pub cnf_cache_cap: usize,
    /// See `validity_cache_cap`.
    pub hcons_memo_cap: usize,
    /// Enforced bound on the hash-consing node arena
    /// (`FLUXD_HCONS_WATERMARK`): once a job leaves more nodes than this and
    /// no job is in flight, the daemon flushes the whole generation.  The
    /// warm caches cost about 0.5 KB of RSS per node, so the default of 4M
    /// nodes allows about 2 GB before a flush.
    pub hcons_node_watermark: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_cap: 8,
            max_frame: DEFAULT_MAX_FRAME,
            max_deadline_ms: 30_000,
            retry_after_ms: 100,
            validity_cache_cap: usize::MAX / 2,
            cnf_cache_cap: 0,
            hcons_memo_cap: 0,
            hcons_node_watermark: 4_000_000,
        }
    }
}

impl ServerConfig {
    /// Reads the configuration from `FLUXD_*` environment variables,
    /// falling back to the defaults.
    pub fn from_env() -> ServerConfig {
        let d = ServerConfig::default();
        ServerConfig {
            workers: env_parse("FLUXD_WORKERS", d.workers).max(1),
            queue_cap: env_parse("FLUXD_QUEUE_CAP", d.queue_cap).max(1),
            max_frame: env_parse("FLUXD_MAX_FRAME", d.max_frame),
            max_deadline_ms: env_parse("FLUXD_MAX_DEADLINE_MS", d.max_deadline_ms).max(1),
            retry_after_ms: env_parse("FLUXD_RETRY_AFTER_MS", d.retry_after_ms),
            hcons_node_watermark: env_parse("FLUXD_HCONS_WATERMARK", d.hcons_node_watermark),
            ..d
        }
    }
}

/// Lifetime counters of one daemon instance.
#[derive(Debug, Default)]
struct Stats {
    admitted: AtomicU64,
    verified: AtomicU64,
    rejected: AtomicU64,
    unknown: AtomicU64,
    errored: AtomicU64,
    busy: AtomicU64,
    respawns: AtomicU64,
    generations: AtomicU64,
}

impl Stats {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs the daemon over arbitrary streams until end-of-input or a
/// `shutdown` request, then drains and flushes a final statistics frame.
/// The binary passes stdin/stdout; in-process tests pass buffers.
pub fn run(config: &ServerConfig, mut input: impl BufRead, output: impl Write + Send) {
    // The configuration is shared mutable state: `reload` swaps in a fresh
    // `from_env` snapshot mid-run, and workers re-read it per job so new
    // deadline ceilings and watermarks apply to every later admission.
    let cfg = Arc::new(Mutex::new(config.clone()));
    let stats = Arc::new(Stats::default());
    let started = Instant::now();

    thread::scope(|scope| {
        // Writer: sole owner of the output stream.
        let (resp_tx, resp_rx) = mpsc::channel::<String>();
        let writer = scope.spawn(move || {
            let mut output = output;
            while let Ok(frame) = resp_rx.recv() {
                if write_frame(&mut output, &frame).is_err() {
                    // The client hung up; keep draining the channel so
                    // senders never block, but stop writing.
                    while resp_rx.recv().is_ok() {}
                    return;
                }
            }
        });

        // Bounded admission queue feeding the worker pool.  The depth is
        // fixed at startup: a sync channel cannot be resized, and `busy`
        // back-pressure semantics should not change under a live reload.
        let (job_tx, job_rx) = mpsc::sync_channel::<VerifyRequest>(config.queue_cap);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let spawn_worker = |index: usize| {
            let cfg = Arc::clone(&cfg);
            let rx = Arc::clone(&job_rx);
            let tx = resp_tx.clone();
            let stats = Arc::clone(&stats);
            scope.spawn(move || worker_loop(index, &cfg, &rx, &tx, &stats))
        };
        let mut workers: Vec<_> = (0..config.workers).map(spawn_worker).collect();

        let mut shutdown_id = None;
        loop {
            let max_frame = lock_recover(&cfg).max_frame;
            match read_frame(&mut input, max_frame) {
                Frame::Eof => break,
                Frame::Truncated => {
                    stats.bump(&stats.errored);
                    let _ = resp_tx.send(error_response(0, "truncated frame at end of input"));
                    break;
                }
                Frame::BadHeader(header) => {
                    stats.bump(&stats.errored);
                    let _ = resp_tx.send(error_response(
                        0,
                        &format!("malformed frame header {header:?} (expected a decimal length)"),
                    ));
                }
                Frame::Oversized(len) => {
                    stats.bump(&stats.errored);
                    let _ = resp_tx.send(error_response(
                        0,
                        &format!("oversized frame: {len} bytes exceeds the {max_frame} cap"),
                    ));
                }
                Frame::NotUtf8 => {
                    stats.bump(&stats.errored);
                    let _ = resp_tx.send(error_response(0, "frame payload is not UTF-8"));
                }
                Frame::Payload(payload) => match parse_request(&payload) {
                    Err((id, message)) => {
                        stats.bump(&stats.errored);
                        let _ = resp_tx.send(error_response(id, &message));
                    }
                    Ok(Request::Status { id }) => {
                        let snapshot = lock_recover(&cfg).clone();
                        let _ = resp_tx.send(report(id, "status", &snapshot, &stats, started));
                    }
                    Ok(Request::Reload { id }) => {
                        // Re-read the environment and apply it live: the
                        // worker pool is grown eagerly / shrunk lazily, and
                        // later verify jobs clone the fresh snapshot.  The
                        // answer echoes the resolved widths so callers can
                        // assert the new environment was actually observed
                        // (and not, as a `OnceLock` once made it, cached
                        // from startup).  The generation flush waits for
                        // the verify jobs in flight.
                        let fresh = ServerConfig::from_env();
                        let flushed = flush_generation(&flux_logic::write_generation());
                        stats.bump(&stats.generations);
                        let target = fresh.workers;
                        *lock_recover(&cfg) = fresh;
                        while workers.len() < target {
                            workers.push(spawn_worker(workers.len()));
                        }
                        let fn_threads = flux::default_threads();
                        let _ = resp_tx.send(format!(
                            "{{\"id\":{id},\"result\":\"reloaded\",\
                             \"hcons_memos_flushed\":{},\
                             \"cnf_entries_flushed\":{},\
                             \"validity_entries_dropped\":{},\
                             \"solve_memo_entries_dropped\":{},\
                             \"obligation_memo_entries_dropped\":{},\
                             \"workers\":{target},\"fn_threads\":{fn_threads}}}",
                            flushed.hcons_memos,
                            flushed.cnf_entries,
                            flushed.validity_entries,
                            flushed.solve_memo_entries,
                            flushed.obligation_memo_entries,
                        ));
                    }
                    Ok(Request::Shutdown { id }) => {
                        shutdown_id = Some(id);
                        break;
                    }
                    Ok(Request::Verify(req)) => {
                        // Fault site "queue": admission control.  The
                        // supervisor must never unwind, so the panic band
                        // degrades to a contained structured error here.
                        match inject_fault("queue") {
                            Some(Fault::Delay) => thread::sleep(fault_delay()),
                            Some(Fault::Unknown) => {
                                stats.bump(&stats.busy);
                                let retry = lock_recover(&cfg).retry_after_ms;
                                let _ = resp_tx.send(busy_response(req.id, retry));
                                continue;
                            }
                            Some(Fault::Panic) => {
                                stats.bump(&stats.errored);
                                let _ = resp_tx.send(error_response(
                                    req.id,
                                    "injected admission fault (queue)",
                                ));
                                continue;
                            }
                            None => {}
                        }
                        // Self-heal before admitting: respawn any worker
                        // that retired after containing a panic — but only
                        // slots still inside the (possibly reloaded) pool
                        // target; slots beyond it retired deliberately.
                        let target = lock_recover(&cfg).workers;
                        for (index, worker) in workers.iter_mut().enumerate() {
                            if index < target && worker.is_finished() {
                                stats.bump(&stats.respawns);
                                let retired = std::mem::replace(worker, spawn_worker(index));
                                let _ = retired.join();
                            }
                        }
                        match job_tx.try_send(req) {
                            Ok(()) => stats.bump(&stats.admitted),
                            Err(TrySendError::Full(req)) => {
                                stats.bump(&stats.busy);
                                let retry = lock_recover(&cfg).retry_after_ms;
                                let _ = resp_tx.send(busy_response(req.id, retry));
                            }
                            Err(TrySendError::Disconnected(req)) => {
                                stats.bump(&stats.errored);
                                let _ = resp_tx.send(error_response(req.id, "worker pool is gone"));
                            }
                        }
                    }
                },
            }
        }

        // Drain: close the queue, let workers finish everything buffered,
        // then sweep any jobs stranded by workers that retired mid-drain.
        drop(job_tx);
        for worker in workers {
            let _ = worker.join();
        }
        let snapshot = lock_recover(&cfg).clone();
        loop {
            let job = lock_recover(&job_rx).try_recv();
            let Ok(job) = job else { break };
            let (response, _panicked) = contained_verify(&snapshot, job, &stats);
            let _ = resp_tx.send(response);
            reclaim_when_idle(&snapshot, &stats);
        }

        // Final statistics snapshot: the answer to `shutdown`, or an
        // unsolicited id-0 frame on end-of-input.
        let _ = resp_tx.send(report(
            shutdown_id.unwrap_or(0),
            "final",
            &snapshot,
            &stats,
            started,
        ));
        drop(resp_tx);
        let _ = writer.join();
    });
}

/// One worker: pull jobs until the queue closes.  A caught panic retires
/// the worker after answering, so the supervisor replaces it with a fresh
/// thread.  Each job runs against a fresh clone of the shared config, so a
/// `reload` between jobs changes deadline ceilings and the watermark
/// without restarting the pool.
fn worker_loop(
    index: usize,
    cfg: &Mutex<ServerConfig>,
    rx: &Mutex<Receiver<VerifyRequest>>,
    tx: &Sender<String>,
    stats: &Stats,
) {
    loop {
        let job = lock_recover(rx).recv();
        let Ok(job) = job else { return };
        let snapshot = lock_recover(cfg).clone();
        let (response, panicked) = contained_verify(&snapshot, job, stats);
        let _ = tx.send(response);
        reclaim_when_idle(&snapshot, stats);
        if panicked {
            // Retire after containing a panic: the supervisor respawns a
            // fresh thread before the next admission.
            return;
        }
        if index >= lock_recover(cfg).workers {
            // `reload` shrank the pool and this slot fell off the end:
            // retire once the in-flight job is answered.  Idle excess
            // workers park on the queue until their next (last) job.
            return;
        }
    }
}

/// Flushes the generation after a job if the arena is above the watermark
/// and no verify job holds the generation lock.  A busy daemon skips the
/// flush; the next job to finish retries it.
fn reclaim_when_idle(cfg: &ServerConfig, stats: &Stats) {
    let over = || flux_logic::interned_nodes() > cfg.hcons_node_watermark;
    if !over() {
        return;
    }
    if let Some(generation) = flux_logic::try_write_generation() {
        // Another worker may have flushed between the check and the lock.
        if over() {
            flush_generation(&generation);
            stats.bump(&stats.generations);
        }
    }
}

/// Runs one verify job under `catch_unwind`, always producing a response.
/// The flag reports whether a panic was contained.  The job pins the
/// generation, so no flush runs while it holds ids.
fn contained_verify(cfg: &ServerConfig, job: VerifyRequest, stats: &Stats) -> (String, bool) {
    let id = job.id;
    let _generation = flux_logic::read_generation();
    match catch_unwind(AssertUnwindSafe(|| handle_verify(cfg, job, stats))) {
        Ok(response) => (response, false),
        Err(payload) => {
            stats.bump(&stats.errored);
            let message = panic_message(&payload);
            let response = format!(
                "{{\"id\":{id},\"result\":\"error\",\"reason\":\"worker-panic\",\
                 \"error\":{}}}",
                quote(&format!("worker panicked: {message}"))
            );
            (response, true)
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The verify request proper: resolve the program, clamp the budget, run
/// the verifier, map the outcome.
fn handle_verify(cfg: &ServerConfig, job: VerifyRequest, stats: &Stats) -> String {
    // Fault site "daemon": worker dispatch.
    match inject_fault("daemon") {
        Some(Fault::Panic) => panic!("injected worker fault (daemon dispatch)"),
        Some(Fault::Delay) => thread::sleep(fault_delay()),
        Some(Fault::Unknown) => {
            stats.bump(&stats.unknown);
            return format!(
                "{{\"id\":{},\"result\":\"unknown\",\"reason\":\"injected-fault\",\
                 \"errors\":[],\"time_ms\":0}}",
                job.id
            );
        }
        None => {}
    }

    let (mode, source) = match resolve_program(&job) {
        Ok(pair) => pair,
        Err(message) => {
            stats.bump(&stats.errored);
            return error_response(job.id, &message);
        }
    };

    // Per-request budget: the request's deadline is clamped by the server
    // ceiling — the smaller of the two always wins.
    let mut budget = match job.steps {
        Some(steps) => ResourceBudget::uniform_steps(steps),
        None => ResourceBudget::UNLIMITED,
    };
    let deadline = job.deadline_ms.unwrap_or(cfg.max_deadline_ms);
    budget.timeout = Some(Duration::from_millis(deadline.min(cfg.max_deadline_ms)));
    let mut config = VerifyConfig::default();
    config.check.fixpoint.smt.budget = budget;
    config.wp.smt.budget = budget;

    match verify_source(&source, mode, &config) {
        Ok(outcome) => {
            let verdict = verdict_of(&outcome);
            match verdict {
                "verified" => stats.bump(&stats.verified),
                "unknown" => stats.bump(&stats.unknown),
                _ => stats.bump(&stats.rejected),
            }
            render_outcome(job.id, verdict, &outcome)
        }
        Err(frontend) => {
            stats.bump(&stats.errored);
            error_response(job.id, &format!("frontend: {frontend}"))
        }
    }
}

/// Maps a batch outcome to a wire verdict, mirroring the table renderer's
/// `ok_label`: inconclusive-but-error-free runs are `unknown`, never
/// `rejected` — and never `verified`.
fn verdict_of(outcome: &VerifyOutcome) -> &'static str {
    if outcome.safe {
        "verified"
    } else if outcome.stats.unknowns > 0 && outcome.errors.is_empty() {
        "unknown"
    } else {
        "rejected"
    }
}

fn resolve_program(job: &VerifyRequest) -> Result<(Mode, String), String> {
    let mode = match job.mode {
        ReqMode::Flux => Mode::Flux,
        ReqMode::Baseline => Mode::Baseline,
    };
    let source = match (&job.program, &job.source) {
        (Some(name), None) => {
            let benchmark =
                flux_suite::benchmark(name).ok_or_else(|| format!("unknown program {name:?}"))?;
            match mode {
                Mode::Flux => benchmark.flux_src.to_string(),
                Mode::Baseline => benchmark.baseline_src.to_string(),
            }
        }
        (None, Some(source)) => source.clone(),
        // `parse_request` enforces exactly-one; defend anyway.
        _ => return Err("verify needs exactly one of \"program\" or \"source\"".to_string()),
    };
    Ok((mode, source))
}

fn render_outcome(id: u64, verdict: &str, outcome: &VerifyOutcome) -> String {
    let errors: Vec<String> = outcome.errors.iter().map(|e| quote(e)).collect();
    let s = &outcome.stats;
    format!(
        "{{\"id\":{id},\"result\":\"{verdict}\",\"errors\":[{}],\
         \"time_ms\":{},\"functions\":{},\
         \"loc\":{},\"spec_lines\":{},\"annot_lines\":{},\
         \"stats\":{{\"smt_queries\":{},\"cache_hits\":{},\"xbench_hits\":{},\
         \"cache_misses\":{},\"sessions\":{},\"escalations\":{},\"replays\":{},\
         \"component_replays\":{},\"unknowns\":{},\"budget_exhausted\":{}}}}}",
        errors.join(","),
        outcome.time.as_millis(),
        outcome.functions,
        outcome.loc,
        outcome.spec_lines,
        outcome.annot_lines,
        s.fix.smt_queries,
        s.fix.cache_hits,
        s.fix.xbench_hits,
        s.fix.cache_misses,
        s.fix.sessions,
        s.fix.escalations,
        s.fix.replays,
        s.fix.component_replays,
        s.unknowns,
        s.smt.budget_exhausted,
    )
}

/// Renders a `status` or `final` statistics frame: lifetime counters
/// (`generations` counts flushes) plus the live size of every
/// process-global cache, including the CNF atom table, the hash-consing
/// arena and its watermark.
fn report(id: u64, result: &str, cfg: &ServerConfig, stats: &Stats, started: Instant) -> String {
    let nodes = flux_logic::interned_nodes();
    format!(
        "{{\"id\":{id},\"result\":\"{result}\",\
         \"admitted\":{},\"verified\":{},\"rejected\":{},\"unknown\":{},\
         \"errors\":{},\"busy\":{},\"worker_respawns\":{},\"generations\":{},\
         \"uptime_ms\":{},\"workers\":{},\"fn_threads\":{},\
         \"caches\":{{\"validity_len\":{},\
         \"solve_memo_len\":{},\"obligation_memo_len\":{},\
         \"cnf_len\":{},\"cnf_atoms\":{},\"hcons_nodes\":{nodes},\"hcons_node_watermark\":{},\
         \"hcons_watermark_exceeded\":{}}}}}",
        stats.admitted.load(Ordering::Relaxed),
        stats.verified.load(Ordering::Relaxed),
        stats.rejected.load(Ordering::Relaxed),
        stats.unknown.load(Ordering::Relaxed),
        stats.errored.load(Ordering::Relaxed),
        stats.busy.load(Ordering::Relaxed),
        stats.respawns.load(Ordering::Relaxed),
        stats.generations.load(Ordering::Relaxed),
        started.elapsed().as_millis(),
        cfg.workers,
        flux::default_threads(),
        flux_fixpoint::global_cache().len(),
        flux_fixpoint::solve_memo_len(),
        flux_wp::obligation_memo_len(),
        flux_smt::cnf_cache_len(),
        flux_smt::cnf_atoms(),
        cfg.hcons_node_watermark,
        nodes > cfg.hcons_node_watermark,
    )
}
