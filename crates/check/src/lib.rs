//! The Flux refinement type checker — the paper's primary contribution.
//!
//! Checking a function proceeds in the three phases of §4:
//!
//! 1. **Spatial phase** (here: signature desugaring in `flux-ir` plus
//!    opening parameters into the type environment),
//! 2. **Checking phase**: [`checker::Generator`] walks the function body and
//!    emits a Horn constraint whose unknowns (κ variables) stand for the
//!    refinements of loop invariants, join points and polymorphic
//!    instantiations,
//! 3. **Inference phase**: the constraint is handed to the liquid fixpoint
//!    solver in `flux-fixpoint`; failures are mapped back to source
//!    diagnostics through constraint tags.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     #[flux::sig(fn(usize[@n]) -> usize[n])]
//!     fn count_up(n: usize) -> usize {
//!         let mut i = 0;
//!         while i < n {
//!             i += 1;
//!         }
//!         i
//!     }
//! "#;
//! let report = flux_check::check_source(src, &flux_check::CheckConfig::default()).unwrap();
//! assert!(report.is_safe());
//! ```

#![warn(missing_docs)]

pub mod checker;

use checker::Generator;
use flux_fixpoint::{FixConfig, FixResult, FixpointSolver};
use flux_ir::ResolvedProgram;
use flux_logic::{lock_recover, panic_message, SortCtx};
use flux_smt::testing::Fault;
use flux_syntax::span::Diagnostic;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The default width of the function fan-out ([`CheckConfig::fn_threads`]):
/// the `FLUX_THREADS` environment variable when set (clamped to at least 1),
/// otherwise the machine's available parallelism.
///
/// A set-but-unparsable `FLUX_THREADS` falls back to **1**, not to the
/// machine's parallelism, and warns on stderr: the variable exists to pin
/// runs to one thread, so a typo must never silently widen such a run.  An
/// empty value counts as unset.
pub fn default_threads() -> usize {
    // Deliberately NOT cached in a process-global `OnceLock`: long-running
    // callers (`fluxd`'s `reload`, tests that sweep thread counts) re-read
    // the environment and must observe changes.
    match std::env::var("FLUX_THREADS") {
        Ok(raw) if !raw.trim().is_empty() => flux_logic::env_parse("FLUX_THREADS", 1usize).max(1),
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Configuration of the checker.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Configuration forwarded to the fixpoint solver (and through it to the
    /// SMT solver).
    pub fixpoint: FixConfig,
    /// Worker threads of the function fan-out in [`check_program`]: whole
    /// per-function solves run concurrently, each worker owning its own
    /// [`FixpointSolver`].  This is the only thread pool of the checker;
    /// every solve runs on its worker's thread.  The default is
    /// [`default_threads`].  `1` checks the functions in source order on the
    /// calling thread with one shared solver.  Verdicts and report order are
    /// thread-count-invariant.
    pub fn_threads: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            fixpoint: FixConfig::default(),
            fn_threads: default_threads(),
        }
    }
}

/// The result of checking one function.
#[derive(Debug)]
pub struct FnReport {
    /// The function's name.
    pub name: String,
    /// Diagnostics produced (empty when the function is safe).
    pub errors: Vec<Diagnostic>,
    /// Time spent checking this function (constraint generation + solving).
    pub time: Duration,
    /// Statistics from the fixpoint solver.
    pub fixpoint_stats: flux_fixpoint::FixStats,
    /// Cumulative statistics of the underlying SMT engine (sessions, SAT
    /// rounds, theory checks).
    pub smt_stats: flux_smt::SmtStats,
    /// Reasons the solve degraded to an inconclusive result (deadline hit,
    /// step budget exhausted, the check panicked).  Empty for conclusive
    /// (safe or unsafe) results.
    pub unknowns: Vec<flux_fixpoint::UnknownReason>,
}

impl FnReport {
    /// True if the function verified.  A function that degraded to an
    /// inconclusive result is *not* safe: resource exhaustion must never be
    /// reported as a successful verification.
    pub fn is_safe(&self) -> bool {
        self.errors.is_empty() && self.unknowns.is_empty()
    }

    /// True if the solve was inconclusive (no counterexample found, but the
    /// result cannot be trusted as a proof either).
    pub fn is_unknown(&self) -> bool {
        self.errors.is_empty() && !self.unknowns.is_empty()
    }
}

/// The result of checking a whole program.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-function results, in source order.
    pub functions: Vec<FnReport>,
    /// Width of the function fan-out that produced the report (`1` when
    /// the calling thread checked every function); see
    /// [`CheckConfig::fn_threads`].
    pub fn_threads: usize,
    /// Wall-clock time of the whole [`check_program`] run.  Equals (modulo
    /// scheduling noise) the sum of per-function times when sequential;
    /// under the function-level fan-out it is what a caller actually waits,
    /// so speedups show up here while [`Report::total_time`] stays the
    /// comparable total-work figure.
    pub wall_time: Duration,
}

impl Report {
    /// True if every function verified.
    pub fn is_safe(&self) -> bool {
        self.functions.iter().all(FnReport::is_safe)
    }

    /// Total verification time summed over functions (total work, not
    /// wall-clock; see [`Report::wall_time`]).
    pub fn total_time(&self) -> Duration {
        self.functions.iter().map(|f| f.time).sum()
    }

    /// Per-function check times in source order (the `fn_parallel` bench
    /// column: where the wall-clock went under the fan-out).
    pub fn fn_times(&self) -> Vec<Duration> {
        self.functions.iter().map(|f| f.time).collect()
    }

    /// All diagnostics.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.functions
            .iter()
            .flat_map(|f| f.errors.iter())
            .collect()
    }

    /// Fixpoint statistics summed over all checked functions.
    pub fn total_fixpoint_stats(&self) -> flux_fixpoint::FixStats {
        let mut total = flux_fixpoint::FixStats::default();
        for f in &self.functions {
            total.absorb(f.fixpoint_stats);
        }
        total
    }

    /// SMT engine statistics summed over all checked functions.
    pub fn total_smt_stats(&self) -> flux_smt::SmtStats {
        let mut total = flux_smt::SmtStats::default();
        for f in &self.functions {
            total.absorb(f.smt_stats);
        }
        total
    }
}

/// Checks every (non-trusted) function of a resolved program.
///
/// [`CheckConfig::fn_threads`] workers claim functions from a shared queue
/// and each owns its own solver, reused across the functions it claims.
/// With one worker (`fn_threads == 1`, or a single function) the loop runs
/// inline on the calling thread, so one fixpoint solver — and therefore one
/// validity cache — is shared across all functions in source order: VC
/// fragments repeated between functions (identical loop shapes, common
/// bounds obligations) are answered from the cache, and the per-function
/// reports record how often that cross-function sharing paid off
/// ([`flux_fixpoint::FixStats::cross_fn_hits`]).  With more workers,
/// cross-function sharing flows through the process-global sharded
/// validity cache instead.
///
/// Each result lands in a slot indexed by the function's source position
/// and the slots are drained in order, so the report — function order,
/// blame order, every rendered table — does not depend on the width.  At
/// every width a panicking check is contained to its function: its slot
/// reports [`flux_fixpoint::UnknownReason::WorkerPanic`] (inconclusive,
/// never "safe"), the worker replaces its possibly-torn solver, and every
/// other function completes normally.
pub fn check_program(program: &ResolvedProgram, config: &CheckConfig) -> Report {
    let start = Instant::now();
    let names: Vec<&str> = program
        .iter()
        .filter(|func| !func.def.trusted)
        .map(|func| func.def.name.as_str())
        .collect();
    let fn_threads = config.fn_threads.max(1).min(names.len().max(1));
    let slots: Vec<Mutex<Option<FnReport>>> = names.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut solver = FixpointSolver::new(config.fixpoint.clone());
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(name) = names.get(idx) else { break };
            let fn_start = Instant::now();
            // `AssertUnwindSafe`: on a panic the claimed function's report
            // is synthesized below and the solver — whose internal state the
            // unwind may have torn mid-solve — is replaced before the worker
            // claims its next function.  Nothing else crosses the unwind
            // boundary.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if flux_smt::testing::inject_fault("worker") == Some(Fault::Panic) {
                    panic!("injected worker fault");
                }
                check_function_with(program, name, &mut solver)
            }));
            let fn_report = outcome.unwrap_or_else(|payload| {
                solver = FixpointSolver::new(config.fixpoint.clone());
                FnReport {
                    name: (*name).to_owned(),
                    errors: Vec::new(),
                    time: fn_start.elapsed(),
                    fixpoint_stats: flux_fixpoint::FixStats::default(),
                    smt_stats: flux_smt::SmtStats::default(),
                    unknowns: vec![flux_fixpoint::UnknownReason::WorkerPanic {
                        message: panic_message(payload.as_ref()),
                    }],
                }
            });
            *lock_recover(&slots[idx]) = Some(fn_report);
        }
    };
    if fn_threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..fn_threads {
                scope.spawn(worker);
            }
        });
    }
    Report {
        functions: slots
            .into_iter()
            .map(|slot| {
                lock_recover(&slot)
                    .take()
                    .expect("every claimed slot was filled before the workers finished")
            })
            .collect(),
        fn_threads,
        wall_time: start.elapsed(),
    }
}

/// Checks a single function by name with a fresh solver.
pub fn check_function(program: &ResolvedProgram, name: &str, config: &CheckConfig) -> FnReport {
    let mut solver = FixpointSolver::new(config.fixpoint.clone());
    check_function_with(program, name, &mut solver)
}

/// Checks a single function by name on a caller-provided solver, so several
/// functions can share its validity cache.
pub fn check_function_with(
    program: &ResolvedProgram,
    name: &str,
    solver: &mut FixpointSolver,
) -> FnReport {
    let start = Instant::now();
    let generator = Generator::new(program);
    match generator.gen_function(name) {
        Err(diag) => FnReport {
            name: name.to_owned(),
            errors: vec![diag],
            time: start.elapsed(),
            fixpoint_stats: flux_fixpoint::FixStats::default(),
            smt_stats: flux_smt::SmtStats::default(),
            unknowns: Vec::new(),
        },
        Ok(gen) => {
            let smt_before = solver.smt_stats();
            let result = solver.solve(&gen.constraint, &gen.kvars, &SortCtx::new());
            let (errors, unknowns) = match result {
                FixResult::Safe(_) => (Vec::new(), Vec::new()),
                FixResult::Unsafe { failed, .. } => (
                    failed
                        .into_iter()
                        .map(|tag| {
                            let info = &gen.tags[tag];
                            Diagnostic::error(info.message.clone(), info.span)
                        })
                        .collect(),
                    Vec::new(),
                ),
                FixResult::Unknown { reasons, .. } => (Vec::new(), reasons),
            };
            FnReport {
                name: name.to_owned(),
                errors,
                time: start.elapsed(),
                fixpoint_stats: solver.stats,
                smt_stats: solver.smt_stats().since(smt_before),
                unknowns,
            }
        }
    }
}

/// Convenience entry point: parse, resolve and check a source string.
pub fn check_source(source: &str, config: &CheckConfig) -> Result<Report, Vec<Diagnostic>> {
    let program = flux_syntax::parse_program(source).map_err(|d| vec![d])?;
    let resolved = ResolvedProgram::resolve(&program)?;
    Ok(check_program(&resolved, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Report {
        check_source(src, &CheckConfig::default()).expect("program should resolve")
    }

    fn assert_safe(src: &str) {
        let report = check(src);
        assert!(
            report.is_safe(),
            "expected safe, got errors: {:?}",
            report.errors()
        );
    }

    fn assert_unsafe(src: &str) {
        let report = check(src);
        assert!(!report.is_safe(), "expected verification errors, got none");
    }

    #[test]
    fn is_pos_from_fig1_verifies() {
        assert_safe(
            r#"
            #[flux::sig(fn(i32[@n]) -> bool[n > 0])]
            fn is_pos(n: i32) -> bool {
                if n > 0 { true } else { false }
            }
            "#,
        );
    }

    #[test]
    fn abs_from_fig1_verifies() {
        assert_safe(
            r#"
            #[flux::sig(fn(i32[@x]) -> i32{v: v >= x && v >= 0})]
            fn abs(x: i32) -> i32 {
                if x < 0 { -x } else { x }
            }
            "#,
        );
    }

    #[test]
    fn abs_with_wrong_spec_is_rejected() {
        assert_unsafe(
            r#"
            #[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
            fn abs(x: i32) -> i32 {
                if x < 0 { -x } else { x }
            }
            "#,
        );
    }

    #[test]
    fn decr_from_fig2_verifies() {
        assert_safe(
            r#"
            #[flux::sig(fn(x: &mut nat))]
            fn decr(x: &mut i32) {
                let y = *x;
                if y > 0 {
                    *x = y - 1;
                }
            }
            "#,
        );
    }

    #[test]
    fn decr_without_guard_is_rejected() {
        // Removing the branch makes the weak update violate the `nat`
        // invariant.
        assert_unsafe(
            r#"
            #[flux::sig(fn(x: &mut nat))]
            fn decr(x: &mut i32) {
                let y = *x;
                *x = y - 1;
            }
            "#,
        );
    }

    #[test]
    fn incr_with_strong_reference_verifies() {
        assert_safe(
            r#"
            #[flux::sig(fn(x: &strg i32[@n]) ensures *x: i32[n + 1])]
            fn incr(x: &mut i32) {
                *x += 1;
            }

            #[flux::sig(fn() -> i32[2])]
            fn use_incr() -> i32 {
                let mut x = 1;
                incr(&mut x);
                x
            }
            "#,
        );
    }

    #[test]
    fn wrong_ensures_is_rejected() {
        assert_unsafe(
            r#"
            #[flux::sig(fn(x: &strg i32[@n]) ensures *x: i32[n + 2])]
            fn incr(x: &mut i32) {
                *x += 1;
            }
            "#,
        );
    }

    #[test]
    fn loop_counter_invariant_is_inferred() {
        assert_safe(
            r#"
            #[flux::sig(fn(usize[@n]) -> usize[n])]
            fn count_up(n: usize) -> usize {
                let mut i = 0;
                while i < n {
                    i += 1;
                }
                i
            }
            "#,
        );
    }

    #[test]
    fn init_zeros_from_fig4_verifies() {
        assert_safe(
            r#"
            #[flux::sig(fn(usize[@n]) -> RVec<f32>[n])]
            fn init_zeros(n: usize) -> RVec<f32> {
                let mut vec: RVec<f32> = RVec::new();
                let mut i = 0;
                while i < n {
                    vec.push(0.0);
                    i += 1;
                }
                vec
            }
            "#,
        );
    }

    #[test]
    fn vector_bounds_are_checked() {
        assert_safe(
            r#"
            #[flux::sig(fn(v: &RVec<f32>[@n], usize{i: i < n}) -> f32)]
            fn read_at(v: &RVec<f32>, i: usize) -> f32 {
                v.get(i)
            }
            "#,
        );
        assert_unsafe(
            r#"
            #[flux::sig(fn(v: &RVec<f32>[@n], usize) -> f32)]
            fn read_at(v: &RVec<f32>, i: usize) -> f32 {
                v.get(i)
            }
            "#,
        );
    }

    #[test]
    fn summing_a_vector_with_a_loop_verifies() {
        assert_safe(
            r#"
            #[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]
            fn sum(v: &RVec<i32>) -> i32 {
                let mut total = 0;
                let mut i = 0;
                while i < v.len() {
                    total = total + v.get(i);
                    i += 1;
                }
                total
            }
            "#,
        );
    }

    #[test]
    fn off_by_one_loop_is_rejected() {
        assert_unsafe(
            r#"
            #[flux::sig(fn(v: &RVec<i32>[@n]) -> i32)]
            fn sum(v: &RVec<i32>) -> i32 {
                let mut total = 0;
                let mut i = 0;
                while i <= v.len() {
                    total = total + v.get(i);
                    i += 1;
                }
                total
            }
            "#,
        );
    }

    #[test]
    fn push_through_mut_reference_is_rejected() {
        // Growing a vector changes its length index, which a weak `&mut`
        // borrow cannot do — the ablation of §2.2's strong references.
        let report = check_source(
            r#"
            #[flux::sig(fn(v: &mut RVec<i32>[@n], i32)]
            fn push_it(v: &mut RVec<i32>, x: i32) {
                v.push(x);
            }
            "#,
            &CheckConfig::default(),
        );
        // Either a resolve error (malformed sig) or a check error is fine; use
        // the well-formed variant below for the real assertion.
        drop(report);
        let src = r#"
            #[flux::sig(fn(v: &mut RVec<i32>[@n], i32))]
            fn push_it(v: &mut RVec<i32>, x: i32) {
                v.push(x);
            }
        "#;
        if let Ok(report) = check_source(src, &CheckConfig::default()) {
            assert!(!report.is_safe());
        }
    }

    #[test]
    fn strong_reference_push_with_ensures_verifies() {
        assert_safe(
            r#"
            #[flux::sig(fn(v: &strg RVec<i32>[@n], i32) ensures *v: RVec<i32>[n + 1])]
            fn push_it(v: &mut RVec<i32>, x: i32) {
                v.push(x);
            }
            "#,
        );
    }

    #[test]
    fn assertions_are_verified() {
        assert_safe(
            r#"
            #[flux::sig(fn(i32{v: v > 0}))]
            fn check_positive(x: i32) {
                assert!(x > 0);
            }
            "#,
        );
        assert_unsafe(
            r#"
            #[flux::sig(fn(i32))]
            fn check_positive(x: i32) {
                assert!(x > 0);
            }
            "#,
        );
    }

    #[test]
    fn interprocedural_refinements_flow_through_calls() {
        assert_safe(
            r#"
            #[flux::sig(fn(i32[@a], i32[@b]) -> i32[a + b])]
            fn add(a: i32, b: i32) -> i32 {
                a + b
            }

            #[flux::sig(fn() -> i32[5])]
            fn five() -> i32 {
                add(2, 3)
            }
            "#,
        );
        assert_unsafe(
            r#"
            #[flux::sig(fn(i32[@a], i32[@b]) -> i32[a + b])]
            fn add(a: i32, b: i32) -> i32 {
                a + b
            }

            #[flux::sig(fn() -> i32[6])]
            fn five() -> i32 {
                add(2, 3)
            }
            "#,
        );
    }

    /// End-to-end over the whole stack: checking under the full audit tier
    /// (constraint lint, SMT theory certificates, independent solution
    /// re-validation) is verdict-identical to checking unaudited, and every
    /// audit counter actually moves.  (The tier is set through the config,
    /// not the process-global `FLUX_AUDIT`, so the test is hermetic.)
    #[test]
    fn full_audit_tier_checks_identically() {
        let src = r#"
            #[flux::sig(fn(usize[@n]) -> RVec<f32>[n])]
            fn init_zeros(n: usize) -> RVec<f32> {
                let mut vec: RVec<f32> = RVec::new();
                let mut i = 0;
                while i < n {
                    vec.push(0.0);
                    i += 1;
                }
                vec
            }
            "#;
        let audited_config = CheckConfig {
            fixpoint: FixConfig {
                smt: flux_smt::SmtConfig {
                    audit: flux_logic::AuditTier::Full,
                    ..flux_smt::SmtConfig::default()
                },
                // Hermetic caching: a verdict replayed from the process
                // global cache skips the solver and with it the certificate
                // counters this test pins.
                global_cache: false,
                ..FixConfig::default()
            },
            ..CheckConfig::default()
        };
        let plain_config = CheckConfig {
            fixpoint: FixConfig {
                smt: flux_smt::SmtConfig {
                    audit: flux_logic::AuditTier::Off,
                    ..flux_smt::SmtConfig::default()
                },
                global_cache: false,
                ..FixConfig::default()
            },
            ..CheckConfig::default()
        };
        let audited = check_source(src, &audited_config).expect("resolves");
        let plain = check_source(src, &plain_config).expect("resolves");
        assert!(audited.is_safe() && plain.is_safe());
        let astats = audited.total_fixpoint_stats();
        assert!(astats.lint_checks > 0, "constraint lint never ran");
        assert!(astats.revalidations > 0, "solution re-validation never ran");
        assert!(
            audited.total_smt_stats().certs_checked > 0,
            "no theory certificate was checked"
        );
        let pstats = plain.total_fixpoint_stats();
        assert_eq!(pstats.lint_checks, 0);
        assert_eq!(pstats.revalidations, 0);
        assert_eq!(plain.total_smt_stats().certs_checked, 0);
    }

    /// The function-level fan-out returns the same report — verdicts,
    /// function order, per-function error lists — as the sequential loop,
    /// even with more workers than functions.
    #[test]
    fn function_fanout_matches_sequential_report() {
        let src = r#"
            #[flux::sig(fn(i32[@n]) -> bool[n > 0])]
            fn is_pos(n: i32) -> bool {
                if n > 0 { true } else { false }
            }

            #[flux::sig(fn(i32[@x]) -> i32{v: v >= x && v >= 0})]
            fn abs(x: i32) -> i32 {
                if x < 0 { -x } else { x }
            }

            #[flux::sig(fn(i32[@a], i32[@b]) -> i32[a + b + 1])]
            fn add_wrong(a: i32, b: i32) -> i32 {
                a + b
            }

            #[flux::sig(fn(usize[@n]) -> usize[n])]
            fn count_up(n: usize) -> usize {
                let mut i = 0;
                while i < n {
                    i += 1;
                }
                i
            }
            "#;
        let with_fn_threads = |fn_threads: usize| CheckConfig {
            fn_threads,
            ..CheckConfig::default()
        };
        let sequential = check_source(src, &with_fn_threads(1)).expect("resolves");
        assert_eq!(sequential.fn_threads, 1);
        for threads in [2, 8] {
            let parallel = check_source(src, &with_fn_threads(threads)).expect("resolves");
            // The pool never opens wider than there are functions to claim.
            assert_eq!(parallel.fn_threads, threads.min(4));
            assert_eq!(parallel.functions.len(), sequential.functions.len());
            for (seq, par) in sequential.functions.iter().zip(&parallel.functions) {
                assert_eq!(seq.name, par.name, "source order must be preserved");
                assert_eq!(seq.is_safe(), par.is_safe(), "verdict flip in {}", seq.name);
                assert_eq!(
                    seq.errors.len(),
                    par.errors.len(),
                    "blame cardinality changed in {}",
                    seq.name
                );
                assert!(par.unknowns.is_empty(), "spurious unknown in {}", seq.name);
            }
            assert!(
                !parallel.functions[2].is_safe(),
                "add_wrong must still fail"
            );
            assert!(parallel.wall_time > Duration::ZERO);
        }
    }

    #[test]
    fn report_collects_timing_and_stats() {
        let report = check(
            r#"
            #[flux::sig(fn(usize[@n]) -> usize[n])]
            fn id(n: usize) -> usize { n }
            "#,
        );
        assert_eq!(report.functions.len(), 1);
        assert!(report.functions[0].fixpoint_stats.clauses >= 1);
        assert!(report.total_time() > Duration::ZERO);
    }

    #[test]
    fn trusted_functions_are_skipped() {
        let report = check(
            r#"
            #[flux::trusted]
            #[flux::sig(fn(i32[@n]) -> i32[n + 1])]
            fn magic(n: i32) -> i32 { n }

            #[flux::sig(fn() -> i32[3])]
            fn uses_magic() -> i32 {
                magic(2)
            }
            "#,
        );
        assert!(report.is_safe());
        assert_eq!(report.functions.len(), 1);
    }
}
