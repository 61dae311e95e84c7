//! The top-level Flux library: a single entry point over the whole pipeline
//! (parse → desugar → refinement checking → liquid inference), the
//! program-logic baseline it is evaluated against, and the Table 1 harness.
//!
//! # Quick start
//!
//! ```
//! use flux::{verify_source, Mode, VerifyConfig};
//!
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
//! let outcome = verify_source(src, Mode::Flux, &VerifyConfig::default()).unwrap();
//! assert!(outcome.safe);
//! assert_eq!(outcome.annot_lines, 0); // liquid inference needs no loop invariants
//! ```

#![warn(missing_docs)]

use flux_logic::GenerationGuard;
use flux_syntax::SourceMetrics;
use std::time::Duration;

pub use flux_check::{default_threads, CheckConfig, Report as FluxReport};
pub use flux_fixpoint::{FixConfig, FixStats};
pub use flux_smt::SmtStats;
pub use flux_suite::{benchmark, benchmarks, library, Benchmark};
pub use flux_wp::{WpConfig, WpReport};

/// Which verifier to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The Flux pipeline: refinement types plus liquid inference.
    Flux,
    /// The Prusti-style program-logic baseline: contracts plus user-written
    /// loop invariants discharged with quantifier instantiation.
    Baseline,
}

/// Configuration for [`verify_source`].
#[derive(Clone, Debug, Default)]
pub struct VerifyConfig {
    /// Configuration of the Flux checker.
    pub check: CheckConfig,
    /// Configuration of the baseline verifier.
    pub wp: WpConfig,
}

/// End-to-end statistics of the incremental query engine for one
/// verification run, aggregated over all functions: the two layers'
/// counter registries plus the run-level figures that are not counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Fixpoint-layer counters summed over every function's solve.  The
    /// baseline verifier has no fixpoint layer; it reports every obligation
    /// as one of `smt_queries`, those answered from its obligation memo as
    /// `cache_hits` and those it solved as `cache_misses` (so
    /// `smt_queries == cache_hits + cache_misses`, as for Flux), its SMT
    /// sessions as `sessions` and its audit lint as `lint_checks`.
    pub fix: FixStats,
    /// SMT-engine counters summed over every function.
    pub smt: SmtStats,
    /// Worker-thread width of the function fan-out in `check_program`
    /// ([`flux_check::CheckConfig::fn_threads`], clamped to the function
    /// count; Flux mode only — the baseline reports 1).
    pub fn_threads: usize,
    /// Per-function wall-clock check times in milliseconds, in source order
    /// (the `fn_parallel` column: where the wall-clock went under the
    /// function-level fan-out; Flux mode only, empty for the baseline).
    pub fn_times_ms: Vec<usize>,
    /// Functions whose verification was inconclusive: no obligation failed,
    /// but a deadline or step budget ran out or the check panicked before
    /// every obligation was decided.  Zero under the default unlimited
    /// budgets.
    pub unknowns: usize,
}

/// The outcome of verifying one source file with one of the verifiers.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Which verifier produced this outcome.
    pub mode: Mode,
    /// True if every function verified.
    pub safe: bool,
    /// Human-readable error messages for failed obligations.
    pub errors: Vec<String>,
    /// Wall-clock verification time.
    pub time: Duration,
    /// Number of functions verified.
    pub functions: usize,
    /// Lines of code (excluding specs and annotations).
    pub loc: usize,
    /// Specification lines.
    pub spec_lines: usize,
    /// Loop-invariant annotation lines.
    pub annot_lines: usize,
    /// Query-engine statistics for the run.
    pub stats: QueryStats,
}

/// Errors produced before verification proper (parsing or signature
/// desugaring).
#[derive(Clone, Debug)]
pub struct FrontendError {
    /// Rendered diagnostics.
    pub messages: Vec<String>,
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.messages.join("\n"))
    }
}

impl std::error::Error for FrontendError {}

/// Verifies `source` with the selected verifier.
pub fn verify_source(
    source: &str,
    mode: Mode,
    config: &VerifyConfig,
) -> Result<VerifyOutcome, FrontendError> {
    let metrics = SourceMetrics::of_source(source);
    match mode {
        Mode::Flux => {
            let report =
                flux_check::check_source(source, &config.check).map_err(|errs| FrontendError {
                    messages: errs.iter().map(|d| d.render(source)).collect(),
                })?;
            Ok(VerifyOutcome {
                mode,
                safe: report.is_safe(),
                errors: report.errors().iter().map(|d| d.render(source)).collect(),
                // Wall-clock, not summed per-function work: with the
                // function-level fan-out this is what the caller waited,
                // so multi-core speedups show up in the time columns.
                time: report.wall_time,
                functions: report.functions.len(),
                loc: metrics.loc,
                spec_lines: metrics.spec_lines,
                annot_lines: metrics.annot_lines,
                stats: QueryStats {
                    fix: report.total_fixpoint_stats(),
                    smt: report.total_smt_stats(),
                    fn_threads: report.fn_threads,
                    fn_times_ms: report
                        .fn_times()
                        .iter()
                        .map(|t| t.as_millis() as usize)
                        .collect(),
                    unknowns: report.functions.iter().filter(|f| f.is_unknown()).count(),
                },
            })
        }
        Mode::Baseline => {
            let report = flux_wp::verify_source(source, &config.wp).map_err(|d| FrontendError {
                messages: vec![d.render(source)],
            })?;
            let smt = report.total_smt_stats();
            let memo_hits: usize = report.functions.iter().map(|f| f.memo_hits).sum();
            Ok(VerifyOutcome {
                mode,
                safe: report.is_safe(),
                errors: report
                    .functions
                    .iter()
                    .flat_map(|f| f.errors.iter().map(|d| d.render(source)))
                    .collect(),
                time: report.total_time(),
                functions: report.functions.len(),
                loc: metrics.loc,
                spec_lines: metrics.spec_lines,
                annot_lines: metrics.annot_lines,
                stats: QueryStats {
                    fix: FixStats {
                        smt_queries: memo_hits + smt.queries,
                        cache_hits: memo_hits,
                        cache_misses: smt.queries,
                        sessions: smt.sessions,
                        lint_checks: report.functions.iter().map(|f| f.lint_checks).sum(),
                        ..FixStats::default()
                    },
                    smt,
                    fn_threads: 1,
                    fn_times_ms: Vec::new(),
                    unknowns: report.functions.iter().filter(|f| f.is_unknown()).count(),
                },
            })
        }
    }
}

/// What one generation flush dropped.
#[derive(Debug)]
pub struct Flushed {
    /// Verdicts dropped from the validity cache.
    pub validity_entries: usize,
    /// Results dropped from the solve memo.
    pub solve_memo_entries: usize,
    /// Verdicts dropped from the baseline's obligation memo.
    pub obligation_memo_entries: usize,
    /// CNF memo entries flushed (the atom table goes too).
    pub cnf_entries: usize,
    /// Hash-consing memo entries flushed (the node arena goes too).
    pub hcons_memos: usize,
}

/// Flushes the whole generation: every process-global holder of `ExprId`s
/// or `AtomId`s, together — the validity cache, the solve memo, the
/// baseline's obligation memo, the CNF memo and its atom table, and the
/// hash-consing arena with its index and memos.  Afterwards the process is
/// as cold as a fresh one, so a caller that runs this whenever
/// [`flux_logic::interned_nodes`] passes a bound keeps memory bounded.
/// The name interner and the function-context table stay: they hold no
/// ids, so `Name`s and `FnCtxId`s remain valid.  The holders go first and
/// the arena last, so a flush cut short by a panic leaves no holder with a
/// recycled id.
pub fn flush_generation(generation: &GenerationGuard) -> Flushed {
    let cache = flux_fixpoint::global_cache();
    let validity_entries = cache.len();
    cache.clear();
    let solve_memo_entries = flux_fixpoint::clear_solve_memo();
    let obligation_memo_entries = flux_wp::clear_obligation_memo();
    let cnf_entries = flux_smt::reset_cnf_cache(generation);
    let hcons_memos = flux_logic::reset_hcons(generation);
    Flushed {
        validity_entries,
        solve_memo_entries,
        obligation_memo_entries,
        cnf_entries,
        hcons_memos,
    }
}

/// Perf-gate tolerances carried inside `BENCH_table1.json`'s `gate` object:
/// the `table1` binary reads them from the *committed* snapshot when
/// comparing a fresh run against it, and [`render_table1_json`] writes them
/// back out — so tuning the gate is one edit to the committed file and the
/// tuned values survive every snapshot refresh.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateTolerances {
    /// Allowed wall-clock growth factor (per benchmark and in total).
    pub time_factor: f64,
    /// Allowed query-count growth factor (per benchmark and in total).
    pub query_factor: f64,
    /// Per-benchmark wall-clock comparison floor, in seconds: rows cheaper
    /// than this are gated against the floor, not their (noise-dominated)
    /// figure.
    pub min_time_s: f64,
    /// Per-benchmark query-count comparison floor.
    pub min_queries: f64,
}

impl Default for GateTolerances {
    fn default() -> Self {
        GateTolerances {
            time_factor: 2.0,
            query_factor: 1.2,
            min_time_s: 0.05,
            min_queries: 50.0,
        }
    }
}

/// One row of Table 1: the same benchmark under both verifiers.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Whether this row is the trusted library interface.
    pub is_library: bool,
    /// Flux outcome.
    pub flux: VerifyOutcome,
    /// Baseline outcome.
    pub baseline: VerifyOutcome,
}

impl TableRow {
    /// Baseline time divided by Flux time (the "order of magnitude" claim of
    /// §5.2).
    pub fn speedup(&self) -> f64 {
        let f = self.flux.time.as_secs_f64().max(1e-9);
        self.baseline.time.as_secs_f64() / f
    }

    /// Annotation overhead of the baseline as a percentage of LOC.
    pub fn baseline_annot_percent(&self) -> usize {
        (self.baseline.annot_lines * 100 + self.baseline.loc / 2)
            .checked_div(self.baseline.loc)
            .unwrap_or(0)
    }
}

/// Runs one benchmark under both verifiers.
pub fn run_benchmark(benchmark: &Benchmark, config: &VerifyConfig) -> TableRow {
    let flux =
        verify_source(benchmark.flux_src, Mode::Flux, config).unwrap_or_else(|e| VerifyOutcome {
            mode: Mode::Flux,
            safe: false,
            errors: e.messages,
            time: Duration::ZERO,
            functions: 0,
            loc: 0,
            spec_lines: 0,
            annot_lines: 0,
            stats: QueryStats::default(),
        });
    let baseline =
        verify_source(benchmark.baseline_src, Mode::Baseline, config).unwrap_or_else(|e| {
            VerifyOutcome {
                mode: Mode::Baseline,
                safe: false,
                errors: e.messages,
                time: Duration::ZERO,
                functions: 0,
                loc: 0,
                spec_lines: 0,
                annot_lines: 0,
                stats: QueryStats::default(),
            }
        });
    TableRow {
        name: benchmark.name.to_owned(),
        is_library: benchmark.is_library,
        flux,
        baseline,
    }
}

/// The trusted library rows of Table 1 (metrics only, no verification).
/// Shared by [`run_table1`] and the daemon-routed mode of the `table1`
/// binary, which verifies the benchmark rows out of process but still
/// reports the library interfaces locally.
pub fn library_rows() -> Vec<TableRow> {
    let mut rows = Vec::new();
    for lib in library() {
        // Library interfaces are trusted: only their metrics are reported.
        let flux_metrics = lib.flux_metrics();
        let baseline_metrics = lib.baseline_metrics();
        rows.push(TableRow {
            name: lib.name.to_owned(),
            is_library: true,
            flux: VerifyOutcome {
                mode: Mode::Flux,
                safe: true,
                errors: vec![],
                time: Duration::ZERO,
                functions: 0,
                loc: flux_metrics.loc,
                spec_lines: flux_metrics.spec_lines,
                annot_lines: flux_metrics.annot_lines,
                stats: QueryStats::default(),
            },
            baseline: VerifyOutcome {
                mode: Mode::Baseline,
                safe: true,
                errors: vec![],
                time: Duration::ZERO,
                functions: 0,
                loc: baseline_metrics.loc,
                spec_lines: baseline_metrics.spec_lines,
                annot_lines: baseline_metrics.annot_lines,
                stats: QueryStats::default(),
            },
        });
    }
    rows
}

/// Runs the entire Table 1 evaluation (library rows + the eight benchmarks).
pub fn run_table1(config: &VerifyConfig) -> Vec<TableRow> {
    let mut rows = library_rows();
    for benchmark in benchmarks() {
        rows.push(run_benchmark(&benchmark, config));
    }
    rows
}

/// The `ok` cell of Table 1: `yes` for verified, `unk` for a run that was
/// cut short by a deadline or budget (inconclusive — never reported as
/// verified), `NO` for a genuine counterexample or frontend error.
fn ok_label(out: &VerifyOutcome) -> &'static str {
    if out.safe {
        "yes"
    } else if out.stats.unknowns > 0 && out.errors.is_empty() {
        "unk"
    } else {
        "NO"
    }
}

/// Renders rows in the layout of the paper's Table 1.
pub fn render_table1(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} | {:>5} {:>5} {:>9} {:>4} | {:>5} {:>5} {:>6} {:>6} {:>9} {:>4} | {:>8}\n",
        "benchmark",
        "LOC",
        "Spec",
        "Time(s)",
        "ok",
        "LOC",
        "Spec",
        "Annot",
        "%LOC",
        "Time(s)",
        "ok",
        "speedup"
    ));
    out.push_str(&format!(
        "{:<10} | {:^26} | {:^42} | \n",
        "", "Flux", "Baseline (program logic)"
    ));
    out.push_str(&"-".repeat(100));
    out.push('\n');
    let mut totals = (0usize, 0usize, 0.0f64, 0usize, 0usize, 0usize, 0.0f64);
    for row in rows {
        out.push_str(&format!(
            "{:<10} | {:>5} {:>5} {:>9.3} {:>4} | {:>5} {:>5} {:>6} {:>5}% {:>9.3} {:>4} | {:>7.1}x\n",
            row.name,
            row.flux.loc,
            row.flux.spec_lines,
            row.flux.time.as_secs_f64(),
            ok_label(&row.flux),
            row.baseline.loc,
            row.baseline.spec_lines,
            row.baseline.annot_lines,
            row.baseline_annot_percent(),
            row.baseline.time.as_secs_f64(),
            ok_label(&row.baseline),
            row.speedup(),
        ));
        if !row.is_library {
            totals.0 += row.flux.loc;
            totals.1 += row.flux.spec_lines;
            totals.2 += row.flux.time.as_secs_f64();
            totals.3 += row.baseline.loc;
            totals.4 += row.baseline.spec_lines;
            totals.5 += row.baseline.annot_lines;
            totals.6 += row.baseline.time.as_secs_f64();
        }
    }
    out.push_str(&"-".repeat(100));
    out.push('\n');
    out.push_str(&format!(
        "{:<10} | {:>5} {:>5} {:>9.3} {:>4} | {:>5} {:>5} {:>6} {:>5}% {:>9.3} {:>4} | {:>7.1}x\n",
        "Total",
        totals.0,
        totals.1,
        totals.2,
        "",
        totals.3,
        totals.4,
        totals.5,
        (totals.5 * 100).checked_div(totals.3).unwrap_or(0),
        totals.6,
        "",
        if totals.2 > 0.0 {
            totals.6 / totals.2
        } else {
            0.0
        },
    ));
    out
}

/// Renders the incremental-engine statistics of a table run: validity
/// queries, cache hit rate and sessions per benchmark, plus totals.  Printed
/// by the `table1` binary after the main table so the engine's perf
/// trajectory is visible across PRs.
pub fn render_query_stats(rows: &[TableRow]) -> String {
    /// One row of the table: the Flux outcome's columns, then the two
    /// baseline columns.
    fn line(name: &str, s: &QueryStats, baseline: &QueryStats) -> String {
        let (fix, smt) = (&s.fix, &s.smt);
        let hit_percent = (fix.cache_hits * 100)
            .checked_div(fix.smt_queries)
            .unwrap_or(0);
        let contend = format!(
            "{}/{}/{}",
            fix.hcons_contentions, fix.cnf_contentions, fix.validity_contentions
        );
        format!(
            "{name:<10} | {:>8} {:>9} {:>8} {:>8} {:>8} {:>7}% {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>7} {:>6} {:>13} | {:>8} {:>10}\n",
            fix.smt_queries,
            fix.cache_hits,
            fix.cross_fn_hits,
            fix.xbench_hits,
            fix.cache_misses,
            hit_percent,
            fix.model_prunes,
            fix.sessions,
            smt.sat_reuse,
            smt.pivots,
            smt.propagations,
            smt.blocked_visits,
            smt.db_reductions,
            smt.col_scans,
            smt.conjunct_retractions,
            s.fn_threads,
            contend,
            baseline.fix.smt_queries,
            baseline.smt.quant_instances,
        )
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} | {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>7} {:>6} {:>13} | {:>8} {:>10}\n",
        "benchmark",
        "queries",
        "hits",
        "xfn-hits",
        "xbench",
        "misses",
        "hit%",
        "prunes",
        "sessions",
        "sat-re",
        "pivots",
        "props",
        "blocked",
        "db-red",
        "colscan",
        "retract",
        "fn-thr",
        "contend",
        "bl-qrys",
        "bl-quants"
    ));
    let rule = format!("{}\n", "-".repeat(200));
    out.push_str(&rule);
    let mut flux = QueryStats::default();
    let mut baseline = QueryStats::default();
    for row in rows.iter().filter(|r| !r.is_library) {
        out.push_str(&line(&row.name, &row.flux.stats, &row.baseline.stats));
        for (total, s) in [
            (&mut flux, &row.flux.stats),
            (&mut baseline, &row.baseline.stats),
        ] {
            total.fix.absorb(s.fix);
            total.smt.absorb(s.smt);
            total.unknowns += s.unknowns;
            // The fan-out width is configuration, not work: aggregate it by
            // maximum.
            total.fn_threads = total.fn_threads.max(s.fn_threads);
        }
    }
    out.push_str(&rule);
    out.push_str(&line("Total", &flux, &baseline));
    let mut both = flux.clone();
    both.fix.absorb(baseline.fix);
    both.smt.absorb(baseline.smt);
    both.unknowns += baseline.unknowns;
    out.push_str(&format!(
        "audit (both verifiers): lint_checks={} certs_checked={} revalidations={} \
         (all zero unless FLUX_AUDIT / --audit raises the tier)\n",
        both.fix.lint_checks, both.smt.certs_checked, both.fix.revalidations,
    ));
    out.push_str(&format!(
        "robustness (both verifiers): unknowns={} evictions={} budget_exhausted={} \
         (all zero unless FLUX_DEADLINE_MS / FLUX_CACHE_CAP / --deadline-ms / --budget \
         constrain the run)\n",
        both.unknowns, both.fix.evictions, both.smt.budget_exhausted,
    ));
    let fn_times = || {
        rows.iter()
            .filter(|r| !r.is_library)
            .flat_map(|r| r.flux.stats.fn_times_ms.iter().copied())
    };
    out.push_str(&format!(
        "fn_parallel (flux): fn_threads={} contentions hcons={} cnf={} validity={} \
         fn_time_ms_total={} fn_time_ms_max={} \
         (contend column: hcons/cnf/validity; per-function wall-clock vector in \
         --json as fn_times_ms)\n",
        flux.fn_threads,
        flux.fix.hcons_contentions,
        flux.fix.cnf_contentions,
        flux.fix.validity_contentions,
        fn_times().sum::<usize>(),
        fn_times().max().unwrap_or(0),
    ));
    out
}

/// Renders a table run as machine-readable JSON (written by the `table1`
/// binary to `BENCH_table1.json` with `--json`): per-benchmark wall-clock
/// and the full [`QueryStats`] of both verifiers, so the perf trajectory —
/// queries issued, counter-model prunes, persistent-SAT reuse — can be
/// tracked across PRs by diffing one file.  Each outcome holds its
/// run-level fields, then every [`FixStats`] counter by name, then an
/// `"smt"` object with every [`SmtStats`] counter (nested, because both
/// layers count `sessions`).
///
/// The writer is hand-rolled because the workspace builds without external
/// crates; every emitted value is a number, boolean or benchmark name, so no
/// string escaping is needed.
pub fn render_table1_json(rows: &[TableRow], gate: &GateTolerances) -> String {
    fn object(fields: &[(&str, String)], indent: &str) -> String {
        let members: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("{indent}  \"{key}\": {value}"))
            .collect();
        format!("{{\n{}\n{indent}}}", members.join(",\n"))
    }
    fn list(values: &[usize]) -> String {
        let items: Vec<String> = values.iter().map(usize::to_string).collect();
        format!("[{}]", items.join(", "))
    }
    fn outcome_json(out: &VerifyOutcome, indent: &str) -> String {
        let s = &out.stats;
        let mut fields = vec![
            ("safe", out.safe.to_string()),
            ("time_s", format!("{:.6}", out.time.as_secs_f64())),
            ("functions", out.functions.to_string()),
            ("fn_threads", s.fn_threads.to_string()),
            ("unknowns", s.unknowns.to_string()),
            ("fn_times_ms", list(&s.fn_times_ms)),
        ];
        fields.extend(s.fix.counters().map(|(name, n)| (name, n.to_string())));
        let smt: Vec<_> = s
            .smt
            .counters()
            .map(|(name, n)| (name, n.to_string()))
            .collect();
        fields.push(("smt", object(&smt, &format!("{indent}  "))));
        object(&fields, indent)
    }
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    let mut first = true;
    let mut flux_total = 0.0f64;
    let mut baseline_total = 0.0f64;
    for row in rows.iter().filter(|r| !r.is_library) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"flux\": {},\n      \"baseline\": {}\n    }}",
            row.name,
            outcome_json(&row.flux, "      "),
            outcome_json(&row.baseline, "      "),
        ));
        flux_total += row.flux.time.as_secs_f64();
        baseline_total += row.baseline.time.as_secs_f64();
    }
    // The gate tolerances round-trip through the snapshot (see
    // [`GateTolerances`]): the values written here are whatever the caller
    // read from the previous committed file, so a hand-tuned gate survives
    // every refresh instead of reverting to defaults.
    out.push_str(&format!(
        "\n  ],\n  \"totals\": {{\n    \"flux_time_s\": {flux_total:.6},\n    \
         \"baseline_time_s\": {baseline_total:.6}\n  }},\n  \"gate\": {{\n    \
         \"time_factor\": {},\n    \"query_factor\": {},\n    \
         \"min_time_s\": {},\n    \"min_queries\": {}\n  }}\n}}\n",
        gate.time_factor, gate.query_factor, gate.min_time_s, gate.min_queries,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_example_is_safe_under_both_modes() {
        let src = r#"
            #[flux::sig(fn(i32{v: v > 0}) -> i32{v: v > 1})]
            fn bump(x: i32) -> i32 { x + 1 }
        "#;
        let flux = verify_source(src, Mode::Flux, &VerifyConfig::default()).unwrap();
        assert!(flux.safe);
        let src_baseline = r#"
            #[requires(x > 0)]
            #[ensures(result > 1)]
            fn bump(x: i32) -> i32 { x + 1 }
        "#;
        let baseline =
            verify_source(src_baseline, Mode::Baseline, &VerifyConfig::default()).unwrap();
        assert!(baseline.safe);
    }

    #[test]
    fn frontend_errors_are_reported() {
        let err = verify_source("fn broken( {", Mode::Flux, &VerifyConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn unsafe_programs_are_flagged_in_both_modes() {
        let src = r#"
            #[flux::sig(fn(v: &RVec<i32>[@n], usize) -> i32)]
            fn read(v: &RVec<i32>, i: usize) -> i32 { v.get(i) }
        "#;
        let flux = verify_source(src, Mode::Flux, &VerifyConfig::default()).unwrap();
        assert!(!flux.safe);
        let src_baseline = r#"
            fn read(v: RVec<i32>, i: usize) -> i32 { v.get(i) }
        "#;
        let baseline =
            verify_source(src_baseline, Mode::Baseline, &VerifyConfig::default()).unwrap();
        assert!(!baseline.safe);
    }

    #[test]
    fn table_rendering_contains_all_rows() {
        // Use a single small benchmark to keep the test fast.
        let b = benchmark("dotprod").unwrap();
        let row = run_benchmark(&b, &VerifyConfig::default());
        let rendered = render_table1(std::slice::from_ref(&row));
        assert!(rendered.contains("dotprod"));
        assert!(rendered.contains("Flux"));
    }

    /// The robustness footer sums both verifiers: a row where only the
    /// baseline was inconclusive still shows up in `unknowns`.
    #[test]
    fn robustness_footer_counts_inconclusive_baseline_functions() {
        let outcome = |mode, unknowns| VerifyOutcome {
            mode,
            safe: false,
            errors: Vec::new(),
            time: Duration::ZERO,
            functions: 1,
            loc: 0,
            spec_lines: 0,
            annot_lines: 0,
            stats: QueryStats {
                unknowns,
                ..QueryStats::default()
            },
        };
        let row = TableRow {
            name: "synthetic".to_owned(),
            is_library: false,
            flux: outcome(Mode::Flux, 0),
            baseline: outcome(Mode::Baseline, 1),
        };
        let rendered = render_query_stats(&[row]);
        assert!(
            rendered.contains("robustness (both verifiers): unknowns=1 "),
            "{rendered}"
        );
    }

    #[test]
    fn dotprod_benchmark_verifies_under_both_verifiers() {
        let b = benchmark("dotprod").unwrap();
        let row = run_benchmark(&b, &VerifyConfig::default());
        assert!(row.flux.safe, "flux flavour failed: {:?}", row.flux.errors);
        assert!(
            row.baseline.safe,
            "baseline flavour failed: {:?}",
            row.baseline.errors
        );
        assert_eq!(row.flux.annot_lines, 0);
        assert!(row.baseline.annot_lines > 0);
    }
}
