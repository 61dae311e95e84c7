//! One verification pass over a workload's corpus, in this process.
//!
//! Three modes share the corpus and the verdict oracle:
//!
//! * `plain` times each request around `flux::verify_source`, the entry
//!   point a user calls, or, for a generated program, around the verifier
//!   call it makes, whose report gives each function's verdict to compare
//!   with its label;
//! * `traced` repeats `flux_check::check_function_with`'s sequence itself
//!   (and the baseline's parse + `verify_program`), with a span around every
//!   call into a layer and the layer counters differenced around it;
//! * `fanout` runs `flux_check::check_program` on each Flux program and
//!   reads its fan-out figures and the lock-contention counters around it.

use crate::gen::{self, GenProgram};
use crate::json::Obj;
use crate::trace::Tracer;
use flux::{verify_source, Mode, VerifyConfig, VerifyOutcome};
use flux_check::checker::Generator;
use flux_fixpoint::{partition, FixResult, FixpointSolver};
use flux_ir::ResolvedProgram;
use flux_logic::SortCtx;
use std::collections::BTreeMap;
use std::time::Instant;

/// Programs per `gen-fanout` corpus.
pub const GEN_PROGRAMS: usize = 24;
/// Template units per `gen-fanout` program (30 functions each).
pub const GEN_UNITS: usize = 25;
/// Generated programs per `daemon-mixed` round.  Two keep the two slowest
/// Table 1 cells above a tenth of each round's requests, so the round's
/// 90th latency percentile stays inside one group of requests.
pub const DAEMON_GEN_PROGRAMS: usize = 2;
/// Template units per `daemon-mixed` generated program (30 functions).
pub const DAEMON_GEN_UNITS: usize = 25;

/// The program of the set-up probe: the first verdict a fresh verifier
/// gives is on this one-loop function.
pub const PROBE: &str = r#"
#[flux::sig(fn(usize[@n]) -> usize[n])]
fn count_up(n: usize) -> usize {
    let mut i = 0;
    while i < n {
        i += 1;
    }
    i
}
"#;

/// The set-up probe: builds the workload's inputs, then verifies [`PROBE`]
/// with the workload's configuration, as a fresh process does before its
/// first verdict.  Returns whether the probe verified.
pub fn probe(workload: Workload, seed: u64) -> bool {
    let _inputs = corpus(workload, seed);
    if workload == Workload::DaemonMixed {
        apply_daemon_caps();
    }
    verify_source(PROBE, Mode::Flux, &workload.config()).is_ok_and(|o| o.safe)
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 1, both pools at one thread, a fresh process per pass.
    Table1Cold,
    /// Generated multi-function programs at the shipped thread defaults.
    GenFanout,
    /// Table 1 cells and generated programs through a live `fluxd`.
    DaemonMixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "table1-cold" => Some(Workload::Table1Cold),
            "gen-fanout" => Some(Workload::GenFanout),
            "daemon-mixed" => Some(Workload::DaemonMixed),
            _ => None,
        }
    }

    /// The verifier configuration of the workload: one thread in both
    /// pools for `table1-cold`, the shipped defaults otherwise.
    pub fn config(self) -> VerifyConfig {
        let mut config = VerifyConfig::default();
        if self == Workload::Table1Cold {
            config.check.fixpoint.threads = 1;
            config.check.fn_threads = 1;
        }
        config
    }
}

/// One verify request and its known answer.
#[derive(Clone, Debug)]
pub struct Request {
    /// Benchmark name, or `gen-<seed>` for a generated program.
    pub name: String,
    /// Verifier.
    pub mode: Mode,
    /// Source text.
    pub src: String,
    /// The oracle: `flux_suite::expect_verifies` or the generator's label.
    pub expect_safe: bool,
    /// Per-function labels of a generated program (source order).
    pub fn_labels: Option<Vec<(String, bool)>>,
}

/// The 16 Table 1 cells, in table order.
pub fn table1_requests() -> Vec<Request> {
    let mut out = Vec::new();
    for b in flux_suite::benchmarks() {
        for (mode, src, suite_mode) in [
            (Mode::Flux, b.flux_src, flux_suite::Mode::Flux),
            (Mode::Baseline, b.baseline_src, flux_suite::Mode::Baseline),
        ] {
            out.push(Request {
                name: b.name.to_owned(),
                mode,
                src: src.to_owned(),
                expect_safe: flux_suite::expect_verifies(b.name, suite_mode),
                fn_labels: None,
            });
        }
    }
    out
}

/// Requests for generated programs: the Flux flavour, and the baseline
/// flavour too when `baseline` is set.
pub fn generated_requests(programs: &[GenProgram], baseline: bool) -> Vec<Request> {
    let mut out = Vec::new();
    for p in programs {
        let labels: Vec<(String, bool)> = p
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.expect_safe))
            .collect();
        out.push(Request {
            name: format!("gen-{}", p.seed),
            mode: Mode::Flux,
            src: p.flux_src.clone(),
            expect_safe: p.expect_safe(),
            fn_labels: Some(labels.clone()),
        });
        if baseline {
            out.push(Request {
                name: format!("gen-{}", p.seed),
                mode: Mode::Baseline,
                src: p.baseline_src.clone(),
                expect_safe: p.expect_safe(),
                fn_labels: Some(labels),
            });
        }
    }
    out
}

/// The generated programs of `daemon-mixed` round `round`, from seeds no
/// earlier round used, so every round inserts fresh cache entries.  Every
/// third program of the stream carries a bug.
pub fn daemon_round_programs(seed: u64, round: u64) -> Vec<GenProgram> {
    let mut rng = gen::Rng::new(seed ^ round.wrapping_mul(0x0100_0000_01B3));
    (0..DAEMON_GEN_PROGRAMS as u64)
        .map(|k| {
            let position = round * DAEMON_GEN_PROGRAMS as u64 + k;
            gen::program(rng.next_u64(), DAEMON_GEN_UNITS, position % 3 == 2)
        })
        .collect()
}

/// The corpus one pass of `workload` verifies.
pub fn corpus(workload: Workload, seed: u64) -> Vec<Request> {
    match workload {
        Workload::Table1Cold => table1_requests(),
        Workload::GenFanout => {
            generated_requests(&gen::corpus(seed, GEN_PROGRAMS, GEN_UNITS), true)
        }
        Workload::DaemonMixed => {
            let mut out = table1_requests();
            out.extend(generated_requests(&daemon_round_programs(seed, 0), false));
            out
        }
    }
}

/// Applies the shipped `fluxd` cache caps to this process, so an
/// in-process replay of `daemon-mixed` runs under the daemon's memory
/// policy.
pub fn apply_daemon_caps() {
    let d = flux_daemon::ServerConfig::default();
    flux_fixpoint::set_global_cache_capacity(Some(d.validity_cache_cap * 2));
    flux_smt::set_cnf_cache_capacity(Some(d.cnf_cache_cap));
    flux_logic::set_hcons_memo_capacity(Some(d.hcons_memo_cap));
}

/// After-request reclaim of the daemon's validity cache.
fn daemon_trim() {
    let cap = flux_daemon::ServerConfig::default().validity_cache_cap;
    let cache = flux_fixpoint::global_cache();
    if cache.len() > cap {
        cache.trim(cap);
    }
}

/// The wire verdict of an outcome, as `fluxd` reports it.
pub fn verdict_of(outcome: &VerifyOutcome) -> &'static str {
    if outcome.safe {
        "verified"
    } else if outcome.stats.unknowns > 0 && outcome.errors.is_empty() {
        "unknown"
    } else {
        "rejected"
    }
}

/// The verdict the oracle expects.
pub fn expected_verdict(expect_safe: bool) -> &'static str {
    if expect_safe {
        "verified"
    } else {
        "rejected"
    }
}

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Flux => "flux",
        Mode::Baseline => "baseline",
    }
}

/// One request's outcome, as reported to `run.py`.
struct Record<'a> {
    request: &'a Request,
    ms: f64,
    verdict: &'static str,
    functions: usize,
    conclusive: usize,
    /// A per-function verdict that disagrees with its label.
    fn_mismatch: bool,
}

impl<'a> Record<'a> {
    /// A request the front end refused.
    fn error(request: &'a Request) -> Record<'a> {
        Record {
            request,
            ms: 0.0,
            verdict: "error",
            functions: 0,
            conclusive: 0,
            fn_mismatch: false,
        }
    }

    /// The record of a Flux `check_program` report, each function's verdict
    /// compared with its label when the request has labels.
    fn flux(request: &'a Request, report: &flux_check::Report) -> Record<'a> {
        let unknown = report.functions.iter().filter(|f| f.is_unknown()).count();
        let verdict = if report.is_safe() {
            "verified"
        } else if unknown > 0 && report.errors().is_empty() {
            "unknown"
        } else {
            "rejected"
        };
        let verdicts = report.functions.iter().map(|f| {
            let verdict = (!f.is_unknown()).then(|| f.is_safe());
            (f.name.as_str(), verdict)
        });
        Record {
            request,
            ms: 0.0,
            verdict,
            functions: report.functions.len(),
            conclusive: report.functions.len() - unknown,
            fn_mismatch: fn_mismatch(request, verdicts.collect()),
        }
    }

    /// The record of a baseline `verify_program` report.
    fn wp(request: &'a Request, report: &flux_wp::WpReport) -> Record<'a> {
        let unknown = report
            .functions
            .iter()
            .filter(|f| f.errors.is_empty() && f.unknowns > 0)
            .count();
        let verdict = if report.is_safe() {
            "verified"
        } else if unknown > 0 && report.functions.iter().all(|f| f.errors.is_empty()) {
            "unknown"
        } else {
            "rejected"
        };
        let verdicts = report.functions.iter().map(|f| {
            let verdict = (f.unknowns == 0 || !f.errors.is_empty()).then(|| f.is_safe());
            (f.name.as_str(), verdict)
        });
        Record {
            request,
            ms: 0.0,
            verdict,
            functions: report.functions.len(),
            conclusive: report.functions.len() - unknown,
            fn_mismatch: fn_mismatch(request, verdicts.collect()),
        }
    }

    fn json(&self) -> String {
        let mut o = Obj::new();
        o.str("name", &self.request.name)
            .str("mode", mode_name(self.request.mode))
            .num("ms", self.ms)
            .str("verdict", self.verdict)
            .str("expect", expected_verdict(self.request.expect_safe))
            .int("functions", self.functions as u64)
            .int("conclusive", self.conclusive as u64)
            .bool("fn_mismatch", self.fn_mismatch);
        o.finish()
    }
}

/// Whether per-function verdicts (`None` for inconclusive) disagree with
/// the request's labels: a conclusive verdict against its label, or the
/// functions not those labelled, in source order.  Requests without labels
/// never disagree.
fn fn_mismatch(request: &Request, verdicts: Vec<(&str, Option<bool>)>) -> bool {
    request.fn_labels.as_ref().is_some_and(|labels| {
        labels.len() != verdicts.len()
            || labels
                .iter()
                .zip(verdicts)
                .any(|((n, l), (name, verdict))| n != name || verdict.is_some_and(|v| v != *l))
    })
}

/// Runs `f` and returns its result with the wall-clock milliseconds it
/// took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The pass modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassMode {
    /// Time each request around `flux::verify_source`, or around the
    /// verifier call it makes for a generated program.
    Plain,
    /// Replay the pipeline with a span around every layer call.
    Traced,
    /// Run `check_program` and read its fan-out and contention figures.
    Fanout,
}

/// Runs one pass and returns its JSON result line.
pub fn run(workload: Workload, requests: &[Request], mode: PassMode) -> String {
    let config = workload.config();
    if workload == Workload::DaemonMixed {
        apply_daemon_caps();
    }
    let mut out = Obj::new();
    let started = Instant::now();
    let records = match mode {
        PassMode::Plain => plain(workload, requests, &config),
        PassMode::Traced => {
            let (records, layers) = traced(workload, requests, &config);
            out.raw("layers", &layers);
            records
        }
        PassMode::Fanout => {
            let (records, fanout) = fanout(requests, &config);
            out.raw("fanout", &fanout);
            records
        }
    };
    out.num("wall_ms", started.elapsed().as_secs_f64() * 1e3);
    out.num("rss_mb", peak_rss_mb("self"));
    let rendered: Vec<String> = records.iter().map(Record::json).collect();
    out.raw("requests", &format!("[{}]", rendered.join(",")));
    out.finish()
}

fn plain<'a>(
    workload: Workload,
    requests: &'a [Request],
    config: &VerifyConfig,
) -> Vec<Record<'a>> {
    requests
        .iter()
        .map(|request| {
            // Generated programs carry per-function labels, so they go
            // through the calls `verify_source` makes, whose reports keep
            // each function's verdict.
            let (record, ms) = match (&request.fn_labels, request.mode) {
                (None, _) => {
                    let (outcome, ms) = timed(|| verify_source(&request.src, request.mode, config));
                    let record = match outcome {
                        Ok(o) => Record {
                            request,
                            ms: 0.0,
                            verdict: verdict_of(&o),
                            functions: o.functions,
                            conclusive: o.functions - o.stats.unknowns.min(o.functions),
                            fn_mismatch: false,
                        },
                        Err(_) => Record::error(request),
                    };
                    (record, ms)
                }
                (Some(_), Mode::Flux) => {
                    let (report, ms) =
                        timed(|| flux_check::check_source(&request.src, &config.check));
                    let record = report
                        .map_or_else(|_| Record::error(request), |r| Record::flux(request, &r));
                    (record, ms)
                }
                (Some(_), Mode::Baseline) => {
                    let (report, ms) = timed(|| flux_wp::verify_source(&request.src, &config.wp));
                    let record =
                        report.map_or_else(|_| Record::error(request), |r| Record::wp(request, &r));
                    (record, ms)
                }
            };
            if workload == Workload::DaemonMixed {
                daemon_trim();
            }
            Record { ms, ..record }
        })
        .collect()
}

/// Snapshot of the process-global counters the layers expose.
#[derive(Clone, Copy)]
struct Globals {
    nodes: u64,
    hcons_contentions: u64,
    validity_contentions: u64,
    cnf_contentions: u64,
    cnf_evictions: u64,
    hcons_memo_evictions: u64,
}

impl Globals {
    fn now() -> Globals {
        Globals {
            nodes: flux_logic::interned_nodes() as u64,
            hcons_contentions: flux_logic::hcons_contentions(),
            validity_contentions: flux_fixpoint::validity_shard_contentions(),
            cnf_contentions: flux_smt::cnf_shard_contentions(),
            cnf_evictions: flux_smt::cnf_cache_evictions(),
            hcons_memo_evictions: flux_logic::hcons_memo_evictions(),
        }
    }

    fn add_since(self, before: Globals, into: &mut BTreeMap<&'static str, f64>) {
        let pairs = [
            ("logic.hcons_nodes_added", self.nodes - before.nodes),
            (
                "logic.hcons_contentions",
                self.hcons_contentions - before.hcons_contentions,
            ),
            (
                "fixpoint.validity_contentions",
                self.validity_contentions - before.validity_contentions,
            ),
            (
                "smt.cnf_contentions",
                self.cnf_contentions - before.cnf_contentions,
            ),
            (
                "smt.cnf_evictions",
                self.cnf_evictions - before.cnf_evictions,
            ),
            (
                "logic.hcons_memo_evictions",
                self.hcons_memo_evictions - before.hcons_memo_evictions,
            ),
        ];
        for (name, delta) in pairs {
            *into.entry(name).or_insert(0.0) += delta as f64;
        }
    }
}

/// Span names and the per-layer metric each one's self-time feeds.
const SPAN_METRICS: [(&str, &str); 9] = [
    ("syntax.parse", "syntax.parse_ms"),
    ("ir.resolve", "ir.resolve_ms"),
    ("check.gen", "check.gen_ms"),
    ("fixpoint.solve", "fixpoint.solve_ms"),
    ("fixpoint.flatten", "fixpoint.flatten_ms"),
    ("fixpoint.partition", "fixpoint.partition_ms"),
    ("fixpoint.qualifier_seed", "fixpoint.qualifier_seed_ms"),
    ("wp.verify", "wp.verify_ms"),
    ("request", "untraced_ms"),
];

fn traced<'a>(
    workload: Workload,
    requests: &'a [Request],
    config: &VerifyConfig,
) -> (Vec<Record<'a>>, String) {
    let mut tracer = Tracer::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut records = Vec::new();
    let mut flux_corpus_ms = 0.0;
    let pass = tracer.enter("pass");
    for request in requests {
        let span = tracer.enter("request");
        let before = Globals::now();
        let record = match request.mode {
            Mode::Flux => traced_flux(request, config, &mut tracer, &mut counts),
            Mode::Baseline => traced_baseline(request, config, &mut tracer, &mut counts),
        };
        Globals::now().add_since(before, &mut counts);
        tracer.exit(span);
        let ms = tracer.duration_ms(span);
        if request.mode == Mode::Flux {
            flux_corpus_ms += ms;
        }
        records.push(Record { ms, ..record });
        if workload == Workload::DaemonMixed {
            daemon_trim();
        }
    }
    tracer.exit(pass);

    let self_times = tracer.self_times_ms();
    let mut layers = Obj::new();
    let mut covered = 0.0;
    for (span, metric) in SPAN_METRICS {
        let ms = self_times.get(span).copied().unwrap_or(0.0);
        if span == "request" {
            // Bookkeeping between layer calls, plus the gaps between
            // requests: never spread across the layers.
            layers.num(metric, ms + self_times.get("pass").copied().unwrap_or(0.0));
        } else {
            covered += ms;
            layers.num(metric, ms);
        }
    }
    let wall = tracer.duration_ms(pass);
    layers.num(
        "trace.coverage",
        if wall > 0.0 { covered / wall } else { 0.0 },
    );
    layers.num("trace.flux_corpus_ms", flux_corpus_ms);
    for (name, value) in &counts {
        layers.num(name, *value);
    }
    (records, layers.finish())
}

fn traced_flux<'a>(
    request: &'a Request,
    config: &VerifyConfig,
    tracer: &mut Tracer,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Record<'a> {
    let Ok(ast) = tracer.time("syntax.parse", || flux_syntax::parse_program(&request.src)) else {
        return Record::error(request);
    };
    let Ok(program) = tracer.time("ir.resolve", || ResolvedProgram::resolve(&ast)) else {
        return Record::error(request);
    };
    // `check_program`'s sequential path: one solver shared by every
    // function, in source order.
    let mut solver = FixpointSolver::new(config.check.fixpoint.clone());
    let names: Vec<String> = program
        .iter()
        .filter(|f| !f.def.trusted)
        .map(|f| f.def.name.clone())
        .collect();
    let (mut safe, mut unknown, mut rejected) = (0usize, 0usize, 0usize);
    let mut fn_mismatch = false;
    for (index, name) in names.iter().enumerate() {
        let generated = tracer.time("check.gen", || Generator::new(&program).gen_function(name));
        let fn_safe = match generated {
            Err(_) => Some(false),
            Ok(gen) => {
                *counts.entry("check.kvars").or_insert(0.0) += gen.kvars.len() as f64;
                let smt_before = solver.smt_stats();
                let result = tracer.time("fixpoint.solve", || {
                    solver.solve(&gen.constraint, &gen.kvars, &SortCtx::new())
                });
                add_fix_stats(&solver.stats, counts);
                add_smt_stats(&solver.smt_stats().since(smt_before), counts);
                // The solve's own preparation steps, repeated as sibling
                // spans so their cost shows separately.
                let clauses = tracer.time("fixpoint.flatten", || gen.constraint.flatten());
                tracer.time("fixpoint.partition", || partition(&clauses, &gen.kvars));
                tracer.time("fixpoint.qualifier_seed", || {
                    let mut n = 0usize;
                    for decl in gen.kvars.iter() {
                        for q in &solver.config.qualifiers {
                            n += q.instantiate(decl).len();
                        }
                    }
                    n
                });
                match result {
                    FixResult::Safe(_) => Some(true),
                    FixResult::Unsafe { .. } => Some(false),
                    FixResult::Unknown { .. } => None,
                }
            }
        };
        match fn_safe {
            Some(true) => safe += 1,
            Some(false) => rejected += 1,
            None => unknown += 1,
        }
        if let (Some(labels), Some(verdict)) = (&request.fn_labels, fn_safe) {
            fn_mismatch |= labels.get(index).map(|(n, l)| (n, *l)) != Some((name, verdict));
        }
    }
    let verdict = if rejected > 0 {
        "rejected"
    } else if unknown > 0 {
        "unknown"
    } else {
        "verified"
    };
    Record {
        request,
        ms: 0.0,
        verdict,
        functions: names.len(),
        conclusive: safe + rejected,
        fn_mismatch,
    }
}

fn traced_baseline<'a>(
    request: &'a Request,
    config: &VerifyConfig,
    tracer: &mut Tracer,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Record<'a> {
    let Ok(ast) = tracer.time("syntax.parse", || flux_syntax::parse_program(&request.src)) else {
        return Record::error(request);
    };
    let report = tracer.time("wp.verify", || flux_wp::verify_program(&ast, &config.wp));
    let smt = report.total_smt_stats();
    *counts.entry("wp.smt_queries").or_insert(0.0) += smt.queries as f64;
    *counts.entry("wp.quant_instances").or_insert(0.0) += smt.quant_instances as f64;
    Record::wp(request, &report)
}

fn add_fix_stats(s: &flux_fixpoint::FixStats, counts: &mut BTreeMap<&'static str, f64>) {
    for (name, v) in [
        ("fixpoint.clauses", s.clauses),
        ("fixpoint.initial_candidates", s.initial_candidates),
        ("fixpoint.iterations", s.iterations),
        ("fixpoint.smt_queries", s.smt_queries),
        ("fixpoint.cache_hits", s.cache_hits),
        ("fixpoint.xbench_hits", s.xbench_hits),
        ("fixpoint.sessions", s.sessions),
        ("fixpoint.model_prunes", s.model_prunes),
    ] {
        *counts.entry(name).or_insert(0.0) += v as f64;
    }
}

fn add_smt_stats(s: &flux_smt::SmtStats, counts: &mut BTreeMap<&'static str, f64>) {
    for (name, v) in [
        ("smt.sat_rounds", s.sat_rounds),
        ("smt.propagations", s.propagations),
        ("smt.theory_checks", s.theory_checks),
        ("smt.pivots", s.pivots),
        ("smt.conjunct_retractions", s.conjunct_retractions),
    ] {
        *counts.entry(name).or_insert(0.0) += v as f64;
    }
}

fn fanout<'a>(requests: &'a [Request], config: &VerifyConfig) -> (Vec<Record<'a>>, String) {
    let mut records = Vec::new();
    let mut fn_ms = 0.0;
    let mut capacity_ms = 0.0;
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for request in requests.iter().filter(|r| r.mode == Mode::Flux) {
        let resolved = flux_syntax::parse_program(&request.src)
            .map_err(|_| ())
            .and_then(|ast| ResolvedProgram::resolve(&ast).map_err(|_| ()));
        let Ok(program) = resolved else {
            records.push(Record::error(request));
            continue;
        };
        let before = Globals::now();
        let (report, ms) = timed(|| flux_check::check_program(&program, &config.check));
        Globals::now().add_since(before, &mut counts);
        fn_ms += report.total_time().as_secs_f64() * 1e3;
        capacity_ms += report.wall_time.as_secs_f64() * 1e3 * report.fn_threads as f64;
        records.push(Record {
            ms,
            ..Record::flux(request, &report)
        });
    }
    let mut o = Obj::new();
    o.num(
        "check.fanout_efficiency",
        if capacity_ms > 0.0 {
            fn_ms / capacity_ms
        } else {
            0.0
        },
    );
    for name in [
        "logic.hcons_contentions",
        "fixpoint.validity_contentions",
        "smt.cnf_contentions",
    ] {
        o.num(name, counts.get(name).copied().unwrap_or(0.0));
    }
    (records, o.finish())
}
