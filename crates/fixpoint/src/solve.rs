//! The liquid-inference fixpoint solver (predicate abstraction by iterative
//! weakening), as described in §4.2 of the paper and in Rondon et al. 2008.
//!
//! Each κ variable starts with the conjunction of the well-sorted
//! instantiations of the qualifier templates.  Clauses whose head is a κ
//! application then repeatedly *weaken* that candidate set: any conjunct not
//! implied by the clause's hypotheses (under the current assignment) is
//! removed.  When no more weakening is possible the assignment is the
//! strongest solution expressible with the qualifiers; the remaining clauses
//! with concrete heads are then checked once, and any failure is reported
//! with its tag.
//!
//! The templates are tried in two stages.  The first seeds only the
//! templates of at most two parameters; a Safe result is final, because a
//! larger seed set can only keep more candidates.  Any other result re-solves
//! from a fresh seed of every template, and that result is reported.
//!
//! A clean result (no `Unknown` verdict anywhere in the solve) is stored in
//! the solve memo (see the `memo` module), and a later solve with the same
//! key replays it without seeding, weakening or checking a clause.
//!
//! A solve runs entirely on its caller's thread.  Parallelism lives one level
//! up, in `flux-check`'s function fan-out, which runs whole solves
//! concurrently.

use crate::cache::{
    global_cache, intern_fn_ctx, next_epoch, next_owner, CacheEntry, FnCtxId, QueryKey, VerdictMap,
};
use crate::constraint::{Clause, Constraint, Guard, Head, Tag};
use crate::kvar::{KVarApp, KVarStore, KVid};
use crate::memo::{global_memo, SolveKey, SolveMemo};
use crate::qualifier::{default_qualifiers, Qualifier};
use flux_logic::{lock_recover, Expr, ExprId, Name, Sort, SortCtx};
use flux_smt::{Model, Session, SmtConfig, SmtStats, Solver, Validity};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The first qualifier stage seeds only the templates with at most this
/// many parameters (ν included).
const STAGE_ONE_PARAMS: usize = 2;

/// Configuration of the fixpoint solver.
#[derive(Clone, Debug)]
pub struct FixConfig {
    /// Configuration forwarded to the SMT solver.  Its
    /// [`flux_smt::ResourceBudget::weaken_iterations`] is the only bound on
    /// weakening iterations.
    pub smt: SmtConfig,
    /// The qualifier templates used to seed candidate solutions; those of
    /// at most two parameters seed the first stage, all of them the second.
    pub qualifiers: Vec<Qualifier>,
    /// Share verdicts through the process-global validity cache, so
    /// identical obligations are proved once per *process* rather than once
    /// per program (`xbench_hits` counts the cross-benchmark replays), and
    /// clean results through the process-global solve memo.  Disable for
    /// hermetic per-solver caching: the solver then keeps its own cache and
    /// memo — equivalence tests that pin session/miss counts need isolation
    /// from whatever else the process has already proved; verdicts are
    /// identical either way because cached entries replay exactly what the
    /// engine would recompute.
    pub global_cache: bool,
    /// Ignored: every solve runs on its caller's thread.  Kept only because
    /// the benchmark harness still assigns it; it goes at the next change to
    /// the benchmark.
    pub threads: usize,
}

impl Default for FixConfig {
    fn default() -> Self {
        FixConfig {
            smt: SmtConfig::default(),
            qualifiers: default_qualifiers(),
            global_cache: true,
            threads: 1,
        }
    }
}

flux_logic::counters! {
    /// Statistics of a solver run.
    pub struct FixStats {
        /// Number of clauses after flattening.
        pub clauses: usize,
        /// Number of κ variables.
        pub kvars: usize,
        /// Number of initial candidate conjuncts across all κ variables,
        /// summed over every qualifier stage that ran.
        pub initial_candidates: usize,
        /// Number of weakening iterations performed, summed over every
        /// qualifier stage that ran.
        pub iterations: usize,
        /// Solves whose first qualifier stage (the templates of at most two
        /// parameters) was not Safe and that re-solved with every template.
        pub escalations: usize,
        /// Solves answered from the solve memo: an earlier solve with the
        /// same key (flattened clauses, κ sorts, context, qualifiers and SMT
        /// configuration) reached a clean result, which is returned without
        /// seeding, weakening or checking a clause.  Every work counter of
        /// a replayed solve is 0.
        pub replays: usize,
        /// Number of SMT validity queries requested (including cache hits).
        pub smt_queries: usize,
        /// Queries answered from the validity cache.
        pub cache_hits: usize,
        /// Cache hits whose entry was produced by an *earlier* solve call on the
        /// same solver (cross-function sharing within one verification run).
        pub cross_fn_hits: usize,
        /// Cache hits whose entry was produced by a *different* solver instance
        /// (cross-benchmark sharing through the process-global cache).
        pub xbench_hits: usize,
        /// Queries that reached the SMT engine.
        pub cache_misses: usize,
        /// Solver sessions opened (at most one per clause per iteration; none
        /// for clauses fully answered by the cache), summed over every
        /// qualifier stage that ran.
        pub sessions: usize,
        /// Candidates dropped by evaluating them under a counter-model instead
        /// of issuing a per-candidate SMT query.
        pub model_prunes: usize,
        /// Well-formedness lint obligations checked (audit tier ≥ `lint`):
        /// concrete guards/heads, κ-application arguments and candidate bodies
        /// sort- and scope-checked before solving.
        pub lint_checks: usize,
        /// Clauses independently re-validated after convergence (audit tier
        /// `full`): the final solution substituted into the clause and recheck
        /// with a fresh one-shot solver bypassing every cache and session.
        pub revalidations: usize,
        /// Candidate conjuncts dropped because the solver answered `Unknown`
        /// rather than refuting them.  Dropping is sound for the weakening
        /// direction (the kept solution is still verified inductive), but a
        /// *failed* concrete check in the same solve can no longer be blamed on
        /// the program — see [`FixResult::Unknown`].  Always zero under the
        /// default unlimited budgets on the corpus.
        pub unknown_drops: usize,
        /// Times the solving thread found the hash-consing table lock held by
        /// another thread.  Counted per thread where each contention happens,
        /// so solves running concurrently never count each other's.  This and
        /// the next two are convoying diagnostics, one per process-global
        /// lock: zero when nothing else runs concurrently.
        pub hcons_contentions: usize,
        /// Times the solving thread found the CNF cache lock held by another
        /// thread.
        pub cnf_contentions: usize,
        /// Times the solving thread found a validity-cache shard lock held by
        /// another thread.
        pub validity_contentions: usize,
    }
}

/// A solution: each κ variable is assigned a conjunction of predicates over
/// its formal arguments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Solution {
    /// The hash-consed conjuncts of each κ, so the weakening loop never
    /// re-interns a candidate tree.
    ids: BTreeMap<KVid, Vec<ExprId>>,
}

impl Solution {
    /// The initial assignment: every well-sorted instance of `qualifiers`
    /// for every κ.  Distinct templates can instantiate to the same
    /// predicate (e.g. `ν ≥ 0` from both a bound and a nonneg template), and
    /// the instantiation order gives no adjacency guarantee — dedup by
    /// hash-consed id so duplicates can't double the SMT work.
    fn seed<'q>(
        kvars: &KVarStore,
        qualifiers: impl Iterator<Item = &'q Qualifier> + Clone,
    ) -> Solution {
        let mut ids = BTreeMap::new();
        for decl in kvars.iter() {
            let mut seen: HashSet<ExprId> = HashSet::new();
            let candidates: Vec<ExprId> = qualifiers
                .clone()
                .flat_map(|qualifier| qualifier.instantiate(decl))
                .map(|c| ExprId::intern(&c))
                .filter(|&id| seen.insert(id))
                .collect();
            ids.insert(decl.id, candidates);
        }
        Solution { ids }
    }

    /// Number of candidate conjuncts across every κ.
    fn candidates(&self) -> usize {
        self.ids.values().map(Vec::len).sum()
    }

    /// The predicate assigned to `kvid`, expressed over its formal
    /// arguments.
    pub fn of(&self, kvid: KVid) -> Expr {
        self.of_id(kvid).expr()
    }

    /// Hash-consed form of [`Solution::of`].
    pub fn of_id(&self, kvid: KVid) -> ExprId {
        match self.ids.get(&kvid) {
            Some(ids) => ExprId::and_all(ids.iter().copied()),
            None => ExprId::intern(&Expr::tt()),
        }
    }

    /// The predicate denoted by an application under this solution.
    pub fn apply(&self, app: &KVarApp, kvars: &KVarStore) -> Expr {
        self.apply_id(app, kvars).expr()
    }

    /// Hash-consed form of [`Solution::apply`]: the substitution runs over
    /// the shared DAG and no tree is ever rebuilt.
    pub fn apply_id(&self, app: &KVarApp, kvars: &KVarStore) -> ExprId {
        let decl = kvars.get(app.kvid);
        app.instantiate_id(decl, self.of_id(app.kvid))
    }

    /// Number of conjuncts assigned to `kvid`.
    pub fn num_conjuncts(&self, kvid: KVid) -> usize {
        self.ids.get(&kvid).map_or(0, Vec::len)
    }

    /// The hash-consed candidate conjuncts of `kvid`.
    fn candidate_ids(&self, kvid: KVid) -> Option<&[ExprId]> {
        self.ids.get(&kvid).map(Vec::as_slice)
    }

    /// Drops the candidates whose `mask` entry is `false`.
    fn retain_mask(&mut self, kvid: KVid, mask: &[bool]) {
        let ids = self
            .ids
            .get_mut(&kvid)
            .expect("retain of an unassigned kvar");
        let mut keep = mask.iter();
        ids.retain(|_| *keep.next().expect("mask is as long as the candidates"));
    }
}

/// Why a solve degraded to [`FixResult::Unknown`] instead of reaching a
/// verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The wall-clock deadline ([`flux_smt::ResourceBudget::timeout`])
    /// expired before the weakening loop converged or a concrete obligation
    /// was decided.
    Deadline,
    /// A step budget was exhausted; the payload names the budget kind
    /// (e.g. `"weaken-iterations"`, `"solver-limits"`).
    Budget(&'static str),
    /// Checking the function panicked.  `flux-check`'s function fan-out
    /// contains the panic to that one function, whose whole result is
    /// abandoned.
    WorkerPanic {
        /// The panic payload, stringified.
        message: String,
    },
}

/// Result of solving a constraint set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FixResult {
    /// All constraints hold under the returned solution.
    Safe(Solution),
    /// Some concrete constraints failed even under the weakest consistent
    /// assignment; their tags are returned for blame.
    Unsafe {
        /// The assignment that was reached before checking concrete heads.
        solution: Solution,
        /// Tags of the failed constraints, deduplicated, in order.
        failed: Vec<Tag>,
    },
    /// The solve was cut short — by a resource budget or the deadline —
    /// before it could soundly conclude either way.  Never reported as
    /// verified: a degraded function is `Unknown`, with the structured
    /// reasons attached.
    Unknown {
        /// The (possibly non-converged) assignment reached before the solve
        /// was cut short; diagnostic only.
        solution: Solution,
        /// Every degradation that contributed, in detection order.
        reasons: Vec<UnknownReason>,
    },
}

impl FixResult {
    /// True if the result is [`FixResult::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, FixResult::Safe(_))
    }
}

/// Prepared solver inputs of one clause, memoized across weakening
/// iterations.
///
/// Everything here is a pure function of the κ assignments the clause
/// mentions (head and guards), so it stays valid — session included, with
/// its hypothesis CNF, learned clauses and simplex basis — until one of
/// those assignments is weakened, which bumps the corresponding version
/// counter and invalidates the state wholesale.
struct ClauseState {
    /// Version of the head κ at preparation time (governs `inst_ids`).
    head_version: u64,
    /// Version of each κ-guard, in clause order, at preparation time
    /// (governs the hypotheses — keys and session included).
    guard_versions: Vec<u64>,
    /// Set when a visit at these versions ended with every candidate
    /// surviving: later visits replay the recorded fast-path hit without
    /// touching the cache (the classification flags are `(xbench,
    /// cross_fn)` of the lookup that proved convergence).
    converged_hit: Option<(bool, bool)>,
    /// Hash-consed ids of the head candidates instantiated at the
    /// application's arguments; every cache key, conjunction, session query
    /// and counter-model evaluation is id-based (no tree walks).
    inst_ids: Vec<ExprId>,
    /// The clause's hypotheses under the current assignment, hash-consed.
    hyp_ids: Vec<ExprId>,
    /// Base context extended with the clause binders.
    clause_ctx: SortCtx,
    /// The cache-key parts shared by every goal of the clause.
    keys: ClauseKeys,
    /// The live solver session, opened lazily on the first cache miss and
    /// kept across iterations.
    session: Option<Session>,
}

/// Cross-version memos of one clause's preparation work, held per clause
/// for the whole weakening run (unlike [`ClauseState`], which is
/// discarded wholesale when a κ version moves).
///
/// Everything here is a pure function of inputs finer-grained than "some κ
/// version moved": concrete guards and the clause context never change,
/// candidate instantiation depends only on the candidate id, and a κ-guard's
/// instantiation depends only on that one guard's version.  Without these
/// memos a version bump on *one* κ re-interned every guard tree and
/// re-instantiated every hypothesis and surviving candidate of every clause
/// mentioning it — which profiling showed dominated the fixpoint layer's
/// time on the candidate-heavy benchmarks.
struct ClauseMemo {
    /// Interned ids of the concrete (`Guard::Pred`) guards, in clause order
    /// (`None` at κ-guard positions, or while not yet interned).
    pred_ids: Vec<Option<ExprId>>,
    /// Per guard position: the κ version whose instantiated hypothesis is
    /// cached, and the hypothesis id (`None` at `Pred` positions).
    kvar_insts: Vec<Option<(u64, ExprId)>>,
    /// Base context extended with the clause binders.
    ctx: Option<SortCtx>,
}

impl ClauseMemo {
    fn new(guards: usize) -> ClauseMemo {
        ClauseMemo {
            pred_ids: vec![None; guards],
            kvar_insts: vec![None; guards],
            ctx: None,
        }
    }
}

/// The versions of the κ-guards of `clause`, in clause order.
fn guard_versions_of(clause: &Clause, versions: &BTreeMap<KVid, u64>) -> Vec<u64> {
    clause
        .guards
        .iter()
        .filter_map(|guard| match guard {
            Guard::KVar(guard_app) => Some(versions.get(&guard_app.kvid).copied().unwrap_or(0)),
            Guard::Pred(_) => None,
        })
        .collect()
}

/// Per-clause parts of the validity-cache key, collected once per clause and
/// shared (via `Arc`) by the keys of every goal checked against it.
///
/// Keys are the raw hash-consed ids.  The checker names binders from
/// deterministic per-function and per-signature supplies
/// ([`flux_logic::NameSupply`]), so the same obligation has the same ids in
/// every run, request and process, and a cached counter-model names the
/// binders of the clause that asks for it.  The context carries each
/// binder's sort, so one name bound at two sorts in two functions keeps two
/// keys.
struct ClauseKeys {
    fns: FnCtxId,
    ctx: Arc<[(Name, Sort)]>,
    hyps: Arc<[ExprId]>,
}

impl ClauseKeys {
    fn new(fns: FnCtxId, clause_ctx: &SortCtx, hyp_ids: &[ExprId]) -> ClauseKeys {
        ClauseKeys {
            fns,
            ctx: clause_ctx.iter().collect(),
            hyps: hyp_ids.into(),
        }
    }

    fn for_goal_id(&self, goal: ExprId) -> QueryKey {
        QueryKey::new(self.fns, self.ctx.clone(), self.hyps.clone(), goal)
    }
}

/// One query's goal: a single pre-interned formula, or the conjunction of
/// several (the whole-candidate-set check of the weakening loop), keyed by
/// the id of the folded conjunction.
enum Goals<'a> {
    Single(ExprId),
    Conjunction(&'a [ExprId], ExprId),
}

impl Goals<'_> {
    fn key_id(&self) -> ExprId {
        match self {
            Goals::Single(id) => *id,
            Goals::Conjunction(_, whole) => *whole,
        }
    }
}

/// The clause-solving engine of one solve: the weakening loop and the
/// concrete-head checks, with the statistics, memos and degradations they
/// accumulate.
struct Engine<'a> {
    config: &'a FixConfig,
    stats: FixStats,
    /// Statistics of the engine's finished clause sessions.
    smt: SmtStats,
    /// The owning solver's hermetic cache (used when `global_cache` is
    /// off).
    local_cache: &'a mut VerdictMap,
    /// The owning solver's identity for cache-hit attribution.
    solver_id: u64,
    /// The owning solver's current solve epoch.
    epoch: u64,
    /// Interned function-declaration context of the current solve.
    fns: FnCtxId,
    /// Cross-clause instantiation memo: per κ application (identified by the
    /// κ and its interned actuals), the substituted form of each candidate
    /// conjunct ever instantiated at those actuals.  The same application
    /// recurs across clauses — κ-head clauses, κ-guards and the final
    /// concrete obligations all mention the κs at the same program points —
    /// and candidate substitution is by far the most expensive preparation
    /// step, so the concrete-check phase in particular runs almost entirely
    /// on hits from the weakening phase.
    inst_memo: HashMap<InstKey, HashMap<ExprId, ExprId>>,
    /// Degradations detected by this engine (budget-cut weakening loops);
    /// folded into the solve's [`FixResult::Unknown`] reasons.
    unknowns: Vec<UnknownReason>,
}

/// Identity of one κ application: the κ plus its interned actual arguments.
type InstKey = (KVid, Box<[ExprId]>);

impl<'a> Engine<'a> {
    fn new(solver: &'a mut FixpointSolver) -> Engine<'a> {
        Engine {
            config: &solver.config,
            stats: FixStats::default(),
            smt: SmtStats::default(),
            local_cache: &mut solver.local_cache,
            solver_id: solver.solver_id,
            epoch: solver.epoch,
            fns: solver.fns,
            inst_memo: HashMap::new(),
            unknowns: Vec::new(),
        }
    }

    /// Instantiates `cands` at `app`'s actuals through [`Engine::inst_memo`];
    /// misses are substituted in one batch (one table lock, one shared
    /// walk memo — sibling candidates share most of their subterms).  Each
    /// returned id equals `app.instantiate_id(decl, cand)` exactly.
    fn instantiate_at(
        &mut self,
        app: &KVarApp,
        kvars: &KVarStore,
        cands: &[ExprId],
    ) -> Vec<ExprId> {
        let decl = kvars.get(app.kvid);
        let args: Box<[ExprId]> = app.args.iter().map(ExprId::intern).collect();
        let memo = self.inst_memo.entry((app.kvid, args)).or_default();
        let missing: Vec<ExprId> = cands
            .iter()
            .copied()
            .filter(|c| !memo.contains_key(c))
            .collect();
        if !missing.is_empty() {
            let subst = app.arg_subst(decl);
            let out = ExprId::subst_many(&missing, &subst);
            for (c, id) in missing.iter().zip(out) {
                memo.insert(*c, id);
            }
        }
        cands.iter().map(|c| memo[c]).collect()
    }

    /// The clause's hypothesis ids under `solution`: interned concrete
    /// guards, and κ-guards instantiated through the cross-clause memo
    /// (folded exactly like [`Solution::of_id`], so ids line up with the
    /// weakening phase's cache keys).
    fn hypotheses_of(
        &mut self,
        clause: &Clause,
        solution: &Solution,
        kvars: &KVarStore,
    ) -> Vec<ExprId> {
        clause
            .guards
            .iter()
            .map(|guard| match guard {
                Guard::Pred(p) => ExprId::intern(p),
                Guard::KVar(app) => {
                    let cands = solution.candidate_ids(app.kvid).unwrap_or(&[]);
                    ExprId::and_all(self.instantiate_at(app, kvars, cands))
                }
            })
            .collect()
    }

    /// Runs the weakening loop over `clauses` until a fixpoint, or until the
    /// deadline or the iteration budget cuts it short (recorded in
    /// `unknowns`).
    fn weaken(
        &mut self,
        clauses: &[Clause],
        kvars: &KVarStore,
        ctx: &SortCtx,
        solution: &mut Solution,
    ) {
        // Iterative weakening.  All derived per-clause inputs — candidate
        // instantiations, hypothesis expressions, cache keys and the solver
        // session itself — are pure functions of the κ assignments the
        // clause mentions, and assignments only change when weakening
        // shrinks one.  Each κ therefore carries a version counter, and a
        // clause's prepared state (including its live session, with all the
        // CNF, learned clauses and simplex basis it has accumulated) is
        // reused verbatim across iterations until one of its κ versions
        // moves.  Before this memo the loop re-instantiated, re-interned
        // and re-assumed every clause every iteration — which, not the
        // theory work, dominated wall-clock on the slow benchmarks.
        let mut versions: BTreeMap<KVid, u64> = BTreeMap::new();
        let mut states: Vec<Option<ClauseState>> = (0..clauses.len()).map(|_| None).collect();
        let mut memos: Vec<Option<ClauseMemo>> = (0..clauses.len()).map(|_| None).collect();
        // The loop needs no safety bound: every iteration that changes
        // anything drops at least one candidate from a finite set.  A cut
        // by the iteration budget or the deadline leaves the assignment too
        // strong to trust a `Safe` verdict, so it is recorded as a
        // degradation.  Deadline checks run once per iteration — each
        // iteration amortizes the clock read over a full pass of clause
        // visits.
        let budget = self.config.smt.budget;
        let mut iterations = 0u64;
        loop {
            if budget
                .weaken_iterations
                .is_some_and(|cap| iterations >= cap)
            {
                self.unknowns
                    .push(UnknownReason::Budget("weaken-iterations"));
                break;
            }
            if budget.deadline_exceeded() {
                self.unknowns.push(UnknownReason::Deadline);
                break;
            }
            iterations += 1;
            self.stats.iterations += 1;
            let mut changed = false;
            for (ci, clause) in clauses.iter().enumerate() {
                let Head::KVar(app) = &clause.head else {
                    continue;
                };
                let head_version = versions.get(&app.kvid).copied().unwrap_or(0);
                let guard_versions = guard_versions_of(clause, &versions);
                let (stale_head, stale_guards) = match &states[ci] {
                    Some(state) => (
                        state.head_version != head_version,
                        state.guard_versions != guard_versions,
                    ),
                    None => (true, true),
                };
                if stale_head || stale_guards {
                    let memo =
                        memos[ci].get_or_insert_with(|| ClauseMemo::new(clause.guards.len()));
                    // Candidates are instantiated over the shared DAG.
                    let inst_ids: Vec<ExprId> = match solution.candidate_ids(app.kvid) {
                        Some(ids) if !ids.is_empty() => self.instantiate_at(app, kvars, ids),
                        _ => continue,
                    };
                    match (&mut states[ci], stale_guards) {
                        (Some(state), false) => {
                            // Only this clause's own candidates changed: the
                            // hypotheses — and with them the cache keys and
                            // the live session, CNF, learned clauses and
                            // simplex basis — are still exactly right.
                            state.head_version = head_version;
                            state.inst_ids = inst_ids;
                            state.converged_hit = None;
                        }
                        (slot, _) => {
                            let hyp_ids = {
                                let mut out = Vec::with_capacity(clause.guards.len());
                                for (gi, guard) in clause.guards.iter().enumerate() {
                                    out.push(match guard {
                                        Guard::Pred(p) => *memo.pred_ids[gi]
                                            .get_or_insert_with(|| ExprId::intern(p)),
                                        Guard::KVar(gapp) => {
                                            let version =
                                                versions.get(&gapp.kvid).copied().unwrap_or(0);
                                            match memo.kvar_insts[gi] {
                                                Some((v, id)) if v == version => id,
                                                _ => {
                                                    let cands = solution
                                                        .candidate_ids(gapp.kvid)
                                                        .unwrap_or(&[]);
                                                    let id = ExprId::and_all(
                                                        self.instantiate_at(gapp, kvars, cands),
                                                    );
                                                    memo.kvar_insts[gi] = Some((version, id));
                                                    id
                                                }
                                            }
                                        }
                                    });
                                }
                                out
                            };
                            let clause_ctx = memo
                                .ctx
                                .get_or_insert_with(|| clause_ctx(clause, ctx))
                                .clone();
                            let keys = ClauseKeys::new(self.fns, &clause_ctx, &hyp_ids);
                            // A weakened κ-guard changes the hypotheses by a
                            // conjunct diff: retract the stale conjuncts from
                            // the live session and keep its CDCL core,
                            // learned clauses and simplex basis, instead of
                            // rebuilding from scratch.  An update that leaves
                            // the incremental fragment closes the session; the
                            // next miss opens a fresh one.
                            let mut session = slot.take().and_then(|old| old.session);
                            if let Some(live) = &mut session {
                                if !live.update_hypotheses(&hyp_ids) {
                                    self.close(session.take());
                                }
                            }
                            *slot = Some(ClauseState {
                                head_version,
                                guard_versions,
                                converged_hit: None,
                                inst_ids,
                                hyp_ids,
                                clause_ctx,
                                keys,
                                session,
                            });
                        }
                    }
                } else if solution.num_conjuncts(app.kvid) == 0 {
                    continue;
                }
                let state = states[ci].as_mut().expect("state was just prepared");
                // A clause that already converged at these versions can't
                // weaken anything: replay the fast-path hit it recorded
                // (identical bookkeeping, zero lookups).
                if let Some((xbench, cross_fn)) = state.converged_hit {
                    self.stats.smt_queries += 1;
                    self.stats.cache_hits += 1;
                    if xbench {
                        self.stats.xbench_hits += 1;
                    } else if cross_fn {
                        self.stats.cross_fn_hits += 1;
                    }
                    continue;
                }
                // Fast path: when every candidate is already individually
                // cached as valid — the common case when the clause
                // re-enters after surviving a previous iteration — the whole
                // query is answered from the cache outright.
                let cached: Vec<Option<CacheEntry>> = state
                    .inst_ids
                    .iter()
                    .map(|g| self.cache_lookup(&state.keys.for_goal_id(*g)))
                    .collect();
                if cached
                    .iter()
                    .all(|c| matches!(c, Some(e) if e.verdict == Validity::Valid))
                {
                    self.stats.smt_queries += 1;
                    self.stats.cache_hits += 1;
                    let xbench = cached
                        .iter()
                        .all(|c| matches!(c, Some(e) if e.owner != self.solver_id));
                    let cross_fn = !xbench
                        && cached
                            .iter()
                            .all(|c| matches!(c, Some(e) if e.epoch < self.epoch));
                    if xbench {
                        self.stats.xbench_hits += 1;
                    } else if cross_fn {
                        self.stats.cross_fn_hits += 1;
                    }
                    state.converged_hit = Some((xbench, cross_fn));
                    continue;
                }
                let mut alive = vec![true; state.inst_ids.len()];
                // Houdini-style weakening: check the conjunction of the
                // surviving candidates; if it fails, evaluate every survivor
                // under the counter-model and drop all that are falsified —
                // no per-candidate SMT query — then re-check the smaller
                // conjunction.  Only when the model stops deciding anything
                // (or there is no trustworthy model) do the survivors pay
                // one query each.
                let tt = ExprId::intern(&Expr::tt());
                loop {
                    let alive_ids: Vec<ExprId> = state
                        .inst_ids
                        .iter()
                        .zip(&alive)
                        .filter(|(_, alive)| **alive)
                        .map(|(id, _)| *id)
                        .collect();
                    let whole_id = ExprId::and_all(alive_ids.iter().copied());
                    if whole_id == tt {
                        break;
                    }
                    match self.check(
                        &mut state.session,
                        &state.clause_ctx,
                        &state.keys,
                        &state.hyp_ids,
                        &Goals::Conjunction(&alive_ids, whole_id),
                    ) {
                        Validity::Valid => {
                            // `hyps ⟹ c1 ∧ … ∧ cn` entails every
                            // `hyps ⟹ ci`, so seed the per-candidate entries
                            // the next iteration (or the fast path above)
                            // will ask for.
                            for (goal, _) in state
                                .inst_ids
                                .iter()
                                .zip(&alive)
                                .filter(|(_, alive)| **alive)
                            {
                                self.cache_store(state.keys.for_goal_id(*goal), Validity::Valid);
                            }
                            break;
                        }
                        Validity::Invalid(Some(model))
                            if model.satisfies_all_ids(&state.hyp_ids) =>
                        {
                            if self.prune_by_model(&model, &state.inst_ids, &mut alive) {
                                continue;
                            }
                            self.weaken_per_candidate(state, &mut alive);
                            break;
                        }
                        _ => {
                            self.weaken_per_candidate(state, &mut alive);
                            break;
                        }
                    }
                }
                if alive.contains(&false) {
                    changed = true;
                    *versions.entry(app.kvid).or_insert(0) += 1;
                    solution.retain_mask(app.kvid, &alive);
                }
            }
            if !changed {
                break;
            }
        }
        // Fold the surviving sessions' statistics back into the engine
        // totals.
        for state in states.into_iter().flatten() {
            self.close(state.session);
        }
    }

    /// Checks one concrete-head clause under the final assignment.  Returns
    /// the clause's tag and the three-way verdict: `Valid` (obligation
    /// holds), `Invalid` (refuted with blame), `Unknown` (the solver gave up
    /// within its budgets — the solve must not report the function either
    /// verified or refuted on this clause's account).
    fn check_concrete_clause(
        &mut self,
        clause: &Clause,
        kvars: &KVarStore,
        ctx: &SortCtx,
        solution: &Solution,
    ) -> (Tag, Validity) {
        let Head::Pred(goal, tag) = &clause.head else {
            unreachable!("`partition` lists only Pred heads");
        };
        let hyp_ids = self.hypotheses_of(clause, solution, kvars);
        let clause_ctx = clause_ctx(clause, ctx);
        let keys = ClauseKeys::new(self.fns, &clause_ctx, &hyp_ids);
        let mut session = None;
        let goal_id = ExprId::intern(goal);
        let verdict = self.check(
            &mut session,
            &clause_ctx,
            &keys,
            &hyp_ids,
            &Goals::Single(goal_id),
        );
        self.close(session);
        (*tag, verdict)
    }

    /// Looks `key` up in whichever cache this solver uses (no stats).
    fn cache_lookup(&self, key: &QueryKey) -> Option<CacheEntry> {
        if self.config.global_cache {
            global_cache().lookup(key)
        } else {
            self.local_cache.get(key).cloned()
        }
    }

    /// Stores a verdict in whichever cache this solver uses, stamped with
    /// the current epoch and the owning solver's identity.
    ///
    /// `Unknown` is the one *budget-relative* verdict — a solver with
    /// larger limits might decide the same query — so it is never shared
    /// through the process-global cache, where solvers with different
    /// configurations meet; the per-solver cache has a fixed configuration,
    /// so it stores `Unknown` too.
    fn cache_store(&mut self, key: QueryKey, verdict: Validity) {
        if self.config.global_cache {
            if !matches!(verdict, Validity::Unknown) {
                global_cache().insert(key, verdict, self.epoch, self.solver_id);
            }
        } else {
            let entry = CacheEntry {
                verdict,
                epoch: self.epoch,
                owner: self.solver_id,
            };
            self.local_cache.insert(key, entry);
        }
    }

    /// Discharges one validity query through the engine: consult the cache,
    /// then the clause's session (opened lazily on the first miss).
    fn check(
        &mut self,
        session: &mut Option<Session>,
        clause_ctx: &SortCtx,
        keys: &ClauseKeys,
        hyp_ids: &[ExprId],
        goals: &Goals<'_>,
    ) -> Validity {
        self.stats.smt_queries += 1;
        let key = keys.for_goal_id(goals.key_id());
        if let Some(entry) = self.cache_lookup(&key) {
            self.stats.cache_hits += 1;
            if entry.owner != self.solver_id {
                self.stats.xbench_hits += 1;
            } else if entry.epoch < self.epoch {
                self.stats.cross_fn_hits += 1;
            }
            return entry.verdict;
        }
        self.stats.cache_misses += 1;
        if session.is_none() {
            self.stats.sessions += 1;
            *session = Some(Session::assume_ids(self.config.smt, clause_ctx, hyp_ids));
        }
        let session = session.as_mut().expect("session was just opened");
        let verdict = match goals {
            Goals::Single(id) => session.check_id(*id),
            Goals::Conjunction(ids, _) => session.check_all(ids),
        };
        self.cache_store(key, verdict.clone());
        verdict
    }

    /// Drops every surviving candidate that decidably evaluates to `false`
    /// under `model`, evaluated on the shared DAG with per-call
    /// memoization.  The caller has already confirmed that the model
    /// satisfies the clause's hypotheses, so each drop is exactly the
    /// verdict a per-candidate SMT query would have produced — minus the
    /// query.  Returns whether anything was dropped.
    fn prune_by_model(&mut self, model: &Model, insts: &[ExprId], alive: &mut [bool]) -> bool {
        let mut pruned = false;
        for (&inst, alive) in insts.iter().zip(alive.iter_mut()) {
            if *alive && model.eval_bool_id(inst) == Some(false) {
                *alive = false;
                pruned = true;
                self.stats.model_prunes += 1;
            }
        }
        pruned
    }

    /// The per-candidate weakening loop: one validity query per surviving
    /// candidate.  Counter-models produced along the way still prune
    /// *later* candidates for free (a failing candidate's counter-model
    /// frequently falsifies its neighbours too).
    fn weaken_per_candidate(&mut self, state: &mut ClauseState, alive: &mut [bool]) {
        for i in 0..state.inst_ids.len() {
            if !alive[i] {
                continue;
            }
            let verdict = self.check(
                &mut state.session,
                &state.clause_ctx,
                &state.keys,
                &state.hyp_ids,
                &Goals::Single(state.inst_ids[i]),
            );
            if verdict.is_valid() {
                continue;
            }
            // `Unknown` drops are conservative (the kept conjuncts are still
            // verified inductive) but disqualify blaming the program for any
            // later concrete failure — counted so the solve can degrade an
            // `Unsafe` that might be an over-weakening artifact to `Unknown`.
            if matches!(verdict, Validity::Unknown) {
                self.stats.unknown_drops += 1;
            }
            alive[i] = false;
            if let Validity::Invalid(Some(model)) = &verdict {
                if model.satisfies_all_ids(&state.hyp_ids) {
                    self.prune_by_model(model, &state.inst_ids[i + 1..], &mut alive[i + 1..]);
                }
            }
        }
    }

    /// Folds a finished clause session's statistics into the engine totals.
    fn close(&mut self, session: Option<Session>) {
        if let Some(session) = session {
            self.smt.absorb(*session.stats());
        }
    }
}

/// The fixpoint solver.
pub struct FixpointSolver {
    /// Configuration.
    pub config: FixConfig,
    /// Statistics of the most recent [`FixpointSolver::solve`] call.
    pub stats: FixStats,
    /// Cumulative statistics of every clause session since creation.
    smt: SmtStats,
    /// The hermetic per-solver cache, used when `config.global_cache` is
    /// off; otherwise verdicts live in [`global_cache`].
    local_cache: VerdictMap,
    /// The hermetic per-solver solve memo, used when `config.global_cache`
    /// is off; otherwise results live in the process-global memo.
    local_memo: SolveMemo,
    /// This solver's identity for cache-hit attribution.
    solver_id: u64,
    /// The global epoch of the current [`FixpointSolver::solve`] call;
    /// entries stamped with an earlier epoch were created by an earlier
    /// solve (of this solver or any other).
    epoch: u64,
    /// Interned function-declaration context of the current solve.
    fns: FnCtxId,
}

impl FixpointSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: FixConfig) -> FixpointSolver {
        FixpointSolver {
            config,
            stats: FixStats::default(),
            smt: SmtStats::default(),
            local_cache: VerdictMap::new(),
            local_memo: SolveMemo::new(),
            solver_id: next_owner(),
            epoch: 0,
            fns: intern_fn_ctx(&SortCtx::new()),
        }
    }

    /// Creates a solver with the default configuration.
    pub fn with_defaults() -> FixpointSolver {
        FixpointSolver::new(FixConfig::default())
    }

    /// Solves `constraint` under the κ declarations in `kvars`.
    ///
    /// `ctx` provides sorts for any free names not bound inside the
    /// constraint itself (and declarations of uninterpreted functions).
    ///
    /// A solve whose key is in the solve memo (see the module docs) returns
    /// the stored result.  Otherwise the qualifier templates are tried in
    /// two stages: first those of at most two parameters, then, unless that
    /// stage was Safe, every template.  Each stage runs every check of a
    /// solve (audit lints, weakening, concrete heads, re-validation); one
    /// deadline covers both.  A result that no `Unknown` verdict touched is
    /// then stored in the memo.
    pub fn solve(
        &mut self,
        constraint: &Constraint,
        kvars: &KVarStore,
        ctx: &SortCtx,
    ) -> FixResult {
        // The solve's shared-cache events are this thread's.
        let tally = flux_logic::thread_tally();
        // The interned function-declaration context goes into every key,
        // the memo's and the validity cache's, so results never leak
        // between incompatible interpretation contexts.
        self.fns = intern_fn_ctx(ctx);
        let key = SolveKey::new(constraint, kvars, ctx, self.fns, &self.config);
        self.stats = FixStats {
            clauses: key.clauses(),
            kvars: kvars.len(),
            ..FixStats::default()
        };
        if let Some(stored) = self.with_memo(|memo| memo.get(&key).cloned()) {
            self.stats.replays = 1;
            self.add_tally(tally);
            if self.config.smt.audit.certifies() {
                self.audit_replay(constraint, kvars, ctx, &stored);
            }
            return stored;
        }

        let clauses = constraint.flatten();

        // Verdicts survive across solve calls — and, through the global
        // cache, across solvers and benchmarks.  The epoch stamp attributes
        // each later hit to the solve that created the entry.
        self.epoch = next_epoch();
        // Per-solve deadline: re-stamped from the relative timeout on every
        // call, so a solver reused across functions gives each solve its
        // full allowance, shared by both qualifier stages.  Sessions and
        // sub-solvers copy the stamped budget at construction (their own
        // `stamp` calls are then no-ops).
        self.config.smt.budget.deadline = None;
        self.config.smt.budget.stamp();
        let concrete = partition(&clauses, kvars);

        // Stage 1: the templates of at most two parameters.  Weakening keeps
        // the greatest inductive subset of its seed, and that subset grows
        // with the seed, so a Safe here is a Safe of the full set.
        let small = Solution::seed(
            kvars,
            self.config
                .qualifiers
                .iter()
                .filter(|q| q.params.len() <= STAGE_ONE_PARAMS),
        );
        let small_candidates = small.candidates();
        let (mut result, mut clean) = self.solve_stage(&clauses, &concrete, kvars, ctx, small);
        let escalate = !result.is_safe();
        // A full seed with no instance stage 1 lacked (every κ has fewer
        // than three int arguments) would repeat stage 1: skip it.
        let mut full = (escalate || self.config.smt.audit.certifies())
            .then(|| Solution::seed(kvars, self.config.qualifiers.iter()))
            .filter(|full| full.candidates() > small_candidates);
        if escalate {
            if let Some(full) = full.take() {
                self.stats.escalations += 1;
                let (stage_two, stage_two_clean) =
                    self.solve_stage(&clauses, &concrete, kvars, ctx, full);
                result = stage_two;
                clean &= stage_two_clean;
            }
        }
        self.add_tally(tally);
        // Only a stage-1 Safe under audit tier `full` leaves a seed here.
        if let Some(full) = full {
            self.cross_check(&clauses, &concrete, kvars, ctx, full);
        }
        // Stored only now that the result is final: a solve that panicked
        // above leaves no entry.
        if clean {
            self.with_memo(|memo| memo.insert(key, result.clone()));
        }
        result
    }

    /// Runs `f` on whichever solve memo this solver uses.
    fn with_memo<R>(&mut self, f: impl FnOnce(&mut SolveMemo) -> R) -> R {
        if self.config.global_cache {
            f(&mut lock_recover(global_memo()))
        } else {
            f(&mut self.local_memo)
        }
    }

    /// Adds this thread's shared-cache events since `tally` to the stats.
    fn add_tally(&mut self, tally: flux_logic::ThreadTally) {
        let tally = flux_logic::thread_tally().since(tally);
        self.stats.hcons_contentions += tally.hcons_contentions;
        self.stats.cnf_contentions += tally.cnf_contentions;
        self.stats.validity_contentions += tally.validity_contentions;
    }

    /// One qualifier stage of [`FixpointSolver::solve`], from the seed
    /// `solution`: audit lints, weakening, the concrete heads and, on a
    /// Safe result, re-validation.  Its statistics add to `self.stats`, but
    /// only its own `Unknown` drops decide whether a failure is blamed.
    /// The flag is true when the stage was clean: it recorded no
    /// [`UnknownReason`] and dropped no candidate on an `Unknown`.
    fn solve_stage(
        &mut self,
        clauses: &[Clause],
        concrete: &[usize],
        kvars: &KVarStore,
        ctx: &SortCtx,
        mut solution: Solution,
    ) -> (FixResult, bool) {
        self.stats.initial_candidates += solution.candidates();

        // Audit lint: reject ill-sorted or ill-scoped constraint systems
        // before the weakening loop can silently mis-solve them (the PR 2
        // bug class).  An audit failure is an engine/front-end bug, not a
        // property of the verified program, hence the panic.
        if self.config.smt.audit.lints() {
            let checks = crate::audit::lint_clauses(clauses, kvars, ctx)
                .and_then(|n| Ok(n + crate::audit::lint_solution(&solution, kvars, ctx)?))
                .unwrap_or_else(|e| panic!("FLUX_AUDIT: {e}"));
            self.stats.lint_checks += checks;
        }

        let mut engine = Engine::new(self);
        engine.weaken(clauses, kvars, ctx, &mut solution);
        // The concrete heads' hypotheses are unchanged since the last
        // weakening iteration, so on κ-free-or-converged systems these
        // queries hit the cache.
        let checks: Vec<(Tag, Validity)> = concrete
            .iter()
            .map(|&ci| engine.check_concrete_clause(&clauses[ci], kvars, ctx, &solution))
            .collect();
        let (stats, smt_stats, mut reasons) = (engine.stats, engine.smt, engine.unknowns);
        self.stats.absorb(stats);
        self.smt.absorb(smt_stats);

        // Assemble the blamed tags in clause order, deduplicated — the same
        // order the historical sequential pass produced.  Concrete heads the
        // solver could not decide (`Unknown`) are degradations, not
        // failures: blaming the program for them would flip polarity.
        let mut failed = Vec::new();
        let mut failed_tags: HashSet<Tag> = HashSet::new();
        let mut undecided_heads = false;
        for (tag, verdict) in checks {
            match verdict {
                Validity::Valid => {}
                Validity::Invalid(_) => {
                    if failed_tags.insert(tag) {
                        failed.push(tag);
                    }
                }
                Validity::Unknown => undecided_heads = true,
            }
        }
        if undecided_heads {
            reasons.push(if self.config.smt.budget.deadline_exceeded() {
                UnknownReason::Deadline
            } else {
                UnknownReason::Budget("concrete-head")
            });
        }
        let clean = reasons.is_empty() && stats.unknown_drops == 0;
        if !failed.is_empty() {
            if stats.unknown_drops > 0 {
                // A candidate dropped on an `Unknown` verdict may have
                // over-weakened the assignment, and these failures could be
                // artifacts of that — the program cannot be blamed.
                reasons.push(UnknownReason::Budget("weakened-on-unknown"));
                return (FixResult::Unknown { solution, reasons }, false);
            }
            // Genuine even when weakening was cut short: a non-converged
            // assignment only *strengthens* the hypotheses, so any
            // counterexample found under it also refutes the implication
            // under the converged (weaker) assignment.
            return (FixResult::Unsafe { solution, failed }, clean);
        }
        if !reasons.is_empty() {
            return (FixResult::Unknown { solution, reasons }, false);
        }
        if self.config.smt.audit.certifies() {
            self.revalidate(clauses, kvars, ctx, &solution);
        }
        (FixResult::Safe(solution), clean)
    }

    /// Audit cross-check of the staging argument (tier `full`): re-solves a
    /// system that stage 1 proved Safe from the `full` seed, on a throwaway
    /// solver with a hermetic cache, so neither the reported result nor any
    /// counter of this solver sees the work.  The full set refuting what
    /// stage 1 proved means the engine broke monotonicity, hence the panic.
    /// `Unknown` (the re-solve cut short by the solve's budgets, or an
    /// undecided query) proves nothing either way and is tolerated, as in
    /// [`FixpointSolver::revalidate`].
    fn cross_check(
        &self,
        clauses: &[Clause],
        concrete: &[usize],
        kvars: &KVarStore,
        ctx: &SortCtx,
        full: Solution,
    ) {
        let mut audit = FixpointSolver::new(FixConfig {
            global_cache: false,
            ..self.config.clone()
        });
        audit.fns = self.fns;
        if let (FixResult::Unsafe { failed, .. }, _) =
            audit.solve_stage(clauses, concrete, kvars, ctx, full)
        {
            panic!(
                "FLUX_AUDIT: the qualifier templates of at most {STAGE_ONE_PARAMS} \
                 parameters proved a system that the full template set refutes \
                 (tags {failed:?})"
            );
        }
    }

    /// Audit cross-check of a replay (tier `full`): re-solves the system on
    /// a throwaway solver with its own validity cache and memo, and panics
    /// unless it reaches the stored result — verdict, solution and blamed
    /// tags.  Weakening is confluent, so a clean result is a function of
    /// the memo key; a difference means the key misses an input the result
    /// depends on.  An `Unknown` re-solve proves nothing either way and is
    /// tolerated, as in [`FixpointSolver::revalidate`].
    fn audit_replay(
        &self,
        constraint: &Constraint,
        kvars: &KVarStore,
        ctx: &SortCtx,
        stored: &FixResult,
    ) {
        let mut audit = FixpointSolver::new(FixConfig {
            global_cache: false,
            ..self.config.clone()
        });
        let fresh = audit.solve(constraint, kvars, ctx);
        if !matches!(fresh, FixResult::Unknown { .. }) && fresh != *stored {
            panic!(
                "FLUX_AUDIT: a replayed solve result differs from a fresh solve \
                 of the same system (replayed {stored:?}, fresh {fresh:?})"
            );
        }
    }

    /// Independent re-validation of a converged solution (audit tier
    /// `full`): substitutes the final assignment into every flattened clause
    /// and rechecks each implication with a *fresh* one-shot [`Solver`] —
    /// no sessions, no validity cache, no learned lemmas, and auditing
    /// disabled on the inner solver so the check is plain and terminal.  A
    /// clause the weakening loop claims satisfied but the one-shot solver
    /// can refute is an engine bug, so refutation panics; `Unknown` (the
    /// inner solver giving up within its budgets) is tolerated.
    fn revalidate(
        &mut self,
        clauses: &[Clause],
        kvars: &KVarStore,
        ctx: &SortCtx,
        solution: &Solution,
    ) {
        let mut smt = Solver::new(SmtConfig {
            audit: flux_logic::AuditTier::Off,
            ..self.config.smt
        });
        for (ci, clause) in clauses.iter().enumerate() {
            if let Validity::Invalid(_) = check_substituted(&mut smt, clause, kvars, ctx, solution)
            {
                let blame = match &clause.head {
                    Head::Pred(_, tag) => format!("tag {tag}"),
                    Head::KVar(app) => app.kvid.to_string(),
                };
                panic!(
                    "FLUX_AUDIT: converged solution fails independent re-validation \
                     of clause #{ci} ({blame}): the one-shot solver refutes an \
                     implication the weakening loop accepted"
                );
            }
            self.stats.revalidations += 1;
        }
    }

    /// Cumulative statistics of the underlying SMT engine (every clause
    /// session) since creation; exposed for benchmarking and for the
    /// end-to-end reporting in `flux-check`.
    pub fn smt_stats(&self) -> SmtStats {
        self.smt
    }
}

/// The concrete-head clause indices of `clauses`, ascending: the
/// obligations checked once against the converged assignment.  `kvars` is
/// unused; the benchmark harness still passes it, and the parameter goes at
/// the next change to the benchmark.
pub fn partition(clauses: &[Clause], _kvars: &KVarStore) -> Vec<usize> {
    (0..clauses.len())
        .filter(|&ci| clauses[ci].is_concrete())
        .collect()
}

/// Checks `clause` with `solution` substituted for its κ applications, as
/// one plain implication handed to `smt` — nothing shared with the
/// weakening loop's sessions or caches.
fn check_substituted(
    smt: &mut Solver,
    clause: &Clause,
    kvars: &KVarStore,
    ctx: &SortCtx,
    solution: &Solution,
) -> Validity {
    let hyps: Vec<Expr> = clause
        .guards
        .iter()
        .map(|g| match g {
            Guard::Pred(p) => p.clone(),
            Guard::KVar(app) => solution.apply(app, kvars),
        })
        .collect();
    let goal = match &clause.head {
        Head::Pred(p, _) => p.clone(),
        Head::KVar(app) => solution.apply(app, kvars),
    };
    smt.check_valid_imp(&clause_ctx(clause, ctx), &hyps, &goal)
}

fn clause_ctx(clause: &Clause, ctx: &SortCtx) -> SortCtx {
    let mut out = ctx.clone();
    for (name, sort) in &clause.binders {
        out.push(*name, *sort);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_logic::{Name, Sort};

    /// Builds the constraint system from §4.2 of the paper (the `ref_join`
    /// example):
    ///
    /// ```text
    /// a:bool   ⟹ (a  ⟹ κ1(1))
    ///          ∧ (¬a ⟹ κ2(2))
    ///          ∧ ∀v. κ1(v) ⟹ κ(v)   ∧ κ(v) ⟹ κ1(v)
    ///          ∧ ∀v. κ2(v) ⟹ κ(v)   ∧ κ(v) ⟹ κ2(v)
    ///          ∧ ∀v. κ(v) ⟹ v ≥ 0          -- the nat postcondition
    /// ```
    #[test]
    fn ref_join_constraints_are_safe() {
        let mut kvars = KVarStore::new();
        let k1 = kvars.fresh(vec![Sort::Int]);
        let k2 = kvars.fresh(vec![Sort::Int]);
        let k = kvars.fresh(vec![Sort::Int]);
        let a = Name::intern("a");
        let val = Name::intern("v");

        let c = Constraint::forall(
            a,
            Sort::Bool,
            Expr::tt(),
            Constraint::conj(vec![
                Constraint::implies(
                    Guard::Pred(Expr::Var(a)),
                    Constraint::kvar(KVarApp::new(k1, vec![Expr::int(1)])),
                ),
                Constraint::implies(
                    Guard::Pred(Expr::not(Expr::Var(a))),
                    Constraint::kvar(KVarApp::new(k2, vec![Expr::int(2)])),
                ),
                Constraint::forall(
                    val,
                    Sort::Int,
                    Expr::tt(),
                    Constraint::conj(vec![
                        Constraint::implies(
                            Guard::KVar(KVarApp::new(k1, vec![Expr::Var(val)])),
                            Constraint::kvar(KVarApp::new(k, vec![Expr::Var(val)])),
                        ),
                        Constraint::implies(
                            Guard::KVar(KVarApp::new(k2, vec![Expr::Var(val)])),
                            Constraint::kvar(KVarApp::new(k, vec![Expr::Var(val)])),
                        ),
                        Constraint::implies(
                            Guard::KVar(KVarApp::new(k, vec![Expr::Var(val)])),
                            Constraint::pred(Expr::ge(Expr::Var(val), Expr::int(0)), 0),
                        ),
                    ]),
                ),
            ]),
        );

        let mut solver = FixpointSolver::with_defaults();
        let result = solver.solve(&c, &kvars, &SortCtx::new());
        match result {
            FixResult::Safe(solution) => {
                // κ must be at least as strong as ν ≥ 0.
                assert!(solution.num_conjuncts(k) >= 1);
            }
            FixResult::Unsafe { failed, .. } => panic!("expected safe, failed tags {failed:?}"),
            FixResult::Unknown { reasons, .. } => panic!("expected safe, degraded: {reasons:?}"),
        }
        assert!(solver.stats.iterations >= 1);
        assert!(solver.stats.smt_queries > 0);
    }

    /// Builds the loop-counter system used by several tests below:
    /// i starts at 0, is incremented while i < n, and after the loop i must
    /// equal n.
    ///
    /// ```text
    /// ∀n. n ≥ 0 ⟹
    ///   κ(0, n)                                   -- entry
    ///   ∧ ∀i. κ(i, n) ∧ i < n ⟹ κ(i+1, n)         -- preservation
    ///   ∧ ∀i. κ(i, n) ∧ ¬(i < n) ⟹ i = n          -- exit goal
    /// ```
    fn loop_counter_system() -> (Constraint, KVarStore) {
        let mut kvars = KVarStore::new();
        let k = kvars.fresh(vec![Sort::Int, Sort::Int]);
        let n = Name::intern("n");
        let i = Name::intern("i");

        let c = Constraint::forall(
            n,
            Sort::Int,
            Expr::ge(Expr::Var(n), Expr::int(0)),
            Constraint::conj(vec![
                Constraint::kvar(KVarApp::new(k, vec![Expr::int(0), Expr::Var(n)])),
                Constraint::forall(
                    i,
                    Sort::Int,
                    Expr::tt(),
                    Constraint::conj(vec![
                        Constraint::implies(
                            Guard::KVar(KVarApp::new(k, vec![Expr::Var(i), Expr::Var(n)])),
                            Constraint::implies(
                                Guard::Pred(Expr::lt(Expr::Var(i), Expr::Var(n))),
                                Constraint::kvar(KVarApp::new(
                                    k,
                                    vec![Expr::Var(i) + Expr::int(1), Expr::Var(n)],
                                )),
                            ),
                        ),
                        Constraint::implies(
                            Guard::KVar(KVarApp::new(k, vec![Expr::Var(i), Expr::Var(n)])),
                            Constraint::implies(
                                Guard::Pred(Expr::not(Expr::lt(Expr::Var(i), Expr::Var(n)))),
                                Constraint::pred(Expr::eq(Expr::Var(i), Expr::Var(n)), 42),
                            ),
                        ),
                    ]),
                ),
            ]),
        );
        (c, kvars)
    }

    fn hermetic() -> FixConfig {
        FixConfig {
            global_cache: false,
            ..FixConfig::default()
        }
    }

    /// A loop-invariant inference scenario over the counting-loop system.
    #[test]
    fn loop_counter_invariant_is_inferred() {
        let (c, kvars) = loop_counter_system();
        let mut solver = FixpointSolver::with_defaults();
        let result = solver.solve(&c, &kvars, &SortCtx::new());
        assert!(
            result.is_safe(),
            "expected the invariant i <= n to be inferred"
        );
    }

    /// True when every κ-head clause of `clauses` is valid under `solution`,
    /// checked clause by clause with a fresh one-shot [`Solver`] — no
    /// session, no cache, nothing shared with the weakening loop.
    fn kvar_heads_hold(clauses: &[Clause], kvars: &KVarStore, solution: &Solution) -> bool {
        let mut smt = Solver::with_defaults();
        clauses
            .iter()
            .filter(|clause| !clause.is_concrete())
            .all(|clause| {
                check_substituted(&mut smt, clause, kvars, &SortCtx::new(), solution).is_valid()
            })
    }

    /// A two-counter loop over one κ of arity 3: `i` counts up from 0 while
    /// `j` counts down from `n`, and `goal(i, j, n)` must hold inside the
    /// loop.
    ///
    /// ```text
    /// ∀n. n ≥ 0 ⟹
    ///   κ(0, n, n)                                          -- entry
    ///   ∧ ∀i j. κ(i, j, n) ∧ i < n ⟹ κ(i+1, j−1, n) ∧ goal  -- body
    /// ```
    fn two_counter_system(goal: impl Fn(Expr, Expr, Expr) -> Expr) -> (Constraint, KVarStore) {
        let mut kvars = KVarStore::new();
        let k = kvars.fresh(vec![Sort::Int, Sort::Int, Sort::Int]);
        let (n, i, j) = (Name::intern("n"), Name::intern("i"), Name::intern("j"));
        let (nv, iv, jv) = (Expr::Var(n), Expr::Var(i), Expr::Var(j));
        let c = Constraint::forall(
            n,
            Sort::Int,
            Expr::ge(nv.clone(), Expr::int(0)),
            Constraint::conj(vec![
                Constraint::kvar(KVarApp::new(k, vec![Expr::int(0), nv.clone(), nv.clone()])),
                Constraint::forall(
                    i,
                    Sort::Int,
                    Expr::tt(),
                    Constraint::forall(
                        j,
                        Sort::Int,
                        Expr::tt(),
                        Constraint::implies(
                            Guard::KVar(KVarApp::new(k, vec![iv.clone(), jv.clone(), nv.clone()])),
                            Constraint::implies(
                                Guard::Pred(Expr::lt(iv.clone(), nv.clone())),
                                Constraint::conj(vec![
                                    Constraint::kvar(KVarApp::new(
                                        k,
                                        vec![
                                            iv.clone() + Expr::int(1),
                                            jv.clone() - Expr::int(1),
                                            nv.clone(),
                                        ],
                                    )),
                                    Constraint::pred(goal(iv, jv, nv), 9),
                                ]),
                            ),
                        ),
                    ),
                ),
            ]),
        );
        (c, kvars)
    }

    /// The converged solution, checked against independent oracles rather
    /// than against another engine: it is inductive (every κ-head clause is
    /// valid under a fresh one-shot solver) and maximal with respect to the
    /// templates of the stage that returned it (re-adding any dropped
    /// candidate breaks some κ-head clause — Houdini's greatest-fixpoint
    /// property).  The run must also prune by counter-model and account for
    /// every query.  The arity-2 κ has no three-parameter instance, so only
    /// the arity-3 systems have two stages that differ: one is proved by
    /// stage 1, and one needs `ν = A − B` (`i = n − j`) and escalates.
    #[test]
    fn converged_solution_is_inductive_and_maximal() {
        let systems = [
            (loop_counter_system(), 0),
            (
                two_counter_system(|i, _, n| Expr::le(i + Expr::int(1), n)),
                0,
            ),
            (
                two_counter_system(|_, j, _| Expr::ge(j - Expr::int(1), Expr::int(0))),
                1,
            ),
        ];
        for ((c, kvars), escalations) in systems {
            // Hermetic cache: the statistics below must not depend on what
            // other tests have already proved.
            let mut solver = FixpointSolver::new(hermetic());
            let FixResult::Safe(solution) = solver.solve(&c, &kvars, &SortCtx::new()) else {
                panic!("the system is safe");
            };
            assert_eq!(solver.stats.escalations, escalations);
            let clauses = c.flatten();
            assert!(kvar_heads_hold(&clauses, &kvars, &solution));

            let mut dropped = 0;
            for decl in kvars.iter() {
                let kept: HashSet<ExprId> = solution
                    .candidate_ids(decl.id)
                    .unwrap()
                    .iter()
                    .copied()
                    .collect();
                let mut seen = HashSet::new();
                for candidate in solver
                    .config
                    .qualifiers
                    .iter()
                    .filter(|q| escalations > 0 || q.params.len() <= STAGE_ONE_PARAMS)
                    .flat_map(|q| q.instantiate(decl))
                {
                    let id = ExprId::intern(&candidate);
                    if kept.contains(&id) || !seen.insert(id) {
                        continue;
                    }
                    dropped += 1;
                    let mut stronger = solution.clone();
                    stronger.ids.get_mut(&decl.id).unwrap().push(id);
                    assert!(
                        !kvar_heads_hold(&clauses, &kvars, &stronger),
                        "dropped candidate {candidate} of {} keeps the solution inductive",
                        decl.id
                    );
                }
            }
            assert!(dropped > 0, "weakening dropped nothing");

            let stats = solver.stats;
            assert!(
                stats.model_prunes > 0,
                "weakening this system must prune at least one candidate by \
                 counter-model evaluation, stats: {stats:?}"
            );
            assert_eq!(stats.cache_hits + stats.cache_misses, stats.smt_queries);
            // Sessions only open on cache misses, at most one per clause visit.
            assert!(stats.sessions > 0);
            assert!(stats.sessions <= stats.cache_misses);
        }
    }

    /// A 120-link κ-chain whose link clauses flatten in reverse chain
    /// order, so each weakening iteration can weaken only the next link:
    ///
    /// ```text
    /// ∀x. κ119(x) ⟹ κ120(x) ∧ … ∧ κ1(x) ⟹ κ2(x) ∧ κ1(x) ∧ (κ120(x) ⟹ x ≥ 0)
    /// ```
    ///
    /// `x` is unconstrained, so κ1 loses `x ≥ 0` and every later link
    /// follows, one per iteration: the converged κ120 cannot prove the
    /// obligation.  A weakening loop stopped after a fixed number of
    /// iterations would leave κ120 too strong and report the system safe.
    #[test]
    fn long_kvar_chain_weakens_to_its_end() {
        const LINKS: usize = 120;
        let mut kvars = KVarStore::new();
        let ks: Vec<KVid> = (0..LINKS).map(|_| kvars.fresh(vec![Sort::Int])).collect();
        let x = Name::intern("chain_x");
        let app = |k: KVid| KVarApp::new(k, vec![Expr::Var(x)]);
        let mut clauses: Vec<Constraint> = (1..LINKS)
            .rev()
            .map(|i| Constraint::implies(Guard::KVar(app(ks[i - 1])), Constraint::kvar(app(ks[i]))))
            .collect();
        clauses.push(Constraint::kvar(app(ks[0])));
        clauses.push(Constraint::implies(
            Guard::KVar(app(ks[LINKS - 1])),
            Constraint::pred(Expr::ge(Expr::Var(x), Expr::int(0)), 5),
        ));
        let c = Constraint::forall(x, Sort::Int, Expr::tt(), Constraint::conj(clauses));
        let mut solver = FixpointSolver::new(hermetic());
        match solver.solve(&c, &kvars, &SortCtx::new()) {
            FixResult::Unsafe { failed, .. } => assert_eq!(failed, vec![5]),
            FixResult::Safe(_) => panic!("a too-strong κ{LINKS} verified an unsafe system"),
            FixResult::Unknown { reasons, .. } => {
                panic!("degraded under unlimited budgets: {reasons:?}")
            }
        }
        assert!(
            solver.stats.iterations > LINKS,
            "{} iterations cannot weaken {LINKS} links one by one",
            solver.stats.iterations
        );
    }

    /// Cached results must equal recomputed results: solving the same
    /// system again with the same solver and with a fresh solver (both
    /// replay the first result from the solve memo) and with a hermetic
    /// solver (which recomputes every verdict) must agree everywhere.
    #[test]
    fn cached_verdicts_equal_recomputed_verdicts() {
        let (c, kvars) = loop_counter_system();
        let mut solver = FixpointSolver::with_defaults();
        let first = solver.solve(&c, &kvars, &SortCtx::new());
        let second = solver.solve(&c, &kvars, &SortCtx::new());
        assert_eq!(first, second);

        let mut fresh = FixpointSolver::with_defaults();
        assert_eq!(fresh.solve(&c, &kvars, &SortCtx::new()), first);

        let mut recomputed = FixpointSolver::new(hermetic());
        assert_eq!(recomputed.solve(&c, &kvars, &SortCtx::new()), first);
        assert_eq!(recomputed.stats.replays, 0);
    }

    /// The process-global cache must replay verdicts across solver
    /// *instances* — the cross-benchmark sharing — and attribute those hits
    /// to `xbench_hits`.  A fresh solver re-solving the very same system
    /// replays the whole result from the solve memo instead; one more
    /// concrete clause changes the memo key, so that system runs the
    /// weakening loop again and the validity cache answers the queries it
    /// shares with the first.  The systems use names no other test touches
    /// so the first solver's misses are genuinely cold.
    #[test]
    fn global_cache_shares_verdicts_across_solver_instances() {
        let mut kvars = KVarStore::new();
        let k = kvars.fresh(vec![Sort::Int]);
        let x = Name::intern("xbench_x");
        let system = |extra: Option<Constraint>| {
            let mut clauses = vec![
                Constraint::kvar(KVarApp::new(k, vec![Expr::Var(x)])),
                Constraint::implies(
                    Guard::KVar(KVarApp::new(k, vec![Expr::Var(x)])),
                    Constraint::pred(Expr::gt(Expr::Var(x), Expr::int(0)), 0),
                ),
            ];
            clauses.extend(extra);
            Constraint::forall(
                x,
                Sort::Int,
                Expr::ge(Expr::Var(x), Expr::int(3)),
                Constraint::conj(clauses),
            )
        };
        let c = system(None);

        let mut first = FixpointSolver::with_defaults();
        let first_result = first.solve(&c, &kvars, &SortCtx::new());
        assert!(first_result.is_safe());
        assert_eq!(first.stats.replays, 0);

        let mut second = FixpointSolver::with_defaults();
        let second_result = second.solve(&c, &kvars, &SortCtx::new());
        assert_eq!(first_result, second_result);
        let s = second.stats;
        assert_eq!(
            (s.replays, s.smt_queries, s.cache_misses, s.sessions),
            (1, 0, 0, 0),
            "a fresh solver re-solving the same system must replay it, stats: {s:?}"
        );

        let wider = system(Some(Constraint::pred(
            Expr::ge(Expr::Var(x) + Expr::Var(x), Expr::int(6)),
            1,
        )));
        let mut third = FixpointSolver::with_defaults();
        assert!(third.solve(&wider, &kvars, &SortCtx::new()).is_safe());
        assert_eq!(third.stats.replays, 0);
        assert!(
            third.stats.xbench_hits > 0,
            "a fresh solver proving an overlapping system must replay verdicts \
             from the global cache, stats: {:?}",
            third.stats
        );

        // A hermetic solver must not see any of it.
        let mut isolated = FixpointSolver::new(FixConfig {
            global_cache: false,
            ..FixConfig::default()
        });
        let isolated_result = isolated.solve(&c, &kvars, &SortCtx::new());
        assert_eq!(isolated_result, second_result);
        assert_eq!(isolated.stats.replays, 0);
        assert_eq!(isolated.stats.xbench_hits, 0);
        assert!(isolated.stats.cache_misses > 0);
    }

    /// An unsatisfiable system must blame the right constraint.
    #[test]
    fn failing_constraint_is_blamed_by_tag() {
        let mut kvars = KVarStore::new();
        let k = kvars.fresh(vec![Sort::Int]);
        let x = Name::intern("x");
        let c = Constraint::forall(
            x,
            Sort::Int,
            Expr::tt(),
            Constraint::conj(vec![
                // κ must include every x (so it weakens to true)...
                Constraint::kvar(KVarApp::new(k, vec![Expr::Var(x)])),
                // ...but then x ≥ 0 cannot be proven.  Tag 7 must be blamed.
                Constraint::implies(
                    Guard::KVar(KVarApp::new(k, vec![Expr::Var(x)])),
                    Constraint::pred(Expr::ge(Expr::Var(x), Expr::int(0)), 7),
                ),
                // An unrelated valid obligation with a different tag.
                Constraint::pred(Expr::ge(Expr::Var(x) + Expr::int(1), Expr::Var(x)), 8),
            ]),
        );
        let mut solver = FixpointSolver::with_defaults();
        match solver.solve(&c, &kvars, &SortCtx::new()) {
            FixResult::Unsafe { failed, .. } => assert_eq!(failed, vec![7]),
            other => panic!("expected unsafe, got {other:?}"),
        }
        // κ has one argument: the full template set seeds nothing new, so
        // the second stage is skipped.
        assert_eq!(solver.stats.escalations, 0);
    }

    /// Constraints with no κ variables degenerate to plain validity checks.
    #[test]
    fn concrete_only_constraints() {
        let kvars = KVarStore::new();
        let x = Name::intern("x");
        let ok = Constraint::forall(
            x,
            Sort::Int,
            Expr::ge(Expr::Var(x), Expr::int(1)),
            Constraint::pred(Expr::gt(Expr::Var(x), Expr::int(0)), 0),
        );
        let mut solver = FixpointSolver::with_defaults();
        assert!(solver.solve(&ok, &kvars, &SortCtx::new()).is_safe());

        let bad = Constraint::forall(
            x,
            Sort::Int,
            Expr::ge(Expr::Var(x), Expr::int(0)),
            Constraint::pred(Expr::gt(Expr::Var(x), Expr::int(0)), 3),
        );
        assert!(!solver.solve(&bad, &kvars, &SortCtx::new()).is_safe());
    }

    /// The solution returned for the make_vec example from §4.3: the κ for
    /// the element type must entail ν > 0 given only the pushed value 42.
    #[test]
    fn polymorphic_instantiation_example() {
        let mut kvars = KVarStore::new();
        let k1 = kvars.fresh(vec![Sort::Int]);
        let k2 = kvars.fresh(vec![Sort::Int]);
        let nu = Name::intern("nu");
        let c = Constraint::forall(
            nu,
            Sort::Int,
            Expr::tt(),
            Constraint::conj(vec![
                // κ1(ν) ⟹ κ2(ν)
                Constraint::implies(
                    Guard::KVar(KVarApp::new(k1, vec![Expr::Var(nu)])),
                    Constraint::kvar(KVarApp::new(k2, vec![Expr::Var(nu)])),
                ),
                // ν = 42 ⟹ κ2(ν)
                Constraint::implies(
                    Guard::Pred(Expr::eq(Expr::Var(nu), Expr::int(42))),
                    Constraint::kvar(KVarApp::new(k2, vec![Expr::Var(nu)])),
                ),
                // κ2(ν) ⟹ ν > 0
                Constraint::implies(
                    Guard::KVar(KVarApp::new(k2, vec![Expr::Var(nu)])),
                    Constraint::pred(Expr::gt(Expr::Var(nu), Expr::int(0)), 0),
                ),
            ]),
        );
        let mut solver = FixpointSolver::with_defaults();
        assert!(solver.solve(&c, &kvars, &SortCtx::new()).is_safe());
    }
}
