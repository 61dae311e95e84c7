//! Incremental solver sessions.
//!
//! The liquid-inference weakening loop asks the same question shape over and
//! over: *given this clause's hypotheses, is candidate conjunct q implied?*
//! The hypotheses stay fixed while the goal varies, yet one-shot
//! [`crate::Solver::check_valid_imp`] rebuilds the entire pipeline —
//! simplification, preprocessing, Tseitin CNF conversion, a fresh SAT solver
//! and simplex — for every goal.
//!
//! A [`Session`] splits the pipeline at the hypothesis/goal boundary and
//! shares work at two levels:
//!
//! * **Across sessions** (process-global): hypothesis conjunctions are built
//!   from a small vocabulary of conjuncts — qualifier instantiations and
//!   guard predicates — that recur in clause after clause, iteration after
//!   iteration.  [`Session::assume`] therefore preprocesses and
//!   CNF-converts each *conjunct* separately through the global
//!   [`CnfCache`]: one atom table plus memo tables keyed on hash-consed
//!   [`ExprId`]s, so a conjunct (or a repeated goal) is simplified,
//!   normalised and Tseitin-encoded once per process and every later
//!   session gets its clauses back as an `Arc` clone.
//! * **Across goals** (per-session): [`Session::check`] pushes the
//!   (negated) goal's clauses into the session's **persistent CDCL core**
//!   behind a fresh activation literal and solves under the assumption that
//!   the literal holds.  The core keeps its clause database — the
//!   hypothesis CNF, every SAT-learned clause, and every theory lemma
//!   contributed by simplex conflicts — across goal checks, so each new
//!   goal starts from all the propositional and arithmetic reasoning its
//!   predecessors already paid for.  After a check the activation literal
//!   is permanently negated, which retires that goal's clauses without
//!   invalidating anything learned from them (learned clauses are
//!   resolvents of the guarded database and hence remain valid once the
//!   guard is fixed false).
//!
//! Splitting is only sound for the quantifier-free, application-free
//! fragment (quantifier instantiation and Ackermann expansion both need the
//! whole formula).  Flux's verification conditions live entirely in that
//! fragment — that is the point of the paper; anything outside it falls back
//! to the one-shot pipeline per goal, so a session always returns the same
//! verdicts as one-shot solving.

use crate::atoms::{Atom, AtomId, AtomMap, AtomTable, Lit};
use crate::audit;
use crate::cnf::tseitin_literal;
use crate::preprocess::{eliminate_div_mod, eliminate_ite, normalize_comparisons};
use crate::sat::{SatLit, SatResult, SatSolver};
use crate::simplex::{IncrementalSimplex, LiaResult, Prepared, SlotId};
use crate::solver::{
    check_sat_impl, engine_stats, Model, SatOutcome, SmtConfig, SmtStats, Validity,
};
use flux_logic::{simplify, Expr, ExprId, Name, Sort, SortCtx};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// How goals of this session are discharged.
enum Mode {
    /// Hypotheses are preprocessed into `hyp_cnf`; goals are converted
    /// incrementally against the shared atom table.
    Incremental,
    /// The hypotheses simplified to `false`: every implication is valid.
    Contradictory,
    /// The hypotheses fall outside the incremental fragment (quantifiers or
    /// uninterpreted applications); every check runs the one-shot pipeline
    /// on the combined formula.
    OneShot,
}

/// Result of preprocessing one conjunct (memoized in [`CnfCache`]).
#[derive(Clone)]
enum PreOut {
    /// The conjunct simplified to `true`.
    True,
    /// The conjunct simplified to `false`.
    False,
    /// The preprocessed quantifier-free formula, hash-consed.
    Formula(ExprId),
}

/// Preprocessing memo key: the conjunct plus the sorts of its free
/// variables.  The sorts are part of the key because comparison
/// normalisation consults them; the same name can be bound at different
/// sorts in different clauses.
type PreprocKey = (ExprId, Box<[Option<Sort>]>);

/// A defining CNF plus its (unasserted) root literal.
type LitCnf = (Lit, Arc<Vec<Vec<Lit>>>);

/// A preprocessed hypothesis conjunct paired with its asserted-root CNF.
type ConjunctCnf = (ExprId, Arc<Vec<Vec<Lit>>>);

/// Conjunct-splitting outcome of one hypothesis expression, memoized per
/// [`PreprocKey`]: the weakening loop re-opens sessions over hypothesis
/// contexts whose individual members (guard predicates, κ-solution
/// conjunctions) recur verbatim, so the whole walk — conjunct splitting,
/// triviality checks, fragment detection, preprocessing and CNF lookup —
/// collapses to a single hash probe per hypothesis.
#[derive(Clone)]
enum HypOut {
    /// Some conjunct leaves the quantifier-free, application-free fragment
    /// (or failed to encode): the session must fall back to one-shot.
    OneShot,
    /// Some conjunct simplified to `false`.
    Contradictory,
    /// The preprocessed conjuncts in source order, paired with their CNFs.
    /// Duplicates within one hypothesis are preserved; the session-level
    /// `seen` set dedups across the whole context, as it always did.
    Conjuncts(Arc<Vec<ConjunctCnf>>),
}

/// The process-global CNF engine: one atom table shared by every session,
/// plus memo tables that make re-encoding a repeated conjunct O(1).
///
/// Sharing the atom table is what makes the per-conjunct CNF cache
/// possible at all: cached clauses mention [`AtomId`]s, so those ids must
/// mean the same thing in every session that reads them.  Atoms are pure
/// syntax — a linear constraint, a boolean name, or a Tseitin definition
/// named by its formula's [`ExprId`] and its position in the encoding walk
/// — so one table for the process is sound, exactly like the hash-consing
/// of expressions in `flux-logic`.  It is also bounded by the hash-consing
/// arena: every memo key is an `ExprId`, and every atom is determined by
/// one, so only a generation flush ([`reset_cnf_cache`]) empties it.
#[derive(Default)]
struct CnfCache {
    atoms: AtomTable,
    /// Free variables of a hash-consed expression (pure, cached forever).
    free_vars: HashMap<ExprId, Arc<[Name]>>,
    /// Preprocessing output per [`PreprocKey`].
    preproc: HashMap<PreprocKey, PreOut>,
    /// Tseitin CNF (root literal asserted) per preprocessed formula.
    cnf: HashMap<ExprId, Arc<Vec<Vec<Lit>>>>,
    /// Defining Tseitin CNF plus unasserted root literal per preprocessed
    /// formula; shares definition atoms with `cnf`.
    cnf_lit: HashMap<ExprId, LitCnf>,
    /// Registration-ready form of each linear atom, analysed once
    /// process-wide instead of once per session tableau.
    prepared: HashMap<AtomId, Arc<Prepared>>,
    /// Conjunct-splitting outcome per hypothesis expression (see
    /// [`HypOut`]); keyed like `preproc` because preprocessing of the
    /// conjuncts consults the free variables' sorts.
    hyp_out: HashMap<PreprocKey, HypOut>,
    /// Distinct theory atoms mentioned by a conjunct's CNF, sorted: lets
    /// the theory-atom snapshot skip re-scanning every literal of every
    /// hypothesis clause on each session's first check.
    conjunct_atoms: HashMap<ExprId, Arc<Vec<AtomId>>>,
}

/// Times a thread found the CNF cache lock held by another thread
/// (monotone; callers read deltas).
static CNF_CONTENTIONS: AtomicU64 = AtomicU64::new(0);

/// The process-global CNF cache.
fn cnf_memo() -> &'static Mutex<CnfCache> {
    static CACHE: OnceLock<Mutex<CnfCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CnfCache::default()))
}

/// Locks the CNF cache for an operation.  `lock_counted` recovers from
/// poisoning rather than cascading one panic (e.g. a failed assertion in an
/// unrelated test thread) into every later session in the process: the
/// cache only memoizes pure data behind `Arc`s, so no torn state is
/// observable through its API.
fn cnf_cache() -> MutexGuard<'static, CnfCache> {
    let cache = flux_logic::lock_counted(cnf_memo(), &CNF_CONTENTIONS, |t| &mut t.cnf_contentions);
    if crate::testing::inject_fault("cnf-cache") == Some(crate::testing::Fault::Delay) {
        // Hold the lock a beat: exercises every caller's tolerance of
        // contention on the global cache (there is nothing to time out — the
        // deadline checks live in the solvers, not here).  The duration
        // comes from the installed plan (`FaultPlan::delay_ms`).
        std::thread::sleep(crate::testing::fault_delay());
    }
    cache
}

/// Does nothing: the CNF cache has no capacity.  Kept only because the
/// benchmark harness still calls it; it goes at the next change to the
/// benchmark.
pub fn set_cnf_cache_capacity(_cap: Option<usize>) {}

/// Drops every memo map *and* the atom table, freeing their memory.  Memo
/// keys are [`ExprId`]s and atoms name them, so this belongs to a
/// generation flush: the caller holds the generation lock and resets the
/// hash-consing table in the same hold.  Returns the number of memo entries
/// flushed.
pub fn reset_cnf_cache(_generation: &flux_logic::GenerationGuard) -> usize {
    let mut cache = flux_logic::lock_recover(cnf_memo());
    let total = cache.memo_len();
    *cache = CnfCache::default();
    total
}

/// Always 0: nothing evicts from the CNF cache.  Kept only because the
/// benchmark harness still calls it; it goes at the next change to the
/// benchmark.
pub fn cnf_cache_evictions() -> u64 {
    0
}

/// Current entry count of the CNF cache's memo maps (diagnostics).  A pure
/// read: it does not count toward the lock-contention figure.
pub fn cnf_cache_len() -> usize {
    flux_logic::lock_recover(cnf_memo()).memo_len()
}

/// Number of atoms in the CNF cache's atom table, which only
/// [`reset_cnf_cache`] shrinks.  A pure read, like [`cnf_cache_len`].
pub fn cnf_atoms() -> usize {
    flux_logic::lock_recover(cnf_memo()).atoms.len()
}

/// Times any session found the CNF cache lock held by another thread, over
/// the process lifetime.  Monotone; callers read deltas (solves attribute
/// their own share through [`flux_logic::thread_tally`]).
pub fn cnf_shard_contentions() -> u64 {
    CNF_CONTENTIONS.load(Ordering::Relaxed)
}

impl CnfCache {
    /// Entry count of the memo maps (the atom table not included).
    fn memo_len(&self) -> usize {
        self.free_vars.len()
            + self.preproc.len()
            + self.cnf.len()
            + self.cnf_lit.len()
            + self.prepared.len()
            + self.hyp_out.len()
            + self.conjunct_atoms.len()
    }

    fn free_vars_of(&mut self, id: ExprId) -> Arc<[Name]> {
        if let Some(fv) = self.free_vars.get(&id) {
            return fv.clone();
        }
        let fv: Arc<[Name]> = id.expr().free_vars().into_iter().collect();
        self.free_vars.insert(id, fv.clone());
        fv
    }

    /// Preprocesses the simplified conjunct `id` under `ctx`, memoized on
    /// the sorts of its free variables.
    fn preprocess(&mut self, id: ExprId, ctx: &SortCtx) -> PreOut {
        let fv = self.free_vars_of(id);
        let key: PreprocKey = (id, fv.iter().map(|n| ctx.lookup(*n)).collect());
        if let Some(out) = self.preproc.get(&key) {
            return out.clone();
        }
        let out = match preprocess_qf(&id.expr(), ctx) {
            Preprocessed::True => PreOut::True,
            Preprocessed::False => PreOut::False,
            Preprocessed::Formula(f) => PreOut::Formula(ExprId::intern(&f)),
        };
        self.preproc.insert(key, out.clone());
        out
    }

    /// The defining Tseitin CNF and root literal of the preprocessed
    /// formula `id` (root *not* asserted), encoding it into the shared atom
    /// table on the first request.  Its definition atoms are keyed by `id`,
    /// which always denotes the same formula.
    fn cnf_lit_of(&mut self, id: ExprId) -> Result<LitCnf, ()> {
        if let Some((root, defs)) = self.cnf_lit.get(&id) {
            return Ok((*root, defs.clone()));
        }
        let (root, cnf) =
            tseitin_literal(&id.expr(), id.index(), &mut self.atoms).map_err(|_| ())?;
        let defs = Arc::new(cnf.clauses);
        self.cnf_lit.insert(id, (root, defs.clone()));
        Ok((root, defs))
    }

    /// The registration-ready form of atom `id`, when it is linear.
    fn prepared_lin(&mut self, id: AtomId) -> Option<Arc<Prepared>> {
        if let Some(p) = self.prepared.get(&id) {
            return Some(p.clone());
        }
        let p = match self.atoms.get(id) {
            Atom::Lin(c) => Arc::new(Prepared::of(c)),
            _ => return None,
        };
        self.prepared.insert(id, p.clone());
        Some(p)
    }

    /// The Tseitin CNF of the preprocessed formula `id` (root asserted);
    /// shares definition atoms with [`CnfCache::cnf_lit_of`].
    fn cnf_of(&mut self, id: ExprId) -> Result<Arc<Vec<Vec<Lit>>>, ()> {
        if let Some(cnf) = self.cnf.get(&id) {
            return Ok(cnf.clone());
        }
        let (root, defs) = self.cnf_lit_of(id)?;
        let mut clauses = (*defs).clone();
        clauses.push(vec![root]);
        let cnf = Arc::new(clauses);
        self.cnf.insert(id, cnf.clone());
        Ok(cnf)
    }

    /// Splits the hypothesis `hyp` into preprocessed conjuncts (see
    /// [`HypOut`]), memoized on the sorts of its free variables.  The loop
    /// body mirrors what [`Session::assume_impl`] historically did inline;
    /// the first terminal outcome (a fragment violation or a contradictory
    /// conjunct) wins, in conjunct order.
    fn hyp_out_of(&mut self, hyp: ExprId, ctx: &SortCtx) -> HypOut {
        let fv = self.free_vars_of(hyp);
        let key: PreprocKey = (hyp, fv.iter().map(|n| ctx.lookup(*n)).collect());
        if let Some(out) = self.hyp_out.get(&key) {
            return out.clone();
        }
        let tt = ExprId::intern(&Expr::tt());
        let ff = ExprId::intern(&Expr::ff());
        let mut conjuncts = Vec::new();
        let mut result = None;
        'walk: for conjunct in hyp.conjunct_ids() {
            if conjunct.has_quantifier() || conjunct.has_app() {
                result = Some(HypOut::OneShot);
                break 'walk;
            }
            let sid = conjunct.simplified();
            if sid == tt {
                continue;
            }
            if sid == ff {
                result = Some(HypOut::Contradictory);
                break 'walk;
            }
            match self.preprocess(sid, ctx) {
                PreOut::True => {}
                PreOut::False => {
                    result = Some(HypOut::Contradictory);
                    break 'walk;
                }
                PreOut::Formula(pid) => match self.cnf_of(pid) {
                    Ok(cnf) => conjuncts.push((pid, cnf)),
                    // Defensive: the preprocessed QF fragment should always
                    // convert; degrade to one-shot rather than give up.
                    Err(()) => {
                        result = Some(HypOut::OneShot);
                        break 'walk;
                    }
                },
            }
        }
        let out = result.unwrap_or_else(|| HypOut::Conjuncts(Arc::new(conjuncts)));
        self.hyp_out.insert(key, out.clone());
        out
    }

    /// The distinct theory atoms of the conjunct `pid`'s CNF, sorted;
    /// memoized forever (the CNF of a preprocessed formula never changes).
    fn atoms_of(&mut self, pid: ExprId, cnf: &[Vec<Lit>]) -> Arc<Vec<AtomId>> {
        if let Some(atoms) = self.conjunct_atoms.get(&pid) {
            return atoms.clone();
        }
        let mut atoms: Vec<AtomId> = cnf.iter().flatten().map(|lit| lit.atom).collect();
        atoms.sort_unstable();
        atoms.dedup();
        let atoms = Arc::new(atoms);
        self.conjunct_atoms.insert(pid, atoms.clone());
        atoms
    }
}

/// The session's persistent CDCL core: one [`SatSolver`] whose clause
/// database (hypothesis CNF, goal clauses behind activation literals,
/// SAT-learned clauses and theory lemmas) survives across goal checks.
///
/// SAT variable indices are decoupled from [`AtomId`]s: the core owns
/// activation variables that correspond to no theory atom, and the global
/// atom table contains atoms from other sessions that this one never
/// mentions.  `atom_vars` maps an atom to its SAT variable lazily, so the
/// SAT search only ever branches on atoms this session actually uses; it
/// and `atom_slots` are maps, so their size follows the session's atoms
/// rather than the largest id the process-wide table has issued.
struct Core {
    sat: SatSolver,
    /// SAT variable of each atom this session has touched.
    atom_vars: AtomMap<usize>,
    /// The session's persistent theory state: linear atoms register their
    /// constraint rows here once, and each DPLL(T) round merely asserts
    /// bounds inside a push/pop scope.  The tableau basis survives across
    /// rounds *and* goals, so theory checks after the first start from an
    /// almost-feasible state.
    theory: IncrementalSimplex,
    /// Simplex slot of each linear atom registered so far.
    atom_slots: AtomMap<SlotId>,
    /// Snapshot of the hypothesis clauses' theory atoms, taken once on the
    /// first check; goals only resolve their own (typically few) atoms.
    /// Cleared whenever the hypothesis conjunct set changes.
    hyp_atoms: Option<TheoryAtoms>,
}

/// Relevant theory atoms of a clause set, resolved once against the global
/// atom table: SAT variables, simplex slots (rows registered on first
/// sight) and the constraint variables that delimit counter-models.
#[derive(Default)]
struct TheoryAtoms {
    /// (atom, SAT variable, prepared constraint) of each linear atom.  The
    /// simplex row is *not* registered at snapshot time: most checks are
    /// decided propositionally (the hypothesis facts and replayed theory
    /// lemmas close them before any theory round runs), so eagerly
    /// building a tableau row per atom per session was pure overhead — the
    /// row materializes via [`Core::slot_of`] on the first theory round
    /// that asserts the atom, and is permanent from then on.
    lin: Vec<(AtomId, usize, Arc<Prepared>)>,
    /// (SAT variable, name) of each boolean atom.
    bools: Vec<(usize, Name)>,
    /// Variables mentioned by the linear constraints.
    vars: BTreeSet<Name>,
    /// Every atom id covered, for dedup against later snapshots.
    atoms: HashSet<AtomId>,
}

impl Core {
    fn new(config: &SmtConfig) -> Core {
        // The authoritative budget lives on the `SmtConfig`; the sub-solvers
        // receive their copy here, exactly as the one-shot pipeline does.
        Core {
            sat: SatSolver::new(
                0,
                crate::sat::SatConfig {
                    budget: config.budget,
                    ..config.sat
                },
            ),
            atom_vars: AtomMap::default(),
            theory: IncrementalSimplex::new(crate::simplex::LiaConfig {
                budget: config.budget,
                ..config.lia
            }),
            atom_slots: AtomMap::default(),
            hyp_atoms: None,
        }
    }

    /// Resolves the relevant theory atoms of `clauses` (minus those already
    /// covered by `skip`) against the global atom table.
    fn snapshot<'a>(
        &mut self,
        clauses: impl Iterator<Item = &'a Vec<Lit>>,
        skip: Option<&TheoryAtoms>,
    ) -> TheoryAtoms {
        let mut relevant: Vec<AtomId> = clauses.flatten().map(|lit| lit.atom).collect();
        relevant.sort_unstable();
        relevant.dedup();
        self.snapshot_atoms(&relevant, skip)
    }

    /// [`Core::snapshot`] for the hypothesis CNF, via the per-conjunct atom
    /// memo: the conjuncts' distinct atoms were collected once per process,
    /// so a session's first check merges a few short sorted lists instead
    /// of re-scanning every literal of every hypothesis clause.
    fn snapshot_hyp(&mut self, hyp_cnf: &[(ExprId, Arc<Vec<Vec<Lit>>>)]) -> TheoryAtoms {
        let mut relevant: Vec<AtomId> = Vec::new();
        {
            let mut cache = cnf_cache();
            for (pid, cnf) in hyp_cnf {
                relevant.extend(cache.atoms_of(*pid, cnf).iter().copied());
            }
        }
        relevant.sort_unstable();
        relevant.dedup();
        self.snapshot_atoms(&relevant, None)
    }

    /// Shared tail of the snapshot paths: the per-atom resolution work over
    /// a sorted, deduplicated candidate list.
    fn snapshot_atoms(&mut self, relevant: &[AtomId], skip: Option<&TheoryAtoms>) -> TheoryAtoms {
        let mut cache = cnf_cache();
        let mut out = TheoryAtoms::default();
        for &id in relevant {
            if matches!(skip, Some(s) if s.atoms.contains(&id)) {
                continue;
            }
            // Relevant atoms occur in some added clause, so a SAT variable
            // for them always exists.
            let Some(var) = self.lookup_var(id) else {
                continue;
            };
            out.atoms.insert(id);
            if let Some(prepared) = cache.prepared_lin(id) {
                out.vars.extend(prepared.vars());
                out.lin.push((id, var, prepared));
            } else if let Atom::Bool(name) = cache.atoms.get(id) {
                // Every boolean atom of the incremental fragment is a
                // program variable: Tseitin definitions are `Atom::Def`,
                // and the fresh names preprocessing introduces are integers.
                out.bools.push((var, *name));
            }
        }
        out
    }

    /// The simplex slot of the linear atom `atom`, registering its
    /// constraint row on first use.
    fn slot_of(&mut self, atom: AtomId, prepared: &Prepared) -> SlotId {
        let theory = &mut self.theory;
        *self
            .atom_slots
            .entry(atom)
            .or_insert_with(|| theory.register_prepared(prepared))
    }

    /// The SAT variable representing `atom`, allocating one if needed.
    fn var_of(&mut self, atom: AtomId) -> usize {
        let sat = &mut self.sat;
        *self.atom_vars.entry(atom).or_insert_with(|| sat.new_var())
    }

    /// The SAT variable of `atom`, if this session ever added a clause
    /// mentioning it.
    fn lookup_var(&self, atom: AtomId) -> Option<usize> {
        self.atom_vars.get(&atom).copied()
    }

    /// Adds a theory-atom clause, optionally guarded by `¬guard ∨ …` so it
    /// only bites while `guard` is assumed.
    fn add_clause(&mut self, clause: &[Lit], guard: Option<SatLit>) {
        let mut lits: Vec<SatLit> = Vec::with_capacity(clause.len() + 1);
        if let Some(g) = guard {
            lits.push(g.negated());
        }
        for l in clause {
            let var = self.var_of(l.atom);
            lits.push(SatLit::new(var, l.positive));
        }
        self.sat.add_clause(lits);
    }
}

/// An incremental solving session: a fixed hypothesis context plus
/// per-session solver state reused across goal checks.
pub struct Session {
    config: SmtConfig,
    ctx: SortCtx,
    stats: SmtStats,
    mode: Mode,
    /// Hash-consed hypotheses, as given.
    hyp_ids: Vec<ExprId>,
    /// Tree form of the hypotheses, materialized lazily — only the one-shot
    /// fallback needs it.
    hyp_trees: Option<Vec<Expr>>,
    /// CNF of each preprocessed hypothesis conjunct, keyed by its
    /// preprocessed id (shared with the global cache; empty when trivially
    /// true).  The ids drive conjunct-level diffing in
    /// [`Session::update_hypotheses`].
    hyp_cnf: Vec<ConjunctCnf>,
    /// Theory lemmas learned so far; valid across all checks (atoms are
    /// global, so lemmas would even be sound across sessions).
    lemmas: Vec<Vec<Lit>>,
    /// The persistent CDCL core, built on the first incremental check.
    core: Option<Core>,
}

impl Session {
    /// Opens a session that assumes `hypotheses` under `ctx`.
    ///
    /// Preprocessing and CNF conversion of the hypotheses happen here —
    /// conjunct by conjunct through the global cache, so a conjunct seen by
    /// any earlier session costs two hash lookups; each subsequent
    /// [`Session::check`] only pays for its goal.
    pub fn assume(config: SmtConfig, ctx: &SortCtx, hypotheses: &[Expr]) -> Session {
        let hyp_ids: Vec<ExprId> = hypotheses.iter().map(ExprId::intern).collect();
        Session::assume_impl(config, ctx, hyp_ids, Some(hypotheses.to_vec()))
    }

    /// [`Session::assume`] for pre-interned hypotheses: conjunct splitting,
    /// triviality checks and fragment detection all run over the shared DAG
    /// (each memoized per subterm globally), so assuming an
    /// already-encountered hypothesis context never re-walks a tree.
    pub fn assume_ids(config: SmtConfig, ctx: &SortCtx, hyp_ids: &[ExprId]) -> Session {
        Session::assume_impl(config, ctx, hyp_ids.to_vec(), None)
    }

    fn assume_impl(
        config: SmtConfig,
        ctx: &SortCtx,
        hyp_ids: Vec<ExprId>,
        hyp_trees: Option<Vec<Expr>>,
    ) -> Session {
        // Stamp the wall-clock deadline once per session: every check this
        // session runs shares it.  A no-op when the caller (e.g. the
        // fixpoint solver) already stamped a solve-wide deadline.
        let mut config = config;
        config.budget.stamp();
        let mut session = Session {
            config,
            ctx: ctx.clone(),
            stats: SmtStats {
                sessions: 1,
                ..SmtStats::default()
            },
            mode: Mode::Incremental,
            hyp_ids,
            hyp_trees,
            hyp_cnf: Vec::new(),
            lemmas: Vec::new(),
            core: None,
        };
        let mut seen: HashSet<ExprId> = HashSet::new();
        let mut cache = cnf_cache();
        for hyp in session.hyp_ids.clone() {
            // One memoized probe per hypothesis: splitting, simplification,
            // preprocessing and CNF conversion of its conjuncts all ran at
            // most once per process (see [`CnfCache::hyp_out_of`]).
            match cache.hyp_out_of(hyp, &session.ctx) {
                HypOut::OneShot => {
                    session.mode = Mode::OneShot;
                    session.hyp_cnf.clear();
                    return session;
                }
                HypOut::Contradictory => {
                    session.mode = Mode::Contradictory;
                    session.hyp_cnf.clear();
                    return session;
                }
                HypOut::Conjuncts(conjuncts) => {
                    for (pid, cnf) in conjuncts.iter() {
                        if seen.insert(*pid) {
                            session.hyp_cnf.push((*pid, cnf.clone()));
                        }
                    }
                }
            }
        }
        session
    }

    /// Re-points the session at a new hypothesis context **without
    /// discarding the persistent core**.  Purely additive updates assert the
    /// fresh conjuncts' cached CNF into the live clause database (existing
    /// facts and learned clauses are consequences of the larger conjunct
    /// set, so everything survives).  Updates that *retract* conjuncts
    /// rebuild the SAT clause database from the surviving conjuncts' cached
    /// CNFs plus the recorded theory lemmas — but keep the variable space
    /// (so the atom↔variable map stays valid), the simplex tableau with its
    /// warm basis, the registered atom slots, and every memoized encoding.
    /// Hypothesis facts are deliberately asserted unguarded, so they become
    /// permanent level-0 facts that the goal-retirement compaction dissolves
    /// into the assignment; the price is that retraction cannot simply
    /// unassert them.  A clause-database rebuild over cached encodings costs
    /// one pass of `add_clause` calls and none of the simplification,
    /// Tseitin or simplex-registration work a fresh session would pay.
    ///
    /// Returns `false` when the update cannot be expressed as a conjunct
    /// diff — the session is not (or the new context would not be) in the
    /// incremental mode.  The session is left unchanged in that case and
    /// the caller should open a fresh one.
    ///
    /// Verdicts after a successful update are identical to those of a fresh
    /// session over `new_hyps`: the clause database is exactly the new
    /// conjunct set's CNF plus theory lemmas (tautologies over global atoms,
    /// valid under any hypotheses), and the theory-atom snapshot is rebuilt
    /// from the new conjunct set.
    pub fn update_hypotheses(&mut self, new_hyps: &[ExprId]) -> bool {
        if !matches!(self.mode, Mode::Incremental) {
            return false;
        }
        // Recompute the conjunct set exactly as `assume_impl` does, but
        // bail out (leaving the session untouched) instead of switching
        // mode: mode changes invalidate the core wholesale.
        let mut seen: HashSet<ExprId> = HashSet::new();
        let mut new_cnf: Vec<ConjunctCnf> = Vec::new();
        {
            let mut cache = cnf_cache();
            for hyp in new_hyps {
                match cache.hyp_out_of(*hyp, &self.ctx) {
                    HypOut::OneShot | HypOut::Contradictory => return false,
                    HypOut::Conjuncts(conjuncts) => {
                        for (pid, cnf) in conjuncts.iter() {
                            if seen.insert(*pid) {
                                new_cnf.push((*pid, cnf.clone()));
                            }
                        }
                    }
                }
            }
        }
        if let Some(core) = self.core.as_mut() {
            let old: HashSet<ExprId> = self.hyp_cnf.iter().map(|(pid, _)| *pid).collect();
            let stale = old.iter().filter(|pid| !seen.contains(pid)).count();
            if stale > 0 {
                // Retraction: rebuild the clause database from cached
                // encodings.  The fresh solver starts over the same
                // variable range, so cached CNF literals and `atom_vars`
                // entries keep their meaning; goal clauses need no replay
                // (every prior goal was retired and compacted away), and
                // learned clauses need none either (they are resolvents the
                // search re-derives on demand).
                self.stats.conjunct_retractions += stale;
                core.sat = SatSolver::new(core.sat.num_vars(), self.config.sat);
                for (_, cnf) in &new_cnf {
                    for clause in cnf.iter() {
                        core.add_clause(clause, None);
                    }
                }
                for lemma in &self.lemmas {
                    core.add_clause(lemma, None);
                }
                core.hyp_atoms = None;
            } else {
                // Pure strengthening: assert the fresh conjuncts into the
                // live database.  Existing level-0 facts and learned
                // clauses are consequences of the enlarged conjunct set.
                let mut changed = false;
                for (pid, cnf) in &new_cnf {
                    if !old.contains(pid) {
                        for clause in cnf.iter() {
                            core.add_clause(clause, None);
                        }
                        changed = true;
                    }
                }
                if changed {
                    // The snapshot describes the old conjunct set: the
                    // fresh conjuncts' atoms must start being asserted to
                    // the theory.
                    core.hyp_atoms = None;
                }
            }
        }
        self.hyp_ids = new_hyps.to_vec();
        self.hyp_trees = None;
        self.hyp_cnf = new_cnf;
        true
    }

    /// The tree form of the hypotheses, materialized on first use (only the
    /// one-shot fallback needs it).
    fn hyp_trees(&mut self) -> &[Expr] {
        if self.hyp_trees.is_none() {
            self.hyp_trees = Some(self.hyp_ids.iter().map(|id| id.expr()).collect());
        }
        self.hyp_trees.as_deref().expect("trees were just built")
    }

    /// Checks the validity of `hypotheses ⟹ goal`.
    ///
    /// Produces the same verdict as
    /// [`crate::Solver::check_valid_imp`] on the same inputs.
    pub fn check(&mut self, goal: &Expr) -> Validity {
        self.stats.queries += 1;
        match self.mode {
            Mode::Contradictory => Validity::Valid,
            Mode::OneShot => self.check_one_shot(goal),
            Mode::Incremental => {
                if goal.has_quantifier() || goal.has_app() {
                    return self.check_one_shot(goal);
                }
                self.check_qf_goal(ExprId::intern(goal))
            }
        }
    }

    /// [`Session::check`] for a pre-interned goal: spares callers that
    /// already track hash-consed ids (the fixpoint weakening loop) the deep
    /// re-interning walk of the goal tree on every query.
    pub fn check_id(&mut self, goal: ExprId) -> Validity {
        self.stats.queries += 1;
        match self.mode {
            Mode::Contradictory => Validity::Valid,
            Mode::OneShot => self.check_one_shot(&goal.expr()),
            Mode::Incremental => {
                if goal.has_quantifier() || goal.has_app() {
                    return self.check_one_shot(&goal.expr());
                }
                self.check_qf_goal(goal)
            }
        }
    }

    /// Checks the validity of `hypotheses ⟹ goal₁ ∧ … ∧ goalₙ` as **one**
    /// query, composing each conjunct's independently cached encoding.
    ///
    /// The negated goal `¬g₁ ∨ … ∨ ¬gₙ` enters the core as the union of the
    /// conjuncts' defining CNFs plus a single disjunction of their root
    /// literals, so a conjunction over candidates the session (or any other
    /// session in the process) has already encoded costs no new
    /// preprocessing or Tseitin work at all — where encoding the conjunction
    /// as one formula would re-walk the whole tree for every distinct
    /// surviving-candidate subset.  The verdict equals checking the
    /// conjunction as a single goal (both encodings decide satisfiability of
    /// the same formula); counter-models may differ, which callers already
    /// tolerate (models are verified against the hypotheses before use).
    pub fn check_all(&mut self, goals: &[ExprId]) -> Validity {
        if let [single] = goals {
            // Delegate so the two entry points stay verdict-identical (and
            // the single-goal path keeps its slightly tighter encoding).
            return self.check_id(*single);
        }
        self.stats.queries += 1;
        let rebuild_conjunction = |goals: &[ExprId]| Expr::and_all(goals.iter().map(|g| g.expr()));
        match self.mode {
            Mode::Contradictory => Validity::Valid,
            Mode::OneShot => {
                let tree = rebuild_conjunction(goals);
                self.check_one_shot(&tree)
            }
            Mode::Incremental => {
                if goals.iter().any(|g| g.has_quantifier() || g.has_app()) {
                    let tree = rebuild_conjunction(goals);
                    return self.check_one_shot(&tree);
                }
                let tt = ExprId::intern(&Expr::tt());
                let ff = ExprId::intern(&Expr::ff());
                let mut roots: Vec<Lit> = Vec::new();
                let mut goal_clauses: Vec<Vec<Lit>> = Vec::new();
                // `true` when some conjunct's negation is trivially true:
                // the negated goal then constrains nothing, and the query
                // reduces to satisfiability of the hypotheses alone.
                let mut unconstrained = false;
                let mut encoding_failed = false;
                {
                    let mut cache = cnf_cache();
                    for &g in goals {
                        let nid = g.negated().simplified();
                        if nid == ff {
                            continue; // conjunct is trivially valid
                        }
                        if nid == tt {
                            unconstrained = true;
                            break;
                        }
                        match cache.preprocess(nid, &self.ctx) {
                            PreOut::False => continue,
                            PreOut::True => {
                                unconstrained = true;
                                break;
                            }
                            PreOut::Formula(pid) => match cache.cnf_lit_of(pid) {
                                Ok((root, defs)) => {
                                    goal_clauses.extend(defs.iter().cloned());
                                    roots.push(root);
                                }
                                Err(()) => {
                                    encoding_failed = true;
                                    break;
                                }
                            },
                        }
                    }
                }
                if encoding_failed {
                    let tree = rebuild_conjunction(goals);
                    return self.check_one_shot(&tree);
                }
                if roots.is_empty() && !unconstrained {
                    // Every conjunct was trivially valid.
                    return Validity::Valid;
                }
                let verdict = if unconstrained {
                    self.check_on_core(&[])
                } else {
                    goal_clauses.push(roots);
                    self.check_on_core(&goal_clauses)
                };
                self.spot_check(&verdict, goals);
                verdict
            }
        }
    }

    /// The incremental path for a quantifier- and application-free goal.
    fn check_qf_goal(&mut self, goal: ExprId) -> Validity {
        let tt = ExprId::intern(&Expr::tt());
        let ff = ExprId::intern(&Expr::ff());
        let nid = goal.negated().simplified();
        // ¬goal is false: the implication holds outright.
        if nid == ff {
            return Validity::Valid;
        }
        let goal_cnf: Option<Arc<Vec<Vec<Lit>>>> = if nid == tt {
            // ¬goal is true: satisfiability reduces to the
            // hypotheses alone, i.e. no extra clauses.
            None
        } else {
            let mut cache = cnf_cache();
            match cache.preprocess(nid, &self.ctx) {
                PreOut::False => return Validity::Valid,
                PreOut::True => None,
                PreOut::Formula(pid) => match cache.cnf_of(pid) {
                    Ok(cnf) => Some(cnf),
                    Err(()) => return self.check_one_shot(&goal.expr()),
                },
            }
        };
        let empty = Vec::new();
        let goal_clauses: &Vec<Vec<Lit>> = goal_cnf.as_deref().unwrap_or(&empty);
        let verdict = self.check_on_core(goal_clauses);
        self.spot_check(&verdict, &[goal]);
        verdict
    }

    /// Tseitin/CNF equisatisfiability spot-check on a counter-model, under
    /// the full audit tier: evaluating the *pre-CNF* hypotheses and goals
    /// under the model via the hash-consed evaluator must agree with the
    /// verdict the CNF encoding produced (no hypothesis decidably false, the
    /// goal conjunction not decidably all-true).  A disagreement means the
    /// preprocessing or Tseitin conversion changed the formula's meaning.
    fn spot_check(&mut self, verdict: &Validity, goals: &[ExprId]) {
        if !self.config.audit.certifies() {
            return;
        }
        if let Validity::Invalid(Some(model)) = verdict {
            if let Err(e) = audit::spot_check_model(model, &self.hyp_ids, goals) {
                panic!("FLUX_AUDIT: {e}");
            }
            self.stats.certs_checked += 1;
        }
    }

    /// The incremental DPLL(T) loop over the session's persistent CDCL
    /// core.  The goal clauses enter the core behind a fresh activation
    /// literal, the search runs under the assumption that the literal
    /// holds, and afterwards the literal is fixed false, retiring the goal
    /// while keeping every learned clause for the next check.
    fn check_on_core(&mut self, goal_clauses: &[Vec<Lit>]) -> Validity {
        match &mut self.core {
            Some(_) => self.stats.sat_reuse += 1,
            none => {
                let mut core = Core::new(&self.config);
                // Hypothesis clauses are asserted outright — no activation
                // literals.  Their units become permanent level-0 facts, so
                // the first goal retirement's compaction dissolves most of
                // the hypothesis CNF into the assignment instead of every
                // later solve re-scanning and re-propagating it.  (Guarding
                // them behind per-conjunct assumptions was measured to cost
                // ~1.5× on the whole corpus: nothing ever reaches level 0,
                // so nothing ever compacts away.)  Retraction instead
                // rebuilds the clause database from cached encodings — see
                // [`Session::update_hypotheses`].
                for (_, cnf) in &self.hyp_cnf {
                    for clause in cnf.iter() {
                        core.add_clause(clause, None);
                    }
                }
                // Theory lemmas are only ever learned against an existing
                // core, so there are none to replay here.
                *none = Some(core);
            }
        }
        let core = self.core.as_mut().expect("core was just built");
        let guard = SatLit::new(core.sat.new_var(), true);
        for clause in goal_clauses {
            core.add_clause(clause, Some(guard));
        }
        // Atoms interned by *earlier* goals (or other sessions sharing the
        // global table) but absent from the current clause sets are
        // unconstrained in this query and must not be asserted to the
        // theory: they would cost per-round work that grows with session
        // age and their arbitrary SAT values could manufacture spurious
        // theory conflicts.  Only the hypothesis and goal clauses define
        // relevance — a retained theory lemma whose atoms have left the
        // query is a tautology the SAT core already honours propositionally
        // and needs no re-assertion to simplex.  The hypothesis atoms are
        // snapshotted once per session (they are the same for every check);
        // each goal only resolves its own atoms, minus that overlap.  The
        // union also delimits the counter-model: the tableau holds
        // variables from retired goals, whose stale values must not leak
        // into reported models.
        if core.hyp_atoms.is_none() {
            let snap = core.snapshot_hyp(&self.hyp_cnf);
            core.hyp_atoms = Some(snap);
        }
        let hyp_atoms = core.hyp_atoms.take().expect("hypothesis snapshot exists");
        let goal_atoms = core.snapshot(goal_clauses.iter(), Some(&hyp_atoms));
        let relevant_vars: BTreeSet<Name> = hyp_atoms
            .vars
            .iter()
            .chain(goal_atoms.vars.iter())
            .copied()
            .collect();
        let assumptions = [guard];
        let engine_before = engine_stats(&core.sat, &core.theory);
        let outcome = 'search: {
            if crate::testing::inject_fault("session") == Some(crate::testing::Fault::Unknown) {
                break 'search SatOutcome::Unknown;
            }
            for _ in 0..self.config.max_theory_rounds.0 {
                // One clock read per theory round — each round amortizes it
                // over a full SAT search plus a simplex check.
                if self.config.budget.deadline_exceeded() {
                    self.stats.budget_exhausted += 1;
                    break 'search SatOutcome::Unknown;
                }
                self.stats.sat_rounds += 1;
                let assignment = match core.sat.solve_under_assumptions(&assumptions) {
                    SatResult::Unsat => break 'search SatOutcome::Unsat,
                    SatResult::Unknown => break 'search SatOutcome::Unknown,
                    SatResult::Sat(assignment) => assignment,
                };
                self.stats.theory_checks += 1;
                // Assert the linear atoms' bounds under the SAT assignment
                // inside one backtracking scope; the scope is popped after
                // the check, but the pivoted basis is kept.
                let lin_atoms = || hyp_atoms.lin.iter().chain(goal_atoms.lin.iter());
                let mut involved = Vec::with_capacity(hyp_atoms.lin.len() + goal_atoms.lin.len());
                let mut assert_conflict: Option<Vec<usize>> = None;
                core.theory.push();
                for (k, (id, var, prepared)) in lin_atoms().enumerate() {
                    let value = assignment[*var];
                    involved.push(Lit {
                        atom: *id,
                        positive: value,
                    });
                    // Rows register lazily, on the first theory round that
                    // asserts them (memoized per atom in `atom_slots`).
                    let slot = core.slot_of(*id, prepared);
                    if let Err(core_tags) = core.theory.assert_constraint(slot, value, k) {
                        assert_conflict = Some(core_tags);
                        break;
                    }
                }
                let result = match assert_conflict {
                    Some(tags) => LiaResult::Infeasible(tags),
                    // Only the current query's variables need integrality;
                    // the tableau's stale variables (retired goals) are
                    // unconstrained here and excluded from the model.
                    None => core.theory.check_integer_over(&relevant_vars),
                };
                core.theory.pop();
                match result {
                    LiaResult::Feasible(int_model) => {
                        if self.config.audit.certifies() {
                            let value = |lit: Lit| {
                                core.lookup_var(lit.atom)
                                    .and_then(|v| assignment.get(v).copied())
                                    .map(|b| b == lit.positive)
                            };
                            let live_clauses = self
                                .hyp_cnf
                                .iter()
                                .flat_map(|(_, cnf)| cnf.iter())
                                .chain(goal_clauses.iter())
                                .chain(self.lemmas.iter());
                            let asserted: Vec<_> = {
                                let cache = cnf_cache();
                                audit::asserted_constraints(&involved, &cache.atoms)
                                    .into_iter()
                                    .map(|c| (c, true))
                                    .collect()
                            };
                            audit::validate_clauses("session", live_clauses, value)
                                .and_then(|()| {
                                    audit::validate_theory_assignment(&asserted, &int_model)
                                })
                                .unwrap_or_else(|e| panic!("FLUX_AUDIT: {e}"));
                            self.stats.certs_checked += 1;
                        }
                        let mut model = Model {
                            ints: int_model,
                            bools: BTreeMap::new(),
                        };
                        for (var, name) in hyp_atoms.bools.iter().chain(goal_atoms.bools.iter()) {
                            model.bools.insert(*name, assignment[*var]);
                        }
                        break 'search SatOutcome::Sat(model);
                    }
                    LiaResult::Unknown => break 'search SatOutcome::Unknown,
                    LiaResult::Infeasible(conflict) => {
                        if self.config.audit.certifies() {
                            let tagged: Vec<Lit> = if conflict.is_empty() {
                                involved.clone()
                            } else {
                                conflict.iter().map(|&i| involved[i]).collect()
                            };
                            let constraints = {
                                let cache = cnf_cache();
                                audit::asserted_constraints(&tagged, &cache.atoms)
                            };
                            if let Err(e) = audit::certify_infeasible_core(&constraints) {
                                panic!("FLUX_AUDIT: {e}");
                            }
                            self.stats.certs_checked += 1;
                        }
                        let lemma: Vec<Lit> = if conflict.is_empty() {
                            // Defensive: block the entire assignment.
                            involved.iter().map(|l| l.negated()).collect()
                        } else {
                            conflict.iter().map(|&i| involved[i].negated()).collect()
                        };
                        core.add_clause(&lemma, None);
                        self.lemmas.push(lemma);
                    }
                }
            }
            SatOutcome::Unknown
        };
        core.hyp_atoms = Some(hyp_atoms);
        // Retire this goal: the negated guard permanently satisfies its
        // clauses (and everything learned from them), and compaction drops
        // them from the database so later checks don't even scan them.
        core.sat.add_clause(vec![guard.negated()]);
        core.sat.compact();
        if self.config.audit.certifies() {
            // Sweep the CDCL core's structural invariants between searches
            // (watcher lists just rebuilt by the compaction above).
            if let Err(e) = core.sat.check_invariants() {
                panic!("FLUX_AUDIT: SAT invariant violated after session check: {e}");
            }
            self.stats.certs_checked += 1;
        }
        // The counter windows close *after* retirement so the propagation
        // work of the compacting unit clause is attributed to this check
        // rather than slipping between windows.
        self.stats
            .absorb(engine_stats(&core.sat, &core.theory).since(engine_before));
        match outcome {
            SatOutcome::Unsat => Validity::Valid,
            SatOutcome::Sat(model) => Validity::Invalid(Some(model)),
            SatOutcome::Unknown => Validity::Unknown,
        }
    }

    fn check_one_shot(&mut self, goal: &Expr) -> Validity {
        let hyps = Expr::and_all(self.hyp_trees().iter().cloned());
        let negated = Expr::and(hyps, Expr::not(goal.clone()));
        let outcome = check_sat_impl(&self.config, &self.ctx, &negated, &mut self.stats);
        if self.config.audit.certifies() {
            if let SatOutcome::Sat(model) = &outcome {
                // The counter-model came from the preprocessed CNF; the
                // original negated query must not decidably contradict it.
                if model.eval_bool(&negated) == Some(false) {
                    panic!(
                        "FLUX_AUDIT: one-shot counter-model decidably falsifies \
                         the negated query it was derived from"
                    );
                }
                self.stats.certs_checked += 1;
            }
        }
        match outcome {
            SatOutcome::Unsat => Validity::Valid,
            SatOutcome::Sat(model) => Validity::Invalid(Some(model)),
            SatOutcome::Unknown => Validity::Unknown,
        }
    }

    /// Statistics accumulated by this session.
    pub fn stats(&self) -> &SmtStats {
        &self.stats
    }

    /// Number of theory lemmas currently persisted across checks.
    pub fn lemma_count(&self) -> usize {
        self.lemmas.len()
    }

    /// The clauses asserting the hypotheses: each preprocessed conjunct's
    /// cached CNF, in conjunct order (empty outside the incremental mode).
    pub fn hypothesis_clauses(&self) -> Vec<Vec<Lit>> {
        self.hyp_cnf
            .iter()
            .flat_map(|(_, cnf)| cnf.iter().cloned())
            .collect()
    }
}

/// Solves run on the worker threads of `flux-check`'s function fan-out and
/// of `fluxd`, and their results travel back to the caller, so sessions
/// (and the counter-models and verdicts they produce) must stay [`Send`]:
/// per-session state is exclusively owned — the CDCL core, the simplex
/// tableau and the statistics live in the session itself — and
/// everything shared across sessions (the atom table, the CNF memos, the
/// prepared-constraint cache) is reached only through the process-global
/// mutex in [`cnf_cache`], never through
/// `Rc`/`RefCell` aliasing, so moving a session across threads moves no
/// cache state at all.
/// These assertions turn any future hidden-sharing regression into a
/// compile error instead of a data race.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<Core>();
    assert_send::<crate::solver::Solver>();
    assert_send::<crate::solver::Model>();
    assert_send::<crate::solver::Validity>();
    assert_send::<crate::solver::SmtStats>();
};

enum Preprocessed {
    True,
    False,
    Formula(Expr),
}

/// The quantifier-free, application-free slice of the one-shot pipeline
/// (steps 3, 4 and 6 of [`check_sat_impl`]); quantifier elimination and
/// Ackermannization are identities on this fragment.
fn preprocess_qf(formula: &Expr, ctx: &SortCtx) -> Preprocessed {
    let mut defs = Vec::new();
    let f = eliminate_div_mod(formula, &mut defs);
    let f = Expr::and(f, Expr::and_all(defs));
    let f = eliminate_ite(&f);
    let f = normalize_comparisons(&f, ctx);
    let f = simplify(&f);
    if f.is_trivially_true() {
        Preprocessed::True
    } else if f.is_trivially_false() {
        Preprocessed::False
    } else {
        Preprocessed::Formula(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use flux_logic::{Name, Sort};

    fn v(s: &str) -> Expr {
        Expr::var(Name::intern(s))
    }

    fn int_ctx(vars: &[&str]) -> SortCtx {
        let mut ctx = SortCtx::new();
        for name in vars {
            ctx.push(Name::intern(name), Sort::Int);
        }
        ctx
    }

    /// Checks that a session and one-shot solving agree on each
    /// (hypotheses, goal) pair, reusing one session per hypothesis set.
    fn assert_matches_one_shot(ctx: &SortCtx, hyps: &[Expr], goals: &[Expr]) {
        let mut session = Session::assume(SmtConfig::default(), ctx, hyps);
        for goal in goals {
            let mut one_shot = Solver::with_defaults();
            let reference = one_shot.check_valid_imp(ctx, hyps, goal);
            let verdict = session.check(goal);
            match (&verdict, &reference) {
                (Validity::Valid, Validity::Valid)
                | (Validity::Invalid(_), Validity::Invalid(_))
                | (Validity::Unknown, Validity::Unknown) => {}
                _ => panic!(
                    "session disagreed with one-shot on {goal}: {verdict:?} vs {reference:?}"
                ),
            }
        }
    }

    #[test]
    fn verdict_matrix_matches_one_shot() {
        let ctx = int_ctx(&["i", "n"]);
        let i = v("i");
        let n = v("n");
        let hyps = vec![
            Expr::ge(i.clone(), Expr::int(0)),
            Expr::lt(i.clone(), n.clone()),
        ];
        let goals = vec![
            // Valid: i + 1 <= n.
            Expr::le(i.clone() + Expr::int(1), n.clone()),
            // Invalid: i >= 1.
            Expr::ge(i.clone(), Expr::int(1)),
            // Valid: n > 0.
            Expr::gt(n.clone(), Expr::int(0)),
            // Invalid: i = 0.
            Expr::eq(i.clone(), Expr::int(0)),
            // Trivially valid and trivially invalid goals.
            Expr::tt(),
            Expr::ff(),
        ];
        assert_matches_one_shot(&ctx, &hyps, &goals);
    }

    #[test]
    fn empty_hypotheses_match_one_shot() {
        let ctx = int_ctx(&["x"]);
        let goals = vec![
            Expr::ge(v("x"), v("x")),
            Expr::ge(v("x"), Expr::int(0)),
            Expr::tt(),
        ];
        assert_matches_one_shot(&ctx, &[], &goals);
    }

    #[test]
    fn contradictory_hypotheses_prove_everything() {
        let ctx = int_ctx(&["x"]);
        let hyps = vec![
            Expr::lt(v("x"), Expr::int(0)),
            Expr::gt(v("x"), Expr::int(0)),
        ];
        let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
        assert!(session.check(&Expr::eq(v("x"), Expr::int(99))).is_valid());
        assert!(session.check(&Expr::ff()).is_valid());
    }

    #[test]
    fn boolean_structure_matches_one_shot() {
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("p"), Sort::Bool);
        ctx.push(Name::intern("q"), Sort::Bool);
        let hyps = vec![v("p"), Expr::imp(v("p"), v("q"))];
        let goals = vec![v("q"), v("p"), Expr::and(v("p"), v("q")), Expr::not(v("q"))];
        assert_matches_one_shot(&ctx, &hyps, &goals);
    }

    /// The same syntactic conjunct bound at different sorts in different
    /// sessions must not poison the global preprocessing cache or the
    /// shared atom table: comparison normalisation depends on the operand
    /// sorts, which are part of the cache key, and the one name is a
    /// simplex column inside `Lin` atoms in the first session and an
    /// `Atom::Bool` in the second.
    #[test]
    fn preproc_cache_distinguishes_sorts() {
        let shared = Expr::eq(v("cc_sorted"), v("cc_other"));
        // Int-sorted: x = y is satisfiable, goal x >= y follows from it.
        let ctx_int = int_ctx(&["cc_sorted", "cc_other"]);
        let mut s1 = Session::assume(
            SmtConfig::default(),
            &ctx_int,
            std::slice::from_ref(&shared),
        );
        assert!(s1
            .check(&Expr::ge(v("cc_sorted"), v("cc_other")))
            .is_valid());
        // Bool-sorted: p = q must become iff, and p ⟹ q must hold.
        let mut ctx_bool = SortCtx::new();
        ctx_bool.push(Name::intern("cc_sorted"), Sort::Bool);
        ctx_bool.push(Name::intern("cc_other"), Sort::Bool);
        let mut s2 = Session::assume(SmtConfig::default(), &ctx_bool, &[shared, v("cc_sorted")]);
        assert!(s2.check(&v("cc_other")).is_valid());
    }

    #[test]
    fn quantified_hypotheses_fall_back_to_one_shot() {
        let mut ctx = int_ctx(&["i", "lenv"]);
        ctx.push(Name::intern("a"), Sort::Array);
        let j = Name::intern("j");
        let axiom = Expr::forall(
            vec![(j, Sort::Int)],
            Expr::imp(
                Expr::and(
                    Expr::ge(Expr::var(j), Expr::int(0)),
                    Expr::lt(Expr::var(j), v("lenv")),
                ),
                Expr::ge(
                    Expr::app("select", vec![v("a"), Expr::var(j)]),
                    Expr::int(0),
                ),
            ),
        );
        let hyps = vec![
            axiom,
            Expr::ge(v("i"), Expr::int(0)),
            Expr::lt(v("i"), v("lenv")),
        ];
        let goal = Expr::ge(Expr::app("select", vec![v("a"), v("i")]), Expr::int(0));
        let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
        assert!(session.check(&goal).is_valid());
    }

    #[test]
    fn uninterpreted_goal_falls_back_to_one_shot() {
        let mut ctx = int_ctx(&["x"]);
        ctx.declare_fn(Name::intern("f"), vec![Sort::Int], Sort::Int);
        let hyps = vec![Expr::eq(v("x"), Expr::int(3))];
        let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
        // f(x) = f(3) needs congruence, which only the one-shot
        // Ackermannization provides.
        let goal = Expr::eq(
            Expr::app("f", vec![v("x")]),
            Expr::app("f", vec![Expr::int(3)]),
        );
        assert!(session.check(&goal).is_valid());
    }

    #[test]
    fn division_in_hypotheses_and_goals() {
        let ctx = int_ctx(&["lo", "hi", "n"]);
        let mid = Expr::binop(flux_logic::BinOp::Div, v("lo") + v("hi"), Expr::int(2));
        let hyps = vec![
            Expr::ge(v("lo"), Expr::int(0)),
            Expr::le(v("lo"), v("hi")),
            Expr::lt(v("hi"), v("n")),
        ];
        let goals = vec![
            Expr::lt(mid.clone(), v("n")),
            Expr::ge(mid.clone(), v("lo")),
            Expr::gt(mid, v("hi")),
        ];
        assert_matches_one_shot(&ctx, &hyps, &goals);
    }

    #[test]
    fn counter_models_satisfy_hypotheses() {
        let ctx = int_ctx(&["n"]);
        let hyps = vec![Expr::ge(v("n"), Expr::int(0))];
        let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
        match session.check(&Expr::ge(v("n") - Expr::int(1), Expr::int(0))) {
            Validity::Invalid(Some(model)) => {
                let n = model.ints.get(&Name::intern("n")).copied().unwrap_or(0);
                assert!(n == 0, "counter-model should pick n = 0, got {n}");
            }
            other => panic!("expected invalid with model, got {other:?}"),
        }
    }

    #[test]
    fn theory_lemmas_persist_across_checks() {
        let ctx = int_ctx(&["i", "n"]);
        let hyps = vec![Expr::ge(v("i"), Expr::int(0)), Expr::lt(v("i"), v("n"))];
        let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
        // Valid goals force theory conflicts, which become persisted lemmas.
        assert!(session
            .check(&Expr::le(v("i") + Expr::int(1), v("n")))
            .is_valid());
        let after_first = session.lemma_count();
        assert!(session.check(&Expr::gt(v("n"), Expr::int(0))).is_valid());
        assert!(
            session.lemma_count() >= after_first,
            "lemmas must never be dropped between checks"
        );
        assert_eq!(session.stats().queries, 2);
        assert_eq!(session.stats().sessions, 1);
    }

    #[test]
    fn session_reuse_is_cheaper_than_one_shot() {
        // The incremental path must do fewer SAT rounds in total than
        // re-solving from scratch, on a workload with shared hypotheses.
        let ctx = int_ctx(&["i", "n"]);
        let hyps = vec![Expr::ge(v("i"), Expr::int(0)), Expr::lt(v("i"), v("n"))];
        let goals: Vec<Expr> = (1..=8)
            .map(|k| Expr::lt(v("i"), v("n") + Expr::int(k)))
            .collect();

        let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
        for goal in &goals {
            assert!(session.check(goal).is_valid());
        }
        let incremental_rounds = session.stats().sat_rounds;

        let mut one_shot = Solver::with_defaults();
        for goal in &goals {
            assert!(one_shot
                .check_valid_imp(&ctx, hyps.as_slice(), goal)
                .is_valid());
        }
        let one_shot_rounds = one_shot.stats.sat_rounds;
        assert!(
            incremental_rounds <= one_shot_rounds,
            "incremental path used more SAT rounds ({incremental_rounds}) than one-shot \
             ({one_shot_rounds})"
        );
    }

    /// The persistent CDCL core must actually be reused across the checks
    /// of one session, and its reuse must be visible in the statistics.
    #[test]
    fn persistent_core_reuse_is_counted() {
        let ctx = int_ctx(&["i", "n"]);
        let hyps = vec![Expr::ge(v("i"), Expr::int(0)), Expr::lt(v("i"), v("n"))];
        let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
        assert!(session
            .check(&Expr::le(v("i") + Expr::int(1), v("n")))
            .is_valid());
        assert_eq!(session.stats().sat_reuse, 0, "first check builds the core");
        assert!(session.check(&Expr::gt(v("n"), Expr::int(0))).is_valid());
        assert!(!session.check(&Expr::gt(v("i"), Expr::int(0))).is_valid());
        assert_eq!(
            session.stats().sat_reuse,
            2,
            "later checks must reuse the core"
        );
    }

    /// Retracting and re-asserting hypothesis conjuncts on a live session
    /// must flip verdicts exactly as a fresh session over the new context
    /// would, without opening a new session.
    #[test]
    fn update_hypotheses_matches_fresh_session() {
        let ctx = int_ctx(&["i", "n"]);
        let strong = vec![Expr::ge(v("i"), Expr::int(1)), Expr::lt(v("i"), v("n"))];
        let weak = [Expr::ge(v("i"), Expr::int(0)), Expr::lt(v("i"), v("n"))];
        let goal_pos = Expr::gt(v("i"), Expr::int(0));
        let goal_n = Expr::gt(v("n"), Expr::int(0));
        let mut session = Session::assume(SmtConfig::default(), &ctx, &strong);
        assert!(session.check(&goal_pos).is_valid());
        assert!(session.check(&goal_n).is_valid());
        let weak_ids: Vec<ExprId> = weak.iter().map(ExprId::intern).collect();
        assert!(
            session.update_hypotheses(&weak_ids),
            "quantifier-free update must succeed in place"
        );
        assert_eq!(
            session.stats().conjunct_retractions,
            1,
            "exactly the strengthened lower bound is retracted"
        );
        assert!(
            !session.check(&goal_pos).is_valid(),
            "the weakened hypotheses no longer prove i > 0"
        );
        assert!(session.check(&goal_n).is_valid());
        assert_eq!(session.stats().sessions, 1, "no session rebuild");

        // Strengthening back re-proves the goal on the same core.
        let strong_ids: Vec<ExprId> = strong.iter().map(ExprId::intern).collect();
        assert!(session.update_hypotheses(&strong_ids));
        assert!(session.check(&goal_pos).is_valid());
    }

    /// An update that leaves the incremental fragment must refuse and leave
    /// the session's verdicts untouched.
    #[test]
    fn update_hypotheses_refuses_mode_changes() {
        let ctx = int_ctx(&["i", "n"]);
        let hyps = vec![Expr::ge(v("i"), Expr::int(0)), Expr::lt(v("i"), v("n"))];
        let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
        assert!(session.check(&Expr::gt(v("n"), Expr::int(0))).is_valid());
        let j = Name::intern("uh_j");
        let quantified = Expr::forall(
            vec![(j, Sort::Int)],
            Expr::ge(Expr::var(j) + Expr::int(1), Expr::var(j)),
        );
        let contradictory = Expr::lt(v("i"), v("i"));
        for bad in [quantified, contradictory] {
            let ids = vec![ExprId::intern(&bad)];
            assert!(
                !session.update_hypotheses(&ids),
                "update to {bad} must be refused"
            );
        }
        // The session still answers under the original hypotheses.
        assert!(session.check(&Expr::gt(v("n"), Expr::int(0))).is_valid());
        assert!(!session.check(&Expr::gt(v("i"), Expr::int(0))).is_valid());
    }
}
