//! A decision procedure for conjunctions of linear integer constraints.
//!
//! The implementation follows the general simplex algorithm of Dutertre and
//! de Moura ("A fast linear-arithmetic solver for DPLL(T)", CAV 2006) in its
//! *incremental* form: [`IncrementalSimplex`] owns a tableau that persists
//! for the lifetime of a solver session.  Each distinct linear atom
//! registers its constraint once — the variable part becomes a slack
//! variable with a permanent row — and the DPLL(T) loop then merely asserts
//! and retracts *bounds* on those variables along a [`IncrementalSimplex::push`] /
//! [`IncrementalSimplex::pop`] trail.  Pivoting adapts the basis to the
//! asserted bounds, and because the basis survives retraction, a later
//! check over a similar bound set starts from an almost-feasible state
//! instead of re-deriving everything from zero.
//!
//! Rational feasibility is refined to *integer* feasibility by
//! branch-and-bound on variables with fractional values, implemented as
//! push/assert/pop on the same tableau.  Branch-and-bound is bounded; if the
//! bound is exhausted the result is [`LiaResult::Unknown`], which callers
//! must treat as "possibly satisfiable" (for the verifier this means
//! "cannot prove valid", never "unsoundly valid").
//!
//! [`check_lia`] and [`check_rational`] remain as one-shot wrappers (used by
//! tests and by [`model_satisfies`]-style callers): they build a fresh
//! tableau, assert every constraint and run a single check, so the one-shot
//! and incremental paths are literally the same decision procedure.

use crate::linear::LinConstraint;
use crate::rational::Rational;
use crate::ResourceBudget;
use flux_logic::Name;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Result of a linear integer arithmetic feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiaResult {
    /// The constraints are satisfiable; the map is an integer model for the
    /// variables appearing in the constraints.
    Feasible(BTreeMap<Name, i128>),
    /// The constraints are unsatisfiable; the vector contains the tags of a
    /// subset of asserted constraints that is already unsatisfiable (for the
    /// one-shot wrappers, indices into the input slice).
    Infeasible(Vec<usize>),
    /// The solver gave up (pivot or branch-and-bound limit exhausted).
    Unknown,
}

/// Checks feasibility of the conjunction of `constraints` over the integers.
///
/// One-shot wrapper over [`IncrementalSimplex`]: all variables are assumed
/// to range over the integers, and infeasible cores are reported as indices
/// into the input slice.
pub fn check_lia(constraints: &[LinConstraint], budget: &ResourceBudget) -> LiaResult {
    let mut simplex = IncrementalSimplex::new(*budget);
    for (i, c) in constraints.iter().enumerate() {
        let slot = simplex.register(c);
        if let Err(core) = simplex.assert_constraint(slot, true, i) {
            return LiaResult::Infeasible(core);
        }
    }
    simplex.check_integer()
}

/// Checks rational feasibility only (no integrality); used by tests and by
/// callers that want the relaxation.
pub fn check_rational(constraints: &[LinConstraint], budget: &ResourceBudget) -> LiaResult {
    let mut simplex = IncrementalSimplex::new(*budget);
    for (i, c) in constraints.iter().enumerate() {
        let slot = simplex.register(c);
        if let Err(core) = simplex.assert_constraint(slot, true, i) {
            return LiaResult::Infeasible(core);
        }
    }
    match simplex.solve_rational() {
        RationalResult::Feasible => {
            let rounded = simplex
                .named_values()
                .map(|(n, v)| (n, v.floor()))
                .collect::<BTreeMap<_, _>>();
            LiaResult::Feasible(rounded)
        }
        RationalResult::Infeasible(core) => LiaResult::Infeasible(core),
        RationalResult::PivotLimit => LiaResult::Unknown,
    }
}

/// Internal variable identifier: original variables and slack variables
/// share one id space.
type VarId = usize;

/// Handle of a registered constraint, returned by
/// [`IncrementalSimplex::register`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotId(usize);

/// The tag attached to an asserted bound: the caller's identifier for
/// external assertions (used to build infeasible cores), or `Internal` for
/// branch-and-bound bounds, which never appear in cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BoundTag {
    External(usize),
    Internal,
}

#[derive(Clone, Copy, Debug)]
struct Bound {
    value: Rational,
    tag: BoundTag,
}

/// Registration-ready form of a constraint: the analysis `register`
/// performs (term extraction, bound derivation), precomputed once so
/// callers that register the same atom into many tableaux — one per
/// session — pay the constraint-shape analysis a single time process-wide.
pub struct Prepared {
    kind: PreparedKind,
}

enum PreparedKind {
    /// `constant ≤ 0`.
    Constant(Rational),
    /// Single-term constraint: a direct bound on `name`.
    SingleVar {
        name: Name,
        pos_upper: bool,
        pos: Rational,
        neg: Rational,
    },
    /// General constraint: a slack row over `terms`.
    Row {
        terms: Vec<(Name, Rational)>,
        pos: Rational,
        neg: Rational,
    },
}

impl Prepared {
    /// Analyses `constraint` (the atom `lhs ≤ 0`) into registration-ready
    /// form.
    pub fn of(constraint: &LinConstraint) -> Prepared {
        let constant = constraint.lhs.constant_part();
        let terms: Vec<(Name, Rational)> = constraint.lhs.terms().collect();
        let kind = match terms.as_slice() {
            [] => PreparedKind::Constant(constant),
            [(name, coeff)] => PreparedKind::SingleVar {
                name: *name,
                pos_upper: coeff.is_positive(),
                pos: -constant / *coeff,
                neg: (Rational::ONE - constant) / *coeff,
            },
            _ => PreparedKind::Row {
                terms,
                pos: -constant,
                neg: Rational::ONE - constant,
            },
        };
        Prepared { kind }
    }

    /// The variables the constraint mentions.
    pub fn vars(&self) -> impl Iterator<Item = Name> + '_ {
        let names: Vec<Name> = match &self.kind {
            PreparedKind::Constant(_) => Vec::new(),
            PreparedKind::SingleVar { name, .. } => vec![*name],
            PreparedKind::Row { terms, .. } => terms.iter().map(|(n, _)| *n).collect(),
        };
        names.into_iter()
    }
}

/// How a registered constraint maps onto tableau bounds.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// A constraint with no variables: `constant ≤ 0`.
    Constant(Rational),
    /// Bounds on `var` (an original variable for single-term constraints,
    /// a slack variable otherwise).  Asserting the positive phase imposes
    /// `var ≤ pos` when `pos_upper` (else `var ≥ pos`); the negated phase
    /// (`e ≥ 1` over the integers) imposes the complementary bound `neg`.
    Bounded {
        var: VarId,
        pos_upper: bool,
        pos: Rational,
        neg: Rational,
    },
}

/// One undone bound change on the assertion trail.
struct UndoBound {
    var: VarId,
    is_upper: bool,
    old: Option<Bound>,
}

enum RationalResult {
    Feasible,
    Infeasible(Vec<usize>),
    PivotLimit,
}

/// A persistent, backtrackable simplex tableau (see the module docs).
pub struct IncrementalSimplex {
    /// Pivot and branch-node caps and the deadline, checked amortized
    /// inside the pivot loop and per branch node; tripping one yields
    /// [`LiaResult::Unknown`].
    budget: ResourceBudget,
    /// Tableau variable of each original variable name.
    var_ids: HashMap<Name, VarId>,
    /// Name of each variable; `None` for slack variables.
    names: Vec<Option<Name>>,
    upper: Vec<Option<Bound>>,
    lower: Vec<Option<Bound>>,
    /// Current assignment; kept consistent with the rows at all times.
    value: Vec<Rational>,
    /// For each basic variable, its row: basic = Σ coeff · nonbasic.
    rows: HashMap<VarId, BTreeMap<VarId, Rational>>,
    /// Slack variable of each registered variable part (rows are shared
    /// between constraints that differ only in their constant).
    row_ids: HashMap<Vec<(Name, Rational)>, VarId>,
    /// Registered constraints, deduplicated.
    slots: Vec<Slot>,
    slot_ids: HashMap<LinConstraint, SlotId>,
    /// Undo trail of bound changes, delimited by `scopes`.
    trail: Vec<UndoBound>,
    scopes: Vec<usize>,
    /// Column occurrence lists: `occs[v]` is the set of basic variables
    /// whose row contains `v`.  Kept exactly in sync with `rows`, so bound
    /// slides and pivot updates touch only the rows that mention the moved
    /// variable instead of scanning the whole (session-lifetime) tableau.
    occs: Vec<BTreeSet<VarId>>,
    /// Basic variables that may violate one of their bounds.  Invariant:
    /// every actually-violated basic variable is in this set — values only
    /// change in `update_nonbasic`/`pivot_and_update` and bounds only
    /// tighten in `assert_bound` (a `pop` restores strictly looser bounds),
    /// and each of those sites inserts the affected basics.  The minimum
    /// violated suspect therefore equals Bland's minimum violated basic.
    suspect: BTreeSet<VarId>,
    /// Cumulative pivot count (never reset; callers read deltas).
    pivots: u64,
    /// Cumulative count of rows visited by column scans (bound slides,
    /// pivot updates, violated-row selection); the observable the
    /// occurrence lists exist to shrink.  Never reset; callers read deltas.
    col_scans: u64,
}

impl IncrementalSimplex {
    /// Creates an empty tableau that checks under `budget`.
    pub fn new(budget: ResourceBudget) -> IncrementalSimplex {
        IncrementalSimplex {
            budget,
            var_ids: HashMap::new(),
            names: Vec::new(),
            upper: Vec::new(),
            lower: Vec::new(),
            value: Vec::new(),
            rows: HashMap::new(),
            row_ids: HashMap::new(),
            slots: Vec::new(),
            slot_ids: HashMap::new(),
            trail: Vec::new(),
            scopes: Vec::new(),
            occs: Vec::new(),
            suspect: BTreeSet::new(),
            pivots: 0,
            col_scans: 0,
        }
    }

    /// Total number of pivots performed since creation.  Monotone; callers
    /// attribute work to a check by differencing.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Total number of rows visited by column scans since creation (see the
    /// `col_scans` field).  Monotone; callers attribute work to a check by
    /// differencing.
    pub fn col_scans(&self) -> u64 {
        self.col_scans
    }

    /// Number of tableau variables (original + slack); exposed for tests.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    fn new_var(&mut self, name: Option<Name>) -> VarId {
        let id = self.names.len();
        self.names.push(name);
        self.upper.push(None);
        self.lower.push(None);
        self.value.push(Rational::ZERO);
        self.occs.push(BTreeSet::new());
        id
    }

    fn var_of(&mut self, name: Name) -> VarId {
        if let Some(&id) = self.var_ids.get(&name) {
            return id;
        }
        let id = self.new_var(Some(name));
        self.var_ids.insert(name, id);
        id
    }

    /// Registers `constraint` (the atom `lhs ≤ 0`), returning a handle for
    /// later assertions.  Registration is permanent — the constraint's row
    /// stays in the tableau for the lifetime of the solver — and
    /// deduplicated, so registering the same constraint twice is free.
    pub fn register(&mut self, constraint: &LinConstraint) -> SlotId {
        if let Some(&slot) = self.slot_ids.get(constraint) {
            return slot;
        }
        let prepared = Prepared::of(constraint);
        let id = self.register_inner(&prepared, true);
        self.slot_ids.insert(constraint.clone(), id);
        id
    }

    /// Registers a [`Prepared`] constraint, skipping every hashing step of
    /// [`IncrementalSimplex::register`]: no constraint-level dedup (callers
    /// using this entry point dedup by atom id themselves) and no row
    /// sharing between constraints with equal variable parts (each gets its
    /// own slack; the few extra rows cost far less than re-hashing every
    /// constraint into every session's tableau).
    pub fn register_prepared(&mut self, prepared: &Prepared) -> SlotId {
        self.register_inner(prepared, false)
    }

    fn register_inner(&mut self, prepared: &Prepared, dedup_rows: bool) -> SlotId {
        let slot = match &prepared.kind {
            PreparedKind::Constant(k) => Slot::Constant(*k),
            // Single-term constraint `c·v + k ≤ 0`: a direct bound on `v`,
            // no slack row needed.
            PreparedKind::SingleVar {
                name,
                pos_upper,
                pos,
                neg,
            } => {
                let var = self.var_of(*name);
                Slot::Bounded {
                    var,
                    pos_upper: *pos_upper,
                    pos: *pos,
                    neg: *neg,
                }
            }
            // General constraint: slack = variable part (shared between
            // constraints whose variable parts coincide when `dedup_rows`).
            PreparedKind::Row { terms, pos, neg } => {
                let shared = if dedup_rows {
                    self.row_ids.get(terms).copied()
                } else {
                    None
                };
                let var = match shared {
                    Some(slack) => slack,
                    None => {
                        let slack = self.new_slack_row(terms);
                        if dedup_rows {
                            self.row_ids.insert(terms.clone(), slack);
                        }
                        slack
                    }
                };
                Slot::Bounded {
                    var,
                    pos_upper: true,
                    pos: *pos,
                    neg: *neg,
                }
            }
        };
        let id = SlotId(self.slots.len());
        self.slots.push(slot);
        id
    }

    /// Creates a slack variable whose row is `terms`, expressed over the
    /// current nonbasic variables.
    fn new_slack_row(&mut self, terms: &[(Name, Rational)]) -> VarId {
        let vars: Vec<(VarId, Rational)> = terms
            .iter()
            .map(|(name, coeff)| (self.var_of(*name), *coeff))
            .collect();
        // Registration can happen after pivoting, when some of the row's
        // variables are basic.  Rows must be expressed over nonbasic
        // variables only, so basic variables are substituted by their
        // defining rows (a change of basis — the expansion of a nonzero
        // variable part is never empty).
        let mut row: BTreeMap<VarId, Rational> = BTreeMap::new();
        let add = |row: &mut BTreeMap<VarId, Rational>, v: VarId, c: Rational| {
            let entry = row.entry(v).or_insert(Rational::ZERO);
            *entry += c;
            if entry.is_zero() {
                row.remove(&v);
            }
        };
        for (v, coeff) in vars {
            match self.rows.get(&v) {
                Some(basic_row) => {
                    for (&w, &c) in basic_row {
                        add(&mut row, w, coeff * c);
                    }
                }
                None => add(&mut row, v, coeff),
            }
        }
        debug_assert!(!row.is_empty(), "nonzero variable part expanded to zero");
        let init = row
            .iter()
            .map(|(&v, &c)| c * self.value[v])
            .fold(Rational::ZERO, |acc, x| acc + x);
        let slack = self.new_var(None);
        self.value[slack] = init;
        for &v in row.keys() {
            self.occs[v].insert(slack);
        }
        self.rows.insert(slack, row);
        slack
    }

    /// Opens a backtracking scope; bounds asserted after this call are
    /// retracted by the matching [`IncrementalSimplex::pop`].
    pub fn push(&mut self) {
        self.scopes.push(self.trail.len());
    }

    /// Retracts every bound asserted since the matching
    /// [`IncrementalSimplex::push`].  The basis and the current assignment
    /// are kept: retracting bounds never invalidates feasibility, and the
    /// adapted basis is exactly what makes the next check cheap.
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without matching push");
        while self.trail.len() > mark {
            let undo = self.trail.pop().expect("trail underflow");
            if undo.is_upper {
                self.upper[undo.var] = undo.old;
            } else {
                self.lower[undo.var] = undo.old;
            }
        }
    }

    /// Asserts the registered constraint `slot` with the given phase
    /// (`positive` is the atom itself, `!positive` its integer negation
    /// `e ≥ 1`), tagging the bound with `tag` for core extraction.
    ///
    /// Returns the external tags of an immediately-conflicting bound pair
    /// when the new bound contradicts one already asserted.
    pub fn assert_constraint(
        &mut self,
        slot: SlotId,
        positive: bool,
        tag: usize,
    ) -> Result<(), Vec<usize>> {
        match self.slots[slot.0] {
            Slot::Constant(k) => {
                let holds = if positive {
                    !k.is_positive() // k ≤ 0
                } else {
                    !(Rational::ONE - k).is_positive() // k ≥ 1
                };
                if holds {
                    Ok(())
                } else {
                    Err(vec![tag])
                }
            }
            Slot::Bounded {
                var,
                pos_upper,
                pos,
                neg,
            } => {
                let (is_upper, bound) = if positive {
                    (pos_upper, pos)
                } else {
                    (!pos_upper, neg)
                };
                self.assert_bound(var, is_upper, bound, BoundTag::External(tag))
            }
        }
    }

    fn assert_bound(
        &mut self,
        var: VarId,
        is_upper: bool,
        bound: Rational,
        tag: BoundTag,
    ) -> Result<(), Vec<usize>> {
        let (same, opposite) = if is_upper {
            (&self.upper[var], &self.lower[var])
        } else {
            (&self.lower[var], &self.upper[var])
        };
        // Not tighter than the current bound: nothing to do.
        if let Some(existing) = same {
            let redundant = if is_upper {
                existing.value <= bound
            } else {
                existing.value >= bound
            };
            if redundant {
                return Ok(());
            }
        }
        // Contradicts the opposite bound: immediate conflict.
        if let Some(opp) = opposite {
            let conflict = if is_upper {
                opp.value > bound
            } else {
                opp.value < bound
            };
            if conflict {
                let mut core = Vec::new();
                if let BoundTag::External(t) = tag {
                    core.push(t);
                }
                if let BoundTag::External(t) = opp.tag {
                    core.push(t);
                }
                core.sort_unstable();
                core.dedup();
                return Err(core);
            }
        }
        let old = if is_upper {
            self.upper[var].replace(Bound { value: bound, tag })
        } else {
            self.lower[var].replace(Bound { value: bound, tag })
        };
        self.trail.push(UndoBound { var, is_upper, old });
        // A nonbasic variable violating its new bound can be repaired
        // immediately by sliding it to the bound (updating dependent basic
        // values); basic violations are repaired by pivoting in `check`.
        if !self.rows.contains_key(&var) {
            let v = self.value[var];
            let violated = if is_upper { v > bound } else { v < bound };
            if violated {
                self.update_nonbasic(var, bound);
            }
        } else {
            self.suspect.insert(var);
        }
        Ok(())
    }

    /// Sets the value of the nonbasic `var` to `target`, updating every
    /// basic variable whose row mentions it.
    fn update_nonbasic(&mut self, var: VarId, target: Rational) {
        let delta = target - self.value[var];
        self.value[var] = target;
        let holders: Vec<VarId> = self.occs[var].iter().copied().collect();
        self.col_scans += holders.len() as u64;
        for b in holders {
            let coeff = self.rows[&b][&var];
            self.value[b] += coeff * delta;
            self.suspect.insert(b);
        }
    }

    /// Values of the named (non-slack) variables.
    fn named_values(&self) -> impl Iterator<Item = (Name, Rational)> + '_ {
        self.names
            .iter()
            .enumerate()
            .filter_map(|(id, name)| name.map(|n| (n, self.value[id])))
    }

    fn can_increase(&self, v: VarId) -> bool {
        match self.upper[v] {
            Some(b) => self.value[v] < b.value,
            None => true,
        }
    }

    fn can_decrease(&self, v: VarId) -> bool {
        match self.lower[v] {
            Some(b) => self.value[v] > b.value,
            None => true,
        }
    }

    fn is_violated(&self, b: VarId) -> bool {
        let v = self.value[b];
        let above = matches!(self.upper[b], Some(ub) if v > ub.value);
        let below = matches!(self.lower[b], Some(lb) if v < lb.value);
        above || below
    }

    /// Bland's minimum violated basic variable: drains the suspect set in
    /// ascending order (sound because every violated basic is a suspect —
    /// see the `suspect` field invariant — so the first violated suspect is
    /// the overall minimum).
    fn next_violated(&mut self) -> Option<VarId> {
        while let Some(b) = self.suspect.pop_first() {
            self.col_scans += 1;
            if self.rows.contains_key(&b) && self.is_violated(b) {
                return Some(b);
            }
        }
        None
    }

    /// Repairs bound violations by pivoting until the asserted bounds all
    /// hold or a row proves them inconsistent (Bland's rule on both the
    /// violated basic and the entering nonbasic guarantees termination).
    fn solve_rational(&mut self) -> RationalResult {
        // The deadline is read amortized, once per 128 loop iterations.
        for round in 0..self.budget.pivot_cap() {
            if round % 128 == 127 && self.budget.deadline_exceeded() {
                return RationalResult::PivotLimit;
            }
            let Some(basic) = self.next_violated() else {
                return RationalResult::Feasible;
            };
            let value = self.value[basic];
            if let Some(ub) = self.upper[basic] {
                if value > ub.value {
                    // Need to decrease `basic` to its upper bound.
                    match self.select_pivot(basic, false) {
                        Some(nb) => self.pivot_and_update(basic, nb, ub.value),
                        None => {
                            // Still violated: keep the suspect invariant
                            // for the next check after backtracking.
                            self.suspect.insert(basic);
                            return RationalResult::Infeasible(self.explain(basic, ub.tag, false));
                        }
                    }
                    continue;
                }
            }
            if let Some(lb) = self.lower[basic] {
                if value < lb.value {
                    match self.select_pivot(basic, true) {
                        Some(nb) => self.pivot_and_update(basic, nb, lb.value),
                        None => {
                            self.suspect.insert(basic);
                            return RationalResult::Infeasible(self.explain(basic, lb.tag, true));
                        }
                    }
                    continue;
                }
            }
        }
        RationalResult::PivotLimit
    }

    /// Smallest nonbasic variable in `basic`'s row that can move `basic`
    /// in the required direction (`increase` = toward a violated lower
    /// bound).
    fn select_pivot(&self, basic: VarId, increase: bool) -> Option<VarId> {
        self.rows[&basic]
            .iter()
            .filter(|(&nb, &coeff)| {
                let up = coeff.is_positive() == increase;
                if up {
                    self.can_increase(nb)
                } else {
                    self.can_decrease(nb)
                }
            })
            .map(|(&nb, _)| nb)
            .min()
    }

    /// Builds the infeasible core for a stuck row: the violated bound of
    /// `basic` plus the binding bound of every nonbasic in its row.
    fn explain(&self, basic: VarId, tag: BoundTag, increase: bool) -> Vec<usize> {
        let mut core = Vec::new();
        if let BoundTag::External(t) = tag {
            core.push(t);
        }
        for (&nb, &coeff) in &self.rows[&basic] {
            let binding = if coeff.is_positive() == increase {
                self.upper[nb]
            } else {
                self.lower[nb]
            };
            if let Some(b) = binding {
                if let BoundTag::External(t) = b.tag {
                    core.push(t);
                }
            }
        }
        core.sort_unstable();
        core.dedup();
        core
    }

    /// Pivots `basic` out of the basis, `nonbasic` in, and sets the value of
    /// `basic` to `target`.
    fn pivot_and_update(&mut self, basic: VarId, nonbasic: VarId, target: Rational) {
        self.pivots += 1;
        let row = self.rows.remove(&basic).expect("pivot of non-basic row");
        for &v in row.keys() {
            self.occs[v].remove(&basic);
        }
        let a = row[&nonbasic];
        let theta = (target - self.value[basic]) / a;
        self.value[basic] = target;
        self.value[nonbasic] += theta;
        self.suspect.insert(nonbasic);
        // The rows to update: everything mentioning `nonbasic`.
        let holders: Vec<VarId> = self.occs[nonbasic].iter().copied().collect();
        self.col_scans += holders.len() as u64;
        // Update values of the other basic variables.
        for &b in &holders {
            self.value[b] += self.rows[&b][&nonbasic] * theta;
            self.suspect.insert(b);
        }
        // Express `nonbasic` in terms of `basic` and the rest of the row:
        //   basic = Σ a_j x_j  ⟹  nonbasic = (basic - Σ_{j≠nonbasic} a_j x_j) / a
        let mut new_row: BTreeMap<VarId, Rational> = BTreeMap::new();
        new_row.insert(basic, Rational::ONE / a);
        for (&v, &c) in &row {
            if v != nonbasic {
                let coeff = -c / a;
                if !coeff.is_zero() {
                    new_row.insert(v, coeff);
                }
            }
        }
        // Substitute into every other row mentioning `nonbasic`.
        for &b in &holders {
            let mut row_b = self.rows.remove(&b).expect("row disappeared");
            if let Some(coeff) = row_b.remove(&nonbasic) {
                self.occs[nonbasic].remove(&b);
                for (&v, &c) in &new_row {
                    let entry = row_b.entry(v).or_insert(Rational::ZERO);
                    // Entries are never stored at zero, so a zero before the
                    // addition means the entry was just created.
                    let was_absent = entry.is_zero();
                    *entry += coeff * c;
                    if entry.is_zero() {
                        row_b.remove(&v);
                        if !was_absent {
                            self.occs[v].remove(&b);
                        }
                    } else if was_absent {
                        self.occs[v].insert(b);
                    }
                }
            }
            self.rows.insert(b, row_b);
        }
        for &v in new_row.keys() {
            self.occs[v].insert(nonbasic);
        }
        self.rows.insert(nonbasic, new_row);
    }

    /// Decides integer feasibility of the currently asserted bounds by
    /// branch-and-bound over the persistent tableau, considering every
    /// registered variable.
    pub fn check_integer(&mut self) -> LiaResult {
        if crate::testing::inject_fault("simplex") == Some(crate::testing::Fault::Unknown) {
            return LiaResult::Unknown;
        }
        let mut nodes = self.budget.branch_node_cap();
        self.branch_and_bound(None, &mut nodes)
    }

    /// [`IncrementalSimplex::check_integer`] restricted to `relevant`
    /// variables: only they are branched to integrality and only they
    /// appear in the reported model.
    ///
    /// A session-lifetime tableau keeps variables from retired goals; the
    /// current bounds do not constrain them, so they need no integrality of
    /// their own — and their stale, possibly fractional values must neither
    /// burn branch budget nor leak into counter-models.  Callers pass the
    /// variables of the constraints asserted in the current scope.
    pub fn check_integer_over(&mut self, relevant: &BTreeSet<Name>) -> LiaResult {
        if crate::testing::inject_fault("simplex") == Some(crate::testing::Fault::Unknown) {
            return LiaResult::Unknown;
        }
        let mut nodes = self.budget.branch_node_cap();
        self.branch_and_bound(Some(relevant), &mut nodes)
    }

    fn branch_and_bound(
        &mut self,
        relevant: Option<&BTreeSet<Name>>,
        nodes: &mut u64,
    ) -> LiaResult {
        if *nodes == 0 {
            return LiaResult::Unknown;
        }
        // One deadline read per node: each node pays for a full rational
        // repair below, so the clock read is already amortized.
        if self.budget.deadline_exceeded() {
            return LiaResult::Unknown;
        }
        *nodes -= 1;
        let is_relevant = |n: &Name| relevant.is_none_or(|r| r.contains(n));
        match self.solve_rational() {
            RationalResult::PivotLimit => LiaResult::Unknown,
            RationalResult::Infeasible(core) => LiaResult::Infeasible(core),
            RationalResult::Feasible => {
                // Find a relevant named variable with a fractional value
                // (slack variables are affine combinations of named ones
                // and need no integrality of their own).
                let fractional = self
                    .named_values()
                    .find(|(n, v)| is_relevant(n) && !v.is_integer())
                    .map(|(n, v)| (self.var_ids[&n], v));
                match fractional {
                    None => {
                        let model = self
                            .named_values()
                            .filter(|(n, _)| is_relevant(n))
                            .map(|(n, v)| (n, v.numer()))
                            .collect::<BTreeMap<_, _>>();
                        LiaResult::Feasible(model)
                    }
                    Some((var, value)) => {
                        // Branch: var ≤ floor(value).
                        self.push();
                        let lo = match self.assert_bound(
                            var,
                            true,
                            Rational::int(value.floor()),
                            BoundTag::Internal,
                        ) {
                            Ok(()) => self.branch_and_bound(relevant, nodes),
                            Err(core) => LiaResult::Infeasible(core),
                        };
                        self.pop();
                        if let LiaResult::Feasible(_) = lo {
                            return lo;
                        }
                        // Branch: var ≥ ceil(value).
                        self.push();
                        let hi = match self.assert_bound(
                            var,
                            false,
                            Rational::int(value.ceil()),
                            BoundTag::Internal,
                        ) {
                            Ok(()) => self.branch_and_bound(relevant, nodes),
                            Err(core) => LiaResult::Infeasible(core),
                        };
                        self.pop();
                        if let LiaResult::Feasible(_) = hi {
                            return hi;
                        }
                        match (lo, hi) {
                            (LiaResult::Infeasible(mut a), LiaResult::Infeasible(b)) => {
                                for idx in b {
                                    if !a.contains(&idx) {
                                        a.push(idx);
                                    }
                                }
                                a.sort_unstable();
                                LiaResult::Infeasible(a)
                            }
                            _ => LiaResult::Unknown,
                        }
                    }
                }
            }
        }
    }
}

/// Convenience helper: evaluates whether an integer assignment satisfies all
/// constraints.  Used by tests to validate models.
pub fn model_satisfies(constraints: &[LinConstraint], model: &BTreeMap<Name, i128>) -> bool {
    let rational_model: BTreeMap<Name, Rational> =
        model.iter().map(|(n, v)| (*n, Rational::int(*v))).collect();
    constraints.iter().all(|c| c.holds(&rational_model))
}

/// Collects the set of variables mentioned by a slice of constraints.
pub fn constraint_vars(constraints: &[LinConstraint]) -> BTreeSet<Name> {
    let mut out = BTreeSet::new();
    for c in constraints {
        out.extend(c.lhs.vars());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;
    use crate::testing::Rng;

    fn n(s: &str) -> Name {
        Name::intern(s)
    }

    /// Builds the constraint `Σ coeffs·vars + c ≤ 0`.
    fn le0(terms: &[(&str, i128)], c: i128) -> LinConstraint {
        let mut e = LinExpr::constant(Rational::int(c));
        for (v, coeff) in terms {
            e.add_term(n(v), Rational::int(*coeff));
        }
        LinConstraint::le_zero(e)
    }

    fn cfg() -> ResourceBudget {
        ResourceBudget::UNLIMITED
    }

    #[test]
    fn trivially_true_and_false_constants() {
        assert!(matches!(
            check_lia(&[le0(&[], -5)], &cfg()),
            LiaResult::Feasible(_)
        ));
        assert_eq!(
            check_lia(&[le0(&[], 3)], &cfg()),
            LiaResult::Infeasible(vec![0])
        );
    }

    #[test]
    fn single_variable_bounds() {
        // x <= 3 && x >= 1  (−x + 1 ≤ 0)
        let cs = vec![le0(&[("x", 1)], -3), le0(&[("x", -1)], 1)];
        match check_lia(&cs, &cfg()) {
            LiaResult::Feasible(model) => {
                assert!(model_satisfies(&cs, &model));
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_bounds_are_infeasible_with_core() {
        // x <= 0 && x >= 1
        let cs = vec![le0(&[("x", 1)], 0), le0(&[("x", -1)], 1)];
        match check_lia(&cs, &cfg()) {
            LiaResult::Infeasible(core) => {
                assert!(core.contains(&0));
                assert!(core.contains(&1));
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn core_excludes_irrelevant_constraints() {
        // y <= 10 is irrelevant to the conflict between constraints 1 and 2.
        let cs = vec![
            le0(&[("y", 1)], -10),
            le0(&[("x", 1)], -2), // x <= 2
            le0(&[("x", -1)], 5), // x >= 5
        ];
        match check_lia(&cs, &cfg()) {
            LiaResult::Infeasible(core) => {
                assert!(
                    !core.contains(&0),
                    "core {core:?} should not mention y's bound"
                );
                assert!(core.contains(&1) && core.contains(&2));
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn chained_inequalities() {
        // a <= b && b <= c && c <= a - 1  is infeasible.
        let cs = vec![
            le0(&[("a", 1), ("b", -1)], 0),
            le0(&[("b", 1), ("c", -1)], 0),
            le0(&[("c", 1), ("a", -1)], 1),
        ];
        assert!(matches!(check_lia(&cs, &cfg()), LiaResult::Infeasible(_)));
        // Dropping the last makes it feasible.
        let cs2 = &cs[..2];
        assert!(matches!(check_lia(cs2, &cfg()), LiaResult::Feasible(_)));
    }

    #[test]
    fn branch_and_bound_detects_integer_infeasibility() {
        // 2x >= 1 && 2x <= 1  has the rational solution x = 1/2 but no
        // integer solution.
        let cs = vec![le0(&[("x", -2)], 1), le0(&[("x", 2)], -1)];
        match check_lia(&cs, &cfg()) {
            LiaResult::Infeasible(_) => {}
            other => panic!("expected integer infeasible, got {other:?}"),
        }
        // The rational relaxation is feasible.
        assert!(matches!(
            check_rational(&cs, &cfg()),
            LiaResult::Feasible(_)
        ));
    }

    #[test]
    fn branch_and_bound_finds_integer_model() {
        // 2x + 3y = 7 && x >= 0 && y >= 0 (as inequalities).
        let cs = vec![
            le0(&[("x", 2), ("y", 3)], -7),
            le0(&[("x", -2), ("y", -3)], 7),
            le0(&[("x", -1)], 0),
            le0(&[("y", -1)], 0),
        ];
        match check_lia(&cs, &cfg()) {
            LiaResult::Feasible(model) => assert!(model_satisfies(&cs, &model)),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn typical_verification_condition_shape() {
        // From `decr`: n >= 0, n > 0, and the *negated* goal n - 1 < 0.
        // Should be infeasible (i.e. the VC is valid).
        let cs = vec![
            le0(&[("nv", -1)], 0), // n >= 0
            le0(&[("nv", -1)], 1), // n >= 1  (n > 0)
            le0(&[("nv", 1)], 0),  // n - 1 < 0  ⟺  n <= 0
        ];
        assert!(matches!(check_lia(&cs, &cfg()), LiaResult::Infeasible(_)));
    }

    #[test]
    fn loop_counter_invariant_shape() {
        // i <= len && i >= len && ¬(i = len) encoded as i <= len-1 is infeasible.
        let cs = vec![
            le0(&[("i", 1), ("lenv", -1)], 0),
            le0(&[("i", -1), ("lenv", 1)], 0),
            le0(&[("i", 1), ("lenv", -1)], 1),
        ];
        assert!(matches!(check_lia(&cs, &cfg()), LiaResult::Infeasible(_)));
    }

    #[test]
    fn many_variables_feasible() {
        // x1 <= x2 <= ... <= x6, x1 >= 0, x6 <= 100
        let names = ["x1", "x2", "x3", "x4", "x5", "x6"];
        let mut cs = Vec::new();
        for w in names.windows(2) {
            cs.push(le0(&[(w[0], 1), (w[1], -1)], 0));
        }
        cs.push(le0(&[("x1", -1)], 0));
        cs.push(le0(&[("x6", 1)], -100));
        match check_lia(&cs, &cfg()) {
            LiaResult::Feasible(model) => assert!(model_satisfies(&cs, &model)),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn constraint_vars_collects_names() {
        let cs = vec![le0(&[("p", 1), ("q", -1)], 0)];
        let vars = constraint_vars(&cs);
        assert!(vars.contains(&n("p")) && vars.contains(&n("q")));
    }

    /// Asserting, retracting and re-asserting bounds over one persistent
    /// tableau must reach the same verdicts as fresh one-shot checks.
    #[test]
    fn push_pop_reaches_one_shot_verdicts() {
        let family = [
            le0(&[("a", 1), ("b", -1)], 0), // a <= b
            le0(&[("b", 1), ("c", -1)], 0), // b <= c
            le0(&[("a", -1)], 0),           // a >= 0
            le0(&[("c", 1)], -10),          // c <= 10
            le0(&[("c", 1), ("a", -1)], 1), // c <= a - 1 (breaks the chain)
        ];
        let mut simplex = IncrementalSimplex::new(cfg());
        let slots: Vec<SlotId> = family.iter().map(|c| simplex.register(c)).collect();
        // Scope 1: the feasible chain (constraints 0..4).
        simplex.push();
        for (i, slot) in slots[..4].iter().enumerate() {
            assert!(simplex.assert_constraint(*slot, true, i).is_ok());
        }
        assert!(matches!(simplex.check_integer(), LiaResult::Feasible(_)));
        // Scope 2: add the contradiction on top.
        simplex.push();
        assert!(simplex.assert_constraint(slots[4], true, 4).is_ok());
        match simplex.check_integer() {
            LiaResult::Infeasible(core) => {
                // The core must be an actually-infeasible subset.
                let subset: Vec<LinConstraint> = core.iter().map(|&i| family[i].clone()).collect();
                assert!(matches!(
                    check_lia(&subset, &cfg()),
                    LiaResult::Infeasible(_)
                ));
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
        // Retract the contradiction: feasible again.
        simplex.pop();
        assert!(matches!(simplex.check_integer(), LiaResult::Feasible(_)));
        simplex.pop();
        // Everything retracted: trivially feasible.
        assert!(matches!(simplex.check_integer(), LiaResult::Feasible(_)));
    }

    /// Registration is deduplicated: the same constraint (and the same
    /// variable part) never grows the tableau twice.
    #[test]
    fn registration_is_deduplicated() {
        let mut simplex = IncrementalSimplex::new(cfg());
        let c1 = le0(&[("p", 1), ("q", 2)], -3);
        let c2 = le0(&[("p", 1), ("q", 2)], -5); // same row, different constant
        let s1 = simplex.register(&c1);
        let s1_again = simplex.register(&c1);
        assert_eq!(s1, s1_again);
        let vars_before = simplex.num_vars();
        let s2 = simplex.register(&c2);
        assert_ne!(s1, s2);
        assert_eq!(
            simplex.num_vars(),
            vars_before,
            "constraints sharing a variable part must share the slack row"
        );
    }

    /// Random small systems: if the solver says feasible, the model must
    /// satisfy every constraint; if it says infeasible, brute force over a
    /// small box must also find no solution whenever the system only
    /// involves small coefficients (soundness spot-check).
    #[test]
    fn random_systems_agree_with_brute_force() {
        let mut rng = Rng::new(0x51312EED);
        for case in 0..64 {
            let num_constraints = rng.int_in(1, 5) as usize;
            let sys: Vec<(Vec<i128>, i128)> = (0..num_constraints)
                .map(|_| {
                    let coeffs = (0..3).map(|_| rng.int_in(-3, 3)).collect();
                    (coeffs, rng.int_in(-4, 4))
                })
                .collect();
            let var_names = ["a", "b", "c"];
            let cs: Vec<LinConstraint> = sys
                .iter()
                .map(|(coeffs, c)| {
                    let terms: Vec<(&str, i128)> = var_names
                        .iter()
                        .zip(coeffs)
                        .map(|(v, k)| (*v, *k))
                        .collect();
                    le0(&terms, *c)
                })
                .collect();

            // Brute force over a small box.
            let mut brute_feasible = false;
            'outer: for a in -6i128..=6 {
                for b in -6i128..=6 {
                    for c in -6i128..=6 {
                        let model: BTreeMap<Name, i128> = [(n("a"), a), (n("b"), b), (n("c"), c)]
                            .into_iter()
                            .collect();
                        if model_satisfies(&cs, &model) {
                            brute_feasible = true;
                            break 'outer;
                        }
                    }
                }
            }

            match check_lia(&cs, &cfg()) {
                LiaResult::Feasible(model) => {
                    assert!(
                        model_satisfies(&cs, &model),
                        "case {case}: claimed model does not satisfy"
                    );
                }
                LiaResult::Infeasible(_) => {
                    assert!(
                        !brute_feasible,
                        "case {case}: solver said infeasible but brute force found a model"
                    );
                }
                LiaResult::Unknown => {}
            }
        }
    }
}
