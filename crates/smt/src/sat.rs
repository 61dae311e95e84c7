//! A small incremental CDCL SAT solver.
//!
//! This is the propositional core of the DPLL(T) loop.  It implements
//! conflict-driven clause learning with 1-UIP conflict analysis,
//! non-chronological backjumping, activity-based decisions, phase saving
//! and **two-watched-literal propagation**: every clause of two or more
//! literals watches two of them, and only the clauses watching a literal
//! that just became false are visited, with lazy watch repair (a false
//! watch migrates to any other non-false literal of the clause).  The
//! watcher lists survive across [`SatSolver::solve_under_assumptions`]
//! calls and are rebuilt wholesale by [`SatSolver::compact`].  The unit
//! tests check verdicts against brute-force enumeration.
//!
//! The solver is *incremental*: variables can be added after construction
//! ([`SatSolver::new_var`]), and [`SatSolver::solve_under_assumptions`]
//! decides satisfiability under a set of assumption literals while keeping
//! the clause database — including everything learned from conflicts —
//! for later calls.  Assumptions are enqueued as forced decisions below all
//! search decisions, exactly as in MiniSat: a learned clause is an ordinary
//! resolvent of the database and thus remains valid for every later query,
//! no matter which assumptions produced it.  [`crate::Session`] builds on
//! this to keep one persistent SAT core per hypothesis context, pushing
//! each goal's negation through a fresh activation literal.
//!
//! Clauses added between searches are *not* attached to the watcher lists
//! immediately: they are queued and integrated at the start of the next
//! search (or compaction), on the level-0 trail, where a new clause that is
//! already unit or falsified can be handled soundly.  Attaching eagerly
//! mid-search would break the watch invariant — both watches of a new
//! clause could be false at levels the propagation queue has already
//! drained, so the clause would never be revisited.

use crate::ResourceBudget;
use std::fmt;

/// A propositional literal: variable index plus phase.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatLit {
    /// Variable index (0-based).
    pub var: usize,
    /// `true` for the positive phase.
    pub positive: bool,
}

impl SatLit {
    /// Creates a literal.
    pub fn new(var: usize, positive: bool) -> SatLit {
        SatLit { var, positive }
    }

    /// The complementary literal.
    pub fn negated(self) -> SatLit {
        SatLit {
            var: self.var,
            positive: !self.positive,
        }
    }
}

impl fmt::Debug for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "x{}", self.var)
        } else {
            write!(f, "¬x{}", self.var)
        }
    }
}

/// Index of a literal into the watcher table.
fn watch_idx(lit: SatLit) -> usize {
    lit.var * 2 + lit.positive as usize
}

/// One watcher-list entry: the watching clause plus a *blocking literal* —
/// some other literal of the clause (typically the other watch).  If the
/// blocker is true the clause is satisfied and the visit skips without
/// touching the clause at all; propagation through hypothesis CNF that a
/// retired goal already satisfied is the dominant cost on long sessions,
/// and most of those visits die on the blocker check.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: usize,
    blocker: SatLit,
}

/// Result of a SAT check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with an assignment indexed by variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Resource limit exceeded.
    Unknown,
}

/// A CDCL SAT solver over a growable set of variables.
pub struct SatSolver {
    num_vars: usize,
    clauses: Vec<Vec<SatLit>>,
    /// Whether each clause was learned from a conflict (as opposed to added
    /// by the caller).  Only learned clauses are eligible for DB reduction:
    /// they are resolvents, so dropping them can never change a verdict.
    learned: Vec<bool>,
    /// MiniSat-style clause activities, bumped when a clause participates
    /// in conflict analysis; only meaningful for learned clauses.
    clause_activity: Vec<f64>,
    /// Watcher lists: for each literal, the clauses watching it (watched
    /// literals are kept at positions 0 and 1 of each clause).
    watches: Vec<Vec<Watcher>>,
    /// Clauses added since the last search, not yet attached to `watches`.
    pending: Vec<usize>,
    /// Current assignment (None = unassigned).
    assignment: Vec<Option<bool>>,
    /// Decision level at which each variable was assigned.
    level: Vec<usize>,
    /// Index of the clause that propagated each variable (None = decision).
    reason: Vec<Option<usize>>,
    /// Assignment trail, in order.
    trail: Vec<SatLit>,
    /// Start index in `trail` of each decision level.
    trail_lim: Vec<usize>,
    /// Next trail index to propagate.
    propagated: usize,
    /// Variable activities for branching.
    activity: Vec<f64>,
    /// Binary max-heap over candidate decision variables, ordered by
    /// activity (lazy deletion: assigned variables stay until popped).
    /// Rebuilt from the active set at the start of each search, so between
    /// searches it may be stale; within one it makes each decision
    /// O(log n) instead of an O(num_vars) scan — which dominated search
    /// time on decision-heavy (low-conflict) queries.
    order_heap: Vec<usize>,
    /// Position of each variable in `order_heap` (`usize::MAX` if absent).
    heap_pos: Vec<usize>,
    /// Saved phases.
    saved_phase: Vec<bool>,
    activity_inc: f64,
    clause_activity_inc: f64,
    /// Learned clauses currently in the database.
    num_learned: usize,
    /// Learned-clause count that triggers the next DB reduction.
    learn_limit: usize,
    /// Set to true if an empty clause was added.
    trivially_unsat: bool,
    /// Cumulative count of literals enqueued by unit propagation.
    propagations: usize,
    /// Cumulative count of watcher visits skipped by a true blocking
    /// literal.
    blocked_visits: usize,
    /// Cumulative count of learned-clause-DB reductions performed.
    db_reductions: usize,
    /// Cumulative count of searches abandoned because a resource budget
    /// (decision/conflict cap or deadline) tripped.
    budget_stops: usize,
    /// Per-search decision/conflict caps and the (amortized) wall-clock
    /// deadline; tripping one returns [`SatResult::Unknown`], never a wrong
    /// verdict.
    budget: ResourceBudget,
}

impl SatSolver {
    /// Creates a solver over `num_vars` variables with no clauses, searching
    /// under `budget`.
    pub fn new(num_vars: usize, budget: ResourceBudget) -> SatSolver {
        SatSolver {
            num_vars,
            clauses: Vec::new(),
            learned: Vec::new(),
            clause_activity: Vec::new(),
            watches: vec![Vec::new(); num_vars * 2],
            pending: Vec::new(),
            assignment: vec![None; num_vars],
            level: vec![0; num_vars],
            reason: vec![None; num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagated: 0,
            activity: vec![0.0; num_vars],
            order_heap: Vec::new(),
            heap_pos: vec![usize::MAX; num_vars],
            saved_phase: vec![false; num_vars],
            activity_inc: 1.0,
            clause_activity_inc: 1.0,
            num_learned: 0,
            learn_limit: 256,
            trivially_unsat: false,
            propagations: 0,
            blocked_visits: 0,
            db_reductions: 0,
            budget_stops: 0,
            budget,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Cumulative number of literals assigned by unit propagation since
    /// creation.  Monotone; callers attribute work by differencing.
    pub fn propagations(&self) -> usize {
        self.propagations
    }

    /// Cumulative number of watcher visits resolved by the blocking
    /// literal alone.  Monotone; callers attribute work by differencing.
    pub fn blocked_visits(&self) -> usize {
        self.blocked_visits
    }

    /// Cumulative number of learned-clause-DB reductions.  Monotone.
    pub fn db_reductions(&self) -> usize {
        self.db_reductions
    }

    /// Cumulative number of searches abandoned by a resource budget.
    /// Monotone; callers attribute stops by differencing.  Zero under the
    /// default budget unless a search reaches the built-in conflict cap.
    pub fn budget_stops(&self) -> usize {
        self.budget_stops
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        let var = self.num_vars;
        self.ensure_vars(var + 1);
        var
    }

    /// Grows the variable range to at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        if n <= self.num_vars {
            return;
        }
        self.assignment.resize(n, None);
        self.level.resize(n, 0);
        self.reason.resize(n, None);
        self.activity.resize(n, 0.0);
        self.heap_pos.resize(n, usize::MAX);
        self.saved_phase.resize(n, false);
        self.watches.resize(n * 2, Vec::new());
        self.num_vars = n;
    }

    /// Adds a clause.  Duplicate literals are removed; tautological clauses
    /// are ignored.  Variables beyond the current range are allocated on
    /// demand, so incremental callers need not pre-size the solver.  The
    /// clause is integrated into the watcher lists at the start of the next
    /// search (see the module docs for why attachment is deferred).
    pub fn add_clause(&mut self, mut lits: Vec<SatLit>) {
        if let Some(max_var) = lits.iter().map(|l| l.var).max() {
            self.ensure_vars(max_var + 1);
        }
        lits.sort_by_key(|l| (l.var, l.positive));
        lits.dedup();
        // Tautology?
        for w in lits.windows(2) {
            if w[0].var == w[1].var && w[0].positive != w[1].positive {
                return;
            }
        }
        if lits.is_empty() {
            self.trivially_unsat = true;
            return;
        }
        self.clauses.push(lits);
        self.learned.push(false);
        self.clause_activity.push(0.0);
        self.pending.push(self.clauses.len() - 1);
    }

    fn value(&self, lit: SatLit) -> Option<bool> {
        self.assignment[lit.var].map(|v| v == lit.positive)
    }

    fn current_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn enqueue(&mut self, lit: SatLit, reason: Option<usize>) {
        debug_assert!(self.assignment[lit.var].is_none());
        self.assignment[lit.var] = Some(lit.positive);
        self.level[lit.var] = self.current_level();
        self.reason[lit.var] = reason;
        self.trail.push(lit);
        if reason.is_some() {
            self.propagations += 1;
        }
    }

    /// Integrates clause `ci` into the watcher lists.  Must run on a
    /// level-0 trail: a clause that is unit under the level-0 assignment is
    /// enqueued here, and one that is falsified makes the database
    /// trivially unsatisfiable.
    fn attach_clause(&mut self, ci: usize) {
        debug_assert_eq!(self.current_level(), 0);
        if self.clauses[ci].len() == 1 {
            // Units carry no watches: their literal is fixed at level 0,
            // which never backtracks, so the clause can never become
            // unsatisfied later without the whole database being unsat.
            let l = self.clauses[ci][0];
            match self.value(l) {
                Some(true) => {}
                Some(false) => self.trivially_unsat = true,
                None => self.enqueue(l, Some(ci)),
            }
            return;
        }
        // Move two non-false literals to the watch positions.
        let len = self.clauses[ci].len();
        let mut found = 0usize;
        for k in 0..len {
            if self.value(self.clauses[ci][k]) != Some(false) {
                self.clauses[ci].swap(found, k);
                found += 1;
                if found == 2 {
                    break;
                }
            }
        }
        match found {
            0 => {
                // Every literal is false at level 0.
                self.trivially_unsat = true;
                return;
            }
            1 => {
                // Unit under the level-0 assignment: enqueue the survivor.
                // The second watch is a level-0-false literal, which is
                // harmless — the clause is satisfied at level 0 from here
                // on and never needs revisiting.
                let l = self.clauses[ci][0];
                if self.value(l).is_none() {
                    self.enqueue(l, Some(ci));
                }
            }
            _ => {}
        }
        let l0 = self.clauses[ci][0];
        let l1 = self.clauses[ci][1];
        // Each watch's blocker is the other watch: it is the literal most
        // likely to be true when this one becomes false.
        self.watches[watch_idx(l0)].push(Watcher {
            clause: ci,
            blocker: l1,
        });
        self.watches[watch_idx(l1)].push(Watcher {
            clause: ci,
            blocker: l0,
        });
    }

    /// Attaches every clause added since the last search.
    fn flush_pending(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for ci in pending {
            self.attach_clause(ci);
        }
    }

    /// Unit propagation.  Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.propagated < self.trail.len() {
            let lit = self.trail[self.propagated];
            self.propagated += 1;
            let false_lit = lit.negated();
            let widx = watch_idx(false_lit);
            // The list is taken wholesale; watch migrations push onto
            // *other* lists (the new watch is non-false, the old one is
            // false), so re-entrant modification of this list is
            // impossible.
            let mut ws = std::mem::take(&mut self.watches[widx]);
            let mut conflict = None;
            let mut i = 0;
            'watchers: while i < ws.len() {
                // A true blocking literal satisfies the clause without
                // touching it (no cache miss on the clause memory at all).
                if self.value(ws[i].blocker) == Some(true) {
                    self.blocked_visits += 1;
                    i += 1;
                    continue;
                }
                let ci = ws[i].clause;
                // Normalise: the false literal sits at position 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                let first = self.clauses[ci][0];
                if self.value(first) == Some(true) {
                    // Remember the satisfying literal for future visits.
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Try to migrate the watch to a non-false literal.
                for k in 2..self.clauses[ci].len() {
                    let cand = self.clauses[ci][k];
                    if self.value(cand) != Some(false) {
                        self.clauses[ci].swap(1, k);
                        self.watches[watch_idx(cand)].push(Watcher {
                            clause: ci,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No replacement: `first` is unit or the clause conflicts.
                if self.value(first) == Some(false) {
                    conflict = Some(ci);
                    break;
                }
                self.enqueue(first, Some(ci));
                i += 1;
            }
            self.watches[widx] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.activity_inc;
        if self.activity[var] > 1e100 {
            // Order-preserving rescale: heap order is unaffected.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
        if self.heap_pos[var] != usize::MAX {
            self.heap_sift_up(self.heap_pos[var]);
        }
    }

    fn decay_activities(&mut self) {
        self.activity_inc /= 0.95;
        self.clause_activity_inc /= 0.999;
    }

    /// Bumps the activity of a clause that participated in conflict
    /// analysis.  Only learned clauses keep a meaningful activity, but
    /// bumping originals too is harmless — reduction never considers them.
    fn bump_clause(&mut self, ci: usize) {
        self.clause_activity[ci] += self.clause_activity_inc;
        if self.clause_activity[ci] > 1e20 {
            for a in &mut self.clause_activity {
                *a *= 1e-20;
            }
            self.clause_activity_inc *= 1e-20;
        }
    }

    /// 1-UIP conflict analysis.  Returns the learned clause — asserting
    /// literal first, a deepest remaining literal second (the watch-ready
    /// order) — and the level to backjump to.
    fn analyze(&mut self, conflict: usize) -> (Vec<SatLit>, usize) {
        let current_level = self.current_level();
        let mut learned: Vec<SatLit> = Vec::new();
        let mut seen = vec![false; self.num_vars];
        let mut counter = 0usize;
        let mut clause_lits: Vec<SatLit> = self.clauses[conflict].clone();
        let mut trail_idx = self.trail.len();
        self.bump_clause(conflict);

        loop {
            for lit in &clause_lits {
                let var = lit.var;
                if seen[var] || self.level[var] == 0 {
                    continue;
                }
                seen[var] = true;
                self.bump(var);
                if self.level[var] == current_level {
                    counter += 1;
                } else {
                    learned.push(*lit);
                }
            }
            // Find the next literal on the trail (at the current level) that
            // participates in the conflict.
            let pivot = loop {
                trail_idx -= 1;
                let lit = self.trail[trail_idx];
                if seen[lit.var] {
                    break lit;
                }
            };
            counter -= 1;
            if counter == 0 {
                // `pivot` is the 1-UIP.
                learned.push(pivot.negated());
                break;
            }
            let reason = self.reason[pivot.var].expect("UIP search hit a decision early");
            self.bump_clause(reason);
            clause_lits = self.clauses[reason]
                .iter()
                .copied()
                .filter(|l| l.var != pivot.var)
                .collect();
        }

        // Backjump level: second-highest level in the learned clause.
        let mut backjump = 0;
        for lit in &learned {
            let lvl = self.level[lit.var];
            if lvl != current_level && lvl > backjump {
                backjump = lvl;
            }
        }
        // Watch-ready order: the asserting (UIP) literal at position 0 and
        // a literal of the backjump level at position 1, so after the
        // backjump both watches are the last literals to become false.
        let uip = learned.len() - 1;
        learned.swap(0, uip);
        if learned.len() > 1 {
            for k in 1..learned.len() {
                if self.level[learned[k].var] == backjump {
                    learned.swap(1, k);
                    break;
                }
            }
        }
        (learned, backjump)
    }

    fn backtrack_to(&mut self, level: usize) {
        while self.current_level() > level {
            let start = self.trail_lim.pop().expect("trail limit underflow");
            while self.trail.len() > start {
                let lit = self.trail.pop().expect("trail underflow");
                self.saved_phase[lit.var] = lit.positive;
                self.assignment[lit.var] = None;
                self.reason[lit.var] = None;
                self.heap_insert(lit.var);
            }
        }
        self.propagated = self.trail.len();
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        let v = self.order_heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.order_heap[parent];
            if self.activity[pv] >= self.activity[v] {
                break;
            }
            self.order_heap[i] = pv;
            self.heap_pos[pv] = i;
            i = parent;
        }
        self.order_heap[i] = v;
        self.heap_pos[v] = i;
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        let v = self.order_heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.order_heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.order_heap.len()
                && self.activity[self.order_heap[right]] > self.activity[self.order_heap[left]]
            {
                right
            } else {
                left
            };
            let cv = self.order_heap[child];
            if self.activity[v] >= self.activity[cv] {
                break;
            }
            self.order_heap[i] = cv;
            self.heap_pos[cv] = i;
            i = child;
        }
        self.order_heap[i] = v;
        self.heap_pos[v] = i;
    }

    fn heap_insert(&mut self, v: usize) {
        if self.heap_pos[v] != usize::MAX {
            return;
        }
        self.order_heap.push(v);
        self.heap_pos[v] = self.order_heap.len() - 1;
        self.heap_sift_up(self.order_heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<usize> {
        let top = *self.order_heap.first()?;
        self.heap_pos[top] = usize::MAX;
        let last = self.order_heap.pop().expect("heap is nonempty");
        if !self.order_heap.is_empty() {
            self.order_heap[0] = last;
            self.heap_pos[last] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    /// Rebuilds the decision heap from the query's active set.  Restricting
    /// to active variables matters for incremental use: a long-lived solver
    /// accumulates variables from retired (compacted-away) queries, and a
    /// model need not assign variables no current clause mentions —
    /// deciding them anyway would make each check pay for every check
    /// before it.
    fn heap_rebuild(&mut self, active: &[bool]) {
        for &v in &self.order_heap {
            self.heap_pos[v] = usize::MAX;
        }
        self.order_heap.clear();
        for (v, &is_active) in active.iter().enumerate().take(self.num_vars) {
            if is_active && self.assignment[v].is_none() {
                self.order_heap.push(v);
                self.heap_pos[v] = v; // placeholder; fixed below
            }
        }
        // Bottom-up heapify: O(n), and fixes every position.
        for i in 0..self.order_heap.len() {
            self.heap_pos[self.order_heap[i]] = i;
        }
        for i in (0..self.order_heap.len() / 2).rev() {
            self.heap_sift_down(i);
        }
    }

    /// Picks the unassigned variable with the highest activity among
    /// `active` ones, by popping the decision heap (assigned or inactive
    /// entries are discarded lazily; unassigning re-inserts in
    /// [`SatSolver::backtrack_to`]).
    fn pick_branch_var(&mut self, active: &[bool]) -> Option<usize> {
        while let Some(v) = self.heap_pop() {
            if active[v] && self.assignment[v].is_none() {
                return Some(v);
            }
        }
        None
    }

    /// Runs the CDCL search with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_under_assumptions(&[])
    }

    /// Number of clauses currently in the database (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Drops every clause satisfied by the level-0 assignment.
    ///
    /// Incremental sessions retire a goal by asserting the negation of its
    /// activation literal, which permanently satisfies the goal's guarded
    /// clauses (and every clause learned from them, which carries the
    /// negated guard too).  Compacting removes them; it is sound because a
    /// clause satisfied at level 0 is satisfied in every extension of the
    /// level-0 trail, so it can never constrain the search again.
    ///
    /// Ordering matters for the watched scheme: pending clauses are
    /// attached and level-0 propagation is run to a fixpoint *before*
    /// retention, so no clause can hold a pending propagation when it is
    /// dropped or shrunk.  Surviving clauses then have at least two
    /// unassigned literals each (a survivor with exactly one would have
    /// been propagated, satisfying it), their level-0-false literals are
    /// removed outright (level 0 never backtracks, so such literals are
    /// dead weight in every future search), and the watcher lists are
    /// rebuilt from scratch — removal reindexes the clause database, which
    /// also invalidates the `reason` indices of level-0 trail entries;
    /// those are cleared, which is equivalent because conflict analysis
    /// skips level-0 literals outright.
    pub fn compact(&mut self) {
        self.backtrack_to(0);
        self.flush_pending();
        if self.trivially_unsat {
            return;
        }
        if self.propagate().is_some() {
            // A level-0 conflict: the database is unsatisfiable outright.
            self.trivially_unsat = true;
            return;
        }
        let assignment = &self.assignment;
        let keep: Vec<bool> = self
            .clauses
            .iter()
            .map(|c| !c.iter().any(|l| assignment[l.var] == Some(l.positive)))
            .collect();
        for (ci, c) in self.clauses.iter_mut().enumerate() {
            if keep[ci] {
                c.retain(|l| self.assignment[l.var].map(|v| v == l.positive) != Some(false));
            }
        }
        self.retain_clauses(&keep);
    }

    /// Drops the clauses whose `keep` flag is false, keeping the per-clause
    /// metadata (`learned`, `clause_activity`) in sync, and rebuilds the
    /// watcher lists from scratch.  Removal reindexes the clause database,
    /// which also invalidates the `reason` indices of level-0 trail
    /// entries; those are cleared, which is equivalent because conflict
    /// analysis skips level-0 literals outright.  Must run on a level-0
    /// trail with no pending clauses.
    fn retain_clauses(&mut self, keep: &[bool]) {
        debug_assert_eq!(self.current_level(), 0);
        debug_assert!(self.pending.is_empty());
        let old_clauses = std::mem::take(&mut self.clauses);
        let old_learned = std::mem::take(&mut self.learned);
        let old_activity = std::mem::take(&mut self.clause_activity);
        self.num_learned = 0;
        for (ci, clause) in old_clauses.into_iter().enumerate() {
            if keep[ci] {
                self.clauses.push(clause);
                self.learned.push(old_learned[ci]);
                self.clause_activity.push(old_activity[ci]);
                if old_learned[ci] {
                    self.num_learned += 1;
                }
            }
        }
        for w in &mut self.watches {
            w.clear();
        }
        for ci in 0..self.clauses.len() {
            self.attach_clause(ci);
        }
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var] = None;
        }
    }

    /// MiniSat-style learned-clause-DB reduction: drops the lowest-activity
    /// half of the reducible learned clauses (binaries and caller-added
    /// clauses are always kept).  Sound because a learned clause is a
    /// resolvent of the database — removing it can never change a verdict,
    /// only the search path; the equivalence suite pins this.  Runs on the
    /// level-0 trail with pending flushed, like [`SatSolver::compact`].
    fn reduce_db(&mut self) {
        let mut acts: Vec<f64> = (0..self.clauses.len())
            .filter(|&ci| self.learned[ci] && self.clauses[ci].len() > 2)
            .map(|ci| self.clause_activity[ci])
            .collect();
        if acts.len() < 2 {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).expect("activities are finite"));
        let median = acts[acts.len() / 2];
        let keep: Vec<bool> = (0..self.clauses.len())
            .map(|ci| {
                !self.learned[ci]
                    || self.clauses[ci].len() <= 2
                    || self.clause_activity[ci] >= median
            })
            .collect();
        self.retain_clauses(&keep);
        self.db_reductions += 1;
        // Geometric growth: long-lived sessions keep proportionally more of
        // what they keep re-deriving.
        self.learn_limit += self.learn_limit / 2;
    }

    /// Runs the CDCL search under `assumptions`.
    ///
    /// `Unsat` means the clause database has no model in which every
    /// assumption literal holds (the database alone may still be
    /// satisfiable).  The clause database — including clauses learned during
    /// this call — is retained, so subsequent calls resume with everything
    /// already derived.  Any search state from a previous call is undone by
    /// backtracking to decision level 0 first; level-0 facts (units and
    /// their propagations) are permanent.
    pub fn solve_under_assumptions(&mut self, assumptions: &[SatLit]) -> SatResult {
        if self.trivially_unsat {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        self.flush_pending();
        if self.trivially_unsat {
            return SatResult::Unsat;
        }
        if self.num_learned >= self.learn_limit {
            self.reduce_db();
            if self.trivially_unsat {
                return SatResult::Unsat;
            }
        }
        // Variables this query can constrain: everything a current clause
        // or assumption mentions.  Clauses learned during the search only
        // resolve existing clauses, so they never activate a new variable.
        let mut active = vec![false; self.num_vars];
        for clause in &self.clauses {
            for l in clause {
                active[l.var] = true;
            }
        }
        for a in assumptions {
            active[a.var] = true;
        }
        self.heap_rebuild(&active);
        if crate::testing::inject_fault("sat") == Some(crate::testing::Fault::Unknown) {
            self.budget_stops += 1;
            self.backtrack_to(0);
            return SatResult::Unknown;
        }
        let budget = self.budget;
        let conflict_cap = budget.sat_conflict_cap();
        let mut conflicts = 0u64;
        let mut decisions = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                conflicts += 1;
                // Budget governance: the conflict cap exactly, the deadline
                // amortized (one clock read per 64 conflicts).
                if conflicts > conflict_cap
                    || (conflicts.is_multiple_of(64) && budget.deadline_exceeded())
                {
                    self.budget_stops += 1;
                    self.backtrack_to(0);
                    return SatResult::Unknown;
                }
                if self.current_level() == 0 {
                    return SatResult::Unsat;
                }
                let (learned, backjump) = self.analyze(conflict);
                self.backtrack_to(backjump);
                let assert_lit = learned[0];
                self.clauses.push(learned);
                self.learned.push(true);
                self.clause_activity.push(self.clause_activity_inc);
                self.num_learned += 1;
                let ci = self.clauses.len() - 1;
                if self.clauses[ci].len() >= 2 {
                    let l0 = self.clauses[ci][0];
                    let l1 = self.clauses[ci][1];
                    self.watches[watch_idx(l0)].push(Watcher {
                        clause: ci,
                        blocker: l1,
                    });
                    self.watches[watch_idx(l1)].push(Watcher {
                        clause: ci,
                        blocker: l0,
                    });
                }
                if self.value(assert_lit).is_none() {
                    self.enqueue(assert_lit, Some(ci));
                } else if self.value(assert_lit) == Some(false) {
                    // Can happen only at level 0 with a unit learned clause.
                    return SatResult::Unsat;
                }
                self.decay_activities();
            } else {
                // Re-establish assumptions (in order) before any search
                // decision; backjumps may have unassigned a suffix of them.
                let mut next_decision = None;
                for &a in assumptions {
                    match self.value(a) {
                        Some(true) => continue,
                        // The negation of an assumption is implied by the
                        // database together with the assumptions already
                        // placed (only assumptions are decided below this
                        // point), so the query is unsat under assumptions.
                        Some(false) => {
                            self.backtrack_to(0);
                            return SatResult::Unsat;
                        }
                        None => {
                            next_decision = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next_decision {
                    Some(a) => a,
                    None => match self.pick_branch_var(&active) {
                        None => {
                            let model =
                                self.assignment.iter().map(|v| v.unwrap_or(false)).collect();
                            return SatResult::Sat(model);
                        }
                        Some(var) => SatLit::new(var, self.saved_phase[var]),
                    },
                };
                decisions += 1;
                // Budget governance mirrors the conflict site: decision cap
                // exact, deadline amortized (one clock read per 256
                // decisions).
                if budget.sat_decisions.is_some_and(|cap| decisions > cap)
                    || (decisions.is_multiple_of(256) && budget.deadline_exceeded())
                {
                    self.budget_stops += 1;
                    self.backtrack_to(0);
                    return SatResult::Unknown;
                }
                self.trail_lim.push(self.trail.len());
                self.enqueue(decision, None);
            }
        }
    }

    /// Audits the solver's internal data-structure invariants; part of the
    /// `FLUX_AUDIT=full` tier, runnable between searches (the trail may be
    /// mid-model: [`SatSolver::solve_under_assumptions`] returns `Sat`
    /// without backtracking).  Checks the two-watched-literal scheme (every
    /// attached clause of two or more literals watched exactly once at each
    /// of positions 0 and 1, blockers drawn from the clause, units and
    /// pending clauses unwatched), the trail/assignment bijection, decision
    /// levels against `trail_lim`, reason indices, metadata lengths, and
    /// the decision heap (index map and max-heap property).  Returns a
    /// description of the first violation found — which is a solver bug,
    /// never a property of the input.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.trivially_unsat {
            // An empty/falsified clause short-circuits attachment midway;
            // the remaining state is dead and intentionally unspecified.
            return Ok(());
        }
        let n = self.num_vars;
        if self.learned.len() != self.clauses.len()
            || self.clause_activity.len() != self.clauses.len()
        {
            return Err(format!(
                "clause metadata out of sync: {} clauses, {} learned flags, {} activities",
                self.clauses.len(),
                self.learned.len(),
                self.clause_activity.len()
            ));
        }
        if self.num_learned != self.learned.iter().filter(|&&l| l).count() {
            return Err(format!(
                "num_learned = {} disagrees with flags",
                self.num_learned
            ));
        }
        if self.watches.len() != n * 2
            || self.assignment.len() != n
            || self.level.len() != n
            || self.reason.len() != n
            || self.activity.len() != n
            || self.heap_pos.len() != n
            || self.saved_phase.len() != n
        {
            return Err("per-variable array lengths disagree with num_vars".to_owned());
        }
        // Watcher lists: `seen[ci]` counts watchers of clause `ci` found at
        // the list of its literal 0 resp. literal 1.
        let mut seen = vec![[0usize; 2]; self.clauses.len()];
        for (idx, list) in self.watches.iter().enumerate() {
            let lit = SatLit::new(idx / 2, idx % 2 == 1);
            for w in list {
                let Some(clause) = self.clauses.get(w.clause) else {
                    return Err(format!("watcher references dropped clause #{}", w.clause));
                };
                let which = if clause.first() == Some(&lit) {
                    0
                } else if clause.get(1) == Some(&lit) {
                    1
                } else {
                    return Err(format!(
                        "clause #{} is watched at {lit:?}, which is not at position 0 or 1: {clause:?}",
                        w.clause
                    ));
                };
                if !clause.contains(&w.blocker) {
                    return Err(format!(
                        "watcher of clause #{} has foreign blocker {:?}",
                        w.clause, w.blocker
                    ));
                }
                seen[w.clause][which] += 1;
            }
        }
        for (ci, counts) in seen.iter().enumerate() {
            let unwatched = self.pending.contains(&ci) || self.clauses[ci].len() == 1;
            let expected = if unwatched { [0, 0] } else { [1, 1] };
            if *counts != expected {
                return Err(format!(
                    "clause #{ci} ({:?}, pending = {}) has watch counts {counts:?}, expected {expected:?}",
                    self.clauses[ci],
                    self.pending.contains(&ci)
                ));
            }
        }
        // Trail/assignment bijection and decision levels.
        let mut on_trail = vec![false; n];
        let mut lims_before = 0usize;
        for (i, lit) in self.trail.iter().enumerate() {
            while lims_before < self.trail_lim.len() && self.trail_lim[lims_before] <= i {
                lims_before += 1;
            }
            if std::mem::replace(&mut on_trail[lit.var], true) {
                return Err(format!("variable {} appears twice on the trail", lit.var));
            }
            if self.assignment[lit.var] != Some(lit.positive) {
                return Err(format!(
                    "trail entry {lit:?} disagrees with assignment {:?}",
                    self.assignment[lit.var]
                ));
            }
            if self.level[lit.var] != lims_before {
                return Err(format!(
                    "trail entry {lit:?} at index {i} has level {}, expected {lims_before}",
                    self.level[lit.var]
                ));
            }
            if let Some(ci) = self.reason[lit.var] {
                if ci >= self.clauses.len() {
                    return Err(format!("reason of {lit:?} references dropped clause #{ci}"));
                }
            }
        }
        let assigned = self.assignment.iter().filter(|a| a.is_some()).count();
        if assigned != self.trail.len() {
            return Err(format!(
                "{assigned} variables assigned but trail has {} entries",
                self.trail.len()
            ));
        }
        if self.propagated > self.trail.len() {
            return Err(format!(
                "propagation index {} past the trail ({} entries)",
                self.propagated,
                self.trail.len()
            ));
        }
        for w in self.trail_lim.windows(2) {
            if w[1] <= w[0] {
                return Err(format!(
                    "trail_lim not strictly increasing: {:?}",
                    self.trail_lim
                ));
            }
        }
        if self.trail_lim.last().is_some_and(|&l| l > self.trail.len()) {
            return Err("trail_lim points past the trail".to_owned());
        }
        // Decision heap: the position map inverts the heap array, and every
        // parent's activity dominates its children's.
        let mut in_heap = vec![false; n];
        for (i, &v) in self.order_heap.iter().enumerate() {
            if v >= n {
                return Err(format!("heap entry {v} out of variable range"));
            }
            if std::mem::replace(&mut in_heap[v], true) {
                return Err(format!("variable {v} appears twice in the decision heap"));
            }
            if self.heap_pos[v] != i {
                return Err(format!(
                    "heap_pos[{v}] = {} but the variable sits at heap index {i}",
                    self.heap_pos[v]
                ));
            }
            if i > 0 {
                let parent = self.order_heap[(i - 1) / 2];
                if self.activity[parent] < self.activity[v] {
                    return Err(format!(
                        "heap property violated: parent {parent} ({}) < child {v} ({})",
                        self.activity[parent], self.activity[v]
                    ));
                }
            }
        }
        for (v, &present) in in_heap.iter().enumerate() {
            if !present && self.heap_pos[v] != usize::MAX {
                return Err(format!(
                    "heap_pos[{v}] = {} but the variable is not in the heap",
                    self.heap_pos[v]
                ));
            }
        }
        Ok(())
    }
}

/// Checks whether `assignment` satisfies all `clauses`; test helper.
pub fn assignment_satisfies(clauses: &[Vec<SatLit>], assignment: &[bool]) -> bool {
    clauses
        .iter()
        .all(|clause| clause.iter().any(|lit| assignment[lit.var] == lit.positive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Rng;

    fn lit(v: usize, pos: bool) -> SatLit {
        SatLit::new(v, pos)
    }

    fn solve_clauses(num_vars: usize, clauses: &[Vec<SatLit>]) -> SatResult {
        let mut solver = SatSolver::new(num_vars, ResourceBudget::UNLIMITED);
        for c in clauses {
            solver.add_clause(c.clone());
        }
        solver.solve()
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(matches!(solve_clauses(3, &[]), SatResult::Sat(_)));
    }

    #[test]
    fn unit_clauses_propagate() {
        let clauses = vec![vec![lit(0, true)], vec![lit(1, false)]];
        match solve_clauses(2, &clauses) {
            SatResult::Sat(m) => {
                assert!(m[0]);
                assert!(!m[1]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let clauses = vec![vec![lit(0, true)], vec![lit(0, false)]];
        assert_eq!(solve_clauses(1, &clauses), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (¬a ∨ b) ∧ (¬b ∨ c) ∧ a ∧ ¬c is unsat.
        let clauses = vec![
            vec![lit(0, false), lit(1, true)],
            vec![lit(1, false), lit(2, true)],
            vec![lit(0, true)],
            vec![lit(2, false)],
        ];
        assert_eq!(solve_clauses(3, &clauses), SatResult::Unsat);
    }

    #[test]
    fn satisfiable_3sat_instance() {
        let clauses = vec![
            vec![lit(0, true), lit(1, true), lit(2, true)],
            vec![lit(0, false), lit(1, false)],
            vec![lit(1, true), lit(2, false)],
            vec![lit(0, true), lit(2, true)],
        ];
        match solve_clauses(3, &clauses) {
            SatResult::Sat(m) => assert!(assignment_satisfies(&clauses, &m)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // p0 and p1 each must be placed in the single hole, but not both.
        let clauses = vec![
            vec![lit(0, true)],
            vec![lit(1, true)],
            vec![lit(0, false), lit(1, false)],
        ];
        assert_eq!(solve_clauses(2, &clauses), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Variables x_{p,h} = p*2 + h, p in 0..3, h in 0..2.
        let var = |p: usize, h: usize| p * 2 + h;
        let mut clauses = Vec::new();
        for p in 0..3 {
            clauses.push(vec![lit(var(p, 0), true), lit(var(p, 1), true)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    clauses.push(vec![lit(var(p1, h), false), lit(var(p2, h), false)]);
                }
            }
        }
        assert_eq!(solve_clauses(6, &clauses), SatResult::Unsat);
    }

    /// A pigeonhole instance hard enough to overflow the learned-clause
    /// limit: the reduction heuristic must actually fire, and dropping
    /// low-activity learned clauses must not change the verdict (PHP(9,8)
    /// is unsatisfiable by construction).
    #[test]
    fn db_reduction_fires_and_preserves_the_verdict() {
        let pigeons = 9;
        let holes = 8;
        let var = |p: usize, h: usize| p * holes + h;
        let mut clauses = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| lit(var(p, h), true)).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![lit(var(p1, h), false), lit(var(p2, h), false)]);
                }
            }
        }
        let mut solver = SatSolver::new(pigeons * holes, ResourceBudget::UNLIMITED);
        for c in &clauses {
            solver.add_clause(c.clone());
        }
        // Reduction runs on the level-0 trail *between* searches: the first
        // solve piles up learned clauses, the second opens by reducing them
        // and must re-derive the same verdict.
        assert_eq!(solver.solve(), SatResult::Unsat);
        assert_eq!(solver.solve(), SatResult::Unsat);
        assert!(
            solver.db_reductions() > 0,
            "the instance must learn enough clauses to trigger a reduction"
        );
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        let clauses = vec![vec![lit(0, true), lit(0, false)], vec![lit(1, true)]];
        match solve_clauses(2, &clauses) {
            SatResult::Sat(m) => assert!(m[1]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut solver = SatSolver::new(1, ResourceBudget::UNLIMITED);
        solver.add_clause(vec![]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn duplicate_literals_are_deduplicated() {
        let clauses = vec![
            vec![lit(0, true), lit(0, true)],
            vec![lit(0, false), lit(1, true)],
        ];
        match solve_clauses(2, &clauses) {
            SatResult::Sat(m) => assert!(assignment_satisfies(&clauses, &m)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    /// Assumption-based solving must keep the clause database usable across
    /// calls: unsat under one assumption, sat under the other, and learned
    /// state must not corrupt later queries.
    #[test]
    fn assumptions_flip_satisfiability_without_corrupting_state() {
        let mut solver = SatSolver::new(0, ResourceBudget::UNLIMITED);
        let g1 = solver.new_var();
        let g2 = solver.new_var();
        let x = solver.new_var();
        // g1 ⟹ x, g2 ⟹ ¬x.
        solver.add_clause(vec![lit(g1, false), lit(x, true)]);
        solver.add_clause(vec![lit(g2, false), lit(x, false)]);
        match solver.solve_under_assumptions(&[lit(g1, true)]) {
            SatResult::Sat(m) => assert!(m[x]),
            other => panic!("expected sat under g1, got {other:?}"),
        }
        match solver.solve_under_assumptions(&[lit(g2, true)]) {
            SatResult::Sat(m) => assert!(!m[x]),
            other => panic!("expected sat under g2, got {other:?}"),
        }
        assert_eq!(
            solver.solve_under_assumptions(&[lit(g1, true), lit(g2, true)]),
            SatResult::Unsat,
            "both guards force contradictory values of x"
        );
        // The database itself is still satisfiable.
        assert!(matches!(solver.solve(), SatResult::Sat(_)));
    }

    /// Compaction must drop clauses satisfied at level 0 while preserving
    /// the level-0 facts they established.
    #[test]
    fn compact_drops_satisfied_clauses_but_keeps_facts() {
        let mut solver = SatSolver::new(0, ResourceBudget::UNLIMITED);
        let g = solver.new_var();
        let a = solver.new_var();
        let b = solver.new_var();
        // Guarded goal clauses: g ⟹ (a ∨ b), g ⟹ ¬a; plus a real fact b ⟹ a...
        solver.add_clause(vec![lit(g, false), lit(a, true), lit(b, true)]);
        solver.add_clause(vec![lit(g, false), lit(a, false)]);
        // An unguarded clause that stays live: a ∨ b.
        solver.add_clause(vec![lit(a, true), lit(b, true)]);
        assert!(matches!(
            solver.solve_under_assumptions(&[lit(g, true)]),
            SatResult::Sat(_)
        ));
        // Retire the guard and compact: both guarded clauses (satisfied by
        // ¬g) disappear, the live clause stays.
        solver.add_clause(vec![lit(g, false)]);
        solver.compact();
        assert_eq!(solver.num_clauses(), 1);
        // The retired fact ¬g persists in the level-0 assignment:
        // assuming g now is immediately unsat.
        assert_eq!(
            solver.solve_under_assumptions(&[lit(g, true)]),
            SatResult::Unsat
        );
        // And the live clause still constrains the search.
        match solver.solve() {
            SatResult::Sat(m) => assert!(m[a] || m[b]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    /// A clause added *between* searches whose literals are already partly
    /// decided at level 0 must still propagate: deferred attachment
    /// integrates it on the level-0 trail at the start of the next search.
    #[test]
    fn clauses_added_between_searches_propagate() {
        let mut solver = SatSolver::new(0, ResourceBudget::UNLIMITED);
        let x = solver.new_var();
        let y = solver.new_var();
        solver.add_clause(vec![lit(x, true)]); // level-0 fact x
        assert!(matches!(solver.solve(), SatResult::Sat(_)));
        // New clause ¬x ∨ y is unit under the level-0 assignment.
        solver.add_clause(vec![lit(x, false), lit(y, true)]);
        match solver.solve() {
            SatResult::Sat(m) => assert!(m[x] && m[y]),
            other => panic!("expected sat, got {other:?}"),
        }
        // And one falsified at level 0 makes the database unsat.
        solver.add_clause(vec![lit(x, false), lit(y, false)]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    /// Compaction must not skip a propagation pending in a clause added
    /// just before the compact (the retired-goal pattern: assert ¬guard,
    /// then compact).
    #[test]
    fn compact_integrates_pending_clauses_before_retention() {
        let mut solver = SatSolver::new(0, ResourceBudget::UNLIMITED);
        let g = solver.new_var();
        let a = solver.new_var();
        solver.add_clause(vec![lit(g, false), lit(a, true)]);
        assert!(matches!(
            solver.solve_under_assumptions(&[lit(g, true)]),
            SatResult::Sat(_)
        ));
        // Retire g without an intervening search: compact must attach the
        // pending unit, propagate ¬g, and drop the satisfied clause.
        solver.add_clause(vec![lit(g, false)]);
        solver.compact();
        assert_eq!(solver.num_clauses(), 0);
        assert_eq!(
            solver.solve_under_assumptions(&[lit(g, true)]),
            SatResult::Unsat
        );
    }

    /// The audit invariant sweep must pass at every between-search point of
    /// an incremental workout: after `Sat` (mid-trail model), after `Unsat`,
    /// after clause additions (pending), after compaction and after DB
    /// reduction.
    #[test]
    fn invariants_hold_across_incremental_searches() {
        let mut solver = SatSolver::new(0, ResourceBudget::UNLIMITED);
        solver.check_invariants().unwrap();
        let vars: Vec<usize> = (0..8).map(|_| solver.new_var()).collect();
        let mut rng = Rng::new(0xA0D17);
        for round in 0..40 {
            let num_lits = rng.int_in(1, 4) as usize;
            let clause: Vec<SatLit> = (0..num_lits)
                .map(|_| lit(vars[rng.below(8) as usize], rng.flip()))
                .collect();
            solver.add_clause(clause);
            solver.check_invariants().unwrap(); // pending clauses unwatched
            let assumption = lit(vars[rng.below(8) as usize], rng.flip());
            let result = solver.solve_under_assumptions(&[assumption]);
            solver
                .check_invariants()
                .unwrap_or_else(|e| panic!("round {round} after {result:?}: {e}"));
            if round % 7 == 0 {
                solver.compact();
                solver.check_invariants().unwrap();
            }
            if solver.solve() == SatResult::Unsat {
                break;
            }
            solver.check_invariants().unwrap();
        }
    }

    /// Brute-force satisfiability for cross-checking on small instances.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<SatLit>]) -> bool {
        for bits in 0..(1u32 << num_vars) {
            let assignment: Vec<bool> = (0..num_vars).map(|v| bits & (1 << v) != 0).collect();
            if assignment_satisfies(clauses, &assignment) {
                return true;
            }
        }
        false
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        let mut rng = Rng::new(0x5A7_5EED);
        for case in 0..128 {
            let num_clauses = rng.int_in(1, 11) as usize;
            let clauses: Vec<Vec<SatLit>> = (0..num_clauses)
                .map(|_| {
                    let num_lits = rng.int_in(1, 3) as usize;
                    (0..num_lits)
                        .map(|_| lit(rng.below(6) as usize, rng.flip()))
                        .collect()
                })
                .collect();
            let expected = brute_force_sat(6, &clauses);
            match solve_clauses(6, &clauses) {
                SatResult::Sat(m) => {
                    assert!(assignment_satisfies(&clauses, &m), "case {case}");
                    assert!(expected, "case {case}");
                }
                SatResult::Unsat => assert!(!expected, "case {case}"),
                SatResult::Unknown => {}
            }
        }
    }

    /// One long-lived solver per case under random incremental workloads —
    /// interleaved clause additions, assumption solves and compactions —
    /// must match brute-force enumeration over the 6 variables of every
    /// clause added so far plus the assumptions (as unit clauses), and
    /// every reported model must satisfy both.
    #[test]
    fn incremental_searches_agree_with_brute_force() {
        let mut rng = Rng::new(0x3A7C_4EED);
        for case in 0..48 {
            let mut solver = SatSolver::new(6, ResourceBudget::UNLIMITED);
            let mut added: Vec<Vec<SatLit>> = Vec::new();
            let check = |solver: &mut SatSolver, added: &[Vec<SatLit>], assumptions: &[SatLit]| {
                let mut query = added.to_vec();
                query.extend(assumptions.iter().map(|&a| vec![a]));
                let expected = brute_force_sat(6, &query);
                match solver.solve_under_assumptions(assumptions) {
                    SatResult::Sat(m) => {
                        assert!(assignment_satisfies(&query, &m), "case {case}: bad model");
                        assert!(expected, "case {case}: sat but brute force finds no model");
                    }
                    SatResult::Unsat => assert!(!expected, "case {case}: unsat but a model exists"),
                    SatResult::Unknown => {}
                }
            };
            for _ in 0..12 {
                match rng.below(5) {
                    0..=2 => {
                        let num_lits = rng.int_in(1, 3) as usize;
                        let clause: Vec<SatLit> = (0..num_lits)
                            .map(|_| lit(rng.below(6) as usize, rng.flip()))
                            .collect();
                        solver.add_clause(clause.clone());
                        added.push(clause);
                    }
                    3 => {
                        let num_assumptions = rng.below(3) as usize;
                        let assumptions: Vec<SatLit> = (0..num_assumptions)
                            .map(|_| lit(rng.below(6) as usize, rng.flip()))
                            .collect();
                        check(&mut solver, &added, &assumptions);
                    }
                    _ => solver.compact(),
                }
            }
            check(&mut solver, &added, &[]);
        }
    }
}
