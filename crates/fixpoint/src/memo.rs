//! The solve memo: every clean κ component and concrete group of a fixpoint
//! system, keyed on everything it depends on, so a later solve replays each
//! part an earlier solve already settled instead of seeding, weakening and
//! checking it again.
//!
//! [`System::new`] interns the flattened clauses of a constraint and splits
//! them along the κ dependency graph, which has an edge from each guard κ
//! to the head κ of every κ-head clause.  Each strongly connected component
//! is one group, and the components come in a deterministic topological
//! order: upstream first, ties by smallest [`KVid`].  The concrete-head
//! clauses form one more group, checked last.  A component's clauses read
//! only its own κs and upstream ones, and no upstream clause mentions a
//! downstream κ.  So once its upstream κs hold their final assignments,
//! weakening the component alone keeps the greatest inductive subset of its
//! seed, which is what the whole-system loop reaches for those κs.
//!
//! Without an `Unknown` verdict, a component's assignment is therefore a
//! function of its [`MemoKey`]: its κ-head clauses, its κs' sorts, the
//! assignments of the upstream κs its clauses read, the solve context, the
//! stage's qualifier list and the SMT configuration.  The concrete group's
//! failed tags are likewise a function of its clauses (tags included), the
//! assignments they read, the context and the configuration.  Keying on
//! upstream *assignments*, not on upstream keys, means a downstream entry
//! computed under an over-weakened upstream is never reused under another.
//! A part touched by an `Unknown` (a budget cut, an undecided query) is
//! budget-relative and never stored.
//!
//! Keys hold [`ExprId`]s, which mean the same expression only until a
//! generation flush, so the process-global memo is cleared together with
//! the hash-consing arena (`flux::flush_generation`).  Nothing else
//! bounds it: a replay interns nothing and inserts nothing, so re-serving
//! old programs grows neither the arena nor the memo.  Re-verifying an old
//! program under a budget no earlier solve used stores new entries without
//! growing the arena, so such entries wait for a flush that new programs
//! trigger.

use crate::cache::FnCtxId;
use crate::constraint::{Constraint, Guard, Head, Tag};
use crate::kvar::{KVarApp, KVarStore, KVid};
use crate::qualifier::Qualifier;
use crate::solve::{Solution, Stage};
use flux_logic::{lock_recover, Expr, ExprId, Name, Sort, SortCtx};
use flux_smt::SmtConfig;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// A settled part of a solve per key.  Each key carries its hash, computed
/// before the memo's lock is taken; lookups compare keys in full.
pub(crate) type SolveMemo = HashMap<MemoKey, Arc<Settled>, BuildHasherDefault<FxHasher>>;

/// What a clean part of a solve settled.
pub(crate) enum Settled {
    /// A component's κ assignments, in the order of its κs.
    Assignment(Box<[Vec<ExprId>]>),
    /// The tags of the concrete group's failed clauses, deduplicated, in
    /// clause order.
    Failed(Box<[Tag]>),
}

/// Everything one settled part depends on.
#[derive(PartialEq, Eq)]
pub(crate) struct MemoKey {
    /// The hash of the fields below.
    hash: u64,
    part: Arc<Part>,
    /// The assignment of each κ outside the group that its clauses read, in
    /// [`Group::reads`] order (which follows from the clauses): the number
    /// of its conjuncts, then their ids.
    reads: Box<[u32]>,
    /// The stage's qualifier list: the configured list and the stage that
    /// filters it.  `None` for the concrete group, which seeds nothing.
    qualifiers: Option<(QualifiersId, Stage)>,
    scope: Arc<Scope>,
}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The stage-independent half of a group's key.
#[derive(PartialEq, Eq)]
struct Part {
    /// The hash of the fields below.
    hash: u64,
    /// The group's κs with their argument sorts, ascending (the formals
    /// follow from the κ's id); empty for the concrete group.
    kvars: Box<[(KVid, Box<[Sort]>)]>,
    /// The group's clauses, in flattening order.
    clauses: Box<[ClauseKey]>,
}

/// The key parts every group of one solve shares.
#[derive(PartialEq, Eq)]
struct Scope {
    /// The hash of the fields below.
    hash: u64,
    /// The solve context: its function declarations and its binders.
    fns: FnCtxId,
    ctx: Box<[(Name, Sort)]>,
    /// The SMT configuration with the per-solve deadline cleared: budgets,
    /// limits and the audit tier all decide what a solve computes.
    smt: SmtConfig,
}

/// The multiply-rotate word hasher of rustc's FxHash.  Keys cover whole
/// clause lists, and SipHash over them cost more than the rest of a replay.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// The [`FxHasher`] hash of `value`.
fn fx_hash(value: &impl Hash) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// One flattened clause, its expressions interned.
#[derive(PartialEq, Eq, Hash)]
struct ClauseKey {
    binders: Box<[(Name, Sort)]>,
    guards: Box<[Atom]>,
    head: Atom,
    /// The head's tag; `None` for a κ head.
    tag: Option<Tag>,
}

/// A guard or head: a concrete predicate or a κ application.  Every clause
/// under a guard copies it, so the arguments are shared, not cloned.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Atom {
    Pred(ExprId),
    KVar(KVid, Arc<[ExprId]>),
}

impl Atom {
    fn pred(p: &Expr) -> Atom {
        Atom::Pred(ExprId::intern(p))
    }

    fn kvar(app: &KVarApp) -> Atom {
        Atom::KVar(app.kvid, app.args.iter().map(ExprId::intern).collect())
    }

    fn guard(guard: &Guard) -> Atom {
        match guard {
            Guard::Pred(p) => Atom::pred(p),
            Guard::KVar(app) => Atom::kvar(app),
        }
    }

    fn kvid(&self) -> Option<KVid> {
        match self {
            Atom::KVar(kvid, _) => Some(*kvid),
            Atom::Pred(_) => None,
        }
    }
}

/// One group of a [`System`]: a κ component, or the concrete-head clauses.
pub(crate) struct Group {
    /// The group's κs, ascending; empty for the concrete group.
    pub(crate) kvids: Vec<KVid>,
    /// The positions of its clauses among the flattened clauses, ascending.
    pub(crate) clauses: Vec<usize>,
    /// The κs outside the group that its clauses' guards read, ascending.
    reads: Vec<KVid>,
    part: Arc<Part>,
}

/// A constraint as the solve memo sees it: its flattened clauses interned
/// and split into κ components and the concrete group (see the module
/// docs).
pub(crate) struct System {
    /// Number of flattened clauses.
    pub(crate) clauses: usize,
    /// The κ components, upstream first.
    pub(crate) components: Vec<Group>,
    /// The concrete-head clauses.
    pub(crate) concrete: Group,
    qualifiers: QualifiersId,
    scope: Arc<Scope>,
}

impl System {
    /// The system of solving `constraint` under `kvars` and `ctx` (whose
    /// function declarations intern to `fns`) with the qualifier list
    /// `qualifiers` and the SMT configuration `smt`.
    pub(crate) fn new(
        constraint: &Constraint,
        kvars: &KVarStore,
        ctx: &SortCtx,
        fns: FnCtxId,
        qualifiers: QualifiersId,
        mut smt: SmtConfig,
    ) -> System {
        // Each guard is interned once for all the clauses under it, not
        // once per clause, and nothing is flattened into `Clause`s: building
        // the keys is most of what a replay costs.
        let clauses: Vec<ClauseKey> =
            constraint.flatten_with(Atom::guard, |binders, guards, head| {
                let (head, tag) = match head {
                    Head::Pred(p, tag) => (Atom::pred(p), Some(*tag)),
                    Head::KVar(app) => (Atom::kvar(app), None),
                };
                ClauseKey {
                    binders: binders.into(),
                    guards: guards.into(),
                    head,
                    tag,
                }
            });
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); kvars.len()];
        for clause in &clauses {
            if let Some(head) = clause.head.kvid() {
                for guard in clause.guards.iter().filter_map(Atom::kvid) {
                    let successors = &mut edges[guard.0 as usize];
                    if !successors.contains(&(head.0 as usize)) {
                        successors.push(head.0 as usize);
                    }
                }
            }
        }
        let order = solving_order(&edges);
        let mut group_of = vec![0; kvars.len()];
        for (g, component) in order.iter().enumerate() {
            for &k in component {
                group_of[k] = g;
            }
        }
        // The concrete group goes last.
        let concrete = order.len();
        let mut members: Vec<Vec<(usize, ClauseKey)>> =
            (0..=concrete).map(|_| Vec::new()).collect();
        let total = clauses.len();
        for (ci, clause) in clauses.into_iter().enumerate() {
            let g = clause
                .head
                .kvid()
                .map_or(concrete, |head| group_of[head.0 as usize]);
            members[g].push((ci, clause));
        }
        let mut groups: Vec<Group> = members
            .into_iter()
            .enumerate()
            .map(|(g, members)| {
                let kvids: Vec<KVid> = order
                    .get(g)
                    .map_or(Vec::new(), |c| c.iter().map(|&k| KVid(k as u32)).collect());
                let mut reads: Vec<KVid> = members
                    .iter()
                    .flat_map(|(_, clause)| clause.guards.iter().filter_map(Atom::kvid))
                    .filter(|k| g == concrete || group_of[k.0 as usize] != g)
                    .collect();
                reads.sort_unstable();
                reads.dedup();
                let (positions, clauses): (Vec<usize>, Vec<ClauseKey>) =
                    members.into_iter().unzip();
                let sorts: Box<[(KVid, Box<[Sort]>)]> = kvids
                    .iter()
                    .map(|&k| (k, kvars.get(k).sorts.as_slice().into()))
                    .collect();
                let clauses: Box<[ClauseKey]> = clauses.into();
                let part = Part {
                    hash: fx_hash(&(&sorts, &clauses)),
                    kvars: sorts,
                    clauses,
                };
                Group {
                    kvids,
                    clauses: positions,
                    reads,
                    part: Arc::new(part),
                }
            })
            .collect();
        let concrete = groups.pop().expect("the concrete group is always there");
        smt.budget.deadline = None;
        let ctx: Box<[(Name, Sort)]> = ctx.iter().collect();
        System {
            clauses: total,
            components: groups,
            concrete,
            qualifiers,
            scope: Arc::new(Scope {
                hash: fx_hash(&(fns, &ctx, &smt)),
                fns,
                ctx,
                smt,
            }),
        }
    }

    /// The key of `group` at `stage` (`None` for the concrete group), with
    /// the upstream κs it reads assigned as in `solution`.
    pub(crate) fn key(&self, group: &Group, solution: &Solution, stage: Option<Stage>) -> MemoKey {
        let mut reads = Vec::new();
        for &kvid in &group.reads {
            let ids = solution.candidate_ids(kvid).unwrap_or(&[]);
            reads.push(ids.len() as u32);
            reads.extend(ids.iter().map(|id| id.index()));
        }
        let qualifiers = stage.map(|stage| (self.qualifiers, stage));
        MemoKey {
            hash: fx_hash(&(group.part.hash, &reads, qualifiers, self.scope.hash)),
            part: group.part.clone(),
            reads: reads.into(),
            qualifiers,
            scope: self.scope.clone(),
        }
    }
}

/// The strongly connected components of the graph with successor lists
/// `edges`, each ascending, in topological order: a component comes after
/// every component with an edge into it, and among the components ready at
/// once the one with the smallest node comes first.
fn solving_order(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let (component_of, count) = tarjan(edges);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); count];
    for (node, &c) in component_of.iter().enumerate() {
        members[c].push(node);
    }
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); count];
    let mut indegree = vec![0usize; count];
    for (from, targets) in edges.iter().enumerate() {
        for &to in targets {
            let (a, b) = (component_of[from], component_of[to]);
            if a != b && !successors[a].contains(&b) {
                successors[a].push(b);
                indegree[b] += 1;
            }
        }
    }
    // Nodes are pushed in ascending order, so `members[c][0]` is the
    // component's smallest node.
    let mut ready: BinaryHeap<Reverse<(usize, usize)>> = (0..count)
        .filter(|&c| indegree[c] == 0)
        .map(|c| Reverse((members[c][0], c)))
        .collect();
    let mut order = Vec::with_capacity(count);
    while let Some(Reverse((_, c))) = ready.pop() {
        for &next in &successors[c] {
            indegree[next] -= 1;
            if indegree[next] == 0 {
                ready.push(Reverse((members[next][0], next)));
            }
        }
        order.push(std::mem::take(&mut members[c]));
    }
    order
}

/// Tarjan's strongly connected components, without recursion (a κ chain
/// can be long): each node's component and the number of components.
fn tarjan(edges: &[Vec<usize>]) -> (Vec<usize>, usize) {
    const UNSEEN: usize = usize::MAX;
    struct Walk {
        index: Vec<usize>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        /// Each frame is a node and the position of its next successor.
        frames: Vec<(usize, usize)>,
        next_index: usize,
    }
    impl Walk {
        fn visit(&mut self, v: usize) {
            self.index[v] = self.next_index;
            self.low[v] = self.next_index;
            self.next_index += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            self.frames.push((v, 0));
        }
    }
    let n = edges.len();
    let mut walk = Walk {
        index: vec![UNSEEN; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        frames: Vec::new(),
        next_index: 0,
    };
    let mut component = vec![UNSEEN; n];
    let mut count = 0;
    for root in 0..n {
        if walk.index[root] != UNSEEN {
            continue;
        }
        walk.visit(root);
        while let Some(&(v, next)) = walk.frames.last() {
            if let Some(&w) = edges[v].get(next) {
                walk.frames.last_mut().expect("a frame is open").1 += 1;
                if walk.index[w] == UNSEEN {
                    walk.visit(w);
                } else if walk.on_stack[w] {
                    walk.low[v] = walk.low[v].min(walk.index[w]);
                }
                continue;
            }
            walk.frames.pop();
            if let Some(&(parent, _)) = walk.frames.last() {
                walk.low[parent] = walk.low[parent].min(walk.low[v]);
            }
            if walk.low[v] == walk.index[v] {
                loop {
                    let w = walk.stack.pop().expect("v is on the stack");
                    walk.on_stack[w] = false;
                    component[w] = count;
                    if w == v {
                        break;
                    }
                }
                count += 1;
            }
        }
    }
    (component, count)
}

/// Interned identifier of a qualifier template list.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct QualifiersId(u32);

/// Interns a qualifier template list: equal lists (templates and order)
/// get equal ids.  Templates hold no [`ExprId`], so the table survives a
/// generation flush.
pub(crate) fn intern_qualifiers(qualifiers: &[Qualifier]) -> QualifiersId {
    static TABLE: OnceLock<Mutex<HashMap<Vec<Qualifier>, u32>>> = OnceLock::new();
    let mut table = lock_recover(TABLE.get_or_init(|| Mutex::new(HashMap::new())));
    if let Some(&id) = table.get(qualifiers) {
        return QualifiersId(id);
    }
    let next = table.len() as u32;
    table.insert(qualifiers.to_vec(), next);
    QualifiersId(next)
}

/// The process-global solve memo, shared by every
/// [`crate::FixpointSolver`] with `global_cache` enabled.
pub(crate) fn global_memo() -> &'static Mutex<SolveMemo> {
    static MEMO: OnceLock<Mutex<SolveMemo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(SolveMemo::default()))
}

/// Number of settled parts (κ components and concrete groups) in the
/// process-global solve memo.
pub fn solve_memo_len() -> usize {
    lock_recover(global_memo()).len()
}

/// Drops every entry of the process-global solve memo, returning how many
/// there were.  A generation flush must call it before the hash-consing
/// arena goes: its keys and assignments hold [`ExprId`]s.
pub fn clear_solve_memo() -> usize {
    std::mem::take(&mut *lock_recover(global_memo())).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_come_upstream_first_ties_by_smallest_node() {
        // 3 → {1, 2} (a cycle) → 0, and 4 alone.
        let edges = vec![vec![], vec![2, 0], vec![1], vec![1], vec![]];
        assert_eq!(
            solving_order(&edges),
            vec![vec![3], vec![1, 2], vec![0], vec![4]]
        );
        // Independent nodes come in ascending order.
        assert_eq!(
            solving_order(&[vec![], vec![], vec![]]),
            vec![vec![0], vec![1], vec![2]]
        );
    }

    #[test]
    fn a_long_chain_is_one_component_per_link() {
        let n = 10_000;
        let edges: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let order = solving_order(&edges);
        assert_eq!(order.len(), n);
        assert!(order.iter().enumerate().all(|(i, c)| c == &[i]));
        // Closing the chain into a ring makes one component.
        let mut ring = edges;
        ring[n - 1].push(0);
        assert_eq!(solving_order(&ring), vec![(0..n).collect::<Vec<_>>()]);
    }
}
