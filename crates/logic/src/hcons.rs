//! Hash-consed expression nodes.
//!
//! The incremental query engine needs two things from the logic layer:
//! *stable, cheap identifiers* for expressions (so validity verdicts can be
//! cached across fixpoint iterations under a small key instead of a deep
//! tree comparison), and *subterm sharing* (so repeated substitution and
//! simplification of the same terms — which the weakening loop performs on
//! every iteration — does not re-allocate and re-traverse identical trees).
//!
//! [`ExprId`] provides both: interning an [`Expr`] walks the tree once and
//! maps every distinct subterm to a `u32` id in a global append-only table,
//! so two structurally equal expressions always receive the same id, no
//! matter where or when they were built.  Only [`reset_hcons`], under the
//! generation lock, empties the table.  On top of the shared table this
//! module offers memoized substitution ([`ExprId::subst`]) and memoized
//! simplification ([`ExprId::simplified`]); both agree exactly with their
//! tree-walking counterparts ([`crate::Subst::apply`] and
//! [`crate::simplify`]).

use crate::eval::same_sort;
use crate::util::lock_counted;
use crate::{simplify, BinOp, Constant, Expr, Name, Sort, SortCtx, SortError, Subst, UnOp, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};

/// The identifier of a hash-consed expression.
///
/// Two [`ExprId`]s are equal iff the expressions they were interned from are
/// structurally equal.  Ids are stable for the lifetime of a *generation*
/// (see [`read_generation`]), which makes them usable as persistent cache
/// keys; a process that never resets the table has one generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

/// A shallow expression node whose children are interned ids.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Node {
    Var(Name),
    Const(Constant),
    UnOp(UnOp, ExprId),
    BinOp(BinOp, ExprId, ExprId),
    Ite(ExprId, ExprId, ExprId),
    App(Name, Box<[ExprId]>),
    Forall(Box<[(Name, Sort)]>, ExprId),
    Exists(Box<[(Name, Sort)]>, ExprId),
}

#[derive(Default)]
struct Table {
    nodes: Vec<Node>,
    index: HashMap<Node, u32>,
    /// Global memo for [`ExprId::simplified`]: simplification is a pure
    /// function of the subterm, so results stay valid forever.
    simplify_memo: HashMap<u32, u32>,
    /// Global memos for the structural predicates ([`ExprId::has_quantifier`]
    /// and [`ExprId::has_app`]); pure, so valid forever.
    quant_memo: HashMap<u32, bool>,
    app_memo: HashMap<u32, bool>,
}

/// The generation lock.  Every process-global holder of [`ExprId`]s —
/// this table, the CNF cache and the validity cache — is only sound while
/// the ids it holds denote what they denoted when it stored them.  A
/// caller that wants to drop all of them at once takes the write side
/// ([`write_generation`]); a caller whose work holds ids takes the read
/// side ([`read_generation`]) for as long as it holds them.
static GENERATION: RwLock<()> = RwLock::new(());

/// Exclusive hold on the generation lock.  The resets of the id tables
/// ([`reset_hcons`], `flux_smt::reset_cnf_cache`) take one by reference, so
/// nothing resets a table while a reader may still hold its ids.
pub struct GenerationGuard {
    _write: RwLockWriteGuard<'static, ()>,
}

/// Pins the current generation: no reset can run until the guard drops.
/// Hold it across any work that keeps [`ExprId`]s (a whole verification).
/// The lock guards no data, so a writer that panicked leaves nothing for
/// its poisoning to protect, here or in the write functions below.
pub fn read_generation() -> RwLockReadGuard<'static, ()> {
    GENERATION.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the generation lock exclusively, waiting for every reader to
/// finish.
pub fn write_generation() -> GenerationGuard {
    GenerationGuard {
        _write: GENERATION.write().unwrap_or_else(PoisonError::into_inner),
    }
}

/// Takes the generation lock exclusively if no reader holds it.
pub fn try_write_generation() -> Option<GenerationGuard> {
    match GENERATION.try_write() {
        Ok(_write) => Some(GenerationGuard { _write }),
        Err(TryLockError::Poisoned(poisoned)) => Some(GenerationGuard {
            _write: poisoned.into_inner(),
        }),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Times a thread found the interner's table lock held by another thread
/// (monotone; callers read deltas).  The interner is a single global mutex
/// by design — id stability requires one `nodes` vector — so this counter
/// is the convoying audit for concurrent solves: if it climbs under
/// the 8-thread cache-stress storms, interning (not solving) is the
/// bottleneck and the table is the next sharding candidate.
static TABLE_CONTENTIONS: AtomicU64 = AtomicU64::new(0);

/// Does nothing: the hash-cons memos have no capacity.  Kept only because
/// the benchmark harness still calls it; it goes at the next change to the
/// benchmark.
pub fn set_hcons_memo_capacity(_cap: Option<usize>) {}

/// Always 0: nothing evicts from the hash-cons memos.  Kept only because
/// the benchmark harness still calls it; it goes at the next change to the
/// benchmark.
pub fn hcons_memo_evictions() -> u64 {
    0
}

/// Drops the whole table — nodes, index and memos — and frees its memory:
/// the next interned expression gets id 0 again.  Every [`ExprId`] handed
/// out before is meaningless afterwards, which is why the caller must hold
/// the generation lock and must also drop every other holder of ids in the
/// same hold.  This is the only way the table shrinks.  Returns the number
/// of memo entries flushed.
pub fn reset_hcons(_generation: &GenerationGuard) -> usize {
    let mut table = table();
    let total = table.simplify_memo.len() + table.quant_memo.len() + table.app_memo.len();
    *table = Table::default();
    total
}

/// Times any thread found the interner's table lock held by another thread,
/// over the process lifetime.  Monotone; callers difference it around a
/// solve (or a stress storm) to audit interner lock hold times.
pub fn hcons_contentions() -> u64 {
    TABLE_CONTENTIONS.load(Ordering::Relaxed)
}

fn table() -> MutexGuard<'static, Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    let mutex = TABLE.get_or_init(|| Mutex::new(Table::default()));
    // Audit, not avoidance: count acquisitions that would block, then take
    // the lock as before (recovering from poisoning either way).
    lock_counted(mutex, &TABLE_CONTENTIONS, |t| &mut t.hcons_contentions)
}

impl Table {
    fn intern_node(&mut self, node: Node) -> ExprId {
        if let Some(&idx) = self.index.get(&node) {
            return ExprId(idx);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(node.clone());
        self.index.insert(node, idx);
        ExprId(idx)
    }

    fn intern_expr(&mut self, expr: &Expr) -> ExprId {
        let node = match expr {
            Expr::Var(name) => Node::Var(*name),
            Expr::Const(c) => Node::Const(*c),
            Expr::UnOp(op, e) => Node::UnOp(*op, self.intern_expr(e)),
            Expr::BinOp(op, l, r) => Node::BinOp(*op, self.intern_expr(l), self.intern_expr(r)),
            Expr::Ite(c, t, e) => Node::Ite(
                self.intern_expr(c),
                self.intern_expr(t),
                self.intern_expr(e),
            ),
            Expr::App(f, args) => Node::App(*f, args.iter().map(|a| self.intern_expr(a)).collect()),
            Expr::Forall(binders, body) => {
                Node::Forall(binders.iter().copied().collect(), self.intern_expr(body))
            }
            Expr::Exists(binders, body) => {
                Node::Exists(binders.iter().copied().collect(), self.intern_expr(body))
            }
        };
        self.intern_node(node)
    }

    fn rebuild(&self, id: ExprId) -> Expr {
        match &self.nodes[id.0 as usize] {
            Node::Var(name) => Expr::Var(*name),
            Node::Const(c) => Expr::Const(*c),
            Node::UnOp(op, e) => Expr::UnOp(*op, Box::new(self.rebuild(*e))),
            Node::BinOp(op, l, r) => {
                Expr::BinOp(*op, Box::new(self.rebuild(*l)), Box::new(self.rebuild(*r)))
            }
            Node::Ite(c, t, e) => Expr::Ite(
                Box::new(self.rebuild(*c)),
                Box::new(self.rebuild(*t)),
                Box::new(self.rebuild(*e)),
            ),
            Node::App(f, args) => Expr::App(*f, args.iter().map(|a| self.rebuild(*a)).collect()),
            Node::Forall(binders, body) => {
                Expr::Forall(binders.to_vec(), Box::new(self.rebuild(*body)))
            }
            Node::Exists(binders, body) => {
                Expr::Exists(binders.to_vec(), Box::new(self.rebuild(*body)))
            }
        }
    }

    /// DAG substitution.  `memo` maps already-substituted ids to their
    /// results, so shared subterms are processed once per call.  Quantified
    /// subterms are rare, so they fall back to the capture-avoiding tree
    /// substitution on the rebuilt subtree; its renaming is deterministic,
    /// so both paths give the same id on every call.
    fn subst_rec(
        &mut self,
        id: ExprId,
        subst: &Subst,
        memo: &mut HashMap<ExprId, ExprId>,
    ) -> ExprId {
        if let Some(&out) = memo.get(&id) {
            return out;
        }
        let node = self.nodes[id.0 as usize].clone();
        let out = match node {
            Node::Var(name) => match subst.get(name) {
                Some(replacement) => {
                    let replacement = replacement.clone();
                    self.intern_expr(&replacement)
                }
                None => id,
            },
            Node::Const(_) => id,
            Node::UnOp(op, e) => {
                let e = self.subst_rec(e, subst, memo);
                self.intern_node(Node::UnOp(op, e))
            }
            Node::BinOp(op, l, r) => {
                let l = self.subst_rec(l, subst, memo);
                let r = self.subst_rec(r, subst, memo);
                self.intern_node(Node::BinOp(op, l, r))
            }
            Node::Ite(c, t, e) => {
                let c = self.subst_rec(c, subst, memo);
                let t = self.subst_rec(t, subst, memo);
                let e = self.subst_rec(e, subst, memo);
                self.intern_node(Node::Ite(c, t, e))
            }
            Node::App(f, args) => {
                let args = args
                    .iter()
                    .map(|a| self.subst_rec(*a, subst, memo))
                    .collect();
                self.intern_node(Node::App(f, args))
            }
            Node::Forall(..) | Node::Exists(..) => {
                let tree = subst.apply(&self.rebuild(id));
                self.intern_expr(&tree)
            }
        };
        memo.insert(id, out);
        out
    }

    fn simplify_rec(&mut self, id: ExprId) -> ExprId {
        if let Some(&out) = self.simplify_memo.get(&id.0) {
            return ExprId(out);
        }
        let out = self.intern_expr(&simplify(&self.rebuild(id)));
        self.simplify_memo.insert(id.0, out.0);
        // Simplification is idempotent; short-circuit the result too.
        self.simplify_memo.insert(out.0, out.0);
        out
    }

    fn bool_const(&mut self, b: bool) -> ExprId {
        self.intern_node(Node::Const(Constant::Bool(b)))
    }

    fn is_bool_const(&self, id: ExprId, b: bool) -> bool {
        matches!(&self.nodes[id.0 as usize], Node::Const(Constant::Bool(v)) if *v == b)
    }

    /// Mirrors [`Expr::not`]'s constant folding over interned ids.
    fn negate_id(&mut self, id: ExprId) -> ExprId {
        match &self.nodes[id.0 as usize] {
            Node::Const(Constant::Bool(b)) => {
                let b = !*b;
                self.bool_const(b)
            }
            Node::UnOp(UnOp::Not, inner) => *inner,
            _ => self.intern_node(Node::UnOp(UnOp::Not, id)),
        }
    }

    /// Mirrors [`Expr::and`]'s constant folding over interned ids.
    fn and_id(&mut self, lhs: ExprId, rhs: ExprId) -> ExprId {
        if self.is_bool_const(lhs, true) {
            return rhs;
        }
        if self.is_bool_const(rhs, true) {
            return lhs;
        }
        if self.is_bool_const(lhs, false) || self.is_bool_const(rhs, false) {
            return self.bool_const(false);
        }
        self.intern_node(Node::BinOp(BinOp::And, lhs, rhs))
    }

    fn has_quantifier_rec(&mut self, id: ExprId) -> bool {
        if let Some(&out) = self.quant_memo.get(&id.0) {
            return out;
        }
        let node = self.nodes[id.0 as usize].clone();
        let out = match node {
            Node::Forall(..) | Node::Exists(..) => true,
            Node::Var(_) | Node::Const(_) => false,
            Node::UnOp(_, e) => self.has_quantifier_rec(e),
            Node::BinOp(_, l, r) => self.has_quantifier_rec(l) || self.has_quantifier_rec(r),
            Node::Ite(c, t, e) => {
                self.has_quantifier_rec(c)
                    || self.has_quantifier_rec(t)
                    || self.has_quantifier_rec(e)
            }
            Node::App(_, args) => args.iter().any(|a| self.has_quantifier_rec(*a)),
        };
        self.quant_memo.insert(id.0, out);
        out
    }

    /// DAG evaluation under a partial assignment; the memo makes shared
    /// subterms cost one visit per call instead of one per occurrence.
    /// Memoizing per call is sound because the value of a subterm under a
    /// fixed `lookup` is deterministic.  The arms mirror [`crate::evaluate`]
    /// case for case (Kleene connectives, euclidean division with the
    /// divisor-zero refusal, the agreeing-branch `ite` rule) so the two
    /// evaluators agree on every expression.
    fn eval_rec<F>(
        &self,
        id: ExprId,
        lookup: &F,
        memo: &mut HashMap<ExprId, Option<Value>>,
    ) -> Option<Value>
    where
        F: Fn(Name) -> Option<Value>,
    {
        if let Some(&out) = memo.get(&id) {
            return out;
        }
        let out = self.eval_node(id, lookup, memo);
        memo.insert(id, out);
        out
    }

    fn eval_node<F>(
        &self,
        id: ExprId,
        lookup: &F,
        memo: &mut HashMap<ExprId, Option<Value>>,
    ) -> Option<Value>
    where
        F: Fn(Name) -> Option<Value>,
    {
        match &self.nodes[id.0 as usize] {
            Node::Var(name) => lookup(*name),
            Node::Const(Constant::Int(i)) => Some(Value::Int(*i)),
            Node::Const(Constant::Bool(b)) => Some(Value::Bool(*b)),
            Node::Const(Constant::Real(_)) => None,
            Node::UnOp(UnOp::Not, e) => {
                Some(Value::Bool(!self.eval_rec(*e, lookup, memo)?.as_bool()?))
            }
            Node::UnOp(UnOp::Neg, e) => {
                Some(Value::Int(-self.eval_rec(*e, lookup, memo)?.as_int()?))
            }
            Node::BinOp(op @ (BinOp::And | BinOp::Or | BinOp::Imp | BinOp::Iff), lhs, rhs) => {
                let l = self.eval_rec(*lhs, lookup, memo).and_then(Value::as_bool);
                let r = self.eval_rec(*rhs, lookup, memo).and_then(Value::as_bool);
                let out = match (op, l, r) {
                    (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Some(false),
                    (BinOp::And, Some(true), Some(true)) => Some(true),
                    (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Some(true),
                    (BinOp::Or, Some(false), Some(false)) => Some(false),
                    (BinOp::Imp, Some(false), _) | (BinOp::Imp, _, Some(true)) => Some(true),
                    (BinOp::Imp, Some(true), Some(false)) => Some(false),
                    (BinOp::Iff, Some(a), Some(b)) => Some(a == b),
                    _ => None,
                };
                out.map(Value::Bool)
            }
            Node::BinOp(op, lhs, rhs) => {
                let l = self.eval_rec(*lhs, lookup, memo)?;
                let r = self.eval_rec(*rhs, lookup, memo)?;
                match (op, l, r) {
                    (BinOp::Add, Value::Int(a), Value::Int(b)) => Some(Value::Int(a + b)),
                    (BinOp::Sub, Value::Int(a), Value::Int(b)) => Some(Value::Int(a - b)),
                    (BinOp::Mul, Value::Int(a), Value::Int(b)) => Some(Value::Int(a * b)),
                    (BinOp::Div, Value::Int(a), Value::Int(b)) if b != 0 => {
                        Some(Value::Int(a.div_euclid(b)))
                    }
                    (BinOp::Mod, Value::Int(a), Value::Int(b)) if b != 0 => {
                        Some(Value::Int(a.rem_euclid(b)))
                    }
                    (BinOp::Eq, a, b) if same_sort(a, b) => Some(Value::Bool(a == b)),
                    (BinOp::Ne, a, b) if same_sort(a, b) => Some(Value::Bool(a != b)),
                    (BinOp::Lt, Value::Int(a), Value::Int(b)) => Some(Value::Bool(a < b)),
                    (BinOp::Le, Value::Int(a), Value::Int(b)) => Some(Value::Bool(a <= b)),
                    (BinOp::Gt, Value::Int(a), Value::Int(b)) => Some(Value::Bool(a > b)),
                    (BinOp::Ge, Value::Int(a), Value::Int(b)) => Some(Value::Bool(a >= b)),
                    _ => None,
                }
            }
            Node::Ite(c, t, e) => match self.eval_rec(*c, lookup, memo).and_then(Value::as_bool) {
                Some(true) => self.eval_rec(*t, lookup, memo),
                Some(false) => self.eval_rec(*e, lookup, memo),
                None => {
                    let t = self.eval_rec(*t, lookup, memo)?;
                    let e = self.eval_rec(*e, lookup, memo)?;
                    (t == e).then_some(t)
                }
            },
            Node::App(..) | Node::Forall(..) | Node::Exists(..) => None,
        }
    }

    fn has_app_rec(&mut self, id: ExprId) -> bool {
        if let Some(&out) = self.app_memo.get(&id.0) {
            return out;
        }
        let node = self.nodes[id.0 as usize].clone();
        let out = match node {
            Node::App(..) => true,
            Node::Var(_) | Node::Const(_) => false,
            Node::UnOp(_, e) => self.has_app_rec(e),
            Node::BinOp(_, l, r) => self.has_app_rec(l) || self.has_app_rec(r),
            Node::Ite(c, t, e) => self.has_app_rec(c) || self.has_app_rec(t) || self.has_app_rec(e),
            Node::Forall(_, body) | Node::Exists(_, body) => self.has_app_rec(body),
        };
        self.app_memo.insert(id.0, out);
        out
    }

    fn expect_sort(
        &self,
        id: ExprId,
        ctx: &SortCtx,
        bound: &mut Vec<(Name, Sort)>,
        memo: &mut HashMap<ExprId, Sort>,
        expected: Sort,
        context: impl FnOnce() -> String,
    ) -> Result<(), (ExprId, SortError)> {
        let found = self.sort_rec(id, ctx, bound, memo)?;
        if found == expected {
            Ok(())
        } else {
            Err((
                id,
                SortError::Mismatch {
                    expected,
                    found,
                    context: context(),
                },
            ))
        }
    }

    /// DAG sort checking; agrees with [`Expr::sort_of`] on the tree form but
    /// blames the *innermost* offending subterm by id.  `bound` overlays `ctx`
    /// with quantifier binders in scope (innermost last); `memo` caches the
    /// sorts of subterms reached with no binders in scope, so shared subterms
    /// — the common case in flattened horn clauses, which repeat guard
    /// conjunctions across clauses — cost one visit per call.
    fn sort_rec(
        &self,
        id: ExprId,
        ctx: &SortCtx,
        bound: &mut Vec<(Name, Sort)>,
        memo: &mut HashMap<ExprId, Sort>,
    ) -> Result<Sort, (ExprId, SortError)> {
        if bound.is_empty() {
            if let Some(&sort) = memo.get(&id) {
                return Ok(sort);
            }
        }
        let out = match &self.nodes[id.0 as usize] {
            Node::Const(Constant::Int(_)) => Sort::Int,
            Node::Const(Constant::Bool(_)) => Sort::Bool,
            Node::Const(Constant::Real(_)) => Sort::Real,
            Node::Var(name) => bound
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .or_else(|| ctx.lookup(*name))
                .ok_or((id, SortError::UnboundVar(*name)))?,
            Node::UnOp(UnOp::Not, e) => {
                self.expect_sort(*e, ctx, bound, memo, Sort::Bool, || "negation".to_owned())?;
                Sort::Bool
            }
            Node::UnOp(UnOp::Neg, e) => {
                self.expect_sort(*e, ctx, bound, memo, Sort::Int, || {
                    "arithmetic negation".to_owned()
                })?;
                Sort::Int
            }
            Node::BinOp(
                op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod),
                lhs,
                rhs,
            ) => {
                let op = *op;
                self.expect_sort(*lhs, ctx, bound, memo, Sort::Int, || {
                    format!("left operand of {op}")
                })?;
                self.expect_sort(*rhs, ctx, bound, memo, Sort::Int, || {
                    format!("right operand of {op}")
                })?;
                Sort::Int
            }
            Node::BinOp(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), lhs, rhs) => {
                let op = *op;
                self.expect_sort(*lhs, ctx, bound, memo, Sort::Int, || {
                    format!("left operand of {op}")
                })?;
                self.expect_sort(*rhs, ctx, bound, memo, Sort::Int, || {
                    format!("right operand of {op}")
                })?;
                Sort::Bool
            }
            Node::BinOp(op @ (BinOp::Eq | BinOp::Ne), lhs, rhs) => {
                let op = *op;
                let ls = self.sort_rec(*lhs, ctx, bound, memo)?;
                let rs = self.sort_rec(*rhs, ctx, bound, memo)?;
                if ls != rs {
                    return Err((
                        *rhs,
                        SortError::Mismatch {
                            expected: ls,
                            found: rs,
                            context: format!("operands of {op}"),
                        },
                    ));
                }
                Sort::Bool
            }
            Node::BinOp(op @ (BinOp::And | BinOp::Or | BinOp::Imp | BinOp::Iff), lhs, rhs) => {
                let op = *op;
                self.expect_sort(*lhs, ctx, bound, memo, Sort::Bool, || {
                    format!("left operand of {op}")
                })?;
                self.expect_sort(*rhs, ctx, bound, memo, Sort::Bool, || {
                    format!("right operand of {op}")
                })?;
                Sort::Bool
            }
            Node::Ite(cond, then, els) => {
                self.expect_sort(*cond, ctx, bound, memo, Sort::Bool, || {
                    "if-then-else condition".to_owned()
                })?;
                let ts = self.sort_rec(*then, ctx, bound, memo)?;
                let es = self.sort_rec(*els, ctx, bound, memo)?;
                if ts != es {
                    return Err((
                        *els,
                        SortError::Mismatch {
                            expected: ts,
                            found: es,
                            context: "branches of if-then-else".to_owned(),
                        },
                    ));
                }
                ts
            }
            Node::App(func, args) => {
                let func = *func;
                let Some((arg_sorts, ret)) = ctx.lookup_fn(func) else {
                    return Err((id, SortError::UnknownFunction(func)));
                };
                if arg_sorts.len() != args.len() {
                    return Err((
                        id,
                        SortError::Arity {
                            func,
                            expected: arg_sorts.len(),
                            found: args.len(),
                        },
                    ));
                }
                let expected: Vec<Sort> = arg_sorts.to_vec();
                for (arg, expected) in args.iter().zip(expected) {
                    self.expect_sort(*arg, ctx, bound, memo, expected, || {
                        format!("argument of {func}")
                    })?;
                }
                ret
            }
            Node::Forall(binders, body) | Node::Exists(binders, body) => {
                let body = *body;
                let depth = bound.len();
                bound.extend(binders.iter().copied());
                let result = self.expect_sort(body, ctx, bound, memo, Sort::Bool, || {
                    "quantifier body".to_owned()
                });
                bound.truncate(depth);
                result?;
                Sort::Bool
            }
        };
        if bound.is_empty() {
            memo.insert(id, out);
        }
        Ok(out)
    }
}

impl ExprId {
    /// Interns `expr`, returning the canonical id of its DAG representation.
    pub fn intern(expr: &Expr) -> ExprId {
        table().intern_expr(expr)
    }

    /// Rebuilds the tree form of this expression.
    pub fn expr(self) -> Expr {
        table().rebuild(self)
    }

    /// The raw index of this id (usable as a compact cache key).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Applies `subst` over the DAG, memoizing shared subterms within the
    /// call.  Agrees with [`Subst::apply`] on the tree form.
    pub fn subst(self, subst: &Subst) -> ExprId {
        if subst.is_empty() {
            return self;
        }
        let mut memo = HashMap::new();
        table().subst_rec(self, subst, &mut memo)
    }

    /// Applies `subst` to every id in `ids` under one table lock and one
    /// shared memo: subterms shared *across* the ids (sibling candidates of
    /// one κ instantiate the same qualifiers over the same actuals) are
    /// processed once per batch, not once per id.  Each result equals the
    /// corresponding [`ExprId::subst`] call exactly.
    pub fn subst_many(ids: &[ExprId], subst: &Subst) -> Vec<ExprId> {
        if subst.is_empty() {
            return ids.to_vec();
        }
        let mut memo = HashMap::new();
        let mut table = table();
        ids.iter()
            .map(|id| table.subst_rec(*id, subst, &mut memo))
            .collect()
    }

    /// Simplifies this expression, memoizing the result globally.  Agrees
    /// with [`crate::simplify`] on the tree form.
    pub fn simplified(self) -> ExprId {
        table().simplify_rec(self)
    }

    /// The id of `¬self`, with the same constant folding as [`Expr::not`]:
    /// `negated` returns exactly `ExprId::intern(&Expr::not(self.expr()))`
    /// without rebuilding or re-walking the tree.
    pub fn negated(self) -> ExprId {
        table().negate_id(self)
    }

    /// The id of the conjunction of `ids`, folded exactly like
    /// [`Expr::and_all`] (left fold from `true` through [`Expr::and`]'s
    /// constant folding) — so the result equals interning the tree-built
    /// conjunction, at O(1) per conjunct instead of a deep re-walk.
    pub fn and_all(ids: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut table = table();
        let mut acc = table.bool_const(true);
        for id in ids {
            acc = table.and_id(acc, id);
        }
        acc
    }

    /// True if the expression contains a quantifier anywhere; agrees with
    /// [`Expr::has_quantifier`], memoized per subterm globally.
    pub fn has_quantifier(self) -> bool {
        table().has_quantifier_rec(self)
    }

    /// True if the expression contains an uninterpreted application
    /// anywhere; agrees with [`Expr::has_app`], memoized per subterm
    /// globally.
    pub fn has_app(self) -> bool {
        table().has_app_rec(self)
    }

    /// Evaluates this expression under the partial assignment `lookup`,
    /// memoizing shared subterms within the call; agrees exactly with
    /// [`crate::evaluate`] on the tree form (the fixpoint solver's
    /// counter-model pruning relies on this to evaluate clause bodies
    /// without materializing per-version trees).
    pub fn evaluate<F>(self, lookup: &F) -> Option<Value>
    where
        F: Fn(Name) -> Option<Value>,
    {
        let mut memo = HashMap::new();
        table().eval_rec(self, lookup, &mut memo)
    }

    /// Splits this expression along its top-level conjunction spine; agrees
    /// with [`Expr::conjuncts`] (each returned id is the intern of the
    /// corresponding subtree), without rebuilding any tree.
    pub fn conjunct_ids(self) -> Vec<ExprId> {
        let table = table();
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(id) = stack.pop() {
            match &table.nodes[id.0 as usize] {
                Node::BinOp(BinOp::And, l, r) => {
                    // Right is pushed first so the left spine pops first,
                    // matching the tree traversal order.
                    stack.push(*r);
                    stack.push(*l);
                }
                _ => out.push(id),
            }
        }
        out
    }

    /// Computes the sort of this expression under `ctx`, blaming the
    /// innermost offending subterm by id on failure.  Agrees with
    /// [`Expr::sort_of`] on the tree form (same `Ok` sort; the same
    /// [`SortError`] up to the blamed location), memoizing shared subterms
    /// within the call so the audit lint costs one visit per distinct
    /// subterm rather than one per occurrence.
    pub fn sort_in(self, ctx: &SortCtx) -> Result<Sort, (ExprId, SortError)> {
        let mut memo = HashMap::new();
        table().sort_rec(self, ctx, &mut Vec::new(), &mut memo)
    }
}

/// Number of distinct subterms interned so far (diagnostic; used by tests to
/// observe structural sharing).
pub fn interned_nodes() -> usize {
    table().nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Serialises the tests in this module: `interning_shares_subterms`
    /// measures deltas of the process-global node counter, which interning
    /// from a concurrently running test would skew.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn v(s: &str) -> Expr {
        Expr::var(Name::intern(s))
    }

    #[test]
    fn structurally_equal_expressions_share_an_id() {
        let _guard = serial();
        let a = Expr::and(Expr::ge(v("x"), Expr::int(0)), Expr::lt(v("x"), v("n")));
        let b = Expr::and(Expr::ge(v("x"), Expr::int(0)), Expr::lt(v("x"), v("n")));
        assert_eq!(ExprId::intern(&a), ExprId::intern(&b));
    }

    #[test]
    fn distinct_expressions_get_distinct_ids() {
        let _guard = serial();
        assert_ne!(ExprId::intern(&v("x")), ExprId::intern(&v("y")));
        assert_ne!(
            ExprId::intern(&Expr::lt(v("x"), v("y"))),
            ExprId::intern(&Expr::le(v("x"), v("y")))
        );
    }

    #[test]
    fn interning_shares_subterms() {
        let _guard = serial();
        // (x + 1) < (x + 1) + y — both occurrences of `x + 1` must be the
        // same node.  Checked structurally: a count of new nodes would race
        // with other modules' tests interning concurrently.
        let shared = v("hcshare") + Expr::int(1);
        let shared_id = ExprId::intern(&shared);
        let e = Expr::lt(shared.clone(), shared + v("hcy"));
        let id = ExprId::intern(&e);
        let children = |id: ExprId| match &table().nodes[id.0 as usize] {
            Node::BinOp(_, l, r) => (*l, *r),
            other => panic!("expected a binary node, got {other:?}"),
        };
        let (lhs, rhs) = children(id);
        assert_eq!(lhs, shared_id);
        assert_eq!(children(rhs).0, shared_id);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let _guard = serial();
        let e = Expr::imp(
            Expr::and(Expr::ge(v("i"), Expr::int(0)), Expr::lt(v("i"), v("n"))),
            Expr::ite(v("p"), v("i") + Expr::int(1), Expr::neg(v("i"))),
        );
        assert_eq!(ExprId::intern(&e).expr(), e);
    }

    #[test]
    fn quantifiers_roundtrip() {
        let _guard = serial();
        let j = Name::intern("j");
        let e = Expr::forall(
            vec![(j, Sort::Int)],
            Expr::imp(
                Expr::ge(Expr::var(j), Expr::int(0)),
                Expr::ge(
                    Expr::app("select", vec![v("a"), Expr::var(j)]),
                    Expr::int(0),
                ),
            ),
        );
        assert_eq!(ExprId::intern(&e).expr(), e);
    }

    #[test]
    fn dag_subst_agrees_with_tree_subst() {
        let _guard = serial();
        let mut subst = Subst::new();
        subst.insert(Name::intern("x"), v("y") + Expr::int(2));
        let cases = [
            v("x"),
            v("z"),
            Expr::lt(v("x") + v("x"), v("z")),
            Expr::ite(Expr::eq(v("x"), v("z")), v("x"), Expr::int(0)),
            Expr::app("f", vec![v("x"), v("z")]),
        ];
        for e in &cases {
            let tree = subst.apply(e);
            let dag = ExprId::intern(e).subst(&subst);
            assert_eq!(dag.expr(), tree, "mismatch on {e:?}");
            assert_eq!(dag, ExprId::intern(&tree));
        }
    }

    #[test]
    fn dag_subst_respects_quantifier_shadowing() {
        let _guard = serial();
        let x = Name::intern("x");
        let mut subst = Subst::new();
        subst.insert(x, Expr::int(7));
        // forall x. x > 0 — the bound x must not be substituted.
        let e = Expr::forall(vec![(x, Sort::Int)], Expr::gt(Expr::var(x), Expr::int(0)));
        let tree = subst.apply(&e);
        let dag = ExprId::intern(&e).subst(&subst);
        assert_eq!(dag.expr(), tree);
    }

    #[test]
    fn empty_subst_is_identity() {
        let _guard = serial();
        let e = Expr::lt(v("x"), v("y"));
        let id = ExprId::intern(&e);
        assert_eq!(id.subst(&Subst::new()), id);
    }

    #[test]
    fn dag_connectives_agree_with_tree_connectives() {
        let _guard = serial();
        let cases = [
            Expr::tt(),
            Expr::ff(),
            v("p"),
            Expr::not(v("p")),
            Expr::lt(v("x"), v("y")),
        ];
        for e in &cases {
            let id = ExprId::intern(e);
            assert_eq!(
                id.negated(),
                ExprId::intern(&Expr::not(e.clone())),
                "negation mismatch on {e:?}"
            );
            for f in &cases {
                let fid = ExprId::intern(f);
                assert_eq!(
                    ExprId::and_all([id, fid]),
                    ExprId::intern(&Expr::and_all([e.clone(), f.clone()])),
                    "conjunction mismatch on {e:?} ∧ {f:?}"
                );
            }
        }
        assert_eq!(ExprId::and_all([]), ExprId::intern(&Expr::tt()));
    }

    #[test]
    fn conjunct_ids_agree_with_tree_conjuncts() {
        let _guard = serial();
        let e = Expr::and(
            Expr::and(v("p"), Expr::lt(v("x"), v("y"))),
            Expr::and(v("q"), Expr::or(v("r"), v("s"))),
        );
        let ids = ExprId::intern(&e).conjunct_ids();
        let trees: Vec<ExprId> = e.conjuncts().into_iter().map(ExprId::intern).collect();
        assert_eq!(ids, trees);
        // A non-conjunction is its own single conjunct.
        let atom = Expr::lt(v("x"), v("y"));
        assert_eq!(
            ExprId::intern(&atom).conjunct_ids(),
            vec![ExprId::intern(&atom)]
        );
    }

    #[test]
    fn dag_predicates_agree_with_tree_predicates() {
        let _guard = serial();
        let j = Name::intern("j");
        let cases = [
            v("x"),
            Expr::app("f", vec![v("x")]),
            Expr::forall(vec![(j, Sort::Int)], Expr::ge(Expr::var(j), Expr::int(0))),
            Expr::and(v("p"), Expr::app("g", vec![])),
            Expr::lt(v("x") + Expr::int(1), v("y")),
        ];
        for e in &cases {
            let id = ExprId::intern(e);
            assert_eq!(id.has_quantifier(), e.has_quantifier(), "quant {e:?}");
            assert_eq!(id.has_app(), e.has_app(), "app {e:?}");
        }
    }

    /// Minimal xorshift generator; the logic crate cannot depend on
    /// `flux_smt::testing::Rng` (the dependency points the other way).
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// DAG evaluation must agree with the tree evaluator on random
    /// expressions and random (partial) models, including the undecidable
    /// cases: `None` on one side must be `None` on the other.
    #[test]
    fn dag_and_tree_evaluators_agree() {
        use crate::eval::{evaluate, Value};

        fn gen_expr(rng: &mut XorShift, depth: usize) -> Expr {
            fn term(rng: &mut XorShift) -> Expr {
                match rng.below(4) {
                    0 => Expr::var(Name::intern("ev_x")),
                    1 => Expr::var(Name::intern("ev_y")),
                    2 => Expr::var(Name::intern("ev_u")), // never bound
                    _ => Expr::int(rng.below(9) as i128 - 4),
                }
            }
            if depth == 0 || rng.below(3) == 0 {
                let l = term(rng);
                let r = term(rng);
                return match rng.below(8) {
                    0 => Expr::lt(l, r),
                    1 => Expr::le(l, r),
                    2 => Expr::eq(l, r),
                    3 => Expr::ne(l, r),
                    4 => Expr::binop(BinOp::Div, l, r),
                    5 => Expr::binop(BinOp::Mod, l, r),
                    6 => Expr::var(Name::intern("ev_p")),
                    _ => Expr::app("ev_f", vec![l]),
                };
            }
            let l = gen_expr(rng, depth - 1);
            match rng.below(6) {
                0 => Expr::binop(BinOp::And, l, gen_expr(rng, depth - 1)),
                1 => Expr::binop(BinOp::Or, l, gen_expr(rng, depth - 1)),
                2 => Expr::binop(BinOp::Imp, l, gen_expr(rng, depth - 1)),
                3 => Expr::not(l),
                4 => Expr::ite(l, gen_expr(rng, depth - 1), gen_expr(rng, depth - 1)),
                _ => Expr::binop(BinOp::Iff, l, gen_expr(rng, depth - 1)),
            }
        }

        let mut rng = XorShift(0xDA6_E7A1);
        for case in 0..256 {
            let e = gen_expr(&mut rng, 3);
            let x = rng.below(9) as i128 - 4;
            let y = rng.below(9) as i128 - 4;
            let p = rng.below(2) == 0;
            let lookup = move |name: Name| {
                if name == Name::intern("ev_x") {
                    Some(Value::Int(x))
                } else if name == Name::intern("ev_y") {
                    Some(Value::Int(y))
                } else if name == Name::intern("ev_p") {
                    Some(Value::Bool(p))
                } else {
                    None
                }
            };
            let tree = evaluate(&e, &lookup);
            let dag = ExprId::intern(&e).evaluate(&lookup);
            assert_eq!(dag, tree, "case {case}: DAG and tree disagree on {e:?}");
        }
    }

    /// The DAG sort checker must agree with the tree checker: same sorts on
    /// well-sorted inputs, errors on the same ill-sorted inputs (the blamed
    /// id is additionally pinned to the innermost offender).
    #[test]
    fn dag_sort_check_agrees_with_tree_sort_check() {
        let _guard = serial();
        let mut ctx = SortCtx::new();
        ctx.push(Name::intern("x"), Sort::Int);
        ctx.push(Name::intern("p"), Sort::Bool);
        ctx.push(Name::intern("a"), Sort::Array);
        let j = Name::intern("j");
        let cases = [
            v("x") + Expr::int(1),
            Expr::lt(v("x"), Expr::int(10)),
            Expr::and(v("p"), Expr::le(v("x"), v("x"))),
            Expr::ite(v("p"), v("x"), Expr::neg(v("x"))),
            Expr::app("select", vec![v("a"), v("x")]),
            Expr::forall(vec![(j, Sort::Int)], Expr::ge(Expr::var(j), Expr::int(0))),
            // Ill-sorted / ill-scoped:
            v("x") + v("p"),
            Expr::and(v("p"), v("x")),
            v("free_in_sort_check"),
            Expr::app("select", vec![v("a")]),
            Expr::app("unknown_fn", vec![v("x")]),
            Expr::forall(vec![(j, Sort::Int)], Expr::var(j) + Expr::int(1)),
        ];
        for e in &cases {
            let tree = e.sort_of(&ctx);
            let dag = ExprId::intern(e).sort_in(&ctx);
            match (tree, dag) {
                (Ok(ts), Ok(ds)) => assert_eq!(ts, ds, "sort mismatch on {e:?}"),
                (Err(te), Err((_, de))) => assert_eq!(te, de, "error mismatch on {e:?}"),
                (t, d) => panic!("tree {t:?} vs dag {d:?} on {e:?}"),
            }
        }
        // The blamed id is the innermost offender: the unbound variable
        // itself, not the enclosing conjunction.
        let bad = Expr::and(v("p"), Expr::lt(v("free_in_sort_check"), Expr::int(0)));
        let (blamed, err) = ExprId::intern(&bad).sort_in(&ctx).unwrap_err();
        assert_eq!(blamed, ExprId::intern(&v("free_in_sort_check")));
        assert_eq!(
            err,
            SortError::UnboundVar(Name::intern("free_in_sort_check"))
        );
    }

    #[test]
    fn memoized_simplify_agrees_with_tree_simplify() {
        let _guard = serial();
        let cases = [
            Expr::binop(BinOp::And, Expr::tt(), v("p")),
            Expr::binop(BinOp::Add, Expr::int(2), Expr::int(3)),
            Expr::not(Expr::not(v("p"))),
            Expr::imp(Expr::ff(), v("p")),
            Expr::lt(v("x"), v("y")),
        ];
        for e in &cases {
            let id = ExprId::intern(e);
            let first = id.simplified();
            assert_eq!(first.expr(), simplify(e), "mismatch on {e:?}");
            // The memo must return the identical id on a repeat call.
            assert_eq!(id.simplified(), first);
            // And simplification is idempotent through the memo.
            assert_eq!(first.simplified(), first);
        }
    }
}
