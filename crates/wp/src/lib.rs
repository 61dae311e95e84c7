//! The program-logic baseline verifier (the stand-in for Prusti in the
//! paper's evaluation, §5).
//!
//! Where Flux factors invariants into refined *types* and synthesises loop
//! invariants by liquid inference, this verifier follows the classical
//! contract + loop-invariant recipe:
//!
//! * functions carry `#[requires(...)]` / `#[ensures(...)]` contracts,
//! * every loop must carry user-written `invariant!(...)` annotations,
//! * containers are modelled with uninterpreted arrays: `vlen(v)` is the
//!   length of `v` and `sel(v, i)` its `i`-th element; `push`/stores produce
//!   *universally quantified frame axioms* relating the old and new arrays.
//!
//! Those quantified hypotheses must then be discharged by the SMT solver's
//! instantiation heuristics, which is precisely why this style of
//! verification is slower and needs more annotations than liquid typing —
//! the effect Table 1 of the paper measures.
//!
//! Binder names come from one [`NameSupply`] per function, so the same
//! function asks the same obligations in every run, and a decided
//! obligation is stored in a process-global memo (see the `memo` module):
//! asking it again replays the verdict without solving.

#![warn(missing_docs)]

mod memo;

pub use memo::{clear_obligation_memo, obligation_memo_len};

use flux_logic::{AuditTier, Expr, ExprId, Name, NameSupply, Sort, SortCtx};
use flux_smt::{SmtConfig, Solver, Validity};
use flux_syntax::ast::{self, BinOpKind, RustTy, UnOpKind};
use flux_syntax::span::{Diagnostic, Span};
use memo::ObligationKey;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Configuration of the baseline verifier.
#[derive(Clone, Copy, Debug, Default)]
pub struct WpConfig {
    /// SMT configuration.  Its budget's `quant_instances` cap bounds the
    /// quantifier instantiation that only this verifier's obligations need.
    pub smt: SmtConfig,
}

/// Verification result for one function.
#[derive(Debug)]
pub struct WpFnReport {
    /// Function name.
    pub name: String,
    /// Failed obligations.
    pub errors: Vec<Diagnostic>,
    /// Obligations the solver could not decide within its budgets.  These
    /// are *inconclusive*, not refuted: the function does not verify, but
    /// reporting them as "might not hold" would turn a budget cut (or an
    /// injected fault) into a false rejection.
    pub unknowns: usize,
    /// Wall-clock verification time.
    pub time: Duration,
    /// Obligations and hypotheses sort-/scope-checked by the audit lint
    /// (zero unless the audit tier is at least `lint`).
    pub lint_checks: usize,
    /// Obligations answered from the obligation memo: an earlier
    /// obligation with the same key was decided, so this one opened no
    /// session and asked no query.
    pub memo_hits: usize,
    /// Full statistics of the underlying SMT engine, including the
    /// validity queries issued and the quantifier instances generated.
    pub smt_stats: flux_smt::SmtStats,
}

impl WpFnReport {
    /// True if every obligation was discharged.
    pub fn is_safe(&self) -> bool {
        self.errors.is_empty() && self.unknowns == 0
    }

    /// True if verification was inconclusive: no obligation failed, but
    /// some could not be decided.
    pub fn is_unknown(&self) -> bool {
        self.errors.is_empty() && self.unknowns > 0
    }
}

/// Verification result for a program.
#[derive(Debug, Default)]
pub struct WpReport {
    /// Per-function reports.
    pub functions: Vec<WpFnReport>,
}

impl WpReport {
    /// True if every function verified.
    pub fn is_safe(&self) -> bool {
        self.functions.iter().all(WpFnReport::is_safe)
    }

    /// Total verification time.
    pub fn total_time(&self) -> Duration {
        self.functions.iter().map(|f| f.time).sum()
    }

    /// SMT engine statistics summed over all verified functions.
    pub fn total_smt_stats(&self) -> flux_smt::SmtStats {
        let mut total = flux_smt::SmtStats::default();
        for f in &self.functions {
            total.absorb(f.smt_stats);
        }
        total
    }
}

/// A symbolic value.
#[derive(Clone, Debug)]
enum SymValue {
    /// A scalar (integer or boolean) symbolic expression.
    Scalar(Expr),
    /// An opaque float.
    Float,
    /// A vector: the array variable naming its contents and its symbolic
    /// length.
    Vec {
        /// The array variable.
        array: Name,
        /// The symbolic length.
        len: Expr,
    },
    /// The unit value.
    Unit,
}

/// The symbolic state: values of locals plus the facts (path conditions,
/// contracts, frame axioms) accumulated so far.
#[derive(Clone, Debug, Default)]
struct State {
    locals: BTreeMap<String, SymValue>,
    facts: Vec<Expr>,
}

/// The verifier for a single function.
pub struct WpVerifier<'a> {
    program: &'a ast::Program,
    solver: Solver,
    ctx: SortCtx,
    /// Binder names: they depend only on this function's body, so the same
    /// function asks the same obligations in every run.
    names: NameSupply,
    errors: Vec<Diagnostic>,
    unknowns: usize,
    audit: AuditTier,
    lint_checks: usize,
    memo_hits: usize,
}

/// Verifies every non-trusted function of `program`.
pub fn verify_program(program: &ast::Program, config: &WpConfig) -> WpReport {
    let mut report = WpReport::default();
    for def in &program.functions {
        if def.trusted {
            continue;
        }
        report.functions.push(verify_function(program, def, config));
    }
    report
}

/// Verifies a single function.
pub fn verify_function(program: &ast::Program, def: &ast::FnDef, config: &WpConfig) -> WpFnReport {
    let start = Instant::now();
    let mut verifier = WpVerifier {
        program,
        solver: Solver::new(config.smt),
        ctx: SortCtx::new(),
        names: NameSupply::body(),
        errors: Vec::new(),
        unknowns: 0,
        audit: config.smt.audit,
        lint_checks: 0,
        memo_hits: 0,
    };
    verifier.run(def);
    WpFnReport {
        name: def.name.clone(),
        errors: verifier.errors,
        unknowns: verifier.unknowns,
        time: start.elapsed(),
        lint_checks: verifier.lint_checks,
        memo_hits: verifier.memo_hits,
        smt_stats: verifier.solver.stats,
    }
}

/// Convenience: parse and verify a source string.
pub fn verify_source(source: &str, config: &WpConfig) -> Result<WpReport, Diagnostic> {
    let program = flux_syntax::parse_program(source)?;
    Ok(verify_program(&program, config))
}

impl<'a> WpVerifier<'a> {
    fn fresh_int(&mut self, hint: &str) -> Name {
        let name = self.names.fresh(hint);
        self.ctx.push(name, Sort::Int);
        name
    }

    fn fresh_bool(&mut self, hint: &str) -> Name {
        let name = self.names.fresh(hint);
        self.ctx.push(name, Sort::Bool);
        name
    }

    fn fresh_array(&mut self, hint: &str) -> Name {
        let name = self.names.fresh(hint);
        self.ctx.push(name, Sort::Array);
        name
    }

    fn check(&mut self, state: &State, goal: Expr, span: Span, what: &str) {
        let facts = self.prune_irrelevant_quantifiers(&state.facts, &goal);
        // Audit lint: the emitted obligation and every hypothesis handed to
        // the solver must be boolean and closed under the verifier's sort
        // context.  A violation is a bug in this verifier's symbolic
        // execution (e.g. a frame axiom referencing a dropped array), not in
        // the verified program, hence the panic.
        if self.audit.lints() {
            for (expr, describe) in
                std::iter::once((&goal, what)).chain(facts.iter().map(|f| (f, "hypothesis")))
            {
                flux_logic::lint(
                    || format!("{describe} at bytes {}..{}", span.start, span.end),
                    ExprId::intern(expr),
                    Sort::Bool,
                    &self.ctx,
                )
                .unwrap_or_else(|e| panic!("FLUX_AUDIT: {e}"));
                self.lint_checks += 1;
            }
        }
        let key = ObligationKey::new(&facts, &goal, &self.ctx, &self.solver.config);
        let valid = match key.lookup() {
            Some(valid) => {
                self.memo_hits += 1;
                if self.audit.certifies() {
                    self.audit_hit(&facts, &goal, valid);
                }
                Some(valid)
            }
            None => {
                let valid = decided(&self.solver.check_valid_imp(&self.ctx, &facts, &goal));
                // Stored only once decided: an `Unknown` is relative to the
                // search, and a solve that panicked leaves no entry.
                if let Some(valid) = valid {
                    key.store(valid);
                }
                valid
            }
        };
        match valid {
            Some(true) => {}
            // Inconclusive is not refuted: a budget cut (or an injected
            // fault) must degrade the verdict to unknown, never fabricate
            // a "might not hold" rejection.
            None => self.unknowns += 1,
            Some(false) => self
                .errors
                .push(Diagnostic::error(format!("{what} might not hold"), span)),
        }
    }

    /// Audit cross-check of a memo hit (tier `full`): re-solves the
    /// obligation on a fresh solver, whose work no counter of this verifier
    /// sees, and panics when it decides the other way.  A decided verdict
    /// is a function of the memo key, so a difference means the key misses
    /// an input the solver reads.  An `Unknown` re-solve proves nothing
    /// either way and is tolerated.
    fn audit_hit(&self, facts: &[Expr], goal: &Expr, stored: bool) {
        let fresh = Solver::new(self.solver.config).check_valid_imp(&self.ctx, facts, goal);
        if decided(&fresh).is_some_and(|valid| valid != stored) {
            panic!(
                "FLUX_AUDIT: a replayed baseline verdict differs from a fresh solve \
                 of the same obligation (replayed valid = {stored}, fresh {fresh:?})"
            );
        }
    }

    /// Goal-directed relevance filtering: quantified hypotheses that only
    /// describe the *contents* of arrays unreachable from the goal (through
    /// chains of facts mentioning a reachable array) are replaced by `true`.
    ///
    /// Long straight-line code accumulates one universally quantified frame
    /// axiom per store/push/swap; when the goal is about lengths and indices
    /// only (the common case outside content invariants), those axioms cost
    /// quantifier instances and Ackermann axioms without contributing
    /// anything.  Dropping hypotheses only ever weakens the implication
    /// being proved, so this is sound: the verifier may fail to prove a
    /// valid obligation but can never accept an invalid one.
    fn prune_irrelevant_quantifiers(&self, facts: &[Expr], goal: &Expr) -> Vec<Expr> {
        // Seed: arrays the goal mentions.
        let mut relevant = self.array_vars(goal);
        // Fixpoint: any fact touching a relevant array makes all its arrays
        // relevant (frame axioms and merges link new arrays to old ones).
        let fact_arrays: Vec<std::collections::BTreeSet<Name>> =
            facts.iter().map(|f| self.array_vars(f)).collect();
        loop {
            let mut grew = false;
            for arrays in &fact_arrays {
                if arrays.iter().any(|a| relevant.contains(a))
                    && !arrays.iter().all(|a| relevant.contains(a))
                {
                    relevant.extend(arrays.iter().copied());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        facts
            .iter()
            .map(|f| prune_quants(f, true, &relevant, &self.ctx))
            .collect()
    }

    /// The `Array`-sorted free variables of an expression.
    fn array_vars(&self, e: &Expr) -> std::collections::BTreeSet<Name> {
        e.free_vars()
            .into_iter()
            .filter(|v| self.ctx.lookup(*v) == Some(Sort::Array))
            .collect()
    }

    fn run(&mut self, def: &ast::FnDef) {
        let mut state = State::default();
        for param in &def.params {
            let value = self.havoc(&param.name, &param.ty, &mut state);
            state.locals.insert(param.name.clone(), value);
        }
        for pre in &def.requires {
            let fact = self.spec_pred(pre, &state);
            state.facts.push(fact);
        }
        let result = self.exec_block(&def.body, &mut state);
        if !def.ensures.is_empty() {
            if let Some(value) = &result {
                self.bind_result(value, &mut state);
            }
            for (i, post) in def.ensures.iter().enumerate() {
                let goal = self.spec_pred(post, &state);
                self.check(&state, goal, def.span, &format!("postcondition #{}", i + 1));
            }
        }
    }

    fn havoc(&mut self, name: &str, ty: &RustTy, state: &mut State) -> SymValue {
        match ty {
            RustTy::Int => SymValue::Scalar(Expr::Var(self.fresh_int(name))),
            RustTy::Uint => {
                let v = self.fresh_int(name);
                state.facts.push(Expr::ge(Expr::Var(v), Expr::int(0)));
                SymValue::Scalar(Expr::Var(v))
            }
            RustTy::Bool => SymValue::Scalar(Expr::Var(self.fresh_bool(name))),
            RustTy::Float => SymValue::Float,
            RustTy::Unit => SymValue::Unit,
            RustTy::RVec(_) | RustTy::RMat(_) => {
                let array = self.fresh_array(&format!("{name}_arr"));
                let len = self.fresh_int(&format!("{name}_len"));
                state.facts.push(Expr::ge(Expr::Var(len), Expr::int(0)));
                SymValue::Vec {
                    array,
                    len: Expr::Var(len),
                }
            }
            RustTy::Ref(_, inner) => self.havoc(name, inner, state),
        }
    }

    fn bind_result(&mut self, value: &SymValue, state: &mut State) {
        let r = Name::intern("result");
        match value {
            SymValue::Scalar(e) => {
                self.ctx.push(r, Sort::Int);
                state.facts.push(Expr::eq(Expr::Var(r), e.clone()));
            }
            SymValue::Vec { array, len } => {
                self.ctx.push(r, Sort::Array);
                state.facts.push(Expr::eq(Expr::Var(r), Expr::Var(*array)));
                state
                    .facts
                    .push(Expr::eq(Expr::app("len", vec![Expr::Var(r)]), len.clone()));
            }
            _ => {}
        }
        // Also bind `result` as a local so `spec_pred` substitutes it by the
        // returned symbolic value directly.  The equational facts above
        // cannot express array aliasing (array equality is opaque to the
        // theory solver), so quantified postconditions about a returned
        // vector's *contents* only connect through this binding — mirroring
        // how `eval_call` assumes callee postconditions at call sites.
        state.locals.insert("result".to_owned(), value.clone());
    }

    /// Translates a specification predicate (from `requires`/`ensures`/
    /// `invariant!`) into the logic, substituting program variables by their
    /// current symbolic values.  `vlen(v)` and `sel(v, i)` map onto the
    /// array model.
    fn spec_pred(&mut self, pred: &Expr, state: &State) -> Expr {
        match pred {
            Expr::Var(name) => match state.locals.get(name.as_str()) {
                Some(SymValue::Scalar(e)) => e.clone(),
                Some(SymValue::Vec { array, .. }) => Expr::Var(*array),
                _ => Expr::Var(*name),
            },
            Expr::Const(_) => pred.clone(),
            Expr::UnOp(op, e) => Expr::unop(*op, self.spec_pred(e, state)),
            Expr::BinOp(op, l, r) => {
                Expr::binop(*op, self.spec_pred(l, state), self.spec_pred(r, state))
            }
            Expr::Ite(c, t, e) => Expr::ite(
                self.spec_pred(c, state),
                self.spec_pred(t, state),
                self.spec_pred(e, state),
            ),
            Expr::App(f, args) => {
                let translated: Vec<Expr> = args.iter().map(|a| self.spec_pred(a, state)).collect();
                match f.as_str() {
                    "vlen" => {
                        if let Some(Expr::Var(name)) = args.first() {
                            if let Some(SymValue::Vec { len, .. }) = state.locals.get(name.as_str())
                            {
                                return len.clone();
                            }
                        }
                        Expr::App(Name::intern("len"), translated)
                    }
                    "sel" => Expr::App(Name::intern("select"), translated),
                    _ => Expr::App(*f, translated),
                }
            }
            Expr::Forall(binders, body) => {
                let inner = self.state_without_binders(state, binders);
                Expr::Forall(binders.clone(), Box::new(self.spec_pred(body, &inner)))
            }
            Expr::Exists(binders, body) => {
                let inner = self.state_without_binders(state, binders);
                Expr::Exists(binders.clone(), Box::new(self.spec_pred(body, &inner)))
            }
        }
    }

    fn state_without_binders(&self, state: &State, binders: &[(Name, Sort)]) -> State {
        let mut inner = state.clone();
        for (b, _) in binders {
            inner.locals.remove(b.as_str());
        }
        inner
    }

    // -----------------------------------------------------------------
    // Execution
    // -----------------------------------------------------------------

    fn exec_block(&mut self, block: &ast::Block, state: &mut State) -> Option<SymValue> {
        for stmt in &block.stmts {
            self.exec_stmt(stmt, state);
        }
        block.tail.as_deref().map(|e| self.eval(e, state))
    }

    fn exec_stmt(&mut self, stmt: &ast::Stmt, state: &mut State) {
        match stmt {
            ast::Stmt::Let { name, init, .. } => {
                let value = self.eval(init, state);
                state.locals.insert(name.clone(), value);
            }
            ast::Stmt::Assign {
                place,
                op,
                value,
                span,
            } => {
                let rhs = match op {
                    ast::AssignOp::Assign => value.clone(),
                    other => {
                        let kind = match other {
                            ast::AssignOp::AddAssign => BinOpKind::Add,
                            ast::AssignOp::SubAssign => BinOpKind::Sub,
                            ast::AssignOp::MulAssign => BinOpKind::Mul,
                            ast::AssignOp::DivAssign => BinOpKind::Div,
                            ast::AssignOp::Assign => unreachable!(),
                        };
                        ast::Expr::Binary(
                            kind,
                            Box::new(place.clone()),
                            Box::new(value.clone()),
                            *span,
                        )
                    }
                };
                match place {
                    ast::Expr::Var(name, _) => {
                        let value = self.eval(&rhs, state);
                        state.locals.insert(name.clone(), value);
                    }
                    ast::Expr::Deref(inner, _) => {
                        if let ast::Expr::Var(name, _) = inner.as_ref() {
                            let value = self.eval(&rhs, state);
                            state.locals.insert(name.clone(), value);
                        } else {
                            self.errors.push(Diagnostic::error(
                                "unsupported assignment target in baseline verifier",
                                *span,
                            ));
                        }
                    }
                    ast::Expr::Index { recv, index, span } => {
                        self.exec_store(recv, index, &rhs, state, *span);
                    }
                    _ => self.errors.push(Diagnostic::error(
                        "unsupported assignment target in baseline verifier",
                        *span,
                    )),
                }
            }
            ast::Stmt::While {
                cond,
                invariants,
                body,
                span,
            } => {
                self.exec_while(cond, invariants, body, state, *span);
            }
            ast::Stmt::Return { value, .. } => {
                if let Some(value) = value {
                    let v = self.eval(value, state);
                    self.bind_result(&v, state);
                }
            }
            ast::Stmt::Assert { cond, span } => {
                let c = self.eval_scalar(cond, state);
                self.check(state, c.clone(), *span, "assertion");
                state.facts.push(c);
            }
            ast::Stmt::Expr { expr, .. } => {
                let _ = self.eval(expr, state);
            }
        }
    }

    fn exec_store(
        &mut self,
        recv: &ast::Expr,
        index: &ast::Expr,
        value: &ast::Expr,
        state: &mut State,
        span: Span,
    ) {
        let idx = self.eval_scalar(index, state);
        let stored = match self.eval(value, state) {
            SymValue::Scalar(e) => Some(e),
            _ => None,
        };
        let Some((name, array, len)) = self.vec_of(recv, state) else {
            self.errors
                .push(Diagnostic::error("store into a non-vector", span));
            return;
        };
        self.check(
            state,
            Expr::and(
                Expr::ge(idx.clone(), Expr::int(0)),
                Expr::lt(idx.clone(), len.clone()),
            ),
            span,
            "store index in bounds",
        );
        let new_array = self.fresh_array(&format!("{name}_upd"));
        let j = self.names.fresh("j");
        state.facts.push(Expr::forall(
            vec![(j, Sort::Int)],
            Expr::imp(
                Expr::and(
                    Expr::and(
                        Expr::ge(Expr::Var(j), Expr::int(0)),
                        Expr::lt(Expr::Var(j), len.clone()),
                    ),
                    Expr::ne(Expr::Var(j), idx.clone()),
                ),
                Expr::eq(
                    Expr::app("select", vec![Expr::Var(new_array), Expr::Var(j)]),
                    Expr::app("select", vec![Expr::Var(array), Expr::Var(j)]),
                ),
            ),
        ));
        if let Some(stored) = stored {
            state.facts.push(Expr::eq(
                Expr::app("select", vec![Expr::Var(new_array), idx]),
                stored,
            ));
        }
        state.locals.insert(
            name,
            SymValue::Vec {
                array: new_array,
                len,
            },
        );
    }

    fn exec_while(
        &mut self,
        cond: &ast::Expr,
        invariants: &[Expr],
        body: &ast::Block,
        state: &mut State,
        span: Span,
    ) {
        // 1. Invariants hold on entry.
        for (i, inv) in invariants.iter().enumerate() {
            let goal = self.spec_pred(inv, state);
            self.check(
                state,
                goal,
                span,
                &format!("loop invariant #{} on entry", i + 1),
            );
        }
        // 2. Havoc the modified locals, assume invariants + condition, run the
        //    body once, and re-establish the invariants.
        let mut body_state = state.clone();
        self.havoc_assigned(body, &mut body_state);
        for inv in invariants {
            let fact = self.spec_pred(inv, &body_state);
            body_state.facts.push(fact);
        }
        let cond_expr = self.eval_scalar(cond, &mut body_state);
        body_state.facts.push(cond_expr);
        for stmt in &body.stmts {
            self.exec_stmt(stmt, &mut body_state);
        }
        for (i, inv) in invariants.iter().enumerate() {
            let goal = self.spec_pred(inv, &body_state);
            self.check(
                &body_state,
                goal,
                span,
                &format!("loop invariant #{} preservation", i + 1),
            );
        }
        // 3. After the loop: havoc again, assume invariants and ¬cond.
        self.havoc_assigned(body, state);
        for inv in invariants {
            let fact = self.spec_pred(inv, state);
            state.facts.push(fact);
        }
        let cond_expr = self.eval_scalar(cond, state);
        state.facts.push(Expr::not(cond_expr));
    }

    /// Havocs every local assigned (or grown) anywhere in a loop body.
    fn havoc_assigned(&mut self, body: &ast::Block, state: &mut State) {
        let mut assigned = Vec::new();
        collect_assigned(body, &mut assigned);
        for name in assigned {
            let Some(value) = state.locals.get(&name).cloned() else {
                continue;
            };
            let havocked = match value {
                SymValue::Scalar(_) => SymValue::Scalar(Expr::Var(self.fresh_int(&name))),
                SymValue::Vec { .. } => {
                    let array = self.fresh_array(&format!("{name}_arr"));
                    let len = self.fresh_int(&format!("{name}_len"));
                    state.facts.push(Expr::ge(Expr::Var(len), Expr::int(0)));
                    SymValue::Vec {
                        array,
                        len: Expr::Var(len),
                    }
                }
                other => other,
            };
            state.locals.insert(name, havocked);
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn eval_scalar(&mut self, expr: &ast::Expr, state: &mut State) -> Expr {
        match self.eval(expr, state) {
            SymValue::Scalar(e) => e,
            _ => Expr::Var(self.fresh_int("opaque")),
        }
    }

    fn vec_of(&mut self, expr: &ast::Expr, state: &State) -> Option<(String, Name, Expr)> {
        let name = match expr {
            ast::Expr::Var(name, _) => name.clone(),
            ast::Expr::Deref(inner, _) => match inner.as_ref() {
                ast::Expr::Var(name, _) => name.clone(),
                _ => return None,
            },
            _ => return None,
        };
        match state.locals.get(&name) {
            Some(SymValue::Vec { array, len }) => Some((name, *array, len.clone())),
            _ => None,
        }
    }

    fn eval(&mut self, expr: &ast::Expr, state: &mut State) -> SymValue {
        match expr {
            ast::Expr::Int(i, _) => SymValue::Scalar(Expr::int(*i)),
            ast::Expr::Float(_, _) => SymValue::Float,
            ast::Expr::Bool(b, _) => SymValue::Scalar(Expr::bool(*b)),
            ast::Expr::Var(name, _) => state
                .locals
                .get(name)
                .cloned()
                .unwrap_or(SymValue::Scalar(Expr::Var(Name::intern(name)))),
            ast::Expr::Unary(op, inner, _) => {
                let v = self.eval_scalar(inner, state);
                match op {
                    UnOpKind::Neg => SymValue::Scalar(Expr::neg(v)),
                    UnOpKind::Not => SymValue::Scalar(Expr::not(v)),
                }
            }
            ast::Expr::Binary(op, lhs, rhs, _) => {
                let l = self.eval(lhs, state);
                let r = self.eval(rhs, state);
                if matches!(l, SymValue::Float) || matches!(r, SymValue::Float) {
                    return match op {
                        BinOpKind::Lt
                        | BinOpKind::Le
                        | BinOpKind::Gt
                        | BinOpKind::Ge
                        | BinOpKind::Eq
                        | BinOpKind::Ne => SymValue::Scalar(Expr::Var(self.fresh_bool("fcmp"))),
                        _ => SymValue::Float,
                    };
                }
                let l = self.scalar_or_fresh(l);
                let r = self.scalar_or_fresh(r);
                let e = match op {
                    BinOpKind::Add => l + r,
                    BinOpKind::Sub => l - r,
                    BinOpKind::Mul => l * r,
                    BinOpKind::Div => Expr::binop(flux_logic::BinOp::Div, l, r),
                    BinOpKind::Rem => Expr::binop(flux_logic::BinOp::Mod, l, r),
                    BinOpKind::Eq => Expr::eq(l, r),
                    BinOpKind::Ne => Expr::ne(l, r),
                    BinOpKind::Lt => Expr::lt(l, r),
                    BinOpKind::Le => Expr::le(l, r),
                    BinOpKind::Gt => Expr::gt(l, r),
                    BinOpKind::Ge => Expr::ge(l, r),
                    BinOpKind::And => Expr::and(l, r),
                    BinOpKind::Or => Expr::or(l, r),
                };
                SymValue::Scalar(e)
            }
            ast::Expr::Deref(inner, _) => self.eval(inner, state),
            ast::Expr::Borrow { place, .. } => self.eval(place, state),
            ast::Expr::Index { recv, index, span } => {
                let idx = self.eval_scalar(index, state);
                match self.vec_of(recv, state) {
                    Some((_, array, len)) => {
                        self.check(
                            state,
                            Expr::and(
                                Expr::ge(idx.clone(), Expr::int(0)),
                                Expr::lt(idx.clone(), len),
                            ),
                            *span,
                            "index in bounds",
                        );
                        SymValue::Scalar(Expr::app("select", vec![Expr::Var(array), idx]))
                    }
                    None => SymValue::Scalar(Expr::Var(self.fresh_int("elem"))),
                }
            }
            ast::Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => self.eval_method(recv, method, args, state, *span),
            ast::Expr::Call { func, args, span } => self.eval_call(func, args, state, *span),
            ast::Expr::If {
                cond, then, els, ..
            } => self.eval_if(cond, then, els.as_ref(), state),
        }
    }

    fn eval_if(
        &mut self,
        cond: &ast::Expr,
        then: &ast::Block,
        els: Option<&ast::Block>,
        state: &mut State,
    ) -> SymValue {
        let c = self.eval_scalar(cond, state);
        let base_facts = state.facts.len();
        let mut then_state = state.clone();
        then_state.facts.push(c.clone());
        let then_val = self.exec_block(then, &mut then_state);
        let mut els_state = state.clone();
        els_state.facts.push(Expr::not(c.clone()));
        let els_val = match els {
            Some(block) => self.exec_block(block, &mut els_state),
            None => None,
        };
        // Re-export the facts each branch accumulated (frame axioms from
        // stores/pushes/swaps, nested merges), guarded by the branch
        // condition.  Dropping them would disconnect the merged locals below
        // from their defining constraints.  The `+ 1` skips the branch
        // condition itself, re-pushed above.
        let then_new: Vec<Expr> = then_state.facts[base_facts + 1..].to_vec();
        if !then_new.is_empty() {
            state
                .facts
                .push(Expr::imp(c.clone(), Expr::and_all(then_new)));
        }
        let els_new: Vec<Expr> = els_state.facts[base_facts + 1..].to_vec();
        if !els_new.is_empty() {
            state
                .facts
                .push(Expr::imp(Expr::not(c.clone()), Expr::and_all(els_new)));
        }
        // Merge the two states back into `state`.
        let keys: Vec<String> = state.locals.keys().cloned().collect();
        for key in keys {
            let tv = then_state.locals.get(&key).cloned();
            let ev = els_state.locals.get(&key).cloned();
            match (tv, ev) {
                (Some(SymValue::Scalar(a)), Some(SymValue::Scalar(b))) => {
                    // Both branches may have assigned the same *new* value,
                    // so the merged value must come from the branch states
                    // even when they agree — keeping the pre-branch value
                    // would be unsound.
                    let merged = if a == b {
                        a
                    } else {
                        Expr::ite(c.clone(), a, b)
                    };
                    state.locals.insert(key, SymValue::Scalar(merged));
                }
                (
                    Some(SymValue::Vec { array: a, len: la }),
                    Some(SymValue::Vec { array: b, len: lb }),
                ) => {
                    if a == b && la == lb {
                        state
                            .locals
                            .insert(key, SymValue::Vec { array: a, len: la });
                        continue;
                    }
                    let array = self.fresh_array("merged");
                    let len = self.fresh_int("merged_len");
                    // Array equality is opaque to the theory solver, so the
                    // merged array is connected to each branch's array by a
                    // universally quantified frame axiom over its contents
                    // (alongside the length equation).
                    let j = self.names.fresh("j");
                    let frame = |source: Name| {
                        Expr::forall(
                            vec![(j, Sort::Int)],
                            Expr::eq(
                                Expr::app("select", vec![Expr::Var(array), Expr::Var(j)]),
                                Expr::app("select", vec![Expr::Var(source), Expr::Var(j)]),
                            ),
                        )
                    };
                    state.facts.push(Expr::imp(
                        c.clone(),
                        Expr::and(frame(a), Expr::eq(Expr::Var(len), la)),
                    ));
                    state.facts.push(Expr::imp(
                        Expr::not(c.clone()),
                        Expr::and(frame(b), Expr::eq(Expr::Var(len), lb)),
                    ));
                    state.locals.insert(
                        key,
                        SymValue::Vec {
                            array,
                            len: Expr::Var(len),
                        },
                    );
                }
                _ => {}
            }
        }
        match (then_val, els_val) {
            (Some(SymValue::Scalar(a)), Some(SymValue::Scalar(b))) => {
                SymValue::Scalar(Expr::ite(c, a, b))
            }
            (Some(v), None) | (None, Some(v)) => v,
            (Some(SymValue::Float), Some(SymValue::Float)) => SymValue::Float,
            _ => SymValue::Unit,
        }
    }

    fn eval_method(
        &mut self,
        recv: &ast::Expr,
        method: &str,
        args: &[ast::Expr],
        state: &mut State,
        span: Span,
    ) -> SymValue {
        match method {
            "len" => match self.vec_of(recv, state) {
                Some((_, _, len)) => SymValue::Scalar(len),
                None => SymValue::Scalar(Expr::Var(self.fresh_int("len"))),
            },
            "get" | "get_mut" => {
                let idx = self.eval_scalar(&args[0], state);
                match self.vec_of(recv, state) {
                    Some((_, array, len)) => {
                        self.check(
                            state,
                            Expr::and(
                                Expr::ge(idx.clone(), Expr::int(0)),
                                Expr::lt(idx.clone(), len),
                            ),
                            span,
                            "index in bounds",
                        );
                        SymValue::Scalar(Expr::app("select", vec![Expr::Var(array), idx]))
                    }
                    None => SymValue::Scalar(Expr::Var(self.fresh_int("elem"))),
                }
            }
            "push" => {
                let value = self.eval(&args[0], state);
                if let Some((name, array, len)) = self.vec_of(recv, state) {
                    let new_array = self.fresh_array(&format!("{name}_push"));
                    let j = self.names.fresh("j");
                    state.facts.push(Expr::forall(
                        vec![(j, Sort::Int)],
                        Expr::imp(
                            Expr::and(
                                Expr::ge(Expr::Var(j), Expr::int(0)),
                                Expr::lt(Expr::Var(j), len.clone()),
                            ),
                            Expr::eq(
                                Expr::app("select", vec![Expr::Var(new_array), Expr::Var(j)]),
                                Expr::app("select", vec![Expr::Var(array), Expr::Var(j)]),
                            ),
                        ),
                    ));
                    if let SymValue::Scalar(v) = value {
                        state.facts.push(Expr::eq(
                            Expr::app("select", vec![Expr::Var(new_array), len.clone()]),
                            v,
                        ));
                    }
                    state.locals.insert(
                        name,
                        SymValue::Vec {
                            array: new_array,
                            len: len + Expr::int(1),
                        },
                    );
                }
                SymValue::Unit
            }
            "pop" => {
                if let Some((name, array, len)) = self.vec_of(recv, state) {
                    self.check(
                        state,
                        Expr::ge(len.clone(), Expr::int(1)),
                        span,
                        "pop from non-empty vector",
                    );
                    let value =
                        Expr::app("select", vec![Expr::Var(array), len.clone() - Expr::int(1)]);
                    state.locals.insert(
                        name,
                        SymValue::Vec {
                            array,
                            len: len - Expr::int(1),
                        },
                    );
                    SymValue::Scalar(value)
                } else {
                    SymValue::Scalar(Expr::Var(self.fresh_int("popped")))
                }
            }
            "swap" => {
                let i = self.eval_scalar(&args[0], state);
                let jj = self.eval_scalar(&args[1], state);
                if let Some((name, _, len)) = self.vec_of(recv, state) {
                    self.check(
                        state,
                        Expr::and(
                            Expr::and(Expr::ge(i.clone(), Expr::int(0)), Expr::lt(i, len.clone())),
                            Expr::and(
                                Expr::ge(jj.clone(), Expr::int(0)),
                                Expr::lt(jj, len.clone()),
                            ),
                        ),
                        span,
                        "swap indices in bounds",
                    );
                    let array = self.fresh_array(&format!("{name}_swap"));
                    state.locals.insert(name, SymValue::Vec { array, len });
                }
                SymValue::Unit
            }
            _ => SymValue::Scalar(Expr::Var(self.fresh_int("method"))),
        }
    }

    fn eval_call(
        &mut self,
        func: &str,
        args: &[ast::Expr],
        state: &mut State,
        span: Span,
    ) -> SymValue {
        if func == "RVec::new" {
            let array = self.fresh_array("new_vec");
            return SymValue::Vec {
                array,
                len: Expr::int(0),
            };
        }
        let Some(callee) = self.program.function(func).cloned() else {
            return SymValue::Scalar(Expr::Var(self.fresh_int("call")));
        };
        // Bind arguments to parameter names for contract substitution.
        let mut call_state = State {
            locals: BTreeMap::new(),
            facts: state.facts.clone(),
        };
        for (param, arg) in callee.params.iter().zip(args) {
            let value = self.eval(arg, state);
            call_state.locals.insert(param.name.clone(), value);
        }
        // Preconditions at the call site.
        for (i, pre) in callee.requires.iter().enumerate() {
            let goal = self.spec_pred(pre, &call_state);
            self.check(
                state,
                goal,
                span,
                &format!("precondition #{} of `{func}`", i + 1),
            );
        }
        // Havoc mutable reference arguments (the callee may change them).
        for (param, arg) in callee.params.iter().zip(args) {
            if matches!(param.ty, RustTy::Ref(ast::Mutability::Mutable, _)) {
                if let ast::Expr::Borrow { place, .. } = arg {
                    if let ast::Expr::Var(name, _) = place.as_ref() {
                        if let Some(value) = state.locals.get(name).cloned() {
                            let havocked = match value {
                                SymValue::Vec { .. } => {
                                    let array = self.fresh_array(&format!("{name}_after"));
                                    let len = self.fresh_int(&format!("{name}_len_after"));
                                    state.facts.push(Expr::ge(Expr::Var(len), Expr::int(0)));
                                    SymValue::Vec {
                                        array,
                                        len: Expr::Var(len),
                                    }
                                }
                                SymValue::Scalar(_) => {
                                    SymValue::Scalar(Expr::Var(self.fresh_int(name)))
                                }
                                other => other,
                            };
                            state.locals.insert(name.clone(), havocked.clone());
                            call_state.locals.insert(param.name.clone(), havocked);
                        }
                    }
                }
            }
        }
        // Assume postconditions about a fresh result.
        let result = self.havoc("call_result", &callee.ret, state);
        call_state
            .locals
            .insert("result".to_owned(), result.clone());
        for post in &callee.ensures {
            let fact = self.spec_pred(post, &call_state);
            state.facts.push(fact);
        }
        result
    }

    fn scalar_or_fresh(&mut self, value: SymValue) -> Expr {
        match value {
            SymValue::Scalar(e) => e,
            _ => Expr::Var(self.fresh_int("opaque")),
        }
    }
}

/// A decided verdict: `Some(true)` for valid, `Some(false)` for invalid,
/// `None` for unknown.
fn decided(validity: &Validity) -> Option<bool> {
    match validity {
        Validity::Valid => Some(true),
        Validity::Invalid(_) => Some(false),
        Validity::Unknown => None,
    }
}

/// Replaces positive-position universally quantified subformulas that talk
/// about arrays — none of which are `relevant` — by `true`.  Negative
/// positions are left untouched (weakening a hypothesis there would
/// strengthen the overall assumption, which would be unsound).
fn prune_quants(
    e: &Expr,
    positive: bool,
    relevant: &std::collections::BTreeSet<Name>,
    ctx: &SortCtx,
) -> Expr {
    match e {
        Expr::Forall(_, _) if positive => {
            let arrays: Vec<Name> = e
                .free_vars()
                .into_iter()
                .filter(|v| ctx.lookup(*v) == Some(Sort::Array))
                .collect();
            if !arrays.is_empty() && arrays.iter().all(|a| !relevant.contains(a)) {
                Expr::tt()
            } else {
                e.clone()
            }
        }
        Expr::UnOp(flux_logic::UnOp::Not, inner) => {
            Expr::not(prune_quants(inner, !positive, relevant, ctx))
        }
        Expr::BinOp(flux_logic::BinOp::Imp, lhs, rhs) => Expr::imp(
            prune_quants(lhs, !positive, relevant, ctx),
            prune_quants(rhs, positive, relevant, ctx),
        ),
        Expr::BinOp(op @ (flux_logic::BinOp::And | flux_logic::BinOp::Or), lhs, rhs) => {
            Expr::binop(
                *op,
                prune_quants(lhs, positive, relevant, ctx),
                prune_quants(rhs, positive, relevant, ctx),
            )
        }
        other => other.clone(),
    }
}

/// Collects the names of locals assigned (or mutated through methods)
/// anywhere in a block.
fn collect_assigned(block: &ast::Block, out: &mut Vec<String>) {
    fn expr_mutations(expr: &ast::Expr, out: &mut Vec<String>) {
        match expr {
            ast::Expr::MethodCall { recv, method, .. }
                if matches!(method.as_str(), "push" | "pop" | "swap") =>
            {
                if let ast::Expr::Var(name, _) = recv.as_ref() {
                    out.push(name.clone());
                }
            }
            ast::Expr::Call { args, .. } => {
                // Mutable borrows passed to callees may be modified.
                for arg in args {
                    if let ast::Expr::Borrow {
                        place,
                        mutability: ast::Mutability::Mutable,
                        ..
                    } = arg
                    {
                        if let ast::Expr::Var(name, _) = place.as_ref() {
                            out.push(name.clone());
                        }
                    }
                }
            }
            // Mutations may hide inside either branch of a conditional;
            // missing them here would leave loop-modified locals unhavocked
            // at the loop head, which is unsound.
            ast::Expr::If { then, els, .. } => {
                collect_assigned(then, out);
                if let Some(els) = els {
                    collect_assigned(els, out);
                }
            }
            _ => {}
        }
    }
    for stmt in &block.stmts {
        match stmt {
            ast::Stmt::Let { name, init, .. } => {
                out.push(name.clone());
                expr_mutations(init, out);
            }
            ast::Stmt::Assign { place, .. } => match place {
                ast::Expr::Var(name, _) => out.push(name.clone()),
                ast::Expr::Deref(inner, _) => {
                    if let ast::Expr::Var(name, _) = inner.as_ref() {
                        out.push(name.clone());
                    }
                }
                ast::Expr::Index { recv, .. } => {
                    if let ast::Expr::Var(name, _) = recv.as_ref() {
                        out.push(name.clone());
                    }
                }
                _ => {}
            },
            ast::Stmt::While { body, .. } => collect_assigned(body, out),
            ast::Stmt::Expr { expr, .. } => expr_mutations(expr, out),
            _ => {}
        }
    }
    if let Some(tail) = &block.tail {
        expr_mutations(tail, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(src: &str) -> WpReport {
        verify_source(src, &WpConfig::default()).expect("parse failure")
    }

    fn assert_safe(src: &str) {
        let report = verify(src);
        let errors: Vec<_> = report
            .functions
            .iter()
            .flat_map(|f| f.errors.iter().map(|e| e.message.clone()))
            .collect();
        assert!(report.is_safe(), "expected safe, got {errors:?}");
    }

    fn assert_unsafe(src: &str) {
        assert!(!verify(src).is_safe(), "expected verification errors");
    }

    /// Verifying under the lint audit tier is verdict-identical and counts
    /// every obligation and hypothesis it checked.  (The tier is set through
    /// the config, not the process-global `FLUX_AUDIT`, so the test is
    /// hermetic.)  A vector loop is used so quantified frame axioms — the
    /// hardest hypotheses to keep well-scoped — flow through the lint.
    #[test]
    fn lint_tier_is_verdict_identical_and_counts_checks() {
        let src = r#"
            fn fill(n: usize) {
                let mut v = RVec::new();
                let mut i = 0;
                while i < n {
                    invariant!(i >= 0);
                    invariant!(i <= n);
                    invariant!(vlen(v) == i);
                    invariant!(forall k . 0 <= k && k < vlen(v) ==> sel(v, k) >= 0);
                    v.push(i);
                    i += 1;
                }
                assert!(vlen(v) == n);
            }
            "#;
        let audited_config = WpConfig {
            smt: SmtConfig {
                audit: AuditTier::Lint,
                ..SmtConfig::default()
            },
        };
        let plain_config = WpConfig {
            smt: SmtConfig {
                audit: AuditTier::Off,
                ..SmtConfig::default()
            },
        };
        let audited = verify_source(src, &audited_config).expect("parse failure");
        let plain = verify_source(src, &plain_config).expect("parse failure");
        assert_eq!(audited.is_safe(), plain.is_safe());
        assert!(
            audited.functions[0].lint_checks > 0,
            "the lint tier never checked an obligation"
        );
        assert_eq!(plain.functions[0].lint_checks, 0);
    }

    #[test]
    fn assertions_with_contracts() {
        assert_safe(
            r#"
            #[requires(x > 0)]
            fn positive(x: i32) {
                assert!(x > 0);
            }
            "#,
        );
        assert_unsafe(
            r#"
            fn positive(x: i32) {
                assert!(x > 0);
            }
            "#,
        );
    }

    #[test]
    fn postconditions_are_checked() {
        assert_safe(
            r#"
            #[ensures(result >= x)]
            fn id(x: i32) -> i32 { x }
            "#,
        );
        assert_unsafe(
            r#"
            #[ensures(result > x)]
            fn id(x: i32) -> i32 { x }
            "#,
        );
    }

    #[test]
    fn loop_needs_an_invariant_annotation() {
        assert_unsafe(
            r#"
            #[requires(n >= 0)]
            #[ensures(result == n)]
            fn count(n: i32) -> i32 {
                let mut i = 0;
                while i < n {
                    i += 1;
                }
                i
            }
            "#,
        );
        assert_safe(
            r#"
            #[requires(n >= 0)]
            #[ensures(result == n)]
            fn count(n: i32) -> i32 {
                let mut i = 0;
                while i < n {
                    invariant!(i <= n);
                    i += 1;
                }
                i
            }
            "#,
        );
    }

    #[test]
    fn vector_reads_require_bounds_facts() {
        assert_safe(
            r#"
            fn sum(v: RVec<i32>) -> i32 {
                let mut total = 0;
                let mut i = 0;
                while i < v.len() {
                    invariant!(i >= 0);
                    total = total + v.get(i);
                    i += 1;
                }
                total
            }
            "#,
        );
        assert_unsafe(
            r#"
            fn bad(v: RVec<i32>, i: usize) -> i32 {
                v.get(i)
            }
            "#,
        );
    }

    #[test]
    fn quantified_invariants_about_contents() {
        assert_safe(
            r#"
            fn build(n: usize) {
                let mut v = RVec::new();
                let mut i = 0;
                while i < n {
                    invariant!(i >= 0);
                    invariant!(i <= n);
                    invariant!(vlen(v) == i);
                    invariant!(forall k . 0 <= k && k < vlen(v) ==> sel(v, k) >= 0);
                    v.push(1);
                    i += 1;
                }
                let mut j = 0;
                while j < n {
                    invariant!(j >= 0);
                    invariant!(vlen(v) == n);
                    invariant!(forall k . 0 <= k && k < vlen(v) ==> sel(v, k) >= 0);
                    let x = v.get(j);
                    assert!(x >= 0);
                    j += 1;
                }
            }
            "#,
        );
    }

    #[test]
    fn callee_contracts_are_used() {
        assert_safe(
            r#"
            #[requires(x >= 0)]
            #[ensures(result >= 1)]
            fn bump(x: i32) -> i32 { x + 1 }

            fn caller() {
                let y = bump(3);
                assert!(y >= 1);
            }
            "#,
        );
        assert_unsafe(
            r#"
            #[requires(x >= 0)]
            fn bump(x: i32) -> i32 { x + 1 }

            fn caller(z: i32) {
                let y = bump(z);
                assert!(y == y);
            }
            "#,
        );
    }

    #[test]
    fn report_counts_queries() {
        let report = verify(
            r#"
            fn trivial(x: i32) {
                assert!(x == x);
            }
            "#,
        );
        assert_eq!(report.functions.len(), 1);
        assert!(report.functions[0].smt_stats.queries >= 1);
        assert!(report.total_time() > Duration::ZERO);
    }
}
