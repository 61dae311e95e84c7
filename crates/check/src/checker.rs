//! Constraint generation: the algorithmic type checker.
//!
//! The checker walks the (structured) surface AST of each function keeping a
//! *type environment* that maps every local variable to an **opened** refined
//! type — an indexed type whose indices are refinement expressions over
//! variables bound in the logical scope, exactly like the Γ/T contexts of
//! λ_LR.  Ownership drives the update discipline:
//!
//! * assignments to owned locals and writes through `&strg` references are
//!   *strong updates* (the type changes),
//! * writes through `&mut` references are *weak updates* (the written value
//!   must re-establish the referent's type),
//! * reads through `&` and `&mut` reuse the referent's type.
//!
//! Loops are handled by *generalising* the environment at the loop head into
//! κ-templated types (one fresh κ per mutable location, whose arguments are
//! the location's indices plus everything else in scope) and emitting the
//! entry, preservation and exit constraints of §4.2; the κs are later solved
//! by liquid inference in `flux-fixpoint`.

use flux_fixpoint::{Constraint, Guard, KVarApp, KVarStore, Tag};
use flux_ir::{BaseTy, FnSig, RTy, RefKind, Refine, ResolvedProgram};
use flux_logic::{Expr, Name, NameSupply, Sort, Subst};
use flux_syntax::ast;
use flux_syntax::span::{Diagnostic, Span};

/// Information associated with a constraint tag, used to build diagnostics
/// when the fixpoint solver blames a tag.
#[derive(Clone, Debug)]
pub struct TagInfo {
    /// The source location of the failed check.
    pub span: Span,
    /// A human-readable description of the obligation.
    pub message: String,
}

/// The output of constraint generation for one function.
pub struct GenResult {
    /// The generated constraint.
    pub constraint: Constraint,
    /// The κ declarations created while checking.
    pub kvars: KVarStore,
    /// Tag metadata for blame.
    pub tags: Vec<TagInfo>,
}

/// Items wrapped around the *rest* of a block after a statement: logical
/// binders and assumptions introduced by opening types or branching.
#[derive(Clone, Debug)]
enum PrefixItem {
    Bind(Name, Sort, Expr),
    Guard(Guard),
}

fn wrap(prefix: Vec<PrefixItem>, inner: Constraint) -> Constraint {
    let mut out = inner;
    for item in prefix.into_iter().rev() {
        out = match item {
            PrefixItem::Bind(name, sort, guard) => Constraint::forall(name, sort, guard, out),
            PrefixItem::Guard(guard) => Constraint::implies(guard, out),
        };
    }
    out
}

/// The type environment: locals in declaration order.
#[derive(Clone, Debug, Default)]
struct Env {
    locals: Vec<(String, RTy)>,
}

impl Env {
    fn get(&self, name: &str) -> Option<&RTy> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    fn set(&mut self, name: &str, ty: RTy) {
        if let Some(entry) = self.locals.iter_mut().rev().find(|(n, _)| n == name) {
            entry.1 = ty;
        } else {
            self.locals.push((name.to_owned(), ty));
        }
    }
}

/// Per-function context: the signature, return type and scope of refinement
/// parameters.
struct FnCtx {
    sig: FnSig,
    /// Scope variables (refinement parameters and opened binders of the
    /// function's own parameters) available as κ arguments.
    scope: Vec<(Name, Sort)>,
}

/// The constraint generator.  It checks one function body
/// ([`Generator::gen_function`] consumes it), so its name supply counts that
/// body's binders only: a function's constraint does not depend on the
/// functions checked before it.
pub struct Generator<'a> {
    program: &'a ResolvedProgram,
    kvars: KVarStore,
    tags: Vec<TagInfo>,
    names: NameSupply,
}

impl<'a> Generator<'a> {
    /// Creates a generator for `program`.
    pub fn new(program: &'a ResolvedProgram) -> Generator<'a> {
        Generator {
            program,
            kvars: KVarStore::new(),
            tags: Vec::new(),
            names: NameSupply::body(),
        }
    }

    fn tag(&mut self, span: Span, message: impl Into<String>) -> Tag {
        self.tags.push(TagInfo {
            span,
            message: message.into(),
        });
        self.tags.len() - 1
    }

    /// Generates the constraint for one function.
    pub fn gen_function(mut self, name: &str) -> Result<GenResult, Diagnostic> {
        let func = self.program.function(name).ok_or_else(|| {
            Diagnostic::error(format!("unknown function `{name}`"), Span::dummy())
        })?;
        let def = func.def.clone();
        let sig = func.sig.clone();

        let mut prefix = Vec::new();
        let mut scope = Vec::new();
        // Refinement parameters.
        for (param, sort) in &sig.refine_params {
            prefix.push(PrefixItem::Bind(*param, *sort, Expr::tt()));
            scope.push((*param, *sort));
        }
        // Open the function parameters into the environment.
        let mut env = Env::default();
        for (pname, pty) in sig.param_names.iter().zip(&sig.params) {
            let opened = self.open_into(pty.clone(), &mut prefix, &mut scope);
            env.set(pname, opened);
        }
        let fn_ctx = FnCtx { sig, scope };

        let tail = def.body.tail.clone();
        let body = self.check_stmts(&mut env, &def.body.stmts, &fn_ctx, |g, env| {
            let span = tail.as_ref().map_or_else(Span::dummy, |e| e.span());
            g.check_fn_exit(env, tail.as_deref(), &fn_ctx, span)
        })?;
        let constraint = wrap(prefix, body);
        Ok(GenResult {
            constraint,
            kvars: self.kvars,
            tags: self.tags,
        })
    }

    // -----------------------------------------------------------------
    // Types: opening, templates, subtyping
    // -----------------------------------------------------------------

    /// Opens a type: existentials get fresh binders added to `prefix` (with
    /// their refinement as an assumption) so the resulting type is an
    /// indexed type over in-scope names.  References open their referent
    /// only when strong.
    fn open_into(
        &mut self,
        ty: RTy,
        prefix: &mut Vec<PrefixItem>,
        scope: &mut Vec<(Name, Sort)>,
    ) -> RTy {
        match ty {
            RTy::Exists {
                base,
                binders,
                refine,
            } => {
                let sorts = base.index_sorts();
                let fresh: Vec<Name> = binders
                    .iter()
                    .map(|b| self.names.fresh(b.as_str()))
                    .collect();
                let subst: Subst = binders
                    .iter()
                    .zip(&fresh)
                    .map(|(old, new)| (*old, Expr::Var(*new)))
                    .collect();
                for (name, sort) in fresh.iter().zip(&sorts) {
                    let nonneg = if base.indices_nonneg() && *sort == Sort::Int {
                        Expr::ge(Expr::Var(*name), Expr::int(0))
                    } else {
                        Expr::tt()
                    };
                    prefix.push(PrefixItem::Bind(*name, *sort, nonneg));
                    scope.push((*name, *sort));
                }
                match refine {
                    Refine::Pred(p) => {
                        let p = subst.apply(&p);
                        if !p.is_trivially_true() {
                            prefix.push(PrefixItem::Guard(Guard::Pred(p)));
                        }
                    }
                    Refine::KVar(app) => {
                        let args = app.args.iter().map(|a| subst.apply(a)).collect();
                        prefix.push(PrefixItem::Guard(Guard::KVar(KVarApp::new(app.kvid, args))));
                    }
                }
                RTy::Indexed {
                    base,
                    indices: fresh.iter().map(|n| Expr::Var(*n)).collect(),
                }
            }
            RTy::Indexed { base, indices } => {
                // Add the implicit non-negativity facts for unsigned / size
                // indices.
                if base.indices_nonneg() {
                    for idx in &indices {
                        prefix.push(PrefixItem::Guard(Guard::Pred(Expr::ge(
                            idx.clone(),
                            Expr::int(0),
                        ))));
                    }
                }
                RTy::Indexed { base, indices }
            }
            RTy::Ref {
                kind: RefKind::Strg,
                inner,
            } => {
                let opened = self.open_into(*inner, prefix, scope);
                RTy::ref_strg(opened)
            }
            RTy::Ref {
                kind: kind @ (RefKind::Mut | RefKind::Shared),
                inner,
            } => {
                // Weak references are not opened, but the referent's indices
                // still denote runtime sizes: record their non-negativity so
                // refine params such as the `n` of `&mut RVec<T>[@n]` carry
                // the same implicit facts as by-value indexed types.
                push_nonneg_index_facts(&inner, prefix);
                RTy::Ref { kind, inner }
            }
            other => other,
        }
    }

    /// Generalises an environment into κ templates.  Every templated local's
    /// κ sees the binders of *every* local (not just earlier ones), so
    /// relational invariants between any pair of mutated locations are
    /// expressible.
    fn template_env(&mut self, env: &Env, fn_scope: &[(Name, Sort)]) -> Env {
        // Pass 1: allocate binder names per local.
        type BinderInfo = (String, Option<(BaseTy, Vec<Name>, bool)>);
        let mut binder_info: Vec<BinderInfo> = Vec::new();
        let mut all_binders: Vec<(Name, Sort)> = Vec::new();
        for (name, ty) in &env.locals {
            let target = match ty {
                RTy::Ref {
                    kind: RefKind::Strg,
                    inner,
                } => Some((inner.as_ref(), true)),
                RTy::Indexed { .. } | RTy::Exists { .. } => Some((ty, false)),
                _ => None,
            };
            match target {
                Some((t, is_strg)) => match t.base() {
                    Some(base) if !base.index_sorts().is_empty() => {
                        let sorts = base.index_sorts();
                        let binders: Vec<Name> = (0..sorts.len())
                            .map(|i| self.names.fresh(&format!("t{i}")))
                            .collect();
                        for (b, s) in binders.iter().zip(&sorts) {
                            all_binders.push((*b, *s));
                        }
                        binder_info.push((name.clone(), Some((base.clone(), binders, is_strg))));
                    }
                    _ => binder_info.push((name.clone(), None)),
                },
                None => binder_info.push((name.clone(), None)),
            }
        }
        // Pass 2: build the κ-templated types; each κ takes its own binders
        // followed by every other binder and the function-level scope.
        let mut template = Env::default();
        for ((name, info), (_, orig_ty)) in binder_info.iter().zip(&env.locals) {
            match info {
                None => template.set(name, orig_ty.clone()),
                Some((base, binders, is_strg)) => {
                    let mut kv_sorts: Vec<Sort> = base.index_sorts();
                    let mut scope_args: Vec<Expr> = Vec::new();
                    for (b, s) in &all_binders {
                        if !binders.contains(b) {
                            kv_sorts.push(*s);
                            scope_args.push(Expr::Var(*b));
                        }
                    }
                    for (n, s) in fn_scope {
                        kv_sorts.push(*s);
                        scope_args.push(Expr::Var(*n));
                    }
                    let kvid = self.kvars.fresh(kv_sorts);
                    let ty = RTy::exists_kvar(base.clone(), binders.clone(), kvid, scope_args);
                    let ty = if *is_strg { RTy::ref_strg(ty) } else { ty };
                    template.set(name, ty);
                }
            }
        }
        template
    }

    /// Creates a κ-templated existential with the same shape as `ty`, whose
    /// κ arguments are the type's own indices followed by `scope`.
    fn template_like(&mut self, ty: &RTy, scope: &[(Name, Sort)]) -> RTy {
        match ty {
            RTy::Indexed { base, .. } | RTy::Exists { base, .. } => {
                let sorts = base.index_sorts();
                if sorts.is_empty() {
                    // No indices (floats): nothing to infer.
                    return RTy::Indexed {
                        base: base.clone(),
                        indices: vec![],
                    };
                }
                let binders: Vec<Name> = (0..sorts.len())
                    .map(|i| self.names.fresh(&format!("t{i}")))
                    .collect();
                let mut kv_sorts = sorts.clone();
                kv_sorts.extend(scope.iter().map(|(_, s)| *s));
                let kvid = self.kvars.fresh(kv_sorts);
                let scope_args: Vec<Expr> = scope.iter().map(|(n, _)| Expr::Var(*n)).collect();
                RTy::exists_kvar(base.clone(), binders, kvid, scope_args)
            }
            RTy::Ref {
                kind: RefKind::Strg,
                inner,
            } => RTy::ref_strg(self.template_like(inner, scope)),
            other => other.clone(),
        }
    }

    /// Subtyping `actual ≼ expected`, producing a constraint.
    fn subtype(&mut self, actual: &RTy, expected: &RTy, span: Span, what: &str) -> Constraint {
        match (actual, expected) {
            (RTy::Unit, RTy::Unit) | (RTy::Uninit, RTy::Uninit) => Constraint::True,
            (
                RTy::Indexed {
                    base: ab,
                    indices: ai,
                },
                expected,
            ) => match expected {
                RTy::Indexed {
                    base: eb,
                    indices: ei,
                } => {
                    if !bases_compatible(ab, eb) {
                        let tag =
                            self.tag(span, format!("{what}: type shape mismatch ({ab} vs {eb})"));
                        return Constraint::pred(Expr::ff(), tag);
                    }
                    let tag = self.tag(span, format!("{what}: indices must match"));
                    let eqs = ai
                        .iter()
                        .zip(ei)
                        .map(|(a, e)| Expr::eq(a.clone(), e.clone()));
                    let head = Constraint::pred(Expr::and_all(eqs), tag);
                    Constraint::conj(vec![head, self.element_compat(ab, eb, span, what)])
                }
                RTy::Exists {
                    base: eb,
                    binders,
                    refine,
                } => {
                    if !bases_compatible(ab, eb) {
                        let tag =
                            self.tag(span, format!("{what}: type shape mismatch ({ab} vs {eb})"));
                        return Constraint::pred(Expr::ff(), tag);
                    }
                    let subst: Subst = binders
                        .iter()
                        .zip(ai)
                        .map(|(b, a)| (*b, a.clone()))
                        .collect();
                    let head = match refine {
                        Refine::Pred(p) => {
                            let tag = self.tag(span, format!("{what}: refinement must hold"));
                            Constraint::pred(subst.apply(p), tag)
                        }
                        Refine::KVar(app) => Constraint::kvar(KVarApp::new(
                            app.kvid,
                            app.args.iter().map(|a| subst.apply(a)).collect(),
                        )),
                    };
                    Constraint::conj(vec![head, self.element_compat(ab, eb, span, what)])
                }
                _ => {
                    let tag =
                        self.tag(span, format!("{what}: expected {expected}, found {actual}"));
                    Constraint::pred(Expr::ff(), tag)
                }
            },
            (
                RTy::Exists {
                    base,
                    binders,
                    refine,
                },
                expected,
            ) => {
                // Open the actual existential universally and recurse.
                let sorts = base.index_sorts();
                let fresh: Vec<Name> = binders
                    .iter()
                    .map(|b| self.names.fresh(b.as_str()))
                    .collect();
                let subst: Subst = binders
                    .iter()
                    .zip(&fresh)
                    .map(|(old, new)| (*old, Expr::Var(*new)))
                    .collect();
                let opened = RTy::Indexed {
                    base: base.clone(),
                    indices: fresh.iter().map(|n| Expr::Var(*n)).collect(),
                };
                let inner = self.subtype(&opened, expected, span, what);
                let guard = match refine {
                    Refine::Pred(p) => Guard::Pred(subst.apply(p)),
                    Refine::KVar(app) => Guard::KVar(KVarApp::new(
                        app.kvid,
                        app.args.iter().map(|a| subst.apply(a)).collect(),
                    )),
                };
                let mut out = Constraint::implies(guard, inner);
                for (name, sort) in fresh.iter().zip(sorts).rev() {
                    out = Constraint::forall(*name, sort, Expr::tt(), out);
                }
                out
            }
            (
                RTy::Ref {
                    kind: ak,
                    inner: ai,
                },
                RTy::Ref {
                    kind: ek,
                    inner: ei,
                },
            ) => match (ak, ek) {
                (RefKind::Shared, RefKind::Shared) => self.subtype(ai, ei, span, what),
                (RefKind::Mut | RefKind::Strg, RefKind::Mut) => Constraint::conj(vec![
                    self.subtype(ai, ei, span, what),
                    self.subtype(ei, ai, span, what),
                ]),
                (RefKind::Mut | RefKind::Strg, RefKind::Shared) => self.subtype(ai, ei, span, what),
                _ => {
                    let tag = self.tag(span, format!("{what}: reference kind mismatch"));
                    Constraint::pred(Expr::ff(), tag)
                }
            },
            _ => {
                let tag = self.tag(span, format!("{what}: expected {expected}, found {actual}"));
                Constraint::pred(Expr::ff(), tag)
            }
        }
    }

    /// For container types, require the element types to be compatible in
    /// both directions (mutation through the container must preserve them).
    fn element_compat(&mut self, a: &BaseTy, b: &BaseTy, span: Span, what: &str) -> Constraint {
        match (a.element(), b.element()) {
            (Some(ae), Some(be)) => Constraint::conj(vec![
                self.subtype(ae, be, span, &format!("{what} (element)")),
                self.subtype(be, ae, span, &format!("{what} (element)")),
            ]),
            _ => Constraint::True,
        }
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    /// Checks a statement sequence; once every statement has been processed
    /// the `exit` continuation runs on the final environment **inside** the
    /// logical scope of all binders and guards introduced along the way.
    ///
    /// Constraints that depend on the post-block environment (the function's
    /// return obligation, a loop's back-edge, the join after an `if`) must be
    /// emitted through `exit`: statements such as nested `if`s and loops push
    /// fresh binders whose scope is exactly "the rest of the block", so a
    /// constraint generated after this function returns would mention those
    /// binders free — unbound and stripped of their κ assumptions.
    fn check_stmts<F>(
        &mut self,
        env: &mut Env,
        stmts: &[ast::Stmt],
        fn_ctx: &FnCtx,
        exit: F,
    ) -> Result<Constraint, Diagnostic>
    where
        F: FnOnce(&mut Generator<'a>, &mut Env) -> Result<Constraint, Diagnostic>,
    {
        match stmts.split_first() {
            None => exit(self, env),
            Some((stmt, rest)) => {
                let mut prefix = Vec::new();
                let mut post = Vec::new();
                let own = self.check_stmt(env, stmt, &mut prefix, &mut post, fn_ctx)?;
                let rest_c = self.check_stmts(env, rest, fn_ctx, exit)?;
                Ok(wrap(
                    prefix,
                    Constraint::conj(vec![own, wrap(post, rest_c)]),
                ))
            }
        }
    }

    /// Checks the value returned at a function exit (explicit `return` or the
    /// body's tail expression) plus all `ensures` obligations.
    fn check_fn_exit(
        &mut self,
        env: &mut Env,
        value: Option<&ast::Expr>,
        fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<Constraint, Diagnostic> {
        let mut prefix = Vec::new();
        let mut parts = Vec::new();
        let ret_ty = fn_ctx.sig.ret.clone();
        match value {
            Some(ast::Expr::If {
                cond, then, els, ..
            }) => {
                // Check each branch against the return type directly so that
                // path-sensitive facts flow into the obligation.
                let c =
                    self.check_if_against(env, cond, then, els.as_ref(), &ret_ty, fn_ctx, span)?;
                parts.push(c);
            }
            Some(expr) => {
                let (ty, c) = self.synth(env, expr, &mut prefix, fn_ctx)?;
                parts.push(c);
                parts.push(self.subtype(&ty, &ret_ty, expr.span(), "return value"));
            }
            None => {
                if !matches!(ret_ty, RTy::Unit) {
                    parts.push(self.subtype(&RTy::Unit, &ret_ty, span, "return value"));
                }
            }
        }
        // ensures clauses for strong references.
        for (param_idx, out_ty) in fn_ctx.sig.ensures.clone() {
            let pname = &fn_ctx.sig.param_names[param_idx];
            let actual = env.get(pname).cloned().unwrap_or(RTy::Uninit);
            if let RTy::Ref {
                kind: RefKind::Strg,
                inner,
            } = actual
            {
                parts.push(self.subtype(&inner, &out_ty, span, "ensures clause"));
            } else {
                let tag = self.tag(
                    span,
                    format!("ensures clause refers to `{pname}` which is not a strong reference"),
                );
                parts.push(Constraint::pred(Expr::ff(), tag));
            }
        }
        Ok(wrap(prefix, Constraint::conj(parts)))
    }

    fn check_stmt(
        &mut self,
        env: &mut Env,
        stmt: &ast::Stmt,
        prefix: &mut Vec<PrefixItem>,
        post: &mut Vec<PrefixItem>,
        fn_ctx: &FnCtx,
    ) -> Result<Constraint, Diagnostic> {
        match stmt {
            ast::Stmt::Let {
                name,
                init,
                ty,
                span,
                ..
            } => {
                // A `let v: RVec<T> = RVec::new()` gets a polymorphic κ
                // template for its element type (§4.3).
                if let ast::Expr::Call { func, args, .. } = init {
                    if func == "RVec::new" && args.is_empty() {
                        let elem = self.new_vec_elem_template(ty.as_ref(), fn_ctx);
                        env.set(
                            name,
                            RTy::Indexed {
                                base: BaseTy::Vec(Box::new(elem)),
                                indices: vec![Expr::int(0)],
                            },
                        );
                        return Ok(Constraint::True);
                    }
                }
                if let ast::Expr::If {
                    cond, then, els, ..
                } = init
                {
                    let (ty, c) =
                        self.synth_if(env, cond, then, els.as_ref(), prefix, fn_ctx, *span)?;
                    env.set(name, ty);
                    return Ok(c);
                }
                let mut scope = fn_ctx.scope.clone();
                let (ty, c) = self.synth(env, init, prefix, fn_ctx)?;
                let opened = self.open_into(ty, prefix, &mut scope);
                env.set(name, opened);
                Ok(c)
            }
            ast::Stmt::Assign {
                place,
                op,
                value,
                span,
            } => self.check_assign(env, place, *op, value, prefix, fn_ctx, *span),
            ast::Stmt::While {
                cond, body, span, ..
            } => self.check_while(env, cond, body, post, fn_ctx, *span),
            ast::Stmt::Return { value, span } => {
                self.check_fn_exit(env, value.as_ref(), fn_ctx, *span)
            }
            ast::Stmt::Assert { cond, span } => {
                let (ty, c) = self.synth(env, cond, prefix, fn_ctx)?;
                let idx = self.bool_index(&ty, *span)?;
                let tag = self.tag(*span, "assertion might not hold");
                // The asserted fact is available to the continuation only.
                post.push(PrefixItem::Guard(Guard::Pred(idx.clone())));
                Ok(Constraint::conj(vec![c, Constraint::pred(idx, tag)]))
            }
            ast::Stmt::Expr { expr, span } => match expr {
                ast::Expr::If {
                    cond, then, els, ..
                } => {
                    let (_, c) =
                        self.synth_if(env, cond, then, els.as_ref(), prefix, fn_ctx, *span)?;
                    Ok(c)
                }
                _ => {
                    let (_, c) = self.synth(env, expr, prefix, fn_ctx)?;
                    Ok(c)
                }
            },
        }
    }

    fn new_vec_elem_template(&mut self, ascription: Option<&ast::RustTy>, fn_ctx: &FnCtx) -> RTy {
        let default_elem = match ascription {
            Some(ast::RustTy::RVec(elem)) => flux_ir::default_rty_of_rust_ty(elem, &mut self.names),
            _ => RTy::exists_top(BaseTy::Float, &mut self.names),
        };
        self.template_like(&default_elem, &fn_ctx.scope)
    }

    #[allow(clippy::too_many_arguments)]
    fn check_assign(
        &mut self,
        env: &mut Env,
        place: &ast::Expr,
        op: ast::AssignOp,
        value: &ast::Expr,
        prefix: &mut Vec<PrefixItem>,
        fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<Constraint, Diagnostic> {
        // Desugar compound assignment into a read-modify-write.
        let rhs: ast::Expr = match op {
            ast::AssignOp::Assign => value.clone(),
            other => {
                let binop = match other {
                    ast::AssignOp::AddAssign => ast::BinOpKind::Add,
                    ast::AssignOp::SubAssign => ast::BinOpKind::Sub,
                    ast::AssignOp::MulAssign => ast::BinOpKind::Mul,
                    ast::AssignOp::DivAssign => ast::BinOpKind::Div,
                    ast::AssignOp::Assign => unreachable!(),
                };
                ast::Expr::Binary(
                    binop,
                    Box::new(place.clone()),
                    Box::new(value.clone()),
                    span,
                )
            }
        };
        match place {
            ast::Expr::Var(name, _) => {
                let (ty, c) = if let ast::Expr::If {
                    cond, then, els, ..
                } = &rhs
                {
                    self.synth_if(env, cond, then, els.as_ref(), prefix, fn_ctx, span)?
                } else {
                    self.synth(env, &rhs, prefix, fn_ctx)?
                };
                let mut scope = fn_ctx.scope.clone();
                let opened = self.open_into(ty, prefix, &mut scope);
                env.set(name, opened);
                Ok(c)
            }
            ast::Expr::Deref(inner, _) => {
                let ast::Expr::Var(rname, _) = inner.as_ref() else {
                    return Err(Diagnostic::error("unsupported assignment target", span));
                };
                let (vty, c) = self.synth(env, &rhs, prefix, fn_ctx)?;
                let rty = env.get(rname).cloned().ok_or_else(|| {
                    Diagnostic::error(format!("unknown variable `{rname}`"), span)
                })?;
                match rty {
                    RTy::Ref {
                        kind: RefKind::Mut,
                        inner,
                    } => {
                        let sub = self.subtype(&vty, &inner, span, "write through `&mut`");
                        Ok(Constraint::conj(vec![c, sub]))
                    }
                    RTy::Ref {
                        kind: RefKind::Strg,
                        ..
                    } => {
                        let mut scope = fn_ctx.scope.clone();
                        let opened = self.open_into(vty, prefix, &mut scope);
                        env.set(rname, RTy::ref_strg(opened));
                        Ok(c)
                    }
                    other => Err(Diagnostic::error(
                        format!("cannot assign through `{rname}` of type {other}"),
                        span,
                    )),
                }
            }
            ast::Expr::Index { recv, index, .. } => {
                // v[i] = e  desugars to a bounds-checked store.
                let (elem_ty, len_idx, recv_c) =
                    self.vec_receiver(env, recv, prefix, fn_ctx, span)?;
                let (ity, ic) = self.synth(env, index, prefix, fn_ctx)?;
                let iidx = self.int_index(&ity, index.span())?;
                let bounds = self.bounds_obligation(&iidx, &len_idx, index.span());
                let (vty, vc) = self.synth(env, &rhs, prefix, fn_ctx)?;
                let store = self.subtype(&vty, &elem_ty, span, "stored element");
                Ok(Constraint::conj(vec![recv_c, ic, bounds, vc, store]))
            }
            _ => Err(Diagnostic::error("unsupported assignment target", span)),
        }
    }

    fn check_while(
        &mut self,
        env: &mut Env,
        cond: &ast::Expr,
        body: &ast::Block,
        post: &mut Vec<PrefixItem>,
        fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<Constraint, Diagnostic> {
        // 1. Generalise the environment into κ templates.
        let template = self.template_env(env, &fn_ctx.scope);
        // 2. Entry: current env must satisfy the templates.
        let entry = self.env_subtype(env, &template, span, "loop invariant on entry");

        // 3. Body: check under a freshly opened copy of the template.
        let mut body_prefix = Vec::new();
        let mut body_scope = fn_ctx.scope.clone();
        let mut body_env = self.open_env(&template, &mut body_prefix, &mut body_scope);
        let (cond_ty, cond_c) = self.synth(&mut body_env, cond, &mut body_prefix, fn_ctx)?;
        let cond_idx = self.bool_index(&cond_ty, cond.span())?;
        body_prefix.push(PrefixItem::Guard(Guard::Pred(cond_idx.clone())));
        // The back-edge check runs through the `exit` continuation so that it
        // sits inside the scope of every binder the body introduced (nested
        // joins would otherwise leak free variables into the κ head clause).
        let body_c = self.check_stmts(&mut body_env, &body.stmts, fn_ctx, |g, env| {
            Ok(g.env_subtype(env, &template, span, "loop invariant preservation"))
        })?;
        let body_constraint = wrap(body_prefix, Constraint::conj(vec![cond_c, body_c]));

        // 4. Continuation: the environment after the loop is the template
        //    plus the negated condition.  These facts scope over the rest of
        //    the enclosing block only (`post`), not over the loop's own
        //    obligations.
        let mut cont_scope = fn_ctx.scope.clone();
        let mut cont_env = self.open_env(&template, post, &mut cont_scope);
        let (cond_ty2, cond_c2) = self.synth(&mut cont_env, cond, post, fn_ctx)?;
        let cond_idx2 = self.bool_index(&cond_ty2, cond.span())?;
        post.push(PrefixItem::Guard(Guard::Pred(Expr::not(cond_idx2))));
        *env = cont_env;

        let cond_c2 = wrap(post.clone(), cond_c2);
        Ok(Constraint::conj(vec![entry, body_constraint, cond_c2]))
    }

    /// `env ≼ template`: every local's actual type must satisfy its
    /// template, where template binders are simultaneously replaced by the
    /// actual indices.
    fn env_subtype(&mut self, env: &Env, template: &Env, span: Span, what: &str) -> Constraint {
        // Build the global substitution template-binder ↦ actual index.
        let mut subst = Subst::new();
        for (name, tty) in &template.locals {
            let Some(aty) = env.get(name) else { continue };
            bind_template_indices(tty, aty, &mut subst);
        }
        let mut parts = Vec::new();
        for (name, tty) in &template.locals {
            let Some(aty) = env.get(name) else { continue };
            let expected = tty.subst(&subst);
            parts.push(self.subtype(aty, &expected, span, what));
        }
        Constraint::conj(parts)
    }

    /// Opens every local of a template environment, pushing binders and κ
    /// assumptions onto `prefix`.
    ///
    /// Template κ applications refer to the template binders of *other*
    /// locals (that is how relational invariants such as `i = len(vec)` are
    /// expressed), so opening proceeds in two passes: first every binder of
    /// every local gets a fresh name, then the refinements are emitted under
    /// the resulting global renaming.
    fn open_env(
        &mut self,
        template: &Env,
        prefix: &mut Vec<PrefixItem>,
        scope: &mut Vec<(Name, Sort)>,
    ) -> Env {
        // Pass 1: fresh names for every binder of every local.
        let mut renaming = Subst::new();
        let mut freshened: Vec<(String, RTy)> = Vec::new();
        for (name, ty) in &template.locals {
            let ty = freshen_binders(ty, &mut self.names, &mut renaming, prefix, scope);
            freshened.push((name.clone(), ty));
        }
        // Pass 2: emit the refinements under the global renaming and build
        // the opened environment.
        let mut out = Env::default();
        for (name, ty) in freshened {
            let opened = self.emit_refinements(ty, &renaming, prefix);
            out.set(&name, opened);
        }
        out
    }

    /// Emits the (renamed) refinement guards of a freshened type and returns
    /// its indexed form.
    fn emit_refinements(&mut self, ty: RTy, renaming: &Subst, prefix: &mut Vec<PrefixItem>) -> RTy {
        match ty {
            RTy::Exists {
                base,
                binders,
                refine,
            } => {
                match refine {
                    Refine::Pred(p) => {
                        let p = renaming.apply(&p);
                        if !p.is_trivially_true() {
                            prefix.push(PrefixItem::Guard(Guard::Pred(p)));
                        }
                    }
                    Refine::KVar(app) => {
                        let args = app.args.iter().map(|a| renaming.apply(a)).collect();
                        prefix.push(PrefixItem::Guard(Guard::KVar(KVarApp::new(app.kvid, args))));
                    }
                }
                RTy::Indexed {
                    base,
                    indices: binders.iter().map(|b| Expr::Var(*b)).collect(),
                }
            }
            RTy::Ref {
                kind: RefKind::Strg,
                inner,
            } => {
                let inner = self.emit_refinements(*inner, renaming, prefix);
                RTy::ref_strg(inner)
            }
            other => other,
        }
    }

    // -----------------------------------------------------------------
    // Branches
    // -----------------------------------------------------------------

    /// Checks an `if` whose result must have type `expected` (used for
    /// function tails so that path conditions flow into the obligation).
    #[allow(clippy::too_many_arguments)]
    fn check_if_against(
        &mut self,
        env: &mut Env,
        cond: &ast::Expr,
        then: &ast::Block,
        els: Option<&ast::Block>,
        expected: &RTy,
        fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<Constraint, Diagnostic> {
        let mut prefix = Vec::new();
        let (cond_ty, cond_c) = self.synth(env, cond, &mut prefix, fn_ctx)?;
        let cond_idx = self.bool_index(&cond_ty, cond.span())?;

        let mut then_env = env.clone();
        let then_c = self.check_branch_against(&mut then_env, then, expected, fn_ctx, span)?;
        let then_c = Constraint::implies(Guard::Pred(cond_idx.clone()), then_c);

        let els_c = match els {
            Some(block) => {
                let mut els_env = env.clone();
                let c = self.check_branch_against(&mut els_env, block, expected, fn_ctx, span)?;
                Constraint::implies(Guard::Pred(Expr::not(cond_idx)), c)
            }
            None => {
                let c = self.subtype(&RTy::Unit, expected, span, "missing else branch");
                Constraint::implies(Guard::Pred(Expr::not(cond_idx)), c)
            }
        };
        Ok(wrap(prefix, Constraint::conj(vec![cond_c, then_c, els_c])))
    }

    fn check_branch_against(
        &mut self,
        env: &mut Env,
        block: &ast::Block,
        expected: &RTy,
        fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<Constraint, Diagnostic> {
        self.check_stmts(env, &block.stmts, fn_ctx, |g, env| {
            let mut prefix = Vec::new();
            let tail_c = match block.tail.as_deref() {
                Some(ast::Expr::If {
                    cond, then, els, ..
                }) => g.check_if_against(env, cond, then, els.as_ref(), expected, fn_ctx, span)?,
                Some(expr) => {
                    let (ty, c) = g.synth(env, expr, &mut prefix, fn_ctx)?;
                    let sub = g.subtype(&ty, expected, expr.span(), "branch value");
                    Constraint::conj(vec![c, sub])
                }
                None => g.subtype(&RTy::Unit, expected, span, "branch value"),
            };
            Ok(wrap(prefix, tail_c))
        })
    }

    /// Synthesises the value of an `if` expression by joining the branches
    /// (and their environment effects) through fresh κ templates.
    #[allow(clippy::too_many_arguments)]
    fn synth_if(
        &mut self,
        env: &mut Env,
        cond: &ast::Expr,
        then: &ast::Block,
        els: Option<&ast::Block>,
        prefix: &mut Vec<PrefixItem>,
        fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<(RTy, Constraint), Diagnostic> {
        let (cond_ty, cond_c) = self.synth(env, cond, prefix, fn_ctx)?;
        let cond_idx = self.bool_index(&cond_ty, cond.span())?;

        // The join template is built from the pre-branch environment; each
        // branch is then checked against it *inside* its own scope (via the
        // `check_stmts` exit continuation) so that binders introduced by
        // nested statements stay bound in the join constraints.
        let template = self.template_env(env, &fn_ctx.scope);
        // The `if` yields a value only when both branches end in a tail
        // expression (syntactically known up front); only then is a joined
        // value template created — by the then branch, reused by the else
        // branch.  Tail expressions of a value-less `if` are still
        // synthesised for their own obligations.
        let join_values = then.tail.is_some() && els.is_some_and(|block| block.tail.is_some());
        let mut joined: Option<RTy> = None;

        let mut then_env = env.clone();
        let then_c = self.check_stmts(&mut then_env, &then.stmts, fn_ctx, |g, env| {
            let mut p = Vec::new();
            let val_c = match then.tail.as_deref() {
                Some(e) => {
                    let (tt, tc) = g.synth(env, e, &mut p, fn_ctx)?;
                    if join_values {
                        let j = joined.insert(g.template_like(&tt, &fn_ctx.scope));
                        let sub = g.subtype(&tt, j, span, "join of if values");
                        Constraint::conj(vec![tc, sub])
                    } else {
                        tc
                    }
                }
                None => Constraint::True,
            };
            let join = g.env_subtype(env, &template, span, "join after if");
            Ok(wrap(p, Constraint::conj(vec![val_c, join])))
        })?;
        let then_c = Constraint::implies(Guard::Pred(cond_idx.clone()), then_c);

        let els_c = match els {
            Some(block) => {
                let mut els_env = env.clone();
                self.check_stmts(&mut els_env, &block.stmts, fn_ctx, |g, env| {
                    let mut p = Vec::new();
                    let val_c = match block.tail.as_deref() {
                        Some(e) => {
                            let (et, ec) = g.synth(env, e, &mut p, fn_ctx)?;
                            match &joined {
                                Some(j) => {
                                    let sub = g.subtype(&et, j, span, "join of if values");
                                    Constraint::conj(vec![ec, sub])
                                }
                                None => ec,
                            }
                        }
                        None => Constraint::True,
                    };
                    let join = g.env_subtype(env, &template, span, "join after if");
                    Ok(wrap(p, Constraint::conj(vec![val_c, join])))
                })?
            }
            // No else branch: the pre-branch environment flows to the join
            // unchanged.
            None => self.env_subtype(env, &template, span, "join after if"),
        };
        let els_c = Constraint::implies(Guard::Pred(Expr::not(cond_idx)), els_c);

        let result_ty = joined.unwrap_or(RTy::Unit);

        // The continuation sees the opened template environment and the
        // opened result type.
        let mut scope = fn_ctx.scope.clone();
        *env = self.open_env(&template, prefix, &mut scope);
        let opened_result = self.open_into(result_ty, prefix, &mut scope);

        Ok((opened_result, Constraint::conj(vec![cond_c, then_c, els_c])))
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    /// Synthesises the type of an expression, opening scalar existentials so
    /// callers always see indexed scalar types.
    fn synth(
        &mut self,
        env: &mut Env,
        expr: &ast::Expr,
        prefix: &mut Vec<PrefixItem>,
        fn_ctx: &FnCtx,
    ) -> Result<(RTy, Constraint), Diagnostic> {
        let (ty, c) = self.synth_inner(env, expr, prefix, fn_ctx)?;
        let ty = if matches!(
            &ty,
            RTy::Exists {
                base: BaseTy::Int | BaseTy::Uint | BaseTy::Bool,
                ..
            }
        ) {
            let mut scope = Vec::new();
            self.open_into(ty, prefix, &mut scope)
        } else {
            ty
        };
        Ok((ty, c))
    }

    fn synth_inner(
        &mut self,
        env: &mut Env,
        expr: &ast::Expr,
        prefix: &mut Vec<PrefixItem>,
        fn_ctx: &FnCtx,
    ) -> Result<(RTy, Constraint), Diagnostic> {
        match expr {
            ast::Expr::Int(i, _) => {
                Ok((RTy::indexed(BaseTy::Int, Expr::int(*i)), Constraint::True))
            }
            ast::Expr::Float(_, _) => Ok((
                RTy::Indexed {
                    base: BaseTy::Float,
                    indices: vec![],
                },
                Constraint::True,
            )),
            ast::Expr::Bool(b, _) => {
                Ok((RTy::indexed(BaseTy::Bool, Expr::bool(*b)), Constraint::True))
            }
            ast::Expr::Var(name, span) => {
                let ty = env.get(name).cloned().ok_or_else(|| {
                    Diagnostic::error(format!("unknown variable `{name}`"), *span)
                })?;
                Ok((ty, Constraint::True))
            }
            ast::Expr::Unary(op, inner, span) => {
                let (ty, c) = self.synth(env, inner, prefix, fn_ctx)?;
                match op {
                    ast::UnOpKind::Neg => {
                        if matches!(ty.base(), Some(BaseTy::Float)) {
                            return Ok((ty, c));
                        }
                        let idx = self.int_index(&ty, *span)?;
                        Ok((RTy::indexed(BaseTy::Int, Expr::neg(idx)), c))
                    }
                    ast::UnOpKind::Not => {
                        let idx = self.bool_index(&ty, *span)?;
                        Ok((RTy::indexed(BaseTy::Bool, Expr::not(idx)), c))
                    }
                }
            }
            ast::Expr::Binary(op, lhs, rhs, span) => {
                let (lt, lc) = self.synth(env, lhs, prefix, fn_ctx)?;
                let (rt, rc) = self.synth(env, rhs, prefix, fn_ctx)?;
                let c = Constraint::conj(vec![lc, rc]);
                // Float arithmetic carries no refinement.
                if matches!(lt.base(), Some(BaseTy::Float))
                    || matches!(rt.base(), Some(BaseTy::Float))
                {
                    let ty = match op {
                        ast::BinOpKind::Lt
                        | ast::BinOpKind::Le
                        | ast::BinOpKind::Gt
                        | ast::BinOpKind::Ge
                        | ast::BinOpKind::Eq
                        | ast::BinOpKind::Ne => RTy::exists_top(BaseTy::Bool, &mut self.names),
                        _ => RTy::Indexed {
                            base: BaseTy::Float,
                            indices: vec![],
                        },
                    };
                    return Ok((ty, c));
                }
                use ast::BinOpKind as B;
                let ty = match op {
                    B::Add | B::Sub | B::Mul | B::Div | B::Rem => {
                        let l = self.int_index(&lt, *span)?;
                        let r = self.int_index(&rt, *span)?;
                        let lop = match op {
                            B::Add => flux_logic::BinOp::Add,
                            B::Sub => flux_logic::BinOp::Sub,
                            B::Mul => flux_logic::BinOp::Mul,
                            B::Div => flux_logic::BinOp::Div,
                            _ => flux_logic::BinOp::Mod,
                        };
                        let base = match (lt.base(), rt.base()) {
                            (Some(BaseTy::Uint), Some(BaseTy::Uint)) => BaseTy::Uint,
                            _ => BaseTy::Int,
                        };
                        RTy::indexed(base, Expr::binop(lop, l, r))
                    }
                    B::Lt | B::Le | B::Gt | B::Ge | B::Eq | B::Ne => {
                        let (l, r) = if matches!(lt.base(), Some(BaseTy::Bool)) {
                            (self.bool_index(&lt, *span)?, self.bool_index(&rt, *span)?)
                        } else {
                            (self.int_index(&lt, *span)?, self.int_index(&rt, *span)?)
                        };
                        let lop = match op {
                            B::Lt => flux_logic::BinOp::Lt,
                            B::Le => flux_logic::BinOp::Le,
                            B::Gt => flux_logic::BinOp::Gt,
                            B::Ge => flux_logic::BinOp::Ge,
                            B::Eq => flux_logic::BinOp::Eq,
                            _ => flux_logic::BinOp::Ne,
                        };
                        RTy::indexed(BaseTy::Bool, Expr::binop(lop, l, r))
                    }
                    B::And | B::Or => {
                        let l = self.bool_index(&lt, *span)?;
                        let r = self.bool_index(&rt, *span)?;
                        let e = if matches!(op, B::And) {
                            Expr::and(l, r)
                        } else {
                            Expr::or(l, r)
                        };
                        RTy::indexed(BaseTy::Bool, e)
                    }
                };
                Ok((ty, c))
            }
            ast::Expr::Deref(inner, span) => {
                let ast::Expr::Var(name, _) = inner.as_ref() else {
                    return Err(Diagnostic::error("unsupported dereference", *span));
                };
                let ty = env.get(name).cloned().ok_or_else(|| {
                    Diagnostic::error(format!("unknown variable `{name}`"), *span)
                })?;
                match ty {
                    RTy::Ref { inner, .. } => Ok(((*inner).clone(), Constraint::True)),
                    other => Err(Diagnostic::error(
                        format!("cannot dereference value of type {other}"),
                        *span,
                    )),
                }
            }
            ast::Expr::Borrow { place, span, .. } => {
                // Bare borrows only make sense as call arguments (handled in
                // `check_call`); elsewhere produce a reference to the
                // referent's current type without weakening.
                let ast::Expr::Var(name, _) = place.as_ref() else {
                    return Err(Diagnostic::error("unsupported borrow expression", *span));
                };
                let ty = env.get(name).cloned().ok_or_else(|| {
                    Diagnostic::error(format!("unknown variable `{name}`"), *span)
                })?;
                Ok((RTy::ref_mut(ty), Constraint::True))
            }
            ast::Expr::Index { recv, index, span } => {
                let (elem_ty, len_idx, recv_c) =
                    self.vec_receiver(env, recv, prefix, fn_ctx, *span)?;
                let (ity, ic) = self.synth(env, index, prefix, fn_ctx)?;
                let iidx = self.int_index(&ity, index.span())?;
                let bounds = self.bounds_obligation(&iidx, &len_idx, index.span());
                Ok((elem_ty, Constraint::conj(vec![recv_c, ic, bounds])))
            }
            ast::Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => self.synth_method(env, recv, method, args, prefix, fn_ctx, *span),
            ast::Expr::Call { func, args, span } => {
                self.check_call(env, func, args, prefix, fn_ctx, *span)
            }
            ast::Expr::If {
                cond,
                then,
                els,
                span,
            } => self.synth_if(env, cond, then, els.as_ref(), prefix, fn_ctx, *span),
        }
    }

    fn bounds_obligation(&mut self, index: &Expr, len: &Expr, span: Span) -> Constraint {
        let tag = self.tag(span, "vector index may be out of bounds");
        Constraint::pred(
            Expr::and(
                Expr::ge(index.clone(), Expr::int(0)),
                Expr::lt(index.clone(), len.clone()),
            ),
            tag,
        )
    }

    /// Resolves a vector receiver expression (a variable, possibly behind a
    /// reference) to its element type and length index.
    fn vec_receiver(
        &mut self,
        env: &mut Env,
        recv: &ast::Expr,
        _prefix: &mut Vec<PrefixItem>,
        _fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<(RTy, Expr, Constraint), Diagnostic> {
        let name = match recv {
            ast::Expr::Var(name, _) => name.clone(),
            ast::Expr::Deref(inner, _) => match inner.as_ref() {
                ast::Expr::Var(name, _) => name.clone(),
                _ => return Err(Diagnostic::error("unsupported vector receiver", span)),
            },
            _ => return Err(Diagnostic::error("unsupported vector receiver", span)),
        };
        let ty = env
            .get(&name)
            .cloned()
            .ok_or_else(|| Diagnostic::error(format!("unknown variable `{name}`"), span))?;
        let vec_ty = match &ty {
            RTy::Ref { inner, .. } => (**inner).clone(),
            other => other.clone(),
        };
        match vec_ty {
            RTy::Indexed {
                base: BaseTy::Vec(elem),
                indices,
            } => Ok(((*elem).clone(), indices[0].clone(), Constraint::True)),
            RTy::Exists {
                base: BaseTy::Vec(elem),
                binders,
                refine,
            } => {
                // A vector behind a weak reference: open a fresh copy of its
                // existential length for this access.
                let fresh = self.names.fresh("len");
                let subst = Subst::single(binders[0], Expr::Var(fresh));
                let guard = match refine {
                    Refine::Pred(p) => Guard::Pred(subst.apply(&p)),
                    Refine::KVar(app) => Guard::KVar(KVarApp::new(
                        app.kvid,
                        app.args.iter().map(|a| subst.apply(a)).collect(),
                    )),
                };
                _prefix.push(PrefixItem::Bind(
                    fresh,
                    Sort::Int,
                    Expr::ge(Expr::Var(fresh), Expr::int(0)),
                ));
                _prefix.push(PrefixItem::Guard(guard));
                Ok(((*elem).clone(), Expr::Var(fresh), Constraint::True))
            }
            other => Err(Diagnostic::error(
                format!("`{name}` is not a vector (has type {other})"),
                span,
            )),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn synth_method(
        &mut self,
        env: &mut Env,
        recv: &ast::Expr,
        method: &str,
        args: &[ast::Expr],
        prefix: &mut Vec<PrefixItem>,
        fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<(RTy, Constraint), Diagnostic> {
        let recv_name = match recv {
            ast::Expr::Var(name, _) => name.clone(),
            ast::Expr::Deref(inner, _) => match inner.as_ref() {
                ast::Expr::Var(name, _) => name.clone(),
                _ => return Err(Diagnostic::error("unsupported method receiver", span)),
            },
            _ => return Err(Diagnostic::error("unsupported method receiver", span)),
        };
        match method {
            "len" => {
                let (_, len_idx, c) = self.vec_receiver(env, recv, prefix, fn_ctx, span)?;
                Ok((RTy::indexed(BaseTy::Uint, len_idx), c))
            }
            "get" | "get_mut" => {
                let (elem, len_idx, rc) = self.vec_receiver(env, recv, prefix, fn_ctx, span)?;
                let (ity, ic) = self.synth(env, &args[0], prefix, fn_ctx)?;
                let iidx = self.int_index(&ity, span)?;
                let bounds = self.bounds_obligation(&iidx, &len_idx, span);
                let result = if method == "get" {
                    elem
                } else {
                    RTy::ref_mut(elem)
                };
                Ok((result, Constraint::conj(vec![rc, ic, bounds])))
            }
            "push" => {
                let (elem, len_idx, rc) = self.vec_receiver(env, recv, prefix, fn_ctx, span)?;
                let (vty, vc) = self.synth(env, &args[0], prefix, fn_ctx)?;
                let store = self.subtype(&vty, &elem, span, "pushed element");
                let update =
                    self.strong_vec_update(env, &recv_name, len_idx.clone() + Expr::int(1), span)?;
                Ok((RTy::Unit, Constraint::conj(vec![rc, vc, store, update])))
            }
            "pop" => {
                let (elem, len_idx, rc) = self.vec_receiver(env, recv, prefix, fn_ctx, span)?;
                let tag = self.tag(span, "pop from a possibly-empty vector");
                let nonempty = Constraint::pred(Expr::ge(len_idx.clone(), Expr::int(1)), tag);
                let update =
                    self.strong_vec_update(env, &recv_name, len_idx - Expr::int(1), span)?;
                Ok((elem, Constraint::conj(vec![rc, nonempty, update])))
            }
            "swap" => {
                let (_, len_idx, rc) = self.vec_receiver(env, recv, prefix, fn_ctx, span)?;
                let (it1, c1) = self.synth(env, &args[0], prefix, fn_ctx)?;
                let (it2, c2) = self.synth(env, &args[1], prefix, fn_ctx)?;
                let i1 = self.int_index(&it1, span)?;
                let i2 = self.int_index(&it2, span)?;
                let b1 = self.bounds_obligation(&i1, &len_idx, span);
                let b2 = self.bounds_obligation(&i2, &len_idx, span);
                Ok((RTy::Unit, Constraint::conj(vec![rc, c1, c2, b1, b2])))
            }
            "rows" | "cols" => {
                let (mat_base, indices, c) = self.mat_receiver(env, &recv_name, span)?;
                let _ = mat_base;
                let idx = if method == "rows" {
                    indices[0].clone()
                } else {
                    indices[1].clone()
                };
                Ok((RTy::indexed(BaseTy::Uint, idx), c))
            }
            "mget" | "mset" => {
                let (elem, indices, rc) = self.mat_receiver(env, &recv_name, span)?;
                let (it1, c1) = self.synth(env, &args[0], prefix, fn_ctx)?;
                let (it2, c2) = self.synth(env, &args[1], prefix, fn_ctx)?;
                let i1 = self.int_index(&it1, span)?;
                let i2 = self.int_index(&it2, span)?;
                let b1 = self.bounds_obligation(&i1, &indices[0], span);
                let b2 = self.bounds_obligation(&i2, &indices[1], span);
                let mut parts = vec![rc, c1, c2, b1, b2];
                let result = if method == "mget" {
                    elem
                } else {
                    let (vty, vc) = self.synth(env, &args[2], prefix, fn_ctx)?;
                    parts.push(vc);
                    parts.push(self.subtype(&vty, &elem, span, "stored matrix element"));
                    RTy::Unit
                };
                Ok((result, Constraint::conj(parts)))
            }
            other => Err(Diagnostic::error(format!("unknown method `{other}`"), span)),
        }
    }

    fn mat_receiver(
        &mut self,
        env: &Env,
        name: &str,
        span: Span,
    ) -> Result<(RTy, Vec<Expr>, Constraint), Diagnostic> {
        let ty = env
            .get(name)
            .cloned()
            .ok_or_else(|| Diagnostic::error(format!("unknown variable `{name}`"), span))?;
        let mat_ty = match &ty {
            RTy::Ref { inner, .. } => (**inner).clone(),
            other => other.clone(),
        };
        match mat_ty {
            RTy::Indexed {
                base: BaseTy::Mat(elem),
                indices,
            } => Ok(((*elem).clone(), indices, Constraint::True)),
            other => Err(Diagnostic::error(
                format!("`{name}` is not a matrix (has type {other})"),
                span,
            )),
        }
    }

    /// Strong update of an owned vector's length (for `push`/`pop`).
    fn strong_vec_update(
        &mut self,
        env: &mut Env,
        name: &str,
        new_len: Expr,
        span: Span,
    ) -> Result<Constraint, Diagnostic> {
        let ty = env
            .get(name)
            .cloned()
            .ok_or_else(|| Diagnostic::error(format!("unknown variable `{name}`"), span))?;
        match ty {
            RTy::Indexed { base: BaseTy::Vec(elem), .. } => {
                env.set(
                    name,
                    RTy::Indexed {
                        base: BaseTy::Vec(elem),
                        indices: vec![new_len],
                    },
                );
                Ok(Constraint::True)
            }
            RTy::Ref { kind: RefKind::Strg, inner } => match *inner {
                RTy::Indexed { base: BaseTy::Vec(elem), .. } => {
                    env.set(
                        name,
                        RTy::ref_strg(RTy::Indexed {
                            base: BaseTy::Vec(elem),
                            indices: vec![new_len],
                        }),
                    );
                    Ok(Constraint::True)
                }
                other => Err(Diagnostic::error(
                    format!("cannot grow `{name}` of type {other}"),
                    span,
                )),
            },
            RTy::Ref { kind: RefKind::Mut, .. } | RTy::Ref { kind: RefKind::Shared, .. } => {
                Err(Diagnostic::error(
                    format!("`{name}` is borrowed with `&mut`; growing it requires a strong reference (`&strg`)"),
                    span,
                ))
            }
            other => Err(Diagnostic::error(
                format!("cannot grow `{name}` of type {other}"),
                span,
            )),
        }
    }

    // -----------------------------------------------------------------
    // Calls to user-defined functions
    // -----------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn check_call(
        &mut self,
        env: &mut Env,
        func: &str,
        args: &[ast::Expr],
        prefix: &mut Vec<PrefixItem>,
        fn_ctx: &FnCtx,
        span: Span,
    ) -> Result<(RTy, Constraint), Diagnostic> {
        if func == "RVec::new" {
            // Unannotated `RVec::new()` in expression position: a fresh
            // polymorphic template with unconstrained (float) elements.
            let elem = self.new_vec_elem_template(None, fn_ctx);
            return Ok((
                RTy::Indexed {
                    base: BaseTy::Vec(Box::new(elem)),
                    indices: vec![Expr::int(0)],
                },
                Constraint::True,
            ));
        }
        if func == "RMat::new" {
            // RMat::new(rows, cols, fill) — a rows×cols matrix.
            let (rt, rc) = self.synth(env, &args[0], prefix, fn_ctx)?;
            let (ct, cc) = self.synth(env, &args[1], prefix, fn_ctx)?;
            let (ft, fc) = self.synth(env, &args[2], prefix, fn_ctx)?;
            let rows = self.int_index(&rt, span)?;
            let cols = self.int_index(&ct, span)?;
            let elem = self.template_like(&ft, &fn_ctx.scope);
            let fill = self.subtype(&ft, &elem, span, "matrix fill element");
            return Ok((
                RTy::Indexed {
                    base: BaseTy::Mat(Box::new(elem)),
                    indices: vec![rows, cols],
                },
                Constraint::conj(vec![rc, cc, fc, fill]),
            ));
        }
        let callee = self
            .program
            .function(func)
            .ok_or_else(|| Diagnostic::error(format!("unknown function `{func}`"), span))?;
        let callee_sig = callee.sig.clone();
        if callee_sig.params.len() != args.len() {
            return Err(Diagnostic::error(
                format!(
                    "`{func}` expects {} arguments but {} were given",
                    callee_sig.params.len(),
                    args.len()
                ),
                span,
            ));
        }

        // Synthesise argument information: for borrow arguments we look at
        // the referent, for value arguments at the value.
        let mut parts = Vec::new();
        let mut arg_info: Vec<ArgInfo> = Vec::new();
        for arg in args {
            match arg {
                ast::Expr::Borrow { place, .. } => {
                    let ast::Expr::Var(name, _) = place.as_ref() else {
                        return Err(Diagnostic::error("unsupported borrow argument", span));
                    };
                    let ty = env.get(name).cloned().ok_or_else(|| {
                        Diagnostic::error(format!("unknown variable `{name}`"), span)
                    })?;
                    arg_info.push(ArgInfo::BorrowedLocal(name.clone(), ty));
                }
                ast::Expr::MethodCall {
                    recv,
                    method,
                    args: margs,
                    ..
                } if method == "get_mut" => {
                    let (elem, len_idx, rc) = self.vec_receiver(env, recv, prefix, fn_ctx, span)?;
                    let (ity, ic) = self.synth(env, &margs[0], prefix, fn_ctx)?;
                    let iidx = self.int_index(&ity, span)?;
                    parts.push(rc);
                    parts.push(ic);
                    parts.push(self.bounds_obligation(&iidx, &len_idx, span));
                    arg_info.push(ArgInfo::Element(elem));
                }
                ast::Expr::Var(name, _) if matches!(env.get(name), Some(RTy::Ref { .. })) => {
                    let ty = env.get(name).cloned().expect("checked above");
                    arg_info.push(ArgInfo::ReferenceLocal(ty));
                }
                other => {
                    let (ty, c) = self.synth(env, other, prefix, fn_ctx)?;
                    parts.push(c);
                    arg_info.push(ArgInfo::Value(ty));
                }
            }
        }

        // Instantiate the callee's refinement parameters by unification.
        let mut subst = Subst::new();
        for (formal, info) in callee_sig.params.iter().zip(&arg_info) {
            unify_refine_params(formal, &info.referent_type(), &callee_sig, &mut subst);
        }

        // Check argument subtyping and apply reference effects.
        for (param_index, ((formal, info), arg)) in callee_sig
            .params
            .iter()
            .zip(&arg_info)
            .zip(args)
            .enumerate()
        {
            let formal = formal.subst(&subst);
            match (&formal, info) {
                (
                    RTy::Ref {
                        kind: RefKind::Strg,
                        inner: want,
                    },
                    ArgInfo::BorrowedLocal(name, actual),
                ) => {
                    let referent = strip_ref(actual);
                    parts.push(self.subtype(
                        &referent,
                        want,
                        arg.span(),
                        "strong reference argument",
                    ));
                    // Apply the ensures clause (or keep the input type).
                    let updated = callee_sig
                        .ensures
                        .iter()
                        .find(|(idx, _)| *idx == param_index)
                        .map(|(_, t)| t.subst(&subst))
                        .unwrap_or_else(|| (**want).clone());
                    let mut scope = fn_ctx.scope.clone();
                    let opened = self.open_into(updated, prefix, &mut scope);
                    env.set(name, opened);
                }
                (
                    RTy::Ref {
                        kind: RefKind::Mut,
                        inner: want,
                    },
                    ArgInfo::BorrowedLocal(name, actual),
                ) => {
                    let referent = strip_ref(actual);
                    parts.push(self.subtype(
                        &referent,
                        want,
                        arg.span(),
                        "mutable reference argument",
                    ));
                    // Weak borrow: the local is weakened to the callee's view.
                    let mut scope = fn_ctx.scope.clone();
                    let opened = self.open_into((**want).clone(), prefix, &mut scope);
                    env.set(name, opened);
                }
                (
                    RTy::Ref {
                        kind: RefKind::Shared,
                        inner: want,
                    },
                    ArgInfo::BorrowedLocal(_, actual),
                ) => {
                    let referent = strip_ref(actual);
                    parts.push(self.subtype(
                        &referent,
                        want,
                        arg.span(),
                        "shared reference argument",
                    ));
                }
                (RTy::Ref { kind, inner: want }, ArgInfo::ReferenceLocal(actual)) => {
                    let referent = strip_ref(actual);
                    match kind {
                        RefKind::Shared => {
                            parts.push(self.subtype(
                                &referent,
                                want,
                                arg.span(),
                                "shared reference argument",
                            ));
                        }
                        _ => {
                            parts.push(self.subtype(
                                &referent,
                                want,
                                arg.span(),
                                "mutable reference argument",
                            ));
                            parts.push(self.subtype(
                                want,
                                &referent,
                                arg.span(),
                                "mutable reference argument",
                            ));
                        }
                    }
                }
                (RTy::Ref { kind, inner: want }, ArgInfo::Element(elem)) => match kind {
                    RefKind::Shared => {
                        parts.push(self.subtype(
                            elem,
                            want,
                            arg.span(),
                            "borrowed element argument",
                        ));
                    }
                    _ => {
                        parts.push(self.subtype(
                            elem,
                            want,
                            arg.span(),
                            "borrowed element argument",
                        ));
                        parts.push(self.subtype(
                            want,
                            elem,
                            arg.span(),
                            "borrowed element argument",
                        ));
                    }
                },
                (_, ArgInfo::Value(actual)) => {
                    parts.push(self.subtype(actual, &formal, arg.span(), "argument"));
                }
                (_, info) => {
                    parts.push(self.subtype(
                        &info.referent_type(),
                        &formal,
                        arg.span(),
                        "argument",
                    ));
                }
            }
        }

        let ret = callee_sig.ret.subst(&subst);
        Ok((ret, Constraint::conj(parts)))
    }

    // -----------------------------------------------------------------
    // Index helpers
    // -----------------------------------------------------------------

    fn int_index(&mut self, ty: &RTy, span: Span) -> Result<Expr, Diagnostic> {
        match ty {
            RTy::Indexed {
                base: BaseTy::Int | BaseTy::Uint,
                indices,
            } => Ok(indices[0].clone()),
            other => Err(Diagnostic::error(
                format!("expected an integer value, found {other}"),
                span,
            )),
        }
    }

    fn bool_index(&mut self, ty: &RTy, span: Span) -> Result<Expr, Diagnostic> {
        match ty {
            RTy::Indexed {
                base: BaseTy::Bool,
                indices,
            } => Ok(indices[0].clone()),
            RTy::Exists {
                base: BaseTy::Bool, ..
            } => Ok(Expr::var(self.names.fresh("unknown_bool"))),
            other => Err(Diagnostic::error(
                format!("expected a boolean value, found {other}"),
                span,
            )),
        }
    }
}

/// How a call argument is passed.
enum ArgInfo {
    /// `&x` / `&mut x` of a local: the local's current (possibly reference)
    /// type.
    BorrowedLocal(String, RTy),
    /// A local that is already a reference, passed as-is.
    ReferenceLocal(RTy),
    /// `v.get_mut(i)`: a borrowed element of a container.
    Element(RTy),
    /// Passed by value.
    Value(RTy),
}

impl ArgInfo {
    fn referent_type(&self) -> RTy {
        match self {
            ArgInfo::BorrowedLocal(_, t) | ArgInfo::ReferenceLocal(t) => strip_ref(t),
            ArgInfo::Element(t) => t.clone(),
            ArgInfo::Value(t) => t.clone(),
        }
    }
}

/// Pushes `idx ≥ 0` guards for the indices of an indexed type whose base has
/// non-negative indices (sizes and unsigned values).  Used for referents of
/// weak references, which are never opened by [`Generator::open_into`].
fn push_nonneg_index_facts(ty: &RTy, prefix: &mut Vec<PrefixItem>) {
    if let RTy::Indexed { base, indices } = ty {
        if base.indices_nonneg() {
            for idx in indices {
                prefix.push(PrefixItem::Guard(Guard::Pred(Expr::ge(
                    idx.clone(),
                    Expr::int(0),
                ))));
            }
        }
    }
}

fn strip_ref(ty: &RTy) -> RTy {
    match ty {
        RTy::Ref { inner, .. } => (**inner).clone(),
        other => other.clone(),
    }
}

fn bases_compatible(a: &BaseTy, b: &BaseTy) -> bool {
    matches!(
        (a, b),
        (BaseTy::Int | BaseTy::Uint, BaseTy::Int | BaseTy::Uint)
            | (BaseTy::Bool, BaseTy::Bool)
            | (BaseTy::Float, BaseTy::Float)
            | (BaseTy::Vec(_), BaseTy::Vec(_))
            | (BaseTy::Mat(_), BaseTy::Mat(_))
    )
}

/// Renames every existential binder of `ty` to a fresh name from `names`,
/// recording the renaming, pushing the binders (with implicit
/// non-negativity facts) onto `prefix` and extending `scope`.  The
/// refinement itself is *not* emitted — [`Generator::emit_refinements`] does
/// that after all binders are known.
fn freshen_binders(
    ty: &RTy,
    names: &mut NameSupply,
    renaming: &mut Subst,
    prefix: &mut Vec<PrefixItem>,
    scope: &mut Vec<(Name, Sort)>,
) -> RTy {
    match ty {
        RTy::Exists {
            base,
            binders,
            refine,
        } => {
            let sorts = base.index_sorts();
            let fresh: Vec<Name> = binders.iter().map(|b| names.fresh(b.as_str())).collect();
            for ((old, new), sort) in binders.iter().zip(&fresh).zip(&sorts) {
                renaming.insert(*old, Expr::Var(*new));
                let nonneg = if base.indices_nonneg() && *sort == Sort::Int {
                    Expr::ge(Expr::Var(*new), Expr::int(0))
                } else {
                    Expr::tt()
                };
                prefix.push(PrefixItem::Bind(*new, *sort, nonneg));
                scope.push((*new, *sort));
            }
            RTy::Exists {
                base: base.clone(),
                binders: fresh,
                refine: refine.clone(),
            }
        }
        RTy::Ref {
            kind: RefKind::Strg,
            inner,
        } => RTy::ref_strg(freshen_binders(inner, names, renaming, prefix, scope)),
        other => other.clone(),
    }
}

/// Maps each binder of a template type to the corresponding index of the
/// actual type.
fn bind_template_indices(template: &RTy, actual: &RTy, subst: &mut Subst) {
    match (template, actual) {
        (RTy::Exists { binders, .. }, RTy::Indexed { indices, .. }) => {
            for (b, idx) in binders.iter().zip(indices) {
                subst.insert(*b, idx.clone());
            }
        }
        (RTy::Ref { inner: ti, .. }, RTy::Ref { inner: ai, .. }) => {
            bind_template_indices(ti, ai, subst);
        }
        _ => {}
    }
}

/// Unifies unbound refinement parameters of the callee against the actual
/// argument's indices (the `@n` instantiation heuristic of §4.1).
fn unify_refine_params(formal: &RTy, actual: &RTy, sig: &FnSig, subst: &mut Subst) {
    match (formal, actual) {
        (
            RTy::Indexed {
                indices: fi,
                base: fb,
            },
            RTy::Indexed {
                indices: ai,
                base: ab,
            },
        ) => {
            for (f, a) in fi.iter().zip(ai) {
                if let Expr::Var(p) = f {
                    if sig.refine_params.iter().any(|(n, _)| n == p) && subst.get(*p).is_none() {
                        subst.insert(*p, a.clone());
                    }
                }
            }
            if let (Some(fe), Some(ae)) = (fb.element(), ab.element()) {
                unify_refine_params(fe, ae, sig, subst);
            }
        }
        (RTy::Ref { inner: fi, .. }, actual) => {
            unify_refine_params(fi, &strip_ref(actual), sig, subst);
        }
        (RTy::Indexed { .. }, RTy::Ref { inner, .. }) => {
            unify_refine_params(formal, inner, sig, subst);
        }
        _ => {}
    }
}
