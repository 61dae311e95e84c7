//! Desugaring of surface `#[flux::sig(...)]` annotations into internal
//! function signatures over refined types.

use crate::rty::{BaseTy, RTy, RefKind};
use flux_logic::{Expr, Name, NameSupply, Sort, SortCtx};
use flux_syntax::ast::{self, FluxSig, IndexArg, RTyAnnot, RefinementAnnot, RustTy};
use flux_syntax::span::{Diagnostic, Span};

/// A desugared function signature.
#[derive(Clone, Debug, PartialEq)]
pub struct FnSig {
    /// Refinement parameters bound with `@name`, with their sorts, in order
    /// of first occurrence.
    pub refine_params: Vec<(Name, Sort)>,
    /// Program-level parameter names (one per parameter).
    pub param_names: Vec<String>,
    /// Refined parameter types.
    pub params: Vec<RTy>,
    /// Refined return type.
    pub ret: RTy,
    /// `ensures` clauses: (parameter position, updated referent type).
    pub ensures: Vec<(usize, RTy)>,
}

impl FnSig {
    /// The sort context induced by the refinement parameters.
    pub fn refine_ctx(&self) -> SortCtx {
        let mut ctx = SortCtx::new();
        for (name, sort) in &self.refine_params {
            ctx.push(*name, *sort);
        }
        ctx
    }
}

/// Desugars the signature of `def`, combining its Rust parameter types with
/// the `#[flux::sig(...)]` annotation if present.  Binders are named from a
/// supply of the signature's own, so a signature's names do not depend on
/// the functions resolved before it.
pub fn desugar_fn_sig(def: &ast::FnDef) -> Result<FnSig, Diagnostic> {
    match &def.flux_sig {
        Some(sig) => desugar_annotated(def, sig),
        None => Ok(default_sig(def)),
    }
}

/// The signature used when a function has no Flux annotation: every type is
/// unrefined.
pub fn default_sig(def: &ast::FnDef) -> FnSig {
    let mut names = NameSupply::signature();
    FnSig {
        refine_params: Vec::new(),
        param_names: def.params.iter().map(|p| p.name.clone()).collect(),
        params: def
            .params
            .iter()
            .map(|p| default_rty_of_rust_ty(&p.ty, &mut names))
            .collect(),
        ret: default_rty_of_rust_ty(&def.ret, &mut names),
        ensures: Vec::new(),
    }
}

/// The unrefined refined-type corresponding to a surface Rust type, its
/// binders drawn from `names`.
pub fn default_rty_of_rust_ty(ty: &RustTy, names: &mut NameSupply) -> RTy {
    match ty {
        RustTy::Int => RTy::exists_top(BaseTy::Int, names),
        RustTy::Uint => RTy::exists_top(BaseTy::Uint, names),
        RustTy::Bool => RTy::exists_top(BaseTy::Bool, names),
        RustTy::Float => RTy::exists_top(BaseTy::Float, names),
        RustTy::Unit => RTy::Unit,
        RustTy::RVec(elem) => {
            let elem = default_rty_of_rust_ty(elem, names);
            RTy::exists_top(BaseTy::Vec(Box::new(elem)), names)
        }
        RustTy::RMat(elem) => {
            let elem = default_rty_of_rust_ty(elem, names);
            RTy::exists_top(BaseTy::Mat(Box::new(elem)), names)
        }
        RustTy::Ref(mutability, inner) => {
            let inner = default_rty_of_rust_ty(inner, names);
            match mutability {
                ast::Mutability::Shared => RTy::ref_shr(inner),
                ast::Mutability::Mutable => RTy::ref_mut(inner),
            }
        }
    }
}

fn desugar_annotated(def: &ast::FnDef, sig: &FluxSig) -> Result<FnSig, Diagnostic> {
    if sig.params.len() != def.params.len() {
        return Err(Diagnostic::error(
            format!(
                "flux signature has {} parameters but the function has {}",
                sig.params.len(),
                def.params.len()
            ),
            sig.span,
        ));
    }
    let mut cx = DesugarCx {
        refine_params: Vec::new(),
        names: NameSupply::signature(),
        span: sig.span,
    };
    let mut params = Vec::new();
    let mut param_names = Vec::new();
    for (annot, param) in sig.params.iter().zip(&def.params) {
        let name = annot.name.clone().unwrap_or_else(|| param.name.clone());
        param_names.push(name);
        params.push(cx.rty(&annot.ty)?);
    }
    let ret = match &sig.ret {
        Some(annot) => cx.rty(annot)?,
        None => RTy::Unit,
    };
    let mut ensures = Vec::new();
    for clause in &sig.ensures {
        let position = param_names
            .iter()
            .position(|n| n == &clause.param)
            .ok_or_else(|| {
                Diagnostic::error(
                    format!("`ensures` refers to unknown parameter `{}`", clause.param),
                    sig.span,
                )
            })?;
        ensures.push((position, cx.rty(&clause.ty)?));
    }
    // Sort-check every index expression against the refinement parameters.
    let fnsig = FnSig {
        refine_params: cx.refine_params,
        param_names,
        params,
        ret,
        ensures,
    };
    sort_check_sig(&fnsig, sig.span)?;
    Ok(fnsig)
}

struct DesugarCx {
    refine_params: Vec<(Name, Sort)>,
    names: NameSupply,
    span: Span,
}

impl DesugarCx {
    fn bind(&mut self, name: Name, sort: Sort) {
        if !self.refine_params.iter().any(|(n, _)| *n == name) {
            self.refine_params.push((name, sort));
        }
    }

    fn rty(&mut self, annot: &RTyAnnot) -> Result<RTy, Diagnostic> {
        match annot {
            RTyAnnot::Ref { kind, inner } => {
                let inner = self.rty(inner)?;
                let kind = match kind {
                    ast::RefKind::Shared => RefKind::Shared,
                    ast::RefKind::Mut => RefKind::Mut,
                    ast::RefKind::Strg => RefKind::Strg,
                };
                Ok(RTy::Ref {
                    kind,
                    inner: Box::new(inner),
                })
            }
            RTyAnnot::Base {
                base,
                args,
                refinement,
            } => {
                // Aliases first.
                if base == "nat" && refinement.is_none() && args.is_empty() {
                    return Ok(RTy::nat(&mut self.names));
                }
                let base_ty = match base.as_str() {
                    "i8" | "i16" | "i32" | "i64" | "i128" | "isize" => BaseTy::Int,
                    "u8" | "u16" | "u32" | "u64" | "u128" | "usize" => BaseTy::Uint,
                    "bool" => BaseTy::Bool,
                    "f32" | "f64" => BaseTy::Float,
                    "RVec" => {
                        let elem = match args.first() {
                            Some(a) => self.rty(a)?,
                            None => RTy::exists_top(BaseTy::Float, &mut self.names),
                        };
                        BaseTy::Vec(Box::new(elem))
                    }
                    "RMat" => {
                        let elem = match args.first() {
                            Some(a) => self.rty(a)?,
                            None => RTy::exists_top(BaseTy::Float, &mut self.names),
                        };
                        BaseTy::Mat(Box::new(elem))
                    }
                    other => {
                        return Err(Diagnostic::error(
                            format!("unknown base type `{other}` in flux signature"),
                            self.span,
                        ))
                    }
                };
                match refinement {
                    None => Ok(RTy::exists_top(base_ty, &mut self.names)),
                    Some(RefinementAnnot::Indices(indices)) => {
                        let sorts = base_ty.index_sorts();
                        if sorts.is_empty() {
                            return Err(Diagnostic::error(
                                format!("type `{base}` cannot be indexed"),
                                self.span,
                            ));
                        }
                        if indices.len() != sorts.len() {
                            return Err(Diagnostic::error(
                                format!(
                                    "type `{base}` expects {} indices but {} were given",
                                    sorts.len(),
                                    indices.len()
                                ),
                                self.span,
                            ));
                        }
                        let mut exprs = Vec::new();
                        for (arg, sort) in indices.iter().zip(sorts) {
                            match arg {
                                IndexArg::Bind(name) => {
                                    let name = Name::intern(name);
                                    self.bind(name, sort);
                                    exprs.push(Expr::Var(name));
                                }
                                IndexArg::Expr(e) => exprs.push(e.clone()),
                            }
                        }
                        Ok(RTy::Indexed {
                            base: base_ty,
                            indices: exprs,
                        })
                    }
                    Some(RefinementAnnot::Exists { binder, pred }) => {
                        let sorts = base_ty.index_sorts();
                        if sorts.len() != 1 {
                            return Err(Diagnostic::error(
                                format!("`{{v: p}}` refinements require a single index, but `{base}` has {}", sorts.len()),
                                self.span,
                            ));
                        }
                        Ok(RTy::exists(base_ty, Name::intern(binder), pred.clone()))
                    }
                }
            }
        }
    }
}

/// Checks that every index expression and refinement predicate in the
/// signature is well-sorted with respect to the refinement parameters.
fn sort_check_sig(sig: &FnSig, span: Span) -> Result<(), Diagnostic> {
    let ctx = sig.refine_ctx();
    let check_rty = |ty: &RTy| -> Result<(), Diagnostic> { sort_check_rty(ty, &ctx, span) };
    for ty in &sig.params {
        check_rty(ty)?;
    }
    check_rty(&sig.ret)?;
    for (_, ty) in &sig.ensures {
        check_rty(ty)?;
    }
    Ok(())
}

fn sort_check_rty(ty: &RTy, ctx: &SortCtx, span: Span) -> Result<(), Diagnostic> {
    match ty {
        RTy::Indexed { base, indices } => {
            for (idx, sort) in indices.iter().zip(base.index_sorts()) {
                let mut local = ctx.clone();
                // Uninterpreted spec functions (`vlen`, `sel`) are allowed in
                // signatures used by the baseline; register them.
                local.declare_fn(Name::intern("vlen"), vec![Sort::Array], Sort::Int);
                local.declare_fn(Name::intern("sel"), vec![Sort::Array, Sort::Int], Sort::Int);
                match idx.sort_of(&local) {
                    Ok(found) if found == sort => {}
                    Ok(found) => {
                        return Err(Diagnostic::error(
                            format!("index `{idx}` has sort {found}, expected {sort}"),
                            span,
                        ))
                    }
                    Err(err) => {
                        return Err(Diagnostic::error(
                            format!("ill-sorted index `{idx}`: {err}"),
                            span,
                        ))
                    }
                }
            }
            if let Some(elem) = base.element() {
                sort_check_rty(elem, ctx, span)?;
            }
            Ok(())
        }
        RTy::Exists {
            base,
            binders,
            refine,
        } => {
            let mut local = ctx.clone();
            for (binder, sort) in binders.iter().zip(base.index_sorts()) {
                local.push(*binder, sort);
            }
            if let crate::rty::Refine::Pred(p) = refine {
                match p.sort_of(&local) {
                    Ok(Sort::Bool) => {}
                    Ok(other) => {
                        return Err(Diagnostic::error(
                            format!("refinement `{p}` has sort {other}, expected bool"),
                            span,
                        ))
                    }
                    Err(err) => {
                        return Err(Diagnostic::error(
                            format!("ill-sorted refinement `{p}`: {err}"),
                            span,
                        ))
                    }
                }
            }
            if let Some(elem) = base.element() {
                sort_check_rty(elem, ctx, span)?;
            }
            Ok(())
        }
        RTy::Ref { inner, .. } => sort_check_rty(inner, ctx, span),
        RTy::Unit | RTy::Uninit => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_syntax::parse_program;

    fn sig_of(src: &str) -> FnSig {
        let program = parse_program(src).unwrap();
        desugar_fn_sig(&program.functions[0]).unwrap()
    }

    #[test]
    fn desugars_is_pos() {
        let sig = sig_of(
            r#"
            #[flux::sig(fn(i32[@n]) -> bool[n > 0])]
            fn is_pos(n: i32) -> bool { true }
            "#,
        );
        assert_eq!(sig.refine_params.len(), 1);
        assert_eq!(sig.refine_params[0].1, Sort::Int);
        assert_eq!(sig.params[0].to_string(), "i32[n]");
        assert_eq!(sig.ret.to_string(), "bool[n > 0]");
    }

    #[test]
    fn desugars_nat_alias_and_existentials() {
        let sig = sig_of(
            r#"
            #[flux::sig(fn(&mut nat) -> i32{v: v >= 0})]
            fn decr(x: &mut i32) -> i32 { 0 }
            "#,
        );
        assert!(matches!(
            sig.params[0],
            RTy::Ref {
                kind: RefKind::Mut,
                ..
            }
        ));
        assert!(sig.ret.to_string().contains("v >= 0"));
    }

    #[test]
    fn desugars_strong_reference_with_ensures() {
        let sig = sig_of(
            r#"
            #[flux::sig(fn(x: &strg i32[@n]) ensures *x: i32[n + 1])]
            fn incr(x: &mut i32) { }
            "#,
        );
        assert!(matches!(
            sig.params[0],
            RTy::Ref {
                kind: RefKind::Strg,
                ..
            }
        ));
        assert_eq!(sig.ensures.len(), 1);
        assert_eq!(sig.ensures[0].0, 0);
        assert_eq!(sig.ensures[0].1.to_string(), "i32[n + 1]");
    }

    #[test]
    fn desugars_vector_signatures() {
        let sig = sig_of(
            r#"
            #[flux::sig(fn(usize[@n]) -> RVec<f32>[n])]
            fn init_zeros(n: usize) -> RVec<f32> { RVec::new() }
            "#,
        );
        assert_eq!(sig.ret.to_string(), format!("{}", sig.ret));
        assert!(sig.ret.to_string().starts_with("RVec<"));
        assert!(sig.ret.to_string().ends_with("[n]"));
    }

    #[test]
    fn desugars_nested_vector_with_param_index() {
        let sig = sig_of(
            r#"
            #[flux::sig(fn(usize[@n], cs: &mut RVec<RVec<f32>[n]>[@k], ws: &RVec<usize>[k]))]
            fn normalize(n: usize, cs: &mut RVec<RVec<f32>>, ws: &RVec<usize>) { }
            "#,
        );
        assert_eq!(sig.refine_params.len(), 2);
        let cs = sig.params[1].to_string();
        assert!(cs.contains("RVec<RVec<"), "unexpected type {cs}");
        assert!(cs.contains("[n]"), "inner index missing in {cs}");
        assert!(cs.contains("[k]"), "outer index missing in {cs}");
    }

    #[test]
    fn unknown_ensures_parameter_is_an_error() {
        let program = parse_program(
            r#"
            #[flux::sig(fn(x: &strg i32[@n]) ensures *y: i32[n])]
            fn f(x: &mut i32) { }
            "#,
        )
        .unwrap();
        assert!(desugar_fn_sig(&program.functions[0]).is_err());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let program = parse_program(
            r#"
            #[flux::sig(fn(i32[@n], i32[@m]) -> i32[n])]
            fn f(x: i32) -> i32 { x }
            "#,
        )
        .unwrap();
        assert!(desugar_fn_sig(&program.functions[0]).is_err());
    }

    #[test]
    fn ill_sorted_index_is_an_error() {
        let program = parse_program(
            r#"
            #[flux::sig(fn(i32[@n]) -> bool[n + 1])]
            fn f(x: i32) -> bool { true }
            "#,
        )
        .unwrap();
        assert!(desugar_fn_sig(&program.functions[0]).is_err());
    }

    #[test]
    fn unannotated_functions_get_default_signatures() {
        let program = parse_program("fn plain(x: i32, v: RVec<f32>) -> i32 { x }").unwrap();
        let sig = desugar_fn_sig(&program.functions[0]).unwrap();
        assert!(sig.refine_params.is_empty());
        assert_eq!(sig.params.len(), 2);
        assert!(matches!(sig.params[0], RTy::Exists { .. }));
    }

    #[test]
    fn matrix_signature_has_two_indices() {
        let sig = sig_of(
            r#"
            #[flux::sig(fn(RMat<f32>[@m, @n], usize{v: v < m}, usize{v: v < n}) -> f32)]
            fn get(mat: RMat<f32>, i: usize, j: usize) -> f32 { 0.0 }
            "#,
        );
        assert_eq!(sig.refine_params.len(), 2);
        let printed = sig.params[0].to_string();
        assert!(printed.starts_with("RMat<"), "unexpected display {printed}");
        assert!(printed.ends_with("[m, n]"), "unexpected display {printed}");
    }
}
