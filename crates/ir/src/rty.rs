//! Refined types — the internal representation of λ_LR types (§3.1).

use flux_fixpoint::{KVarApp, KVid};
use flux_logic::{Expr, Name, NameSupply, Sort};
use std::fmt;

/// Reference kinds, extending Rust's `&`/`&mut` with the `&strg` strong
/// references of §2.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefKind {
    /// `&T` — shared, read-only.
    Shared,
    /// `&mut T` — mutable, weak updates only (the referent's type is
    /// preserved).
    Mut,
    /// `&strg T` — mutable with strong updates; the updated type is reported
    /// through an `ensures` clause.
    Strg,
}

/// A base type that can be refined by indices.
#[derive(Clone, Debug, PartialEq)]
pub enum BaseTy {
    /// Signed integers (`i32`, `i64`, …), indexed by their value.
    Int,
    /// Unsigned integers (`usize`, `u32`, …), indexed by their value.
    Uint,
    /// Booleans, indexed by their value.
    Bool,
    /// Floats; carries no refinement index.
    Float,
    /// `RVec<T>`, indexed by its length.
    Vec(Box<RTy>),
    /// `RMat<T>`, indexed by (rows, cols).
    Mat(Box<RTy>),
}

impl BaseTy {
    /// The sorts of this base type's indices.
    pub fn index_sorts(&self) -> Vec<Sort> {
        match self {
            BaseTy::Int | BaseTy::Uint => vec![Sort::Int],
            BaseTy::Bool => vec![Sort::Bool],
            BaseTy::Float => vec![],
            BaseTy::Vec(_) => vec![Sort::Int],
            BaseTy::Mat(_) => vec![Sort::Int, Sort::Int],
        }
    }

    /// True if the indices of this base type are non-negative by
    /// construction (sizes, unsigned values).
    pub fn indices_nonneg(&self) -> bool {
        matches!(self, BaseTy::Uint | BaseTy::Vec(_) | BaseTy::Mat(_))
    }

    /// The element type, for containers.
    pub fn element(&self) -> Option<&RTy> {
        match self {
            BaseTy::Vec(t) | BaseTy::Mat(t) => Some(t),
            _ => None,
        }
    }
}

/// The refinement attached to an existential type: either a concrete
/// predicate or an unknown κ application (a *template* awaiting inference).
#[derive(Clone, Debug, PartialEq)]
pub enum Refine {
    /// A concrete predicate over the bound index variables.
    Pred(Expr),
    /// A κ application; its arguments are the bound index variables followed
    /// by scope variables chosen at template-creation time.
    KVar(KVarApp),
}

impl Refine {
    /// The trivial refinement.
    pub fn top() -> Refine {
        Refine::Pred(Expr::tt())
    }
}

/// A refined type.
#[derive(Clone, Debug, PartialEq)]
pub enum RTy {
    /// `B[e₁, …, eₙ]` — a base type indexed by known refinement expressions.
    Indexed {
        /// The base type.
        base: BaseTy,
        /// The indices (one per index sort of the base).
        indices: Vec<Expr>,
    },
    /// `{v̄. B[v̄] | p}` — an existential type.
    Exists {
        /// The base type.
        base: BaseTy,
        /// The bound index variables (one per index sort).
        binders: Vec<Name>,
        /// The refinement.
        refine: Refine,
    },
    /// A reference.
    Ref {
        /// The reference kind.
        kind: RefKind,
        /// The referent type.
        inner: Box<RTy>,
    },
    /// The unit type.
    Unit,
    /// Uninitialised memory (the ☇ of the paper).
    Uninit,
}

impl RTy {
    /// An indexed scalar type with a single index.
    pub fn indexed(base: BaseTy, index: Expr) -> RTy {
        RTy::Indexed {
            base,
            indices: vec![index],
        }
    }

    /// The unrefined ("top") existential type over a base, its binders
    /// drawn from `names`.
    pub fn exists_top(base: BaseTy, names: &mut NameSupply) -> RTy {
        let binders = (0..base.index_sorts().len())
            .map(|i| names.fresh(&format!("v{i}")))
            .collect();
        RTy::Exists {
            base,
            binders,
            refine: Refine::top(),
        }
    }

    /// `i32{v: v >= 0}` — the `nat` alias from the paper, its binder drawn
    /// from `names`.
    pub fn nat(names: &mut NameSupply) -> RTy {
        let v = names.fresh("v");
        RTy::Exists {
            base: BaseTy::Int,
            binders: vec![v],
            refine: Refine::Pred(Expr::ge(Expr::Var(v), Expr::int(0))),
        }
    }

    /// An existential scalar with an explicit predicate over a single
    /// binder.
    pub fn exists(base: BaseTy, binder: Name, pred: Expr) -> RTy {
        RTy::Exists {
            base,
            binders: vec![binder],
            refine: Refine::Pred(pred),
        }
    }

    /// An existential whose refinement is an unknown κ application.
    pub fn exists_kvar(base: BaseTy, binders: Vec<Name>, kvid: KVid, scope: Vec<Expr>) -> RTy {
        let mut args: Vec<Expr> = binders.iter().map(|b| Expr::Var(*b)).collect();
        args.extend(scope);
        RTy::Exists {
            base,
            binders,
            refine: Refine::KVar(KVarApp::new(kvid, args)),
        }
    }

    /// A mutable reference.
    pub fn ref_mut(inner: RTy) -> RTy {
        RTy::Ref {
            kind: RefKind::Mut,
            inner: Box::new(inner),
        }
    }

    /// A shared reference.
    pub fn ref_shr(inner: RTy) -> RTy {
        RTy::Ref {
            kind: RefKind::Shared,
            inner: Box::new(inner),
        }
    }

    /// A strong reference.
    pub fn ref_strg(inner: RTy) -> RTy {
        RTy::Ref {
            kind: RefKind::Strg,
            inner: Box::new(inner),
        }
    }

    /// The base type, if this is a (possibly existential) base type.
    pub fn base(&self) -> Option<&BaseTy> {
        match self {
            RTy::Indexed { base, .. } | RTy::Exists { base, .. } => Some(base),
            _ => None,
        }
    }

    /// True if the type is a scalar (integer or boolean) indexed type.
    pub fn is_scalar(&self) -> bool {
        matches!(self.base(), Some(BaseTy::Int | BaseTy::Uint | BaseTy::Bool))
    }

    /// Applies a substitution to every index expression and refinement in
    /// the type.
    pub fn subst(&self, subst: &flux_logic::Subst) -> RTy {
        match self {
            RTy::Indexed { base, indices } => RTy::Indexed {
                base: base.subst(subst),
                indices: indices.iter().map(|e| subst.apply(e)).collect(),
            },
            RTy::Exists {
                base,
                binders,
                refine,
            } => RTy::Exists {
                base: base.subst(subst),
                binders: binders.clone(),
                refine: match refine {
                    Refine::Pred(p) => Refine::Pred(subst.apply(p)),
                    Refine::KVar(app) => Refine::KVar(KVarApp::new(
                        app.kvid,
                        app.args.iter().map(|a| subst.apply(a)).collect(),
                    )),
                },
            },
            RTy::Ref { kind, inner } => RTy::Ref {
                kind: *kind,
                inner: Box::new(inner.subst(subst)),
            },
            RTy::Unit => RTy::Unit,
            RTy::Uninit => RTy::Uninit,
        }
    }
}

impl BaseTy {
    fn subst(&self, subst: &flux_logic::Subst) -> BaseTy {
        match self {
            BaseTy::Vec(t) => BaseTy::Vec(Box::new(t.subst(subst))),
            BaseTy::Mat(t) => BaseTy::Mat(Box::new(t.subst(subst))),
            other => other.clone(),
        }
    }
}

impl fmt::Display for BaseTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseTy::Int => write!(f, "i32"),
            BaseTy::Uint => write!(f, "usize"),
            BaseTy::Bool => write!(f, "bool"),
            BaseTy::Float => write!(f, "f32"),
            BaseTy::Vec(t) => write!(f, "RVec<{t}>"),
            BaseTy::Mat(t) => write!(f, "RMat<{t}>"),
        }
    }
}

impl fmt::Display for RTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RTy::Indexed { base, indices } => {
                write!(f, "{base}[")?;
                for (i, idx) in indices.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{idx}")?;
                }
                write!(f, "]")
            }
            RTy::Exists {
                base,
                binders,
                refine,
            } => {
                write!(f, "{base}{{")?;
                for (i, b) in binders.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                match refine {
                    Refine::Pred(p) => write!(f, ": {p}}}"),
                    Refine::KVar(app) => write!(f, ": {app}}}"),
                }
            }
            RTy::Ref { kind, inner } => match kind {
                RefKind::Shared => write!(f, "&{inner}"),
                RefKind::Mut => write!(f, "&mut {inner}"),
                RefKind::Strg => write!(f, "&strg {inner}"),
            },
            RTy::Unit => write!(f, "()"),
            RTy::Uninit => write!(f, "uninit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_logic::Subst;

    #[test]
    fn index_sorts_per_base() {
        assert_eq!(BaseTy::Int.index_sorts(), vec![Sort::Int]);
        assert_eq!(BaseTy::Bool.index_sorts(), vec![Sort::Bool]);
        assert!(BaseTy::Float.index_sorts().is_empty());
        assert_eq!(
            BaseTy::Mat(Box::new(RTy::Unit)).index_sorts(),
            vec![Sort::Int, Sort::Int]
        );
    }

    #[test]
    fn nonnegative_index_bases() {
        assert!(BaseTy::Uint.indices_nonneg());
        assert!(BaseTy::Vec(Box::new(RTy::Unit)).indices_nonneg());
        assert!(!BaseTy::Int.indices_nonneg());
    }

    #[test]
    fn display_of_indexed_and_existential() {
        let n = Name::intern("n");
        let t = RTy::indexed(BaseTy::Int, Expr::Var(n) + Expr::int(1));
        assert_eq!(t.to_string(), "i32[n + 1]");
        let mut names = NameSupply::signature();
        let nat = RTy::nat(&mut names);
        assert!(nat.to_string().starts_with("i32{"));
        let vecty = RTy::indexed(
            BaseTy::Vec(Box::new(RTy::exists_top(BaseTy::Float, &mut names))),
            Expr::Var(n),
        );
        let printed = vecty.to_string();
        assert!(
            printed.starts_with("RVec<f32"),
            "unexpected display {printed}"
        );
        assert!(printed.ends_with("[n]"), "unexpected display {printed}");
    }

    #[test]
    fn substitution_rewrites_indices() {
        let n = Name::intern("n");
        let m = Name::intern("m");
        let t = RTy::indexed(BaseTy::Uint, Expr::Var(n));
        let out = t.subst(&Subst::single(n, Expr::Var(m) + Expr::int(2)));
        assert_eq!(out.to_string(), "usize[m + 2]");
    }

    #[test]
    fn substitution_descends_into_element_types() {
        let n = Name::intern("n");
        let elem = RTy::indexed(BaseTy::Int, Expr::Var(n));
        let t = RTy::indexed(BaseTy::Vec(Box::new(elem)), Expr::int(3));
        let out = t.subst(&Subst::single(n, Expr::int(7)));
        assert_eq!(out.to_string(), "RVec<i32[7]>[3]");
    }

    #[test]
    fn kvar_templates_apply_binders_first() {
        let mut kvars = flux_fixpoint::KVarStore::new();
        let k = kvars.fresh(vec![Sort::Int, Sort::Int]);
        let b = Name::intern("b0");
        let t = RTy::exists_kvar(BaseTy::Int, vec![b], k, vec![Expr::var(Name::intern("n"))]);
        match t {
            RTy::Exists {
                refine: Refine::KVar(app),
                ..
            } => {
                assert_eq!(app.args.len(), 2);
                assert_eq!(app.args[0], Expr::Var(b));
            }
            other => panic!("expected kvar existential, got {other:?}"),
        }
    }

    #[test]
    fn scalar_predicate() {
        assert!(RTy::indexed(BaseTy::Int, Expr::int(3)).is_scalar());
        assert!(!RTy::Unit.is_scalar());
        assert!(!RTy::indexed(BaseTy::Vec(Box::new(RTy::Unit)), Expr::int(0)).is_scalar());
    }
}
