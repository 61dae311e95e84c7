//! Capture-avoiding substitution of refinement expressions for variables.

use crate::{Expr, Name};
use std::collections::{BTreeMap, BTreeSet};

/// A simultaneous substitution mapping refinement variables to expressions.
///
/// Substitution is capture avoiding: substituting under a quantifier that
/// binds a variable appearing free in a replacement expression renames the
/// bound variable first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Name, Expr>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// A substitution of a single variable.
    pub fn single(name: Name, expr: Expr) -> Subst {
        let mut s = Subst::new();
        s.insert(name, expr);
        s
    }

    /// Adds (or replaces) the mapping `name ↦ expr`.
    pub fn insert(&mut self, name: Name, expr: Expr) {
        self.map.insert(name, expr);
    }

    /// Looks up the replacement for `name`, if any.
    pub fn get(&self, name: Name) -> Option<&Expr> {
        self.map.get(&name)
    }

    /// True if the substitution has no mappings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates over the mappings.
    pub fn iter(&self) -> impl Iterator<Item = (Name, &Expr)> {
        self.map.iter().map(|(n, e)| (*n, e))
    }

    /// Applies the substitution to `expr`.
    pub fn apply(&self, expr: &Expr) -> Expr {
        if self.is_empty() {
            return expr.clone();
        }
        self.apply_rec(expr)
    }

    fn apply_rec(&self, expr: &Expr) -> Expr {
        match expr {
            Expr::Var(name) => match self.map.get(name) {
                Some(replacement) => replacement.clone(),
                None => expr.clone(),
            },
            Expr::Const(_) => expr.clone(),
            Expr::UnOp(op, e) => Expr::unop(*op, self.apply_rec(e)),
            Expr::BinOp(op, l, r) => Expr::binop(*op, self.apply_rec(l), self.apply_rec(r)),
            Expr::Ite(c, t, e) => {
                Expr::ite(self.apply_rec(c), self.apply_rec(t), self.apply_rec(e))
            }
            Expr::App(f, args) => Expr::App(*f, args.iter().map(|a| self.apply_rec(a)).collect()),
            Expr::Forall(binders, body) => {
                let (binders, body) = self.apply_under_binders(binders, body);
                Expr::Forall(binders, Box::new(body))
            }
            Expr::Exists(binders, body) => {
                let (binders, body) = self.apply_under_binders(binders, body);
                Expr::Exists(binders, Box::new(body))
            }
        }
    }

    fn apply_under_binders(
        &self,
        binders: &[(Name, crate::Sort)],
        body: &Expr,
    ) -> (Vec<(Name, crate::Sort)>, Expr) {
        // Restrict the substitution to variables that are not re-bound here.
        let mut inner = Subst::new();
        for (name, repl) in &self.map {
            if !binders.iter().any(|(b, _)| b == name) {
                inner.insert(*name, repl.clone());
            }
        }
        // Rename binders that would capture free variables of replacements,
        // each to the first `{base}%q{k}` that is free nowhere it could be
        // captured or capture: not in the body, not in a replacement, not in
        // the substitution's domain and not another binder of this list.
        // The choice depends only on the inputs, so the same substitution
        // always yields the same expression.
        let mut repl_vars = BTreeSet::new();
        for repl in inner.map.values() {
            repl.collect_free_vars(&mut repl_vars);
        }
        let mut new_binders = binders.to_vec();
        if !binders.iter().any(|(b, _)| repl_vars.contains(b)) {
            return (new_binders, inner.apply(body));
        }
        let mut taken = body.free_vars();
        taken.extend(&repl_vars);
        taken.extend(self.map.keys());
        taken.extend(binders.iter().map(|(b, _)| *b));
        let mut renaming = Subst::new();
        for (name, _) in new_binders.iter_mut() {
            if repl_vars.contains(name) {
                let base = crate::intern::base(name.as_str());
                let renamed = (0u32..)
                    .map(|k| Name::intern(&format!("{base}%q{k}")))
                    .find(|candidate| !taken.contains(candidate))
                    .expect("only finitely many names are taken");
                taken.insert(renamed);
                renaming.insert(*name, Expr::Var(renamed));
                *name = renamed;
            }
        }
        (new_binders, inner.apply(&renaming.apply(body)))
    }
}

impl FromIterator<(Name, Expr)> for Subst {
    fn from_iter<T: IntoIterator<Item = (Name, Expr)>>(iter: T) -> Self {
        let mut s = Subst::new();
        for (n, e) in iter {
            s.insert(n, e);
        }
        s
    }
}

impl Expr {
    /// Substitutes `expr` for every free occurrence of `name` in `self`.
    pub fn subst(&self, name: Name, expr: Expr) -> Expr {
        Subst::single(name, expr).apply(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sort;

    fn n(s: &str) -> Name {
        Name::intern(s)
    }

    fn v(s: &str) -> Expr {
        Expr::var(n(s))
    }

    #[test]
    fn substitutes_free_variable() {
        let e = Expr::ge(v("x"), Expr::int(0));
        let out = e.subst(n("x"), v("y") + Expr::int(1));
        assert_eq!(out, Expr::ge(v("y") + Expr::int(1), Expr::int(0)));
    }

    #[test]
    fn leaves_other_variables_alone() {
        let e = Expr::lt(v("x"), v("y"));
        let out = e.subst(n("z"), Expr::int(3));
        assert_eq!(out, e);
    }

    #[test]
    fn simultaneous_substitution_does_not_chain() {
        // [x ↦ y, y ↦ 0] applied to x + y must give y + 0, not 0 + 0.
        let s: Subst = [(n("x"), v("y")), (n("y"), Expr::int(0))]
            .into_iter()
            .collect();
        let out = s.apply(&(v("x") + v("y")));
        assert_eq!(out, v("y") + Expr::int(0));
    }

    #[test]
    fn bound_variables_are_not_substituted() {
        let e = Expr::forall(vec![(n("i"), Sort::Int)], Expr::ge(v("i"), v("lo")));
        let out = e.subst(n("i"), Expr::int(42));
        assert_eq!(out, e);
    }

    #[test]
    fn capture_is_avoided_by_renaming() {
        // (forall i. i <= n)[n ↦ i] must NOT become (forall i. i <= i).
        let e = Expr::forall(vec![(n("i"), Sort::Int)], Expr::le(v("i"), v("n")));
        let out = e.subst(n("n"), v("i"));
        match &out {
            Expr::Forall(binders, body) => {
                let bound = binders[0].0;
                assert_ne!(bound, n("i"), "binder must have been renamed");
                // body is bound <= i
                assert_eq!(**body, Expr::le(Expr::Var(bound), v("i")));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn capture_avoiding_renaming_is_deterministic() {
        // (forall k. x < k)[x ↦ k], twice: the renamed binder must be the
        // same both times and must not capture the substituted k.
        let e = Expr::forall(vec![(n("k"), Sort::Int)], Expr::lt(v("x"), v("k")));
        let first = e.subst(n("x"), v("k"));
        assert_eq!(first, e.subst(n("x"), v("k")));
        match &first {
            Expr::Forall(binders, body) => {
                let bound = binders[0].0;
                assert_ne!(bound, n("k"));
                assert_eq!(**body, Expr::lt(v("k"), Expr::Var(bound)));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn substitution_inside_application() {
        let e = Expr::app(n("select"), vec![v("a"), v("i")]);
        let out = e.subst(n("i"), Expr::int(0));
        assert_eq!(out, Expr::app(n("select"), vec![v("a"), Expr::int(0)]));
    }

    #[test]
    fn substitution_inside_ite() {
        let e = Expr::ite(Expr::gt(v("x"), Expr::int(0)), v("x"), Expr::neg(v("x")));
        let out = e.subst(n("x"), Expr::int(5));
        assert_eq!(
            out,
            Expr::ite(
                Expr::gt(Expr::int(5), Expr::int(0)),
                Expr::int(5),
                Expr::unop(crate::UnOp::Neg, Expr::int(5))
            )
        );
    }

    #[test]
    fn empty_substitution_is_identity() {
        let e = Expr::and(Expr::ge(v("x"), Expr::int(0)), Expr::lt(v("x"), v("n")));
        assert_eq!(Subst::new().apply(&e), e);
    }

    #[test]
    fn subst_through_shadowing_binder_restricts() {
        // (forall x. x > y)[x ↦ 1] leaves the body alone because x is bound.
        let e = Expr::forall(vec![(n("x"), Sort::Int)], Expr::gt(v("x"), v("y")));
        let out = e.subst(n("x"), Expr::int(1));
        assert_eq!(out, e);
    }
}
