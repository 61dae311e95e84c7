//! Qualifiers: the quantifier-free templates from which liquid inference
//! builds candidate solutions for κ variables.
//!
//! Following Rondon et al. (PLDI 2008) and the description in §4.2 of the
//! Flux paper, a qualifier is a predicate over a distinguished value
//! variable `ν` and placeholder variables `A`, `B`, … .  Instantiating a
//! qualifier against a κ declaration means substituting `ν` by the κ's
//! first argument and the placeholders by other arguments of matching sort.

use crate::kvar::KVarDecl;
use flux_logic::{BinOp, Expr, Name, Sort, SortCtx};

/// A qualifier template.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Qualifier {
    /// Human-readable name, for diagnostics.
    pub name: String,
    /// The template parameters (the first is the value variable ν).
    pub params: Vec<(Name, Sort)>,
    /// The template body, over the parameters.
    pub body: Expr,
}

impl Qualifier {
    /// Creates a qualifier.
    pub fn new(name: &str, params: Vec<(Name, Sort)>, body: Expr) -> Qualifier {
        Qualifier {
            name: name.to_owned(),
            params,
            body,
        }
    }

    /// Instantiates the qualifier against a κ declaration, producing every
    /// well-sorted instantiation of the template's parameters by the κ's
    /// formal arguments.  The value parameter ν is always mapped to the
    /// first argument.  When swapping `A` and `B` leaves the body unchanged
    /// up to the order of `+` operands (`ν = A + B`, not `ν = A − B`), the
    /// two orders of a pair of arguments give one predicate, and only the
    /// order where `A`'s argument comes first is kept.
    pub fn instantiate(&self, decl: &KVarDecl) -> Vec<Expr> {
        if self.params.is_empty() || decl.sorts.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        // ν must match the sort of the first argument.
        if self.params[0].1 != decl.sorts[0] {
            return Vec::new();
        }
        let formals = decl.formals();
        let mut assignment: Vec<Option<usize>> = vec![None; self.params.len()];
        assignment[0] = Some(0);
        let ordered = self.symmetric_in_a_b();
        instantiate_rec(self, decl, formals, 1, &mut assignment, ordered, &mut out);
        out
    }

    /// True when the body is unchanged, up to the order of `+` operands, by
    /// swapping the placeholders `A` and `B` (the second and third
    /// parameters).
    fn symmetric_in_a_b(&self) -> bool {
        let [_, (a, a_sort), (b, b_sort), ..] = self.params[..] else {
            return false;
        };
        let swap: flux_logic::Subst = [(a, Expr::Var(b)), (b, Expr::Var(a))].into_iter().collect();
        a_sort == b_sort && sort_sums(&swap.apply(&self.body)) == sort_sums(&self.body)
    }
}

/// `expr` with the two operands of every `+` in ascending order, so the two
/// orders of a sum compare equal.
fn sort_sums(expr: &Expr) -> Expr {
    match expr {
        Expr::BinOp(op, l, r) => {
            let (l, r) = (sort_sums(l), sort_sums(r));
            if *op == BinOp::Add && r < l {
                Expr::binop(*op, r, l)
            } else {
                Expr::binop(*op, l, r)
            }
        }
        Expr::UnOp(op, e) => Expr::unop(*op, sort_sums(e)),
        _ => expr.clone(),
    }
}

/// Extends `assignment` from parameter `index` on, pushing the instance of
/// every complete one.  `ordered` skips the assignments whose `B` argument
/// comes before the `A` argument.
fn instantiate_rec(
    qualifier: &Qualifier,
    decl: &KVarDecl,
    formals: &[Name],
    index: usize,
    assignment: &mut Vec<Option<usize>>,
    ordered: bool,
    out: &mut Vec<Expr>,
) {
    if index == qualifier.params.len() {
        let subst: flux_logic::Subst = qualifier
            .params
            .iter()
            .zip(assignment.iter())
            .map(|((param, _), arg)| {
                let arg = arg.expect("complete assignment");
                (*param, Expr::Var(formals[arg]))
            })
            .collect();
        out.push(subst.apply(&qualifier.body));
        return;
    }
    let wanted = qualifier.params[index].1;
    for (arg_idx, sort) in decl.sorts.iter().enumerate() {
        // Distinct placeholders map to distinct arguments, and never to the
        // value argument (which is reserved for ν).
        if *sort != wanted || arg_idx == 0 || assignment.contains(&Some(arg_idx)) {
            continue;
        }
        if ordered && index == 2 && assignment[1].is_some_and(|a| arg_idx < a) {
            continue;
        }
        assignment[index] = Some(arg_idx);
        instantiate_rec(
            qualifier,
            decl,
            formals,
            index + 1,
            assignment,
            ordered,
            out,
        );
        assignment[index] = None;
    }
}

/// The default qualifier set used by liquid inference.
///
/// These are the standard "DSOLVE-style" qualifiers: sign information about
/// ν and linear comparisons between ν and one or two other variables in
/// scope.  They are sufficient to infer every loop invariant needed by the
/// benchmark suite (§5 of the paper stresses that such invariants are simple
/// conjunctions of quantifier-free facts).
pub fn default_qualifiers() -> Vec<Qualifier> {
    let nu = Name::intern("$nu");
    let a = Name::intern("$A");
    let b = Name::intern("$B");
    let int = Sort::Int;
    let v = Expr::Var(nu);
    let av = Expr::Var(a);
    let bv = Expr::Var(b);
    vec![
        Qualifier::new("nonneg", vec![(nu, int)], Expr::ge(v.clone(), Expr::int(0))),
        Qualifier::new("pos", vec![(nu, int)], Expr::gt(v.clone(), Expr::int(0))),
        Qualifier::new("zero", vec![(nu, int)], Expr::eq(v.clone(), Expr::int(0))),
        Qualifier::new(
            "eq-var",
            vec![(nu, int), (a, int)],
            Expr::eq(v.clone(), av.clone()),
        ),
        Qualifier::new(
            "le-var",
            vec![(nu, int), (a, int)],
            Expr::le(v.clone(), av.clone()),
        ),
        Qualifier::new(
            "lt-var",
            vec![(nu, int), (a, int)],
            Expr::lt(v.clone(), av.clone()),
        ),
        Qualifier::new(
            "ge-var",
            vec![(nu, int), (a, int)],
            Expr::ge(v.clone(), av.clone()),
        ),
        Qualifier::new(
            "gt-var",
            vec![(nu, int), (a, int)],
            Expr::gt(v.clone(), av.clone()),
        ),
        Qualifier::new(
            "eq-plus-one",
            vec![(nu, int), (a, int)],
            Expr::eq(v.clone(), av.clone() + Expr::int(1)),
        ),
        Qualifier::new(
            "le-minus-one",
            vec![(nu, int), (a, int)],
            Expr::le(v.clone(), av.clone() - Expr::int(1)),
        ),
        Qualifier::new(
            "eq-sum",
            vec![(nu, int), (a, int), (b, int)],
            Expr::eq(v.clone(), av.clone() + bv.clone()),
        ),
        Qualifier::new(
            "eq-diff",
            vec![(nu, int), (a, int), (b, int)],
            Expr::eq(v.clone(), av.clone() - bv.clone()),
        ),
        Qualifier::new(
            "le-sum",
            vec![(nu, int), (a, int), (b, int)],
            Expr::le(v.clone(), av + bv),
        ),
        Qualifier::new("true-bool", vec![(nu, Sort::Bool)], Expr::Var(nu)),
    ]
}

/// Checks that a qualifier's body is well-sorted with respect to its
/// declared parameters (a sanity check used by tests and by user-supplied
/// qualifier sets).
pub fn well_sorted(qualifier: &Qualifier) -> bool {
    let mut ctx = SortCtx::new();
    for (name, sort) in &qualifier.params {
        ctx.push(*name, *sort);
    }
    matches!(qualifier.body.sort_of(&ctx), Ok(Sort::Bool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvar::KVarStore;

    #[test]
    fn default_qualifiers_are_well_sorted() {
        for q in default_qualifiers() {
            assert!(well_sorted(&q), "qualifier {} is ill-sorted", q.name);
        }
    }

    #[test]
    fn instantiation_maps_nu_to_first_argument() {
        let mut store = KVarStore::new();
        let k = store.fresh(vec![Sort::Int]);
        let decl = store.get(k);
        let nonneg = &default_qualifiers()[0];
        let instances = nonneg.instantiate(decl);
        assert_eq!(instances.len(), 1);
        assert_eq!(
            instances[0],
            Expr::ge(Expr::Var(decl.formal(0)), Expr::int(0))
        );
    }

    #[test]
    fn two_parameter_qualifiers_enumerate_scope_vars() {
        let mut store = KVarStore::new();
        let k = store.fresh(vec![Sort::Int, Sort::Int, Sort::Int]);
        let decl = store.get(k);
        let le_var = default_qualifiers()
            .into_iter()
            .find(|q| q.name == "le-var")
            .unwrap();
        let instances = le_var.instantiate(decl);
        // ν ≤ arg1 and ν ≤ arg2.
        assert_eq!(instances.len(), 2);
    }

    #[test]
    fn sort_mismatch_produces_no_instances() {
        let mut store = KVarStore::new();
        let k = store.fresh(vec![Sort::Bool]);
        let decl = store.get(k);
        let nonneg = &default_qualifiers()[0];
        assert!(nonneg.instantiate(decl).is_empty());
    }

    #[test]
    fn three_parameter_qualifier_uses_distinct_arguments() {
        let mut store = KVarStore::new();
        let k = store.fresh(vec![Sort::Int, Sort::Int, Sort::Int]);
        let decl = store.get(k);
        let instances = |name: &str| {
            default_qualifiers()
                .into_iter()
                .find(|q| q.name == name)
                .unwrap()
                .instantiate(decl)
        };
        // ν = arg1 − arg2 and ν = arg2 − arg1.
        assert_eq!(instances("eq-diff").len(), 2);
        // ν = arg1 + arg2 only: ν = arg2 + arg1 is the same predicate.
        assert_eq!(
            instances("eq-sum"),
            vec![Expr::eq(
                Expr::Var(decl.formal(0)),
                Expr::Var(decl.formal(1)) + Expr::Var(decl.formal(2))
            )]
        );
        assert_eq!(instances("le-sum").len(), 1);
    }

    #[test]
    fn boolean_qualifier_only_matches_boolean_kvars() {
        let mut store = KVarStore::new();
        let kb = store.fresh(vec![Sort::Bool]);
        let ki = store.fresh(vec![Sort::Int]);
        let true_bool = default_qualifiers()
            .into_iter()
            .find(|q| q.name == "true-bool")
            .unwrap();
        assert_eq!(true_bool.instantiate(store.get(kb)).len(), 1);
        assert!(true_bool.instantiate(store.get(ki)).is_empty());
    }
}
