//! Horn constraints.
//!
//! The checker produces a *constraint tree* mirroring the structure of the
//! typing derivation (binders and guards on the way down, subtyping heads at
//! the leaves), exactly like the constraints described in §4.2 of the paper.
//! Before solving, the tree is flattened into clauses of the form
//!
//! ```text
//!   ∀ binders. guard₁ ∧ … ∧ guardₙ  ⟹  head
//! ```
//!
//! where guards are concrete predicates or κ applications and the head is a
//! concrete predicate (tagged, for blame) or a κ application.

use crate::kvar::KVarApp;
use flux_logic::{Expr, Name, Sort};

/// A tag identifying the program point / check that produced a constraint,
/// used to report errors when a constraint cannot be satisfied.
pub type Tag = usize;

/// The head of a Horn clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Head {
    /// A concrete predicate that must hold; the tag names the originating
    /// check for error reporting.
    Pred(Expr, Tag),
    /// A κ application that must be implied.
    KVar(KVarApp),
}

/// A hypothesis of a Horn clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Guard {
    /// A concrete predicate assumed to hold.
    Pred(Expr),
    /// A κ application assumed to hold.
    KVar(KVarApp),
}

/// A constraint tree, as produced by the type checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Constraint {
    /// `∀ name: sort. pred ⟹ rest`
    ForAll(Name, Sort, Expr, Box<Constraint>),
    /// `guard ⟹ rest` where the guard may be a κ application.
    Implies(Guard, Box<Constraint>),
    /// Conjunction of sub-constraints.
    Conj(Vec<Constraint>),
    /// A leaf obligation.
    Head(Head),
    /// The trivially-true constraint.
    True,
}

impl Constraint {
    /// A leaf concrete obligation.
    pub fn pred(p: Expr, tag: Tag) -> Constraint {
        if p.is_trivially_true() {
            Constraint::True
        } else {
            Constraint::Head(Head::Pred(p, tag))
        }
    }

    /// A leaf κ obligation.
    pub fn kvar(app: KVarApp) -> Constraint {
        Constraint::Head(Head::KVar(app))
    }

    /// Conjunction, dropping trivially-true children.
    pub fn conj(children: Vec<Constraint>) -> Constraint {
        let mut non_trivial: Vec<Constraint> = children
            .into_iter()
            .filter(|c| !matches!(c, Constraint::True))
            .collect();
        match non_trivial.len() {
            0 => Constraint::True,
            1 => non_trivial.pop().expect("length checked"),
            _ => Constraint::Conj(non_trivial),
        }
    }

    /// Wraps a constraint in a universally quantified binder with a guard.
    pub fn forall(name: Name, sort: Sort, pred: Expr, inner: Constraint) -> Constraint {
        if matches!(inner, Constraint::True) {
            Constraint::True
        } else {
            Constraint::ForAll(name, sort, pred, Box::new(inner))
        }
    }

    /// Wraps a constraint in a guard.
    pub fn implies(guard: Guard, inner: Constraint) -> Constraint {
        match (&guard, &inner) {
            (_, Constraint::True) => Constraint::True,
            (Guard::Pred(p), _) if p.is_trivially_true() => inner,
            _ => Constraint::Implies(guard, Box::new(inner)),
        }
    }

    /// Number of leaf obligations.
    pub fn num_heads(&self) -> usize {
        match self {
            Constraint::True => 0,
            Constraint::Head(_) => 1,
            Constraint::ForAll(_, _, _, inner) | Constraint::Implies(_, inner) => inner.num_heads(),
            Constraint::Conj(children) => children.iter().map(Constraint::num_heads).sum(),
        }
    }

    /// Flattens the tree into clauses.
    pub fn flatten(&self) -> Vec<Clause> {
        self.flatten_with(Guard::clone, |binders, guards, head| Clause {
            binders: binders.to_vec(),
            guards: guards.to_vec(),
            head: head.clone(),
        })
    }

    /// The walk behind [`Constraint::flatten`], generic in what it builds:
    /// `guard` converts each guard once for all the clauses under it (a
    /// binder's non-trivial predicate arrives as a [`Guard::Pred`]), and
    /// `clause` builds one item per head, in flattening order, from the
    /// binders and converted guards in scope.
    pub(crate) fn flatten_with<G, T>(
        &self,
        mut guard: impl FnMut(&Guard) -> G,
        mut clause: impl FnMut(&[(Name, Sort)], &[G], &Head) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        flatten_rec(
            self,
            &mut guard,
            &mut clause,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut out,
        );
        out
    }
}

/// A flattened Horn clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause {
    /// Universally quantified variables in scope, with their sorts.
    pub binders: Vec<(Name, Sort)>,
    /// Hypotheses.
    pub guards: Vec<Guard>,
    /// The obligation.
    pub head: Head,
}

impl Clause {
    /// True if the clause's head is a concrete predicate.
    pub fn is_concrete(&self) -> bool {
        matches!(self.head, Head::Pred(..))
    }
}

fn flatten_rec<G, T>(
    constraint: &Constraint,
    guard: &mut impl FnMut(&Guard) -> G,
    clause: &mut impl FnMut(&[(Name, Sort)], &[G], &Head) -> T,
    binders: &mut Vec<(Name, Sort)>,
    guards: &mut Vec<G>,
    out: &mut Vec<T>,
) {
    match constraint {
        Constraint::True => {}
        Constraint::Head(head) => out.push(clause(binders, guards, head)),
        Constraint::Conj(children) => {
            for child in children {
                flatten_rec(child, guard, clause, binders, guards, out);
            }
        }
        Constraint::ForAll(name, sort, pred, inner) => {
            binders.push((*name, *sort));
            let pushed_guard = if pred.is_trivially_true() {
                false
            } else {
                guards.push(guard(&Guard::Pred(pred.clone())));
                true
            };
            flatten_rec(inner, guard, clause, binders, guards, out);
            if pushed_guard {
                guards.pop();
            }
            binders.pop();
        }
        Constraint::Implies(implied, inner) => {
            guards.push(guard(implied));
            flatten_rec(inner, guard, clause, binders, guards, out);
            guards.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvar::{KVarStore, KVid};

    fn v(s: &str) -> Expr {
        Expr::var(Name::intern(s))
    }

    #[test]
    fn trivially_true_heads_are_dropped() {
        assert_eq!(Constraint::pred(Expr::tt(), 0), Constraint::True);
        assert_eq!(
            Constraint::conj(vec![Constraint::True, Constraint::True]),
            Constraint::True
        );
    }

    #[test]
    fn conj_of_single_child_is_that_child() {
        let c = Constraint::pred(Expr::ge(v("x"), Expr::int(0)), 1);
        assert_eq!(Constraint::conj(vec![Constraint::True, c.clone()]), c);
    }

    #[test]
    fn forall_over_true_is_true() {
        let c = Constraint::forall(Name::intern("x"), Sort::Int, Expr::tt(), Constraint::True);
        assert_eq!(c, Constraint::True);
    }

    #[test]
    fn flatten_collects_binders_and_guards() {
        // ∀ n:int. n >= 0 ⟹ (n+1 >= 0  ∧  ∀ m:int. m >= n ⟹ m >= 0)
        let inner = Constraint::conj(vec![
            Constraint::pred(Expr::ge(v("n") + Expr::int(1), Expr::int(0)), 1),
            Constraint::forall(
                Name::intern("m"),
                Sort::Int,
                Expr::ge(v("m"), v("n")),
                Constraint::pred(Expr::ge(v("m"), Expr::int(0)), 2),
            ),
        ]);
        let c = Constraint::forall(
            Name::intern("n"),
            Sort::Int,
            Expr::ge(v("n"), Expr::int(0)),
            inner,
        );
        let clauses = c.flatten();
        assert_eq!(clauses.len(), 2);
        assert_eq!(clauses[0].binders.len(), 1);
        assert_eq!(clauses[0].guards.len(), 1);
        assert_eq!(clauses[1].binders.len(), 2);
        assert_eq!(clauses[1].guards.len(), 2);
        assert!(clauses.iter().all(Clause::is_concrete));
    }

    #[test]
    fn kvar_heads_are_not_concrete() {
        let mut store = KVarStore::new();
        let k = store.fresh(vec![Sort::Int]);
        let c = Constraint::kvar(KVarApp::new(k, vec![v("x")]));
        let clauses = c.flatten();
        assert_eq!(clauses.len(), 1);
        assert!(!clauses[0].is_concrete());
    }

    #[test]
    fn num_heads_counts_leaves() {
        let c = Constraint::conj(vec![
            Constraint::pred(Expr::ge(v("a"), Expr::int(0)), 0),
            Constraint::pred(Expr::ge(v("b"), Expr::int(0)), 1),
            Constraint::True,
        ]);
        assert_eq!(c.num_heads(), 2);
    }

    #[test]
    fn implies_with_kvar_guard_survives_flattening() {
        let mut store = KVarStore::new();
        let k: KVid = store.fresh(vec![Sort::Int]);
        let c = Constraint::implies(
            Guard::KVar(KVarApp::new(k, vec![v("x")])),
            Constraint::pred(Expr::ge(v("x"), Expr::int(0)), 7),
        );
        let clauses = c.flatten();
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].guards.len(), 1);
        assert!(matches!(clauses[0].guards[0], Guard::KVar(_)));
    }
}
