//! Conversion of quantifier-free formulas to CNF over theory atoms.
//!
//! The conversion is the standard Tseitin encoding: every non-literal
//! subformula gets a fresh propositional definition variable, producing a
//! CNF that is equisatisfiable with the input and linear in its size.
//!
//! Input formulas must already be preprocessed (see [`crate::preprocess`]):
//! no quantifiers, no `if-then-else` terms, no uninterpreted applications,
//! and all arithmetic comparisons normalised to `e ≤ 0` atoms.

use crate::atoms::{Atom, AtomId, AtomTable, Lit};
use crate::linear::{LinConstraint, LinExpr};
use crate::rational::Rational;
use flux_logic::{BinOp, Constant, Expr, UnOp};

/// A CNF: a conjunction of clauses, each a disjunction of literals.
#[derive(Clone, Debug, Default)]
pub struct Cnf {
    /// The clauses.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Adds a clause.
    pub fn add(&mut self, clause: Vec<Lit>) {
        self.clauses.push(clause);
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True if there are no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

/// Errors that can occur while converting to CNF.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CnfError {
    /// A construct that should have been eliminated by preprocessing was
    /// still present.
    UnexpectedConstruct(String),
}

impl std::fmt::Display for CnfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CnfError::UnexpectedConstruct(what) => {
                write!(f, "unexpected construct during CNF conversion: {what}")
            }
        }
    }
}

impl std::error::Error for CnfError {}

/// Definition-atom key of a formula encoded into an atom table of its own,
/// as the one-shot pipeline does once per query.
const SOLE_FORMULA: u32 = u32::MAX;

/// Converts `formula` to CNF, interning atoms into `atoms`, which must not
/// hold definitions of another formula: they are keyed as if `formula`
/// were the table's only one (see [`tseitin_literal`]).
///
/// The returned CNF is satisfiable iff `formula` is (over the combined
/// boolean + linear-integer theory).
pub fn tseitin(formula: &Expr, atoms: &mut AtomTable) -> Result<Cnf, CnfError> {
    let (root, mut cnf) = tseitin_literal(formula, SOLE_FORMULA, atoms)?;
    cnf.add(vec![root]);
    Ok(cnf)
}

/// Converts `formula` to a *defining* CNF plus a root literal: under the
/// returned clauses, the root literal is equivalent to `formula`, but the
/// formula itself is not asserted.  This lets callers combine several
/// independently cached encodings into one query — e.g. asserting the
/// disjunction `root₁ ∨ … ∨ rootₙ` on top of the unions of their defining
/// clauses encodes `f₁ ∨ … ∨ fₙ` without re-encoding any `fᵢ`.
///
/// Definition variables are the atoms `Def { formula: key, ordinal }`,
/// numbered in walk order, so encoding the same formula under the same key
/// twice yields the same atoms and the same clauses.  A table shared by
/// several formulas needs one key per formula: two formulas under one key
/// would give one atom two different definitions.
pub fn tseitin_literal(
    formula: &Expr,
    key: u32,
    atoms: &mut AtomTable,
) -> Result<(Lit, Cnf), CnfError> {
    let mut cnf = Cnf::default();
    let mut defs = Defs { key, next: 0 };
    let root = encode(formula, atoms, &mut defs, &mut cnf)?;
    Ok((root, cnf))
}

/// The definition variables of one encoding walk.
struct Defs {
    key: u32,
    /// Ordinal of the next definition.
    next: u32,
}

impl Defs {
    fn fresh(&mut self, atoms: &mut AtomTable) -> Lit {
        let ordinal = self.next;
        self.next += 1;
        Lit::pos(atoms.intern(Atom::Def {
            formula: self.key,
            ordinal,
        }))
    }
}

/// Encodes `expr` returning a literal equivalent to it (adding definition
/// clauses to `cnf` as needed).
fn encode(
    expr: &Expr,
    atoms: &mut AtomTable,
    defs: &mut Defs,
    cnf: &mut Cnf,
) -> Result<Lit, CnfError> {
    match expr {
        Expr::Const(Constant::Bool(b)) => {
            // A definition asserted true stands for the constant.
            let d = defs.fresh(atoms);
            cnf.add(vec![d]);
            Ok(if *b { d } else { d.negated() })
        }
        Expr::Var(name) => Ok(Lit::pos(atoms.intern(Atom::Bool(*name)))),
        Expr::UnOp(UnOp::Not, inner) => Ok(encode(inner, atoms, defs, cnf)?.negated()),
        Expr::BinOp(op, lhs, rhs) => match op {
            BinOp::And => {
                let a = encode(lhs, atoms, defs, cnf)?;
                let b = encode(rhs, atoms, defs, cnf)?;
                let d = defs.fresh(atoms);
                // d <-> a & b
                cnf.add(vec![d.negated(), a]);
                cnf.add(vec![d.negated(), b]);
                cnf.add(vec![a.negated(), b.negated(), d]);
                Ok(d)
            }
            BinOp::Or => {
                let a = encode(lhs, atoms, defs, cnf)?;
                let b = encode(rhs, atoms, defs, cnf)?;
                let d = defs.fresh(atoms);
                cnf.add(vec![d.negated(), a, b]);
                cnf.add(vec![a.negated(), d]);
                cnf.add(vec![b.negated(), d]);
                Ok(d)
            }
            BinOp::Imp => {
                let a = encode(lhs, atoms, defs, cnf)?;
                let b = encode(rhs, atoms, defs, cnf)?;
                let d = defs.fresh(atoms);
                cnf.add(vec![d.negated(), a.negated(), b]);
                cnf.add(vec![a, d]);
                cnf.add(vec![b.negated(), d]);
                Ok(d)
            }
            BinOp::Iff => {
                let a = encode(lhs, atoms, defs, cnf)?;
                let b = encode(rhs, atoms, defs, cnf)?;
                let d = defs.fresh(atoms);
                cnf.add(vec![d.negated(), a.negated(), b]);
                cnf.add(vec![d.negated(), b.negated(), a]);
                cnf.add(vec![d, a, b]);
                cnf.add(vec![d, a.negated(), b.negated()]);
                Ok(d)
            }
            // Remaining binary operators are atoms (comparisons) or should
            // have been eliminated.
            _ => Ok(Lit::pos(encode_atom(expr, atoms)?)),
        },
        Expr::App(..) => Err(CnfError::UnexpectedConstruct(
            "uninterpreted application (should be ackermannized)".to_owned(),
        )),
        Expr::Ite(..) => Err(CnfError::UnexpectedConstruct(
            "if-then-else (should be eliminated)".to_owned(),
        )),
        Expr::Forall(..) | Expr::Exists(..) => Err(CnfError::UnexpectedConstruct(
            "quantifier (should be instantiated)".to_owned(),
        )),
        Expr::Const(_) | Expr::UnOp(UnOp::Neg, _) => Err(CnfError::UnexpectedConstruct(format!(
            "non-boolean expression in boolean position: {expr}"
        ))),
    }
}

/// Encodes a comparison (or opaque predicate) as a theory atom.
fn encode_atom(expr: &Expr, atoms: &mut AtomTable) -> Result<AtomId, CnfError> {
    match expr {
        Expr::BinOp(BinOp::Le, lhs, rhs) => {
            match linearize(&Expr::binop(BinOp::Sub, (**lhs).clone(), (**rhs).clone())) {
                Some(lin) => Ok(atoms.intern(Atom::Lin(LinConstraint::le_zero(lin)))),
                None => Ok(atoms.intern(Atom::Opaque(expr.clone()))),
            }
        }
        _ => Ok(atoms.intern(Atom::Opaque(expr.clone()))),
    }
}

/// Attempts to interpret `expr` as a linear expression over integer
/// variables.  Returns `None` if the expression is non-linear.
pub fn linearize(expr: &Expr) -> Option<LinExpr> {
    match expr {
        Expr::Const(Constant::Int(i)) => Some(LinExpr::constant(Rational::int(*i))),
        Expr::Var(name) => Some(LinExpr::var(*name)),
        Expr::UnOp(UnOp::Neg, inner) => Some(linearize(inner)?.scaled(-Rational::ONE)),
        Expr::BinOp(BinOp::Add, lhs, rhs) => Some(linearize(lhs)?.plus(&linearize(rhs)?)),
        Expr::BinOp(BinOp::Sub, lhs, rhs) => Some(linearize(lhs)?.minus(&linearize(rhs)?)),
        Expr::BinOp(BinOp::Mul, lhs, rhs) => {
            let l = linearize(lhs)?;
            let r = linearize(rhs)?;
            if l.is_constant() {
                Some(r.scaled(l.constant_part()))
            } else if r.is_constant() {
                Some(l.scaled(r.constant_part()))
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::Atom;
    use flux_logic::Name;

    fn v(s: &str) -> Expr {
        Expr::var(Name::intern(s))
    }

    #[test]
    fn linearize_handles_affine_expressions() {
        let e = v("x") + Expr::int(2) * v("y") - Expr::int(3);
        let lin = linearize(&e).unwrap();
        assert_eq!(lin.coeff(Name::intern("x")), Rational::ONE);
        assert_eq!(lin.coeff(Name::intern("y")), Rational::int(2));
        assert_eq!(lin.constant_part(), Rational::int(-3));
    }

    #[test]
    fn linearize_rejects_products_of_variables() {
        assert!(linearize(&(v("x") * v("y"))).is_none());
    }

    #[test]
    fn le_atoms_become_linear_constraints() {
        let mut atoms = AtomTable::new();
        let e = Expr::le(v("i"), v("n"));
        let cnf = tseitin(&e, &mut atoms).unwrap();
        assert_eq!(cnf.len(), 1);
        let lit = cnf.clauses[0][0];
        assert!(matches!(atoms.get(lit.atom), Atom::Lin(_)));
    }

    #[test]
    fn boolean_variables_become_bool_atoms() {
        let mut atoms = AtomTable::new();
        let cnf = tseitin(&v("p"), &mut atoms).unwrap();
        assert_eq!(cnf.len(), 1);
        assert!(matches!(atoms.get(cnf.clauses[0][0].atom), Atom::Bool(_)));
    }

    #[test]
    fn conjunction_produces_definition_clauses() {
        let mut atoms = AtomTable::new();
        let e = Expr::binop(BinOp::And, v("p"), v("q"));
        let cnf = tseitin(&e, &mut atoms).unwrap();
        // 3 definition clauses + 1 root assertion
        assert_eq!(cnf.len(), 4);
    }

    #[test]
    fn nonlinear_comparison_becomes_opaque_atom() {
        let mut atoms = AtomTable::new();
        let e = Expr::le(v("x") * v("y"), Expr::int(4));
        let cnf = tseitin(&e, &mut atoms).unwrap();
        let lit = cnf.clauses[0][0];
        assert!(matches!(atoms.get(lit.atom), Atom::Opaque(_)));
    }

    #[test]
    fn leftover_quantifier_is_an_error() {
        let mut atoms = AtomTable::new();
        let i = Name::intern("i");
        let e = Expr::Forall(vec![(i, flux_logic::Sort::Int)], Box::new(Expr::tt()));
        assert!(tseitin(&e, &mut atoms).is_err());
    }

    #[test]
    fn reencoding_a_formula_reinterns_its_atoms_and_clauses() {
        let mut atoms = AtomTable::new();
        let e = Expr::imp(
            Expr::and(v("p"), Expr::or(v("q"), Expr::le(v("i"), v("n")))),
            Expr::not(Expr::and(v("q"), v("p"))),
        );
        let (root, first) = tseitin_literal(&e, 3, &mut atoms).unwrap();
        let interned = atoms.len();
        let (again, second) = tseitin_literal(&e, 3, &mut atoms).unwrap();
        assert_eq!(root, again);
        assert_eq!(first.clauses, second.clauses);
        assert_eq!(atoms.len(), interned, "re-encoding interned new atoms");
        // Another key names another formula's definitions; the theory and
        // boolean atoms are shared.
        tseitin_literal(&e, 4, &mut atoms).unwrap();
        let defs = atoms
            .iter()
            .filter(|(_, a)| matches!(a, Atom::Def { .. }))
            .count();
        assert_eq!(defs, 8);
        assert_eq!(atoms.len(), interned + 4);
    }

    #[test]
    fn negation_flips_literal() {
        let mut atoms = AtomTable::new();
        let e = Expr::not(v("p"));
        let cnf = tseitin(&e, &mut atoms).unwrap();
        assert!(!cnf.clauses[0][0].positive);
    }
}
