//! Theory atoms and literals shared between the CNF converter, the SAT core
//! and the DPLL(T) driver.

use crate::linear::LinConstraint;
use flux_logic::{Expr, Name};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A theory atom: the positive phase of a literal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Atom {
    /// A boolean-sorted refinement variable treated propositionally.
    Bool(Name),
    /// A linear integer constraint `e ≤ 0`.
    Lin(LinConstraint),
    /// A predicate the linear theory cannot interpret (non-linear
    /// arithmetic, equality between non-integer sorts).  It is treated as an
    /// opaque propositional variable keyed by its syntax, which
    /// over-approximates satisfiability (sound for proving validity: the
    /// solver can only fail to prove, never prove wrongly).
    Opaque(Expr),
    /// A Tseitin definition variable: the `ordinal`-th definition of the
    /// encoding walk over the formula keyed `formula` (see
    /// [`crate::cnf::tseitin_literal`]).  The encoding is deterministic, so
    /// the atom always stands for the same subformula, and re-encoding a
    /// formula re-interns exactly the atoms it interned the first time.
    Def {
        /// Key of the encoded formula (an `ExprId` index in the shared
        /// table).
        formula: u32,
        /// Position of the definition in the encoding walk.
        ordinal: u32,
    },
}

/// Identifier of an interned [`Atom`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

/// A map keyed by [`AtomId`]: sized by the atoms one solver touches, not by
/// the largest id of a table that other solvers share.
pub(crate) type AtomMap<V> = HashMap<AtomId, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative (Fibonacci) hashing of a dense `u32` id: one multiply by
/// an odd constant keeps distinct ids distinct in the low bits (the bucket
/// index) and mixes the high bits, which the table's control bytes read.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A literal: an atom with a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Lit {
    /// The atom.
    pub atom: AtomId,
    /// `true` for the positive phase.
    pub positive: bool,
}

impl Lit {
    /// Positive literal of `atom`.
    pub fn pos(atom: AtomId) -> Lit {
        Lit {
            atom,
            positive: true,
        }
    }

    /// Negative literal of `atom`.
    pub fn neg(atom: AtomId) -> Lit {
        Lit {
            atom,
            positive: false,
        }
    }

    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit {
            atom: self.atom,
            positive: !self.positive,
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "a{}", self.atom.0)
        } else {
            write!(f, "¬a{}", self.atom.0)
        }
    }
}

/// Interning table for atoms.
#[derive(Default, Debug)]
pub struct AtomTable {
    atoms: Vec<Atom>,
    index: HashMap<Atom, AtomId>,
}

impl AtomTable {
    /// Creates an empty table.
    pub fn new() -> AtomTable {
        AtomTable::default()
    }

    /// Interns `atom`, returning its identifier.
    pub fn intern(&mut self, atom: Atom) -> AtomId {
        if let Some(&id) = self.index.get(&atom) {
            return id;
        }
        let id = AtomId(self.atoms.len() as u32);
        self.atoms.push(atom.clone());
        self.index.insert(atom, id);
        id
    }

    /// Looks up an atom by id.
    pub fn get(&self, id: AtomId) -> &Atom {
        &self.atoms[id.0 as usize]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if no atoms have been interned.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over (id, atom) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, &Atom)> {
        self.atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (AtomId(i as u32), a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    #[test]
    fn interning_is_idempotent() {
        let mut table = AtomTable::new();
        let a1 = table.intern(Atom::Bool(Name::intern("p")));
        let a2 = table.intern(Atom::Bool(Name::intern("p")));
        let a3 = table.intern(Atom::Bool(Name::intern("q")));
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn lin_atoms_with_same_constraint_are_shared() {
        let mut table = AtomTable::new();
        let c = LinConstraint::le_zero(LinExpr::var(Name::intern("x")));
        let a1 = table.intern(Atom::Lin(c.clone()));
        let a2 = table.intern(Atom::Lin(c));
        assert_eq!(a1, a2);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn literal_negation_is_involutive() {
        let l = Lit::pos(AtomId(3));
        assert_eq!(l.negated().negated(), l);
        assert_ne!(l.negated(), l);
    }

    #[test]
    fn get_returns_interned_atom() {
        let mut table = AtomTable::new();
        let id = table.intern(Atom::Bool(Name::intern("flag")));
        assert_eq!(table.get(id), &Atom::Bool(Name::intern("flag")));
    }

    #[test]
    fn iteration_matches_ids() {
        let mut table = AtomTable::new();
        let id0 = table.intern(Atom::Bool(Name::intern("b0")));
        let id1 = table.intern(Atom::Bool(Name::intern("b1")));
        let ids: Vec<AtomId> = table.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![id0, id1]);
    }
}
