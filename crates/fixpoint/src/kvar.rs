//! Refinement (Horn) variables — the κ variables of §4.2 of the paper.

use flux_logic::{Expr, Name, Sort};

/// Identifier of a refinement variable κ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KVid(pub u32);

impl std::fmt::Display for KVid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Declaration of a refinement variable: the sorts of its arguments.
///
/// By convention the first argument is the "value" being refined (the ν of a
/// liquid type template `{ν : κ(ν, x₁, …, xₙ)}`) and the remaining arguments
/// are program variables in scope at the point the template was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KVarDecl {
    /// The variable's identifier.
    pub id: KVid,
    /// Sorts of the arguments.
    pub sorts: Vec<Sort>,
    /// Formal parameter names, precomputed at declaration time: formatting
    /// and interning them per [`KVarApp::instantiate`] call showed up in
    /// profiles of the weakening loop.
    formals: Vec<Name>,
}

impl KVarDecl {
    /// The formal parameter name for argument `i` of this κ variable.
    pub fn formal(&self, i: usize) -> Name {
        self.formals[i]
    }

    /// All formal parameter names, in order.
    pub fn formals(&self) -> &[Name] {
        &self.formals
    }
}

/// The canonical formal-parameter name for argument `i` of `kvid`.
pub fn formal_name(kvid: KVid, i: usize) -> Name {
    Name::intern(&format!("{kvid}#arg{i}"))
}

/// A store of κ declarations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KVarStore {
    decls: Vec<KVarDecl>,
}

impl KVarStore {
    /// Creates an empty store.
    pub fn new() -> KVarStore {
        KVarStore::default()
    }

    /// Declares a fresh κ variable with the given argument sorts.
    pub fn fresh(&mut self, sorts: Vec<Sort>) -> KVid {
        let id = KVid(self.decls.len() as u32);
        let formals = (0..sorts.len()).map(|i| formal_name(id, i)).collect();
        self.decls.push(KVarDecl { id, sorts, formals });
        id
    }

    /// Looks up a declaration.
    pub fn get(&self, id: KVid) -> &KVarDecl {
        &self.decls[id.0 as usize]
    }

    /// Iterates over all declarations.
    pub fn iter(&self) -> impl Iterator<Item = &KVarDecl> {
        self.decls.iter()
    }

    /// Number of declared κ variables.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// True if no κ variables have been declared.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }
}

/// An application of a κ variable to actual arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KVarApp {
    /// Which κ variable.
    pub kvid: KVid,
    /// The actual arguments (refinement expressions).
    pub args: Vec<Expr>,
}

impl KVarApp {
    /// Creates an application.
    pub fn new(kvid: KVid, args: Vec<Expr>) -> KVarApp {
        KVarApp { kvid, args }
    }

    /// Substitutes the κ variable's formal parameters by this application's
    /// actual arguments inside `body` (which is expressed over the formals).
    pub fn instantiate(&self, decl: &KVarDecl, body: &Expr) -> Expr {
        self.instantiate_id(decl, flux_logic::ExprId::intern(body))
            .expr()
    }

    /// [`KVarApp::instantiate`] over the hash-consed DAG: shared subterms of
    /// `body` (candidate conjunctions repeat variables and whole qualifiers)
    /// are processed once per call instead of once per occurrence, and no
    /// tree is rebuilt.
    pub fn instantiate_id(&self, decl: &KVarDecl, body: flux_logic::ExprId) -> flux_logic::ExprId {
        body.subst(&self.arg_subst(decl))
    }

    /// The formal-to-actual substitution of this application.
    pub fn arg_subst(&self, decl: &KVarDecl) -> flux_logic::Subst {
        debug_assert_eq!(decl.id, self.kvid);
        decl.formals()
            .iter()
            .copied()
            .zip(self.args.iter().cloned())
            .collect()
    }
}

impl std::fmt::Display for KVarApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.kvid)?;
        for (i, arg) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{arg}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_kvars_get_sequential_ids() {
        let mut store = KVarStore::new();
        let k0 = store.fresh(vec![Sort::Int]);
        let k1 = store.fresh(vec![Sort::Int, Sort::Int]);
        assert_eq!(k0, KVid(0));
        assert_eq!(k1, KVid(1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(k1).sorts.len(), 2);
    }

    #[test]
    fn formal_names_are_stable_and_distinct() {
        let mut store = KVarStore::new();
        let k = store.fresh(vec![Sort::Int, Sort::Int]);
        let decl = store.get(k);
        assert_eq!(decl.formal(0), decl.formal(0));
        assert_ne!(decl.formal(0), decl.formal(1));
    }

    #[test]
    fn instantiation_substitutes_formals() {
        let mut store = KVarStore::new();
        let k = store.fresh(vec![Sort::Int, Sort::Int]);
        let decl = store.get(k).clone();
        // body: arg0 <= arg1
        let body = Expr::le(Expr::Var(decl.formal(0)), Expr::Var(decl.formal(1)));
        let app = KVarApp::new(k, vec![Expr::var(Name::intern("i")), Expr::int(10)]);
        let out = app.instantiate(&decl, &body);
        assert_eq!(out, Expr::le(Expr::var(Name::intern("i")), Expr::int(10)));
    }

    #[test]
    fn display_forms() {
        let mut store = KVarStore::new();
        let k = store.fresh(vec![Sort::Int]);
        let app = KVarApp::new(k, vec![Expr::int(3)]);
        assert_eq!(format!("{app}"), "k0(3)");
    }
}
