//! A tiny global string interner used for logical variable and function
//! names.
//!
//! Interned names are cheap to copy, hash and compare, which matters because
//! the constraint generator and the solvers create and substitute names very
//! frequently.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned symbol naming a refinement variable, location or
/// uninterpreted function.
///
/// Two [`Name`]s are equal iff they were interned from the same string.
/// Freshly generated names (via [`Name::fresh`]) are guaranteed to be
/// distinct from every previously interned name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(u32);

struct Interner {
    names: Vec<&'static str>,
    table: HashMap<&'static str, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            table: HashMap::new(),
        })
    })
}

static FRESH_COUNTER: AtomicU32 = AtomicU32::new(0);

impl Name {
    /// Interns `s`, returning the canonical [`Name`] for that string.
    pub fn intern(s: &str) -> Name {
        let mut interner = interner().lock().expect("interner poisoned");
        if let Some(&idx) = interner.table.get(s) {
            return Name(idx);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let idx = interner.names.len() as u32;
        interner.names.push(leaked);
        interner.table.insert(leaked, idx);
        Name(idx)
    }

    /// Returns a name, based on `prefix`, that has never been returned by
    /// any previous call to [`Name::intern`] or [`Name::fresh`].
    ///
    /// The generated name contains a `%` character, which the surface
    /// language lexer rejects in identifiers, so fresh names can never be
    /// captured by user-written programs.
    ///
    /// The name depends on a process-global counter, so it differs between
    /// otherwise identical runs.  Names that reach the validity cache's or
    /// the obligation memo's keys come from a [`NameSupply`] instead; the
    /// remaining callers are the solver's preprocessing (`$div`, `$mod`,
    /// `${f}`) and quantifier instantiation (`$sk_`, `$quant`).
    pub fn fresh(prefix: &str) -> Name {
        loop {
            let n = FRESH_COUNTER.fetch_add(1, Ordering::Relaxed);
            let candidate = format!("{prefix}%{n}");
            let mut interner = interner().lock().expect("interner poisoned");
            if interner.table.contains_key(candidate.as_str()) {
                continue;
            }
            let leaked: &'static str = Box::leak(candidate.into_boxed_str());
            let idx = interner.names.len() as u32;
            interner.names.push(leaked);
            interner.table.insert(leaked, idx);
            return Name(idx);
        }
    }

    /// Returns the string this name was interned from.
    pub fn as_str(self) -> &'static str {
        let interner = interner().lock().expect("interner poisoned");
        interner.names[self.0 as usize]
    }
}

/// A deterministic supply of binder names, owned by value by whatever
/// generates one function body's constraint or obligations, or desugars one
/// signature.
///
/// [`NameSupply::fresh`] returns `{base}%{tag}{k}`: `base` is the hint up to
/// its first `%`, `tag` is `b` for body names and `s` for signature names,
/// and `k` counts this supply's names from 0.  A name therefore depends only
/// on the calls made to its own supply, so the same function yields the same
/// names — and the same hash-consed ids — in every run, request and process.
///
/// Names are unique within one supply.  They never equal a user identifier
/// (identifiers cannot contain `%`) or a [`Name::fresh`] result
/// (`{prefix}%{digits}`), and body and signature names never equal each
/// other.
#[derive(Debug)]
pub struct NameSupply {
    tag: char,
    next: u32,
}

impl NameSupply {
    /// The supply for the binders opened while checking one function body
    /// (by the checker or the program-logic baseline).
    pub fn body() -> NameSupply {
        NameSupply { tag: 'b', next: 0 }
    }

    /// The supply for the binders of one desugared signature.
    pub fn signature() -> NameSupply {
        NameSupply { tag: 's', next: 0 }
    }

    /// The next name of this supply, based on `hint`.
    pub fn fresh(&mut self, hint: &str) -> Name {
        let name = Name::intern(&format!("{}%{}{}", base(hint), self.tag, self.next));
        self.next += 1;
        name
    }
}

/// `hint` up to its first `%`: the user-facing part of a generated name.
pub(crate) fn base(hint: &str) -> &str {
    hint.split_once('%').map_or(hint, |(base, _)| base)
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn interning_is_idempotent() {
        let a = Name::intern("alpha");
        let b = Name::intern("alpha");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "alpha");
    }

    #[test]
    fn distinct_strings_get_distinct_names() {
        assert_ne!(Name::intern("x"), Name::intern("y"));
    }

    #[test]
    fn fresh_names_are_unique() {
        let names: HashSet<Name> = (0..100).map(|_| Name::fresh("k")).collect();
        assert_eq!(names.len(), 100);
    }

    #[test]
    fn fresh_names_do_not_collide_with_interned() {
        let f = Name::fresh("v");
        let again = Name::intern(f.as_str());
        // Interning the printed form of a fresh name yields the same name,
        // not a new one.
        assert_eq!(f, again);
        let other = Name::fresh("v");
        assert_ne!(f, other);
    }

    #[test]
    fn supplies_count_from_zero_and_strip_old_suffixes() {
        let mut body = NameSupply::body();
        assert_eq!(body.fresh("v0%s3").as_str(), "v0%b0");
        assert_eq!(body.fresh("t0").as_str(), "t0%b1");
        assert_eq!(NameSupply::body().fresh("v0%s3"), Name::intern("v0%b0"));
        assert_eq!(NameSupply::signature().fresh("v0").as_str(), "v0%s0");
    }

    #[test]
    fn display_and_debug_agree() {
        let n = Name::intern("len");
        assert_eq!(format!("{n}"), format!("{n:?}"));
    }

    #[test]
    fn from_str_conversion() {
        let n: Name = "converted".into();
        assert_eq!(n, Name::intern("converted"));
    }
}
