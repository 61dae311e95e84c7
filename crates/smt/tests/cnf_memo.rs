//! The process-global CNF cache as a service sees it: reading its figures
//! never reclaims it, and flushing it leaks nothing, because a re-encoded
//! formula re-interns exactly the atoms it interned before.
//!
//! Both tests move the process-global cache (its cap, its contents), so
//! they take one lock and this binary holds nothing else.

use flux_logic::{Expr, Name, Sort, SortCtx};
use flux_smt::{
    cnf_atoms, cnf_cache_evictions, cnf_cache_len, flush_cnf_cache, set_cnf_cache_capacity,
    Session, SmtConfig,
};
use std::sync::Mutex;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|p| p.into_inner())
}

fn v(s: &str) -> Expr {
    Expr::var(Name::intern(s))
}

fn ctx(ints: &[&str], bools: &[&str]) -> SortCtx {
    let mut ctx = SortCtx::new();
    for name in ints {
        ctx.push(Name::intern(name), Sort::Int);
    }
    for name in bools {
        ctx.push(Name::intern(name), Sort::Bool);
    }
    ctx
}

#[test]
fn reading_the_cache_figures_never_flushes_it() {
    let _guard = lock();
    set_cnf_cache_capacity(Some(4));
    let ctx = ctx(&["rd_a", "rd_b", "rd_n"], &[]);
    // One hypothesis of four conjuncts: opening the session memoizes more
    // than four entries within its one lock hold.
    let hyp = Expr::and_all([
        Expr::ge(v("rd_a"), Expr::int(0)),
        Expr::lt(v("rd_a"), v("rd_n")),
        Expr::le(v("rd_b"), v("rd_a")),
        Expr::ge(v("rd_b"), Expr::int(-3)),
    ]);
    let _session = Session::assume(SmtConfig::default(), &ctx, &[hyp]);
    let evictions = cnf_cache_evictions();
    let len = cnf_cache_len();
    assert!(len > 4, "the session should leave the memo past its cap");
    assert_eq!(cnf_cache_len(), len, "a read reclaimed the cache");
    assert_eq!(cnf_cache_evictions(), evictions, "a read evicted entries");
    set_cnf_cache_capacity(None);
}

#[test]
fn flushed_formulas_reencode_to_the_same_atoms_and_clauses() {
    let _guard = lock();
    let ctx = ctx(&["lk_i", "lk_n"], &["lk_p", "lk_q"]);
    let (i, n) = (v("lk_i"), v("lk_n"));
    // Nested ∧/∨/⇒, so the encoding allocates Tseitin definitions.
    let hyps = [
        Expr::imp(
            Expr::and(
                v("lk_p"),
                Expr::or(Expr::lt(i.clone(), n.clone()), v("lk_q")),
            ),
            Expr::ge(i.clone(), Expr::int(0)),
        ),
        Expr::or(
            Expr::and(v("lk_q"), Expr::le(n.clone(), Expr::int(9))),
            Expr::imp(v("lk_p"), Expr::gt(n.clone(), i.clone())),
        ),
    ];
    let goal = Expr::imp(v("lk_p"), Expr::ge(n.clone(), Expr::int(0)));

    let mut first = Session::assume(SmtConfig::default(), &ctx, &hyps);
    let first_verdict = first.check(&goal).is_valid();
    let clauses = first.hypothesis_clauses();
    assert!(!clauses.is_empty());
    let atoms = cnf_atoms();

    assert!(flush_cnf_cache() > 0, "the flush found nothing to drop");
    assert_eq!(cnf_cache_len(), 0);

    let mut second = Session::assume(SmtConfig::default(), &ctx, &hyps);
    assert_eq!(second.check(&goal).is_valid(), first_verdict);
    assert_eq!(
        cnf_atoms(),
        atoms,
        "re-encoding the flushed formulas grew the atom table"
    );
    assert_eq!(second.hypothesis_clauses(), clauses);
}
