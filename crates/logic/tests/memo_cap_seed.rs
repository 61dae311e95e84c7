//! An explicit hash-consing memo cap survives the `FLUX_CACHE_CAP` seed,
//! even when it is set before anything has touched the table.
//!
//! This is its own test binary with a single test: the seed is read once
//! per process, when the table is created, so the environment must be set
//! before any other code interns an expression.

use flux_logic::{hcons_memo_evictions, set_hcons_memo_capacity, Expr, ExprId, Name};

#[test]
fn an_explicit_memo_cap_set_before_first_use_wins_over_the_environment_seed() {
    std::env::set_var("FLUX_CACHE_CAP", "8");
    set_hcons_memo_capacity(None);
    let x = Expr::var(Name::intern("x"));
    for k in 0..64 {
        ExprId::intern(&Expr::ge(x.clone(), Expr::int(k))).simplified();
    }
    assert_eq!(
        hcons_memo_evictions(),
        0,
        "the FLUX_CACHE_CAP seed overwrote the explicit uncapped setting"
    );
}
