//! Bounded-cache behaviour under contention (PR 8): with tight capacity
//! caps on all three process-global caches — the hash-consing memos in
//! `flux-logic`, the CNF/preprocessing cache in `flux-smt`, and the global
//! verdict cache in `flux-fixpoint` — an 8-thread storm of sessions and
//! full fixpoint solves must stay *correct*, the caches must hold their
//! caps at steady state, the eviction counters must actually move, and
//! evicted entries must recompute to the same verdicts.
//!
//! The caps are process-global, so the storm lives in a single test; the
//! LRU-policy and shard-storm tests below use private cache instances and
//! can run alongside it.

use flux_fixpoint::{
    global_cache, set_global_cache_capacity, Constraint, FixConfig, FixpointSolver, Guard, KVarApp,
    KVarStore,
};
use flux_logic::{
    hcons_memo_evictions, hcons_memo_high_watermark, set_hcons_memo_capacity, Expr, Name, Sort,
    SortCtx,
};
use flux_smt::testing::with_watchdog;
use flux_smt::{cnf_cache_evictions, cnf_cache_len, set_cnf_cache_capacity, Session, SmtConfig};
use std::thread;

const WORKERS: usize = 8;
const HCONS_CAP: usize = 256;
const CNF_CAP: usize = 64;
const VERDICT_CAP: usize = 32;

/// A session over a vocabulary unique to `salt`: distinct names defeat all
/// three caches, forcing growth (and therefore eviction) instead of hits.
fn check_family(salt: usize) {
    let xn = format!("cb_x{salt}");
    let nn = format!("cb_n{salt}");
    let x = Expr::var(Name::intern(&xn));
    let n = Expr::var(Name::intern(&nn));
    let mut ctx = SortCtx::new();
    ctx.push(Name::intern(&xn), Sort::Int);
    ctx.push(Name::intern(&nn), Sort::Int);
    let hyps = vec![
        Expr::ge(x.clone(), Expr::int(0)),
        Expr::lt(x.clone(), n.clone()),
    ];
    let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
    assert!(
        session
            .check(&Expr::le(x.clone() + Expr::int(1), n.clone()))
            .is_valid(),
        "valid implication rejected with bounded caches (salt {salt})"
    );
    assert!(
        !session.check(&Expr::ge(x.clone(), Expr::int(1))).is_valid(),
        "invalid implication accepted with bounded caches (salt {salt})"
    );
}

/// A one-κ system over a vocabulary unique to `salt`; always safe.
fn solve_family(salt: usize) {
    let mut kvars = KVarStore::new();
    let k = kvars.fresh(vec![Sort::Int]);
    let x = Name::intern(&format!("cb_s{salt}"));
    let c = Constraint::forall(
        x,
        Sort::Int,
        Expr::ge(Expr::var(x), Expr::int(salt as i128 % 7)),
        Constraint::conj(vec![
            Constraint::kvar(KVarApp::new(k, vec![Expr::var(x)])),
            Constraint::implies(
                Guard::KVar(KVarApp::new(k, vec![Expr::var(x)])),
                Constraint::pred(Expr::ge(Expr::var(x), Expr::int(salt as i128 % 7)), 0),
            ),
        ]),
    );
    let mut solver = FixpointSolver::new(FixConfig::default());
    assert!(
        solver.solve(&c, &kvars, &SortCtx::new()).is_safe(),
        "safe system failed with bounded caches (salt {salt})"
    );
}

#[test]
fn bounded_caches_hold_cap_evict_and_stay_correct() {
    with_watchdog("cache bounds", 600, || {
        set_hcons_memo_capacity(Some(HCONS_CAP));
        set_cnf_cache_capacity(Some(CNF_CAP));
        set_global_cache_capacity(Some(VERDICT_CAP));

        let handles: Vec<_> = (0..WORKERS)
            .map(|worker| {
                thread::spawn(move || {
                    for round in 0..20 {
                        check_family(worker * 1000 + round);
                        if round % 4 == 0 {
                            solve_family(worker * 1000 + round);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("storm worker panicked");
        }

        // Every cache actually evicted: the storm's distinct vocabularies
        // overflow each cap many times over.
        assert!(
            hcons_memo_evictions() > 0,
            "hcons memos never hit their cap"
        );
        assert!(cnf_cache_evictions() > 0, "the CNF cache never hit its cap");
        assert!(
            global_cache().evictions() > 0,
            "the verdict cache never hit its cap"
        );
        assert!(
            hcons_memo_high_watermark() > 0,
            "the memo high-watermark never moved"
        );

        // Steady-state size holds the cap.  Reading the CNF cache's length
        // never reclaims it, so the figure may exceed the cap by what the
        // last lock hold added; the next acquisition reclaims, and
        // re-applying the cap is one.  The verdict cache evicts on insert
        // and may never exceed its cap.
        set_cnf_cache_capacity(Some(CNF_CAP));
        assert!(
            cnf_cache_len() <= CNF_CAP,
            "CNF cache len {} exceeds its cap {CNF_CAP}",
            cnf_cache_len()
        );
        assert!(
            global_cache().len() <= VERDICT_CAP,
            "verdict cache len {} exceeds its cap {VERDICT_CAP}",
            global_cache().len()
        );
        // The verdict cache is sharded: the configured figure is the *sum*
        // of the per-shard caps (32 divides evenly across the shards), so
        // the effective global capacity is exactly what was requested.
        assert_eq!(
            global_cache().capacity(),
            Some(VERDICT_CAP),
            "the summed shard caps must reproduce the requested global cap"
        );

        // Evicted entries are recomputable: re-checking families from the
        // start of the storm (long since evicted at these caps) yields the
        // same verdicts.
        for salt in 0..4 {
            check_family(salt);
            solve_family(salt);
        }

        set_hcons_memo_capacity(None);
        set_cnf_cache_capacity(None);
        set_global_cache_capacity(None);
    });
}

/// LRU upgrade (PR 9): a verdict that keeps getting hits — the shape of a
/// shared library obligation re-proved by every request of a long-running
/// service — survives a storm of cold single-use entries at the same cap
/// that would have aged it out under the historical FIFO policy after
/// `cap` insertions, hit or no hit.
#[test]
fn hot_entry_survives_cold_storm_at_the_same_cap() {
    use flux_fixpoint::{next_epoch, next_owner, QueryKey, ValidityCache};
    use flux_logic::ExprId;
    use flux_smt::Validity;

    let x = Name::intern("lru_x");
    let fns = flux_fixpoint::intern_fn_ctx(&SortCtx::new());
    let key_of = |n: i128| {
        QueryKey::new(
            fns,
            [(x, Sort::Int)].into_iter().collect(),
            [ExprId::intern(&Expr::ge(Expr::var(x), Expr::int(0)))]
                .into_iter()
                .collect(),
            ExprId::intern(&Expr::ge(Expr::var(x), Expr::int(n))),
        )
    };
    const CAP: usize = 32;
    let (epoch, owner) = (next_epoch(), next_owner());
    let mut cache = ValidityCache::with_capacity_limit(CAP);
    let hot = key_of(-1);
    cache.insert(hot.clone(), Validity::Valid, epoch, owner);
    // 40 caps' worth of cold entries, the hot key touched once per cold
    // insertion — exactly the daemon's steady state of one warm obligation
    // amid per-request garbage.
    for n in 0..(40 * CAP as i128) {
        assert!(
            cache.lookup(&hot).is_some(),
            "hot entry evicted after {n} cold insertions (cap {CAP})"
        );
        cache.insert(key_of(n), Validity::Valid, epoch, owner);
        assert!(cache.len() <= CAP, "cap violated at cold insertion {n}");
    }
    assert!(cache.lookup(&hot).is_some());
    assert!(
        cache.evictions() > 0,
        "the storm must actually have overflowed the cap"
    );
    // A FIFO would have evicted the hot key during the first cap's worth of
    // cold insertions; under LRU the evicted keys are all cold ones.
    assert!(cache.peek(&key_of(0)).is_none(), "cold entries age out");
}

/// Sharded verdict cache (PR 10): under an 8-thread storm over a *private*
/// sharded instance, the summed length never exceeds the requested global
/// cap (the per-shard caps sum to it), every surviving entry still carries
/// the verdict its key was inserted with (no cross-shard aliasing), and
/// re-deriving an evicted key's verdict reproduces the cached figure
/// exactly.
#[test]
fn sharded_verdict_cache_holds_global_cap_under_thread_storm() {
    use flux_fixpoint::{
        intern_fn_ctx, next_epoch, next_owner, QueryKey, ShardedValidityCache, VALIDITY_SHARDS,
    };
    use flux_logic::ExprId;
    use flux_smt::Validity;

    const CAP: usize = 32;
    assert_eq!(
        CAP % VALIDITY_SHARDS,
        0,
        "pick a cap the shards divide evenly, so the sum is exact"
    );
    let cache = ShardedValidityCache::with_global_capacity(Some(CAP));
    assert_eq!(
        cache.capacity(),
        Some(CAP),
        "the global cap is the sum of the per-shard caps"
    );

    let x = Name::intern("shard_storm_x");
    let fns = intern_fn_ctx(&SortCtx::new());
    let key_of = |n: i128| {
        QueryKey::new(
            fns,
            [(x, Sort::Int)].into_iter().collect(),
            [ExprId::intern(&Expr::ge(Expr::var(x), Expr::int(0)))]
                .into_iter()
                .collect(),
            ExprId::intern(&Expr::ge(Expr::var(x), Expr::int(n))),
        )
    };
    // The verdict is a pure function of the key — `x ≥ 0 ⊢ x ≥ n` holds
    // exactly when `n ≤ 0` — so recomputing after an eviction must
    // reproduce the cached figure bit-for-bit.
    let verdict_of = |n: i128| {
        if n <= 0 {
            Validity::Valid
        } else {
            Validity::Invalid(None)
        }
    };

    let (epoch, owner) = (next_epoch(), next_owner());
    thread::scope(|scope| {
        for worker in 0..WORKERS {
            let (cache, key_of, verdict_of) = (&cache, &key_of, &verdict_of);
            scope.spawn(move || {
                for i in 0..100i128 {
                    let n = worker as i128 * 1000 + i - 50;
                    cache.insert(key_of(n), verdict_of(n), epoch, owner);
                    assert!(
                        cache.len() <= CAP,
                        "summed shard length {} exceeded the global cap {CAP}",
                        cache.len()
                    );
                    if let Some(entry) = cache.lookup(&key_of(n)) {
                        assert_eq!(
                            entry.verdict,
                            verdict_of(n),
                            "a shard returned another key's verdict (n = {n})"
                        );
                    }
                }
            });
        }
    });
    assert!(
        cache.evictions() > 0,
        "an 800-insert storm must overflow a 32-entry cap"
    );
    assert!(cache.len() <= CAP, "cap violated at steady state");
    // Recompute-identical: the storm's earliest keys are long evicted;
    // re-deriving and re-inserting them yields the same verdicts.
    for n in [-50i128, -1, 0, 1, 951] {
        cache.insert(key_of(n), verdict_of(n), epoch, owner);
        assert_eq!(
            cache.lookup(&key_of(n)).expect("just inserted").verdict,
            verdict_of(n),
            "an evicted entry recomputed to a different verdict (n = {n})"
        );
    }
}
