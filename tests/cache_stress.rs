//! Concurrency stress tests for the process-global shared state that
//! concurrent solves (the function fan-out, `fluxd`'s request workers) lean
//! on: the hash-cons table in `flux-logic`, the CNF/preprocessing cache
//! inside `flux-smt` sessions, and the global verdict cache in
//! `flux-fixpoint`.
//!
//! Every phase runs under a watchdog (`mpsc::recv_timeout`): a deadlock —
//! e.g. a lock-ordering mistake between the hcons table and the CNF cache —
//! fails the test in bounded time instead of hanging the suite.

use flux_fixpoint::{
    global_cache, intern_fn_ctx, next_epoch, next_owner, Constraint, FixpointSolver, Guard,
    KVarApp, KVarStore, QueryKey,
};
use flux_logic::{Expr, ExprId, Name, Sort, SortCtx};
use flux_smt::{Session, SmtConfig, Validity};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const WORKERS: usize = 8;
/// The whole binary takes ~85 s in debug on a 1-core box (the tests share
/// the core, so one test's wall-clock can approach that figure).  The
/// watchdog exists to catch *deadlocks* — which hang forever — not slow CI
/// runners, so the deadline is an order of magnitude above the measured
/// worst case; it should only ever fire on a genuine hang.
const DEADLINE: Duration = Duration::from_secs(900);

/// Runs `work` on a detached thread and fails the calling test if it
/// neither finishes nor panics within the deadline (a hung worker leaks,
/// but the suite keeps running and reports the failure).
fn with_deadline<F>(what: &str, work: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        work();
        tx.send(()).ok();
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(()) => {
            handle.join().expect("worker panicked after completing");
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The worker died without reporting: propagate its panic.
            handle
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            panic!("{what}: worker disconnected without finishing");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: exceeded {DEADLINE:?} — deadlock suspected");
        }
    }
}

/// N threads interning overlapping expression families concurrently: ids
/// must be identical across threads (structural equality ⟺ id equality is a
/// global invariant, not a per-thread one) and stable against re-interning.
#[test]
fn hcons_interning_is_stable_under_contention() {
    with_deadline("hcons stress", || {
        // Lock-hold audit: the interner keeps a single global mutex (id
        // stability forbids sharding it), so the storm doubles as its
        // convoying probe.  The counter is process-global and monotone;
        // on a single-core host the threads rarely overlap, so only
        // monotonicity — not growth — can be asserted portably.
        let contentions_before = flux_logic::hcons_contentions();
        let exprs = || -> Vec<Expr> {
            (0..200)
                .map(|i| {
                    let x = Expr::var(Name::intern(&format!("cs_x{}", i % 17)));
                    let bound = Expr::int(i % 23);
                    Expr::and(
                        Expr::ge(x.clone(), bound.clone()),
                        Expr::lt(x + Expr::int(1), bound + Expr::int(40)),
                    )
                })
                .collect()
        };
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                thread::spawn(move || {
                    exprs()
                        .iter()
                        .map(|e| {
                            let id = ExprId::intern(e);
                            // Round-trip under contention: the id must
                            // rebuild the same tree and re-intern to itself.
                            assert_eq!(&id.expr(), e);
                            assert_eq!(ExprId::intern(e), id);
                            id
                        })
                        .collect::<Vec<ExprId>>()
                })
            })
            .collect();
        let all: Vec<Vec<ExprId>> = handles
            .into_iter()
            .map(|h| h.join().expect("interning worker panicked"))
            .collect();
        for ids in &all[1..] {
            assert_eq!(
                ids, &all[0],
                "threads interned the same expressions to different ids"
            );
        }
        // Ids remain stable after the storm.
        let after: Vec<ExprId> = exprs().iter().map(ExprId::intern).collect();
        assert_eq!(after, all[0]);
        let contended = flux_logic::hcons_contentions() - contentions_before;
        println!("hcons table contentions during storm: {contended}");
    });
}

/// N threads hammering the global verdict cache with overlapping keys:
/// inserts never deadlock, a key once inserted always reads back its own
/// verdict (idempotent overwrites — every writer stores the same
/// deterministic verdict per key, and the verdicts differ between keys, so
/// a shard answering with another key's verdict shows), and epoch/owner
/// stamps classify hits correctly afterwards.
#[test]
fn global_verdict_cache_survives_overlapping_writers() {
    with_deadline("verdict cache stress", || {
        // The verdict cache is lock-striped: eight writers over 40 keys
        // spread across the shards, and the shard mutexes count the times a
        // caller found its shard held.  Monotone, process-global.
        let contentions_before = global_cache().contentions();
        let fns = intern_fn_ctx(&SortCtx::new());
        let key_of = move |j: usize| {
            let x = Name::intern("cs_vc_x");
            QueryKey::new(
                fns,
                [(x, Sort::Int)].into_iter().collect(),
                [ExprId::intern(&Expr::ge(Expr::var(x), Expr::int(0)))]
                    .into_iter()
                    .collect(),
                ExprId::intern(&Expr::ge(Expr::var(x), Expr::int(j as i128 - 20))),
            )
        };
        // `x ≥ 0 ⊢ x ≥ j − 20` holds exactly when `j ≤ 20`.
        let verdict_of = |j: usize| {
            if j <= 20 {
                Validity::Valid
            } else {
                Validity::Invalid(None)
            }
        };
        let handles: Vec<_> = (0..WORKERS)
            .map(|worker| {
                thread::spawn(move || {
                    let owner = next_owner();
                    for round in 0..50 {
                        let epoch = next_epoch();
                        for j in 0..40 {
                            let j = (worker + round + j) % 40;
                            let key = key_of(j);
                            global_cache().insert(key.clone(), verdict_of(j), epoch, owner);
                            let entry = global_cache()
                                .lookup(&key)
                                .expect("inserted key must be readable");
                            assert_eq!(
                                entry.verdict,
                                verdict_of(j),
                                "a cached verdict was torn or replaced by another key's (j = {j})"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("cache worker panicked");
        }
        // Epoch/owner classification on a quiet cache: an entry stamped by
        // one owner at one epoch reads back exactly those stamps.
        let key = key_of(41);
        let (owner, epoch) = (next_owner(), next_epoch());
        global_cache().insert(key.clone(), verdict_of(41), epoch, owner);
        let entry = global_cache().lookup(&key).expect("entry just inserted");
        assert_eq!(entry.owner, owner);
        assert_eq!(entry.epoch, epoch);
        let contended = global_cache().contentions() - contentions_before;
        println!("validity shard contentions during storm: {contended}");
    });
}

/// N threads opening sessions over overlapping hypothesis vocabularies —
/// the path that exercises the shared CNF/preprocessing cache and atom
/// table — must all get correct verdicts, concurrently and afterwards.
#[test]
fn cnf_cache_sessions_agree_under_contention() {
    with_deadline("CNF cache stress", || {
        let contentions_before = flux_smt::cnf_shard_contentions();
        let check_family = |salt: usize| {
            let x = Expr::var(Name::intern("cs_sess_x"));
            let n = Expr::var(Name::intern("cs_sess_n"));
            let mut ctx = SortCtx::new();
            ctx.push(Name::intern("cs_sess_x"), Sort::Int);
            ctx.push(Name::intern("cs_sess_n"), Sort::Int);
            // Overlapping conjunct vocabulary across threads: every session
            // re-encodes the same hypotheses through the global cache.
            let hyps = vec![
                Expr::ge(x.clone(), Expr::int(0)),
                Expr::lt(x.clone(), n.clone()),
                Expr::ge(n.clone(), Expr::int((salt % 3) as i128)),
            ];
            let mut session = Session::assume(SmtConfig::default(), &ctx, &hyps);
            assert!(
                session
                    .check(&Expr::le(x.clone() + Expr::int(1), n.clone()))
                    .is_valid(),
                "valid implication rejected under contention"
            );
            assert!(
                !session.check(&Expr::ge(x.clone(), Expr::int(1))).is_valid(),
                "invalid implication accepted under contention"
            );
        };
        let handles: Vec<_> = (0..WORKERS)
            .map(|worker| {
                thread::spawn(move || {
                    for round in 0..25 {
                        check_family(worker + round);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("session worker panicked");
        }
        // And once more on the warmed cache from this thread.
        check_family(0);
        let contended = flux_smt::cnf_shard_contentions() - contentions_before;
        println!("CNF cache contentions during storm: {contended}");
    });
}

/// N full fixpoint solvers racing on the *same* constraint system: all
/// reach the same result.  Afterwards a fresh solver replays the whole
/// result from the solve memo, and a fresh solver of the system with one
/// more concrete clause (a different memo key) runs the weakening loop
/// again, its shared queries answered by the global cache as
/// cross-benchmark hits.
#[test]
fn racing_solvers_agree_and_seed_xbench_replays() {
    with_deadline("racing solvers", || {
        fn system(extra: Option<Constraint>) -> (Constraint, KVarStore) {
            let mut kvars = KVarStore::new();
            let k = kvars.fresh(vec![Sort::Int]);
            let x = Name::intern("cs_race_x");
            let mut clauses = vec![
                Constraint::kvar(KVarApp::new(k, vec![Expr::var(x)])),
                Constraint::implies(
                    Guard::KVar(KVarApp::new(k, vec![Expr::var(x)])),
                    Constraint::pred(Expr::gt(Expr::var(x), Expr::int(0)), 0),
                ),
            ];
            clauses.extend(extra);
            let c = Constraint::forall(
                x,
                Sort::Int,
                Expr::ge(Expr::var(x), Expr::int(5)),
                Constraint::conj(clauses),
            );
            (c, kvars)
        }
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                thread::spawn(|| {
                    let (c, kvars) = system(None);
                    FixpointSolver::with_defaults().solve(&c, &kvars, &SortCtx::new())
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("racing solver panicked"))
            .collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "racing solvers disagreed");
        }
        assert!(results[0].is_safe());
        // The storm left its result in the solve memo: a fresh solver
        // replays it without a query.
        let (c, kvars) = system(None);
        let mut fresh = FixpointSolver::with_defaults();
        assert_eq!(fresh.solve(&c, &kvars, &SortCtx::new()), results[0]);
        let s = fresh.stats;
        assert_eq!(
            (s.replays, s.smt_queries, s.cache_misses, s.sessions),
            (1, 0, 0, 0),
            "the fresh solve must replay the stored result, stats: {s:?}"
        );
        // The storm also left every verdict in the global cache: a fresh
        // solver of an overlapping system asks the same queries and — its
        // owner id being distinct from all the racers' — classifies the
        // hits as cross-benchmark.
        let x = Expr::var(Name::intern("cs_race_x"));
        let (wider, kvars) = system(Some(Constraint::pred(
            Expr::ge(x.clone() + x, Expr::int(10)),
            1,
        )));
        let mut overlapping = FixpointSolver::with_defaults();
        assert!(overlapping.solve(&wider, &kvars, &SortCtx::new()).is_safe());
        assert_eq!(overlapping.stats.replays, 0);
        assert!(
            overlapping.stats.xbench_hits > 0,
            "replayed hits must classify as cross-benchmark, stats: {:?}",
            overlapping.stats
        );
    });
}
