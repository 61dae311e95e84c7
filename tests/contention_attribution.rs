//! Per-solve attribution of shared-cache lock contention and evictions.
//! Solves that run concurrently must each report only the events of their
//! own threads (the solving thread and the workers it spawns), so the
//! per-solve figures sum to at most the movement of the process-global
//! counters over the same window.  A delay-only fault plan makes every CNF
//! shard holder sleep, so contention is certain; small cache caps make
//! evictions certain.
//!
//! The fault plan and the cache caps are process-global, so this file holds
//! a single test.

use flux_fixpoint::{
    global_cache, set_global_cache_capacity, validity_shard_contentions, Constraint, FixConfig,
    FixpointSolver, Guard, KVarApp, KVarStore,
};
use flux_logic::{hcons_contentions, hcons_memo_evictions, set_hcons_memo_capacity};
use flux_logic::{Expr, Name, Sort, SortCtx};
use flux_smt::testing::{clear_fault_plan, install_fault_plan, with_watchdog, FaultPlan};
use flux_smt::{cnf_cache_evictions, cnf_shard_contentions, set_cnf_cache_capacity};
use std::sync::{Arc, Barrier};

const SOLVING_THREADS: usize = 4;
const ROUNDS: usize = 3;

/// Two independent counting loops (two κ components, so a solve at
/// `threads: 2` spawns weakening workers), over names unique to `salt`.
fn system(salt: usize) -> (Constraint, KVarStore) {
    let mut kvars = KVarStore::new();
    let mut loops = Vec::new();
    for part in 0..2 {
        let k = kvars.fresh(vec![Sort::Int, Sort::Int]);
        let n = Name::intern(&format!("ca{salt}_{part}_n"));
        let i = Name::intern(&format!("ca{salt}_{part}_i"));
        let at = |idx: Expr| KVarApp::new(k, vec![idx, Expr::var(n)]);
        loops.push(Constraint::forall(
            n,
            Sort::Int,
            Expr::ge(Expr::var(n), Expr::int(0)),
            Constraint::conj(vec![
                Constraint::kvar(at(Expr::int(0))),
                Constraint::forall(
                    i,
                    Sort::Int,
                    Expr::tt(),
                    Constraint::conj(vec![
                        Constraint::implies(
                            Guard::KVar(at(Expr::var(i))),
                            Constraint::implies(
                                Guard::Pred(Expr::lt(Expr::var(i), Expr::var(n))),
                                Constraint::kvar(at(Expr::var(i) + Expr::int(1))),
                            ),
                        ),
                        Constraint::implies(
                            Guard::KVar(at(Expr::var(i))),
                            Constraint::implies(
                                Guard::Pred(Expr::not(Expr::lt(Expr::var(i), Expr::var(n)))),
                                Constraint::pred(Expr::eq(Expr::var(i), Expr::var(n)), part),
                            ),
                        ),
                    ]),
                ),
            ]),
        ));
    }
    (Constraint::conj(loops), kvars)
}

fn global_contentions() -> u64 {
    validity_shard_contentions() + cnf_shard_contentions() + hcons_contentions()
}

fn global_evictions() -> u64 {
    hcons_memo_evictions() + cnf_cache_evictions() + global_cache().evictions()
}

#[test]
fn concurrent_solves_report_only_their_own_contention_and_evictions() {
    with_watchdog("contention attribution", 600, || {
        set_hcons_memo_capacity(Some(64));
        set_cnf_cache_capacity(Some(64));
        set_global_cache_capacity(Some(32));
        install_fault_plan(FaultPlan {
            seed: 7,
            delay_permille: 1000,
            delay_ms: 1,
            ..FaultPlan::default()
        });
        let contentions_before = global_contentions();
        let evictions_before = global_evictions();
        // Every solving thread starts its first solve together, so the
        // solves overlap.
        let start = Arc::new(Barrier::new(SOLVING_THREADS));
        let workers: Vec<_> = (0..SOLVING_THREADS)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let (mut contention, mut evictions) = (0usize, 0usize);
                    for round in 0..ROUNDS {
                        let (c, kvars) = system(t * ROUNDS + round);
                        let mut solver = FixpointSolver::new(FixConfig {
                            threads: 2,
                            ..FixConfig::default()
                        });
                        assert!(solver.solve(&c, &kvars, &SortCtx::new()).is_safe());
                        contention += solver.stats.shard_contention;
                        evictions += solver.stats.evictions;
                    }
                    (contention, evictions)
                })
            })
            .collect();
        let (mut contention, mut evictions) = (0usize, 0usize);
        for worker in workers {
            let (c, e) = worker.join().expect("solving thread panicked");
            contention += c;
            evictions += e;
        }
        let global_contention = global_contentions() - contentions_before;
        let global_eviction = global_evictions() - evictions_before;
        clear_fault_plan();
        set_hcons_memo_capacity(None);
        set_cnf_cache_capacity(None);
        set_global_cache_capacity(None);

        assert!(
            contention > 0,
            "lock holders sleep under the delay plan, so the solves must contend"
        );
        assert!(
            contention as u64 <= global_contention,
            "per-solve contention sums to {contention}, but only {global_contention} \
             contended acquisitions happened: overlapping solves counted each other's"
        );
        assert!(evictions > 0, "the small caps must force evictions");
        assert!(
            evictions as u64 <= global_eviction,
            "per-solve evictions sum to {evictions}, but only {global_eviction} \
             entries were evicted: overlapping solves counted each other's"
        );
    });
}
