//! Per-solve attribution of shared-cache lock contention.  Solves that run
//! concurrently must each report only the events of their own thread, so
//! for each lock the per-solve figures sum to at most the movement of that
//! lock's process-global counter over the same window.  A delay-only fault
//! plan makes every CNF cache holder sleep, so CNF contention is certain.
//!
//! The fault plan is process-global, so this file holds a single test.

use flux_fixpoint::{
    validity_shard_contentions, Constraint, FixStats, FixpointSolver, Guard, KVarApp, KVarStore,
};
use flux_logic::hcons_contentions;
use flux_logic::{Expr, Name, Sort, SortCtx};
use flux_smt::cnf_shard_contentions;
use flux_smt::testing::{clear_fault_plan, install_fault_plan, with_watchdog, FaultPlan};
use std::sync::{Arc, Barrier};

const SOLVING_THREADS: usize = 4;
const ROUNDS: usize = 3;

/// Two independent counting loops over names unique to `salt`.
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

/// The process-global event counters, in the order of [`per_solve`]'s
/// figures: contentions on the hcons, CNF and validity locks.
fn globals() -> [u64; 3] {
    [
        hcons_contentions(),
        cnf_shard_contentions(),
        validity_shard_contentions(),
    ]
}

/// The same three events as [`globals`], as solves attributed them to
/// themselves.
fn per_solve(stats: &FixStats) -> [u64; 3] {
    [
        stats.hcons_contentions,
        stats.cnf_contentions,
        stats.validity_contentions,
    ]
    .map(|n| n as u64)
}

const EVENTS: [&str; 3] = [
    "hcons contentions",
    "CNF contentions",
    "validity contentions",
];

#[test]
fn concurrent_solves_report_only_their_own_contention_and_evictions() {
    with_watchdog("contention attribution", 600, || {
        install_fault_plan(FaultPlan {
            seed: 7,
            delay_permille: 1000,
            delay_ms: 1,
            ..FaultPlan::default()
        });
        let before = globals();
        // Every solving thread starts its first solve together, so the
        // solves overlap.
        let start = Arc::new(Barrier::new(SOLVING_THREADS));
        let workers: Vec<_> = (0..SOLVING_THREADS)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut total = FixStats::default();
                    for round in 0..ROUNDS {
                        let (c, kvars) = system(t * ROUNDS + round);
                        let mut solver = FixpointSolver::with_defaults();
                        assert!(solver.solve(&c, &kvars, &SortCtx::new()).is_safe());
                        total.absorb(solver.stats);
                    }
                    total
                })
            })
            .collect();
        let mut total = FixStats::default();
        for worker in workers {
            total.absorb(worker.join().expect("solving thread panicked"));
        }
        let after = globals();
        clear_fault_plan();

        assert!(
            total.cnf_contentions > 0,
            "CNF cache holders sleep under the delay plan, so the solves must contend"
        );
        let attributed = per_solve(&total);
        for (i, event) in EVENTS.iter().enumerate() {
            let global = after[i] - before[i];
            assert!(
                attributed[i] <= global,
                "per-solve {event} sum to {}, but only {global} happened: \
                 overlapping solves counted each other's",
                attributed[i]
            );
        }
    });
}
