//! A memoized validity cache keyed on hash-consed expression ids, shareable
//! across every solver in the process.
//!
//! Iterative weakening re-asks many implications verbatim: a clause whose
//! guard κs kept their assignment between iterations re-issues exactly the
//! same (hypotheses, goal) queries, and the final concrete-head pass repeats
//! queries already answered during the last weakening iteration.  Because
//! weakening is monotone (candidate sets only shrink), such repeats are the
//! common case, and the solver's verdicts are deterministic — so a verdict,
//! once computed, can be replayed for free.
//!
//! Keys are built from [`ExprId`]s (see [`flux_logic`]'s hash-consing):
//! comparing a candidate query against the cache costs a few `u32`
//! comparisons instead of deep tree equality, and interning the hypotheses
//! once per clause amortises the key cost over every goal of that clause.
//! The hash-cons table is append-only within a generation, so an `ExprId`
//! means the same expression until a generation flush clears this cache
//! together with the table (see `flux_logic::write_generation`) — which is
//! what makes one **process-global** cache sound: verdicts computed while
//! verifying one benchmark can be replayed for any later benchmark, program
//! or long-lived caller in the same process (see [`global_cache`]).  Keys
//! additionally carry an interned fingerprint of the uninterpreted-function
//! declaration context ([`FnCtxId`]), because the same expression can be
//! interpreted differently under different function signatures; the
//! historical design instead cleared a per-solver cache whenever the base
//! context changed, which is exactly the sharing this cache exists to keep.
//!
//! Entries are stamped with the global solve *epoch* and the *owner*
//! (solver instance) that created them, so a hit can be attributed: a
//! replay within one solve, a cross-function replay (same solver, earlier
//! solve), or a cross-benchmark replay (different solver entirely).

use flux_logic::{
    env_parse, lock_counted, lock_recover, tally_evictions, ExprId, Name, Sort, SortCtx,
};
use flux_smt::Validity;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Interned identifier of an uninterpreted-function declaration context.
///
/// Two sort contexts with the same function signatures (names, argument
/// sorts, results, in order) get the same id, so equality of ids is
/// equality of everything that can change how a cached query would be
/// interpreted beyond its binders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FnCtxId(u32);

/// One uninterpreted-function signature: name, argument sorts, result.
type FnSig = (Name, Vec<Sort>, Sort);

/// Interns the function-declaration part of `ctx`.
pub fn intern_fn_ctx(ctx: &SortCtx) -> FnCtxId {
    static TABLE: OnceLock<Mutex<HashMap<Vec<FnSig>, u32>>> = OnceLock::new();
    let sig: Vec<FnSig> = ctx
        .functions()
        .map(|(name, args, ret)| (name, args.to_vec(), ret))
        .collect();
    let mut table = lock_recover(TABLE.get_or_init(|| Mutex::new(HashMap::new())));
    let next = table.len() as u32;
    FnCtxId(*table.entry(sig).or_insert(next))
}

/// Cache key: the clause's binder context plus hash-consed ids of the
/// hypotheses and the goal, under an interned function-declaration context.
///
/// The binder list is part of the key because the same names can be bound at
/// different sorts in different clauses, which changes how the solver
/// interprets the (otherwise identical) expressions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    fns: FnCtxId,
    ctx: Arc<[(Name, Sort)]>,
    hyps: Arc<[ExprId]>,
    goal: ExprId,
}

impl QueryKey {
    /// Builds a key.  `fns` is shared per solve, `ctx` and `hyps` per
    /// clause; only `goal` varies between the candidate queries of one
    /// clause.
    pub fn new(
        fns: FnCtxId,
        ctx: Arc<[(Name, Sort)]>,
        hyps: Arc<[ExprId]>,
        goal: ExprId,
    ) -> QueryKey {
        QueryKey {
            fns,
            ctx,
            hyps,
            goal,
        }
    }
}

/// One cached verdict, stamped with the solve epoch and solver instance
/// that computed it.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// The memoized verdict.
    pub verdict: Validity,
    /// The global solve epoch (see [`next_epoch`]) during which the entry
    /// was inserted.
    pub epoch: u64,
    /// The solver instance (see [`next_owner`]) that inserted it.
    pub owner: u64,
}

/// The memoized validity cache, optionally capacity-bounded with LRU
/// eviction: a lookup hit refreshes the entry's recency, so a verdict that
/// keeps paying for itself — a library obligation re-proved by every request
/// of a long-running service — survives arbitrarily many cold insertions at
/// the same cap, where the historical FIFO policy would age it out purely by
/// insertion order.  Evicting is always *safe*: a dropped verdict is merely
/// recomputed on the next miss.
#[derive(Debug, Default)]
pub struct ValidityCache {
    map: HashMap<QueryKey, Slot>,
    /// Keys ordered by recency stamp (oldest first); each key appears
    /// exactly once, at its slot's current stamp.
    order: BTreeMap<u64, QueryKey>,
    /// Monotone recency clock; bumped on every insert *and* every hit.
    tick: u64,
    /// Maximum number of entries (`None` = unlimited).
    cap: Option<usize>,
    /// Entries evicted so far.
    evictions: u64,
}

/// One resident entry plus its position in the recency order.
#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    stamp: u64,
}

impl ValidityCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> ValidityCache {
        ValidityCache::default()
    }

    /// Creates an empty cache holding at most `cap` entries.
    pub fn with_capacity_limit(cap: usize) -> ValidityCache {
        ValidityCache {
            cap: Some(cap),
            ..ValidityCache::default()
        }
    }

    /// Re-caps the cache (`None` = unlimited), evicting immediately if the
    /// current contents exceed the new cap.
    pub fn set_capacity(&mut self, cap: Option<usize>) {
        self.cap = cap;
        self.evict_over_cap();
    }

    /// The current capacity limit, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.cap
    }

    /// Number of entries evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Returns the cached entry for `key`, if any, refreshing its recency:
    /// a hit moves the entry to the young end of the eviction order.
    pub fn lookup(&mut self, key: &QueryKey) -> Option<CacheEntry> {
        let tick = &mut self.tick;
        let order = &mut self.order;
        self.map.get_mut(key).map(|slot| {
            *tick += 1;
            order.remove(&slot.stamp);
            slot.stamp = *tick;
            order.insert(*tick, key.clone());
            slot.entry.clone()
        })
    }

    /// Returns the cached entry for `key` without touching the recency
    /// order (diagnostics; production paths use [`ValidityCache::lookup`]).
    pub fn peek(&self, key: &QueryKey) -> Option<CacheEntry> {
        self.map.get(key).map(|slot| slot.entry.clone())
    }

    /// Records the verdict for `key`, stamped with `epoch` and `owner`,
    /// evicting least-recently-used-first if the cap is exceeded.
    /// Overwriting an existing key also counts as a use.
    pub fn insert(&mut self, key: QueryKey, verdict: Validity, epoch: u64, owner: u64) {
        let entry = CacheEntry {
            verdict,
            epoch,
            owner,
        };
        self.tick += 1;
        let slot = Slot {
            entry,
            stamp: self.tick,
        };
        if let Some(old) = self.map.insert(key.clone(), slot) {
            self.order.remove(&old.stamp);
        }
        self.order.insert(self.tick, key);
        self.evict_over_cap();
    }

    fn evict_over_cap(&mut self) {
        let Some(cap) = self.cap else { return };
        self.trim(cap);
    }

    /// Evicts least-recently-used entries until at most `target` remain —
    /// the generational reclaim hook a long-running service calls between
    /// requests: per-request garbage (entries touched only by one request)
    /// is the coldest tail, while cross-request entries were refreshed by
    /// hits and survive.
    pub fn trim(&mut self, target: usize) {
        while self.map.len() > target {
            let Some((&oldest, _)) = self.order.iter().next() else {
                break;
            };
            let key = self.order.remove(&oldest).expect("stamp was just observed");
            if self.map.remove(&key).is_some() {
                self.evictions += 1;
                tally_evictions(1);
            }
        }
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops all cached verdicts and frees their memory (the eviction
    /// counter survives).
    pub fn clear(&mut self) {
        self.map = HashMap::new();
        self.order.clear();
    }
}

/// Number of lock-striped shards in the process-global validity cache.
///
/// Eight stripes stay because one measured worse.  With every solve on its
/// caller's thread, two comparisons of `VALIDITY_SHARDS = 1` against 8
/// (interleaved 45 s perfbench pairs on 2 vCPUs) each found one workload
/// worse in every pair and the other within noise:
///
/// * daemon-mixed, 4 pairs (seeds 11–14): corpus time 0.285 → 0.312 s, p90
///   latency 115 → 126 ms, throughput 302 → 285 functions/s.  On gen-fanout,
///   validity-lock contentions per fan-out pass rose from 422–743 to
///   4,283–4,879.
/// * gen-fanout, 4 pairs (seeds 11–14): corpus time 0.208 → 0.225 s, p90
///   latency 9.96 → 10.64 ms, throughput 3469 → 3201 functions/s.
///
/// A power of two also keeps every cap the suite uses (32, 512, 8192)
/// dividing evenly across shards.
pub const VALIDITY_SHARDS: usize = 8;

/// The process-global validity cache, lock-striped into
/// [`VALIDITY_SHARDS`] independent [`ValidityCache`] shards selected by
/// key hash.  Each shard has its own mutex, recency order, and slice of
/// the global cap, so concurrent per-function solvers miss each other's
/// locks unless their keys actually collide.  All methods take `&self`;
/// aggregate figures (`len`, `evictions`) are sums over shards and thus
/// only approximate instantaneous global state under concurrency — fine
/// for the diagnostics they feed.
pub struct ShardedValidityCache {
    shards: Box<[Mutex<ValidityCache>]>,
    /// Times a shard lock was observed held by another thread (the caller
    /// then blocked).  A convoying diagnostic, not a correctness signal.
    contentions: AtomicU64,
}

impl ShardedValidityCache {
    /// A fresh sharded cache whose *summed* per-shard capacity realises
    /// `cap` (each shard gets `cap / VALIDITY_SHARDS`, rounded up).  Public
    /// so the workspace-level storm tests can exercise a private instance
    /// without racing the process-global one.
    pub fn with_global_capacity(cap: Option<usize>) -> ShardedValidityCache {
        let per_shard = cap.map(|c| c.div_ceil(VALIDITY_SHARDS));
        let shards = (0..VALIDITY_SHARDS)
            .map(|_| {
                Mutex::new(match per_shard {
                    None => ValidityCache::new(),
                    Some(c) => ValidityCache::with_capacity_limit(c),
                })
            })
            .collect();
        ShardedValidityCache {
            shards,
            contentions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<ValidityCache> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % VALIDITY_SHARDS]
    }

    /// Locks `mutex`, counting the acquisition as contended if another
    /// thread already held it.  Poisoning recovers as in [`lock_recover`]:
    /// the cache memoizes deterministic verdicts, so no torn state is
    /// observable through its API.
    fn acquire<'a>(&self, mutex: &'a Mutex<ValidityCache>) -> MutexGuard<'a, ValidityCache> {
        lock_counted(mutex, &self.contentions, |t| &mut t.validity_contentions)
    }

    /// Returns the cached entry for `key`, refreshing its recency within
    /// its shard.
    pub fn lookup(&self, key: &QueryKey) -> Option<CacheEntry> {
        self.acquire(self.shard(key)).lookup(key)
    }

    /// Returns the cached entry for `key` without touching recency.
    pub fn peek(&self, key: &QueryKey) -> Option<CacheEntry> {
        self.acquire(self.shard(key)).peek(key)
    }

    /// Records the verdict for `key` in its shard, evicting LRU-first if
    /// that shard's cap is exceeded.
    pub fn insert(&self, key: QueryKey, verdict: Validity, epoch: u64, owner: u64) {
        self.acquire(self.shard(&key))
            .insert(key, verdict, epoch, owner);
    }

    /// Re-caps the cache: each shard gets `cap / VALIDITY_SHARDS` rounded
    /// up, so the *global* cap — the sum of shard caps — is the smallest
    /// shardable value ≥ `cap` (equal to `cap` whenever it divides evenly,
    /// as every cap in the suite does).
    pub fn set_capacity(&self, cap: Option<usize>) {
        let per_shard = cap.map(|c| c.div_ceil(VALIDITY_SHARDS));
        for shard in self.shards.iter() {
            self.acquire(shard).set_capacity(per_shard);
        }
    }

    /// The effective global cap: the sum of per-shard caps.
    pub fn capacity(&self) -> Option<usize> {
        let mut total = 0usize;
        for shard in self.shards.iter() {
            total += self.acquire(shard).capacity()?;
        }
        Some(total)
    }

    /// Total entries evicted across all shards over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| self.acquire(shard).evictions())
            .sum()
    }

    /// Times a caller found a shard lock held by another thread.
    pub fn contentions(&self) -> u64 {
        self.contentions.load(Ordering::Relaxed)
    }

    /// Total cached verdicts across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| self.acquire(shard).len())
            .sum()
    }

    /// True if no shard holds any verdict.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|shard| self.acquire(shard).is_empty())
    }

    /// Drops all cached verdicts (eviction counters survive).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            self.acquire(shard).clear();
        }
    }

    /// Evicts LRU-first until at most `target` entries remain globally;
    /// each shard trims to its proportional slice (`target / VALIDITY_SHARDS`
    /// rounded up), so a shard that happens to hold more than its share of
    /// the resident set sheds the excess while cold shards are untouched.
    pub fn trim(&self, target: usize) {
        let per_shard = target.div_ceil(VALIDITY_SHARDS);
        for shard in self.shards.iter() {
            self.acquire(shard).trim(per_shard);
        }
    }
}

/// The process-global validity cache: one sharded map shared by every
/// [`crate::FixpointSolver`] with `global_cache` enabled, so the `table1`
/// harness (and any long-running service) stops re-proving obligations that
/// an earlier benchmark already discharged — and so concurrent per-function
/// solvers don't convoy on a single cache mutex.
pub fn global_cache() -> &'static ShardedValidityCache {
    static CACHE: OnceLock<ShardedValidityCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        let cap = env_parse("FLUX_CACHE_CAP", 0usize);
        ShardedValidityCache::with_global_capacity(match cap {
            0 => None,
            cap => Some(cap),
        })
    })
}

/// Re-caps the process-global validity cache (`None` = unlimited).  The
/// default comes from `FLUX_CACHE_CAP` (unset or 0 = unlimited).  The cap
/// is divided across [`VALIDITY_SHARDS`] shards; the effective global cap
/// is the sum of per-shard caps.
pub fn set_global_cache_capacity(cap: Option<usize>) {
    global_cache().set_capacity(cap);
}

/// Times any caller found a process-global validity-cache shard lock held
/// by another thread, over the process lifetime.  Monotone; callers read
/// deltas (solves attribute their own share through
/// [`flux_logic::thread_tally`]).
pub fn validity_shard_contentions() -> u64 {
    global_cache().contentions()
}

/// Draws the next solve epoch.  Epochs are strictly increasing across all
/// solvers in the process, so `entry.epoch < current` identifies entries
/// created by an earlier solve call regardless of which solver made them.
pub fn next_epoch() -> u64 {
    static EPOCH: AtomicU64 = AtomicU64::new(1);
    EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Draws a fresh solver-instance identifier for hit attribution.
pub fn next_owner() -> u64 {
    static OWNER: AtomicU64 = AtomicU64::new(1);
    OWNER.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_logic::Expr;

    fn key(ctx: &[(Name, Sort)], hyps: &[Expr], goal: &Expr) -> QueryKey {
        QueryKey::new(
            intern_fn_ctx(&SortCtx::new()),
            ctx.iter().copied().collect(),
            hyps.iter().map(ExprId::intern).collect(),
            ExprId::intern(goal),
        )
    }

    #[test]
    fn structurally_equal_queries_share_a_key() {
        let x = Name::intern("x");
        let ctx = [(x, Sort::Int)];
        let hyp = Expr::ge(Expr::var(x), Expr::int(0));
        let goal = Expr::ge(Expr::var(x) + Expr::int(1), Expr::int(1));
        // Rebuilt from scratch: still the same key.
        let hyp2 = Expr::ge(Expr::var(x), Expr::int(0));
        let goal2 = Expr::ge(Expr::var(x) + Expr::int(1), Expr::int(1));
        assert_eq!(key(&ctx, &[hyp.clone()], &goal), key(&ctx, &[hyp2], &goal2));
        // A different goal changes the key.
        assert_ne!(
            key(&ctx, &[hyp.clone()], &goal),
            key(&ctx, &[hyp.clone()], &Expr::tt())
        );
        // A different binder sort changes the key.
        assert_ne!(
            key(&ctx, &[hyp.clone()], &goal),
            key(&[(x, Sort::Bool)], &[hyp], &goal)
        );
    }

    #[test]
    fn function_declarations_change_the_key() {
        let x = Name::intern("fx");
        let ctx = [(x, Sort::Int)];
        let goal = Expr::ge(Expr::var(x), Expr::int(0));
        let base = key(&ctx, &[], &goal);
        let mut declared_ctx = SortCtx::new();
        declared_ctx.declare_fn(Name::intern("mystery"), vec![Sort::Int], Sort::Int);
        let declared = QueryKey::new(
            intern_fn_ctx(&declared_ctx),
            ctx.iter().copied().collect(),
            Arc::from([]),
            ExprId::intern(&goal),
        );
        assert_ne!(
            base, declared,
            "extra function declarations must not collide with the base context"
        );
        // And the same declarations intern to the same id.
        let mut declared_again = SortCtx::new();
        declared_again.declare_fn(Name::intern("mystery"), vec![Sort::Int], Sort::Int);
        assert_eq!(intern_fn_ctx(&declared_ctx), intern_fn_ctx(&declared_again));
    }

    #[test]
    fn lookup_returns_inserted_verdict() {
        let x = Name::intern("cx");
        let ctx = [(x, Sort::Int)];
        let goal = Expr::ge(Expr::var(x), Expr::var(x));
        let k = key(&ctx, &[], &goal);
        let mut cache = ValidityCache::new();
        assert!(cache.lookup(&k).is_none());
        cache.insert(k.clone(), Validity::Valid, 3, 7);
        let entry = cache.lookup(&k).expect("entry was just inserted");
        assert_eq!(entry.verdict, Validity::Valid);
        assert_eq!(entry.epoch, 3);
        assert_eq!(entry.owner, 7);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_cap_holds_size_and_evicts_oldest_first() {
        let x = Name::intern("ex");
        let ctx = [(x, Sort::Int)];
        let goal_n = |n: i128| Expr::ge(Expr::var(x), Expr::int(n));
        let mut cache = ValidityCache::with_capacity_limit(3);
        for n in 0..10 {
            cache.insert(key(&ctx, &[], &goal_n(n)), Validity::Valid, 1, 1);
            assert!(cache.len() <= 3, "cache exceeded its cap at insert {n}");
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 7);
        // Newest entries survive, oldest are gone.
        assert!(cache.lookup(&key(&ctx, &[], &goal_n(9))).is_some());
        assert!(cache.lookup(&key(&ctx, &[], &goal_n(0))).is_none());
        // An evicted key can simply be re-inserted (recompute-on-miss).
        cache.insert(key(&ctx, &[], &goal_n(0)), Validity::Valid, 2, 1);
        assert_eq!(
            cache
                .lookup(&key(&ctx, &[], &goal_n(0)))
                .expect("re-inserted")
                .epoch,
            2
        );
        // Overwriting an existing key neither grows the queue nor evicts.
        let before = cache.evictions();
        cache.insert(key(&ctx, &[], &goal_n(0)), Validity::Unknown, 3, 1);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), before);
        // Tightening the cap evicts immediately.
        cache.set_capacity(Some(1));
        assert_eq!(cache.len(), 1);
        // Lifting it stops eviction entirely.
        cache.set_capacity(None);
        for n in 20..30 {
            cache.insert(key(&ctx, &[], &goal_n(n)), Validity::Valid, 4, 1);
        }
        assert_eq!(cache.len(), 11);
    }

    #[test]
    fn lru_hit_refreshes_recency() {
        let x = Name::intern("lx");
        let ctx = [(x, Sort::Int)];
        let goal_n = |n: i128| Expr::ge(Expr::var(x), Expr::int(n));
        let mut cache = ValidityCache::with_capacity_limit(3);
        for n in 0..3 {
            cache.insert(key(&ctx, &[], &goal_n(n)), Validity::Valid, 1, 1);
        }
        // A storm of cold insertions, with the "hot" entry 0 touched before
        // each one: under LRU the hot entry survives every round, while the
        // untouched entries 1 and 2 age out almost immediately.
        for n in 100..120 {
            assert!(
                cache.lookup(&key(&ctx, &[], &goal_n(0))).is_some(),
                "hot entry evicted at cold insert {n} despite constant hits"
            );
            cache.insert(key(&ctx, &[], &goal_n(n)), Validity::Valid, 1, 1);
        }
        assert!(cache.lookup(&key(&ctx, &[], &goal_n(0))).is_some());
        assert!(cache.lookup(&key(&ctx, &[], &goal_n(1))).is_none());
        assert!(cache.lookup(&key(&ctx, &[], &goal_n(2))).is_none());
        // Tightening the cap evicts the cold tail; the hot entry (refreshed
        // by the lookups above) and the newest insertion survive.
        cache.set_capacity(Some(2));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(&key(&ctx, &[], &goal_n(0))).is_some());
        assert!(cache.peek(&key(&ctx, &[], &goal_n(119))).is_some());
    }

    #[test]
    fn trim_evicts_cold_tail_only() {
        let x = Name::intern("tx");
        let ctx = [(x, Sort::Int)];
        let goal_n = |n: i128| Expr::ge(Expr::var(x), Expr::int(n));
        let mut cache = ValidityCache::new();
        for n in 0..8 {
            cache.insert(key(&ctx, &[], &goal_n(n)), Validity::Valid, 1, 1);
        }
        // Touch 0 and 5: they become the youngest.
        cache.lookup(&key(&ctx, &[], &goal_n(0)));
        cache.lookup(&key(&ctx, &[], &goal_n(5)));
        cache.trim(3);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 5);
        assert!(cache.peek(&key(&ctx, &[], &goal_n(0))).is_some());
        assert!(cache.peek(&key(&ctx, &[], &goal_n(5))).is_some());
        assert!(cache.peek(&key(&ctx, &[], &goal_n(7))).is_some());
        assert!(cache.peek(&key(&ctx, &[], &goal_n(1))).is_none());
    }

    #[test]
    fn sharded_cache_honors_the_summed_shard_cap() {
        let x = Name::intern("shx");
        let ctx = [(x, Sort::Int)];
        let goal_n = |n: i128| Expr::ge(Expr::var(x), Expr::int(n));
        let cache = ShardedValidityCache::with_global_capacity(Some(32));
        assert_eq!(
            cache.capacity(),
            Some(32),
            "32 divides evenly over 8 shards"
        );
        for n in 0..200 {
            cache.insert(key(&ctx, &[], &goal_n(n)), Validity::Valid, 1, 1);
            assert!(
                cache.len() <= 32,
                "global len {} exceeded the summed shard cap at insert {n}",
                cache.len()
            );
        }
        assert!(
            cache.evictions() > 0,
            "a 200-key storm must evict at cap 32"
        );
        // An evicted key recomputes and re-inserts verdict-identically.
        let k = key(&ctx, &[], &goal_n(0));
        assert!(
            cache.lookup(&k).is_none(),
            "key 0 is the coldest; it was evicted"
        );
        cache.insert(k.clone(), Validity::Valid, 2, 1);
        assert_eq!(
            cache.lookup(&k).expect("re-inserted").verdict,
            Validity::Valid
        );
        // trim() reclaims down to (at most shard-rounded) the target.
        cache.trim(8);
        assert!(cache.len() <= 8, "trim(8) left {} entries", cache.len());
        // Re-capping to unlimited stops eviction.
        cache.set_capacity(None);
        assert_eq!(cache.capacity(), None);
        let before = cache.evictions();
        for n in 1000..1100 {
            cache.insert(key(&ctx, &[], &goal_n(n)), Validity::Valid, 3, 1);
        }
        assert_eq!(cache.evictions(), before);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn sharded_cache_spreads_keys_across_shards() {
        let x = Name::intern("spx");
        let ctx = [(x, Sort::Int)];
        let goal_n = |n: i128| Expr::ge(Expr::var(x), Expr::int(n));
        let cache = ShardedValidityCache::with_global_capacity(None);
        for n in 0..256 {
            cache.insert(key(&ctx, &[], &goal_n(n)), Validity::Valid, 1, 1);
        }
        let occupied = cache
            .shards
            .iter()
            .filter(|shard| !lock_recover(shard).is_empty())
            .count();
        assert!(
            occupied > VALIDITY_SHARDS / 2,
            "256 distinct keys landed on only {occupied} of {VALIDITY_SHARDS} shards"
        );
    }

    #[test]
    fn epochs_and_owners_are_strictly_increasing() {
        let e1 = next_epoch();
        let e2 = next_epoch();
        assert!(e2 > e1);
        let o1 = next_owner();
        let o2 = next_owner();
        assert!(o2 > o1);
    }
}
