//! Small process-wide utilities shared across the workspace: the
//! [`counters!`](crate::counters) registry macro, poison-tolerant mutex
//! locking, per-thread tallies of shared-cache events, warn-and-default
//! environment-variable parsing, and the message of a caught panic.
//!
//! They exist because the workspace keeps *process-global* state (the
//! hash-cons table here, the CNF/atom caches in `flux-smt`, the verdict
//! cache in `flux-fixpoint`) behind mutexes, and reads tuning knobs from the
//! environment in several crates.  Historically each site hand-rolled its
//! own recovery/parsing; this module is the single copy.

use std::cell::Cell;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Declares a struct of event counters once and generates everything that
/// walks them.  Each field is a documented `pub usize` counter; the struct
/// derives `Clone, Copy, Debug, Default, PartialEq, Eq` and gains
///
/// * `absorb(&mut self, other: Self)`: counter-by-counter sum, to fold a
///   worker's, session's or function's counters into a total;
/// * `since(&self, earlier: Self) -> Self`: counter-by-counter difference,
///   to attribute monotone counters to the work done since a snapshot;
/// * `counters(&self)` and `counters_mut(&mut self)`: every counter's name
///   and value, in declaration order, for renderers and serializers.
///
/// The fields stay ordinary named fields, so `stats.pivots` reads and
/// struct literals work as on a hand-written struct, while totals, diffs
/// and JSON loop over the registry instead of listing every field again.
///
/// ```
/// flux_logic::counters! {
///     /// Work done by a toy engine.
///     pub struct Work {
///         /// Steps taken.
///         pub steps: usize,
///         /// Restarts.
///         pub restarts: usize,
///     }
/// }
///
/// let mut total = Work { steps: 3, restarts: 1 };
/// total.absorb(Work { steps: 2, restarts: 0 });
/// assert_eq!(total.since(Work { steps: 1, restarts: 1 }), Work { steps: 4, restarts: 0 });
/// let walk: Vec<_> = total.counters().collect();
/// assert_eq!(walk, [("steps", 5), ("restarts", 1)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_attr:meta])*
                pub $field:ident: usize,
            )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[$field_attr])*
                pub $field: usize,
            )*
        }

        impl $name {
            /// Adds `other` into `self`, counter by counter.
            pub fn absorb(&mut self, other: Self) {
                $(self.$field += other.$field;)*
            }

            /// Counter-by-counter difference `self - earlier`: the events
            /// counted since the `earlier` snapshot of the same counters.
            pub fn since(&self, earlier: Self) -> Self {
                Self {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            /// Every counter's name and value, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, usize)> {
                [$((stringify!($field), self.$field)),*].into_iter()
            }

            /// Every counter's name and value slot, in declaration order.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut usize)> {
                [$((stringify!($field), &mut self.$field)),*].into_iter()
            }
        }
    };
}

crate::counters! {
    /// Shared-cache events caused by one thread: contended acquisitions of
    /// each process-global cache lock.  Every event is also counted in its
    /// lock's process-global counter; the per-thread copy lets a solve attribute to itself exactly
    /// the events of the thread it ran on, which differencing the global
    /// counters cannot do while other solves overlap.
    pub struct ThreadTally {
        /// Acquisitions of the hash-consing table lock that found it held
        /// by another thread.
        pub hcons_contentions: usize,
        /// Acquisitions of the CNF cache lock that found it held by another
        /// thread.
        pub cnf_contentions: usize,
        /// Acquisitions of a validity-cache shard lock that found it held
        /// by another thread.
        pub validity_contentions: usize,
    }
}

thread_local! {
    static TALLY: Cell<ThreadTally> = Cell::new(ThreadTally::default());
}

fn bump_tally(update: impl FnOnce(&mut ThreadTally)) {
    TALLY.with(|cell| {
        let mut tally = cell.get();
        update(&mut tally);
        cell.set(tally);
    });
}

/// The calling thread's cumulative [`ThreadTally`].  Monotone; callers
/// attribute events to a span of work by differencing two snapshots.
pub fn thread_tally() -> ThreadTally {
    TALLY.with(Cell::get)
}

/// Locks `mutex` like [`lock_recover`]; when another thread holds it, the
/// acquisition is counted in `contentions` (the lock's process-global
/// counter) and in the calling thread's [`ThreadTally`], in the field that
/// `tally` selects for this lock, before blocking.
pub fn lock_counted<'a, T>(
    mutex: &'a Mutex<T>,
    contentions: &AtomicU64,
    tally: fn(&mut ThreadTally) -> &mut usize,
) -> MutexGuard<'a, T> {
    match mutex.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::WouldBlock) => {
            contentions.fetch_add(1, Ordering::Relaxed);
            bump_tally(|t| *tally(t) += 1);
            lock_recover(mutex)
        }
        Err(TryLockError::Poisoned(_)) => lock_recover(mutex),
    }
}

/// Locks `mutex`, recovering from poisoning instead of propagating it.
///
/// Every process-global cache in the workspace memoizes *deterministic*
/// results behind its mutex (hash-cons ids, CNF conversions, validity
/// verdicts), so no torn state is observable through their APIs even when a
/// holder panicked mid-update: the worst case is a missing or duplicate memo
/// entry, which only costs recomputation.  Recovering here keeps one
/// panicked worker (e.g. a failed assertion on an unrelated test thread)
/// from cascading into every later solve in the process.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The message of a `catch_unwind` payload: the text of a `panic!` with a
/// string or a formatted message, or a fixed note for any other payload.
/// Pass the payload as `payload.as_ref()`: `&payload` would coerce the
/// `Box` itself to `dyn Any`, and no downcast would match.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Reads the environment variable `name` and parses it as `T`, warning on
/// stderr and returning `default` when the value is present but malformed.
/// An unset or empty variable silently returns `default`.
///
/// This is the `FLUX_THREADS` warn-and-default pattern, factored out so
/// every knob (`FLUX_THREADS`, `FLUX_DEADLINE_MS`, `FLUXD_*`) behaves
/// identically.  Callers that want read-once semantics keep their
/// own `OnceLock` around this.
pub fn env_parse<T: FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(raw) => {
            let raw = raw.trim();
            if raw.is_empty() {
                return default;
            }
            match raw.parse() {
                Ok(value) => value,
                Err(_) => {
                    eprintln!("warning: ignoring unparseable {name}={raw:?}");
                    default
                }
            }
        }
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_returns_data_after_poison() {
        let mutex = Mutex::new(7usize);
        // Poison the mutex by panicking while holding the guard.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().unwrap();
            panic!("poison");
        }));
        assert!(result.is_err());
        assert!(mutex.is_poisoned());
        assert_eq!(*lock_recover(&mutex), 7);
    }

    #[test]
    fn panic_message_reads_string_payloads() {
        let payload = |f: fn()| std::panic::catch_unwind(f).expect_err("the closure panics");
        assert_eq!(panic_message(payload(|| panic!("plain")).as_ref()), "plain");
        assert_eq!(
            panic_message(payload(|| panic!("formatted {}", 7)).as_ref()),
            "formatted 7"
        );
        assert_eq!(
            panic_message(payload(|| std::panic::panic_any(7)).as_ref()),
            "non-string panic payload"
        );
    }

    #[test]
    fn env_parse_handles_unset_malformed_and_valid() {
        // Unset: silently the default.
        std::env::remove_var("FLUX_UTIL_TEST_UNSET");
        assert_eq!(env_parse("FLUX_UTIL_TEST_UNSET", 5usize), 5);
        // Malformed: warn-and-default.
        std::env::set_var("FLUX_UTIL_TEST_BAD", "not-a-number");
        assert_eq!(env_parse("FLUX_UTIL_TEST_BAD", 5usize), 5);
        // Empty counts as unset.
        std::env::set_var("FLUX_UTIL_TEST_EMPTY", "  ");
        assert_eq!(env_parse("FLUX_UTIL_TEST_EMPTY", 5usize), 5);
        // Valid (with surrounding whitespace).
        std::env::set_var("FLUX_UTIL_TEST_OK", " 42 ");
        assert_eq!(env_parse("FLUX_UTIL_TEST_OK", 5usize), 42);
    }
}
