//! `fluxd`: a fault-tolerant verification-as-a-service daemon for the Flux
//! reproduction (PR 9).
//!
//! Batch verification pays the full cold-start price — hash-consing
//! arenas, CNF memos and verdict caches all start empty — on every
//! invocation.  `fluxd` keeps one process alive and routes verification
//! requests through it, so the process-global caches stay warm across
//! requests.  The price of staying alive is that the daemon must survive
//! whatever a request does to it; the design answers with four pillars:
//!
//! 1. **Request isolation** — supervised worker threads, a per-request
//!    [`flux_smt::ResourceBudget`] clamped by a server-side ceiling, and
//!    `catch_unwind` containment: a panicking request yields a structured
//!    `error` response and a fresh worker, never a dead daemon.
//! 2. **Generational cache reclaim** — no cache has a cap, so all stay warm;
//!    the hash-consing node arena is held to a watermark.  When a job leaves
//!    the arena above it and no job is in flight, the daemon flushes the
//!    whole generation — every holder of `ExprId`s together, so no id is
//!    ever reused while something still holds it.
//! 3. **Admission control** — a bounded queue; overload yields a
//!    structured `busy` response with `retry_after_ms`, and `shutdown` or
//!    end-of-input drains in-flight work before a final statistics frame.
//! 4. **Fault-injection coverage** — the `daemon` and `queue` fault sites
//!    plug into [`flux_smt::testing`]'s deterministic fault plans, so the
//!    soak harness can storm a live daemon with panics, delays and
//!    spurious unknowns.
//!
//! See `proto` for the wire format and `server` for the supervision tree.

#![warn(missing_docs)]

pub mod proto;
pub mod server;

pub use proto::{parse_request, read_frame, write_frame, Frame, Request, VerifyRequest};
pub use server::{run, ServerConfig};

/// Installs a panic hook that suppresses the default backtrace spam for
/// *injected* worker faults while forwarding every other panic unchanged.
/// The daemon expects injected panics by the hundreds under a fault plan;
/// a genuine failure must stay visible.
pub fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected worker fault"));
        if !injected {
            prev(info);
        }
    }));
}
