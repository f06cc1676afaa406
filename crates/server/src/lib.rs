//! `datareuse-server` — a zero-dependency TCP serving layer over the
//! exploration engine.
//!
//! The paper's flow is batch: run the tool, read the report. This crate
//! turns the same analytical engine into a long-lived daemon speaking
//! newline-delimited JSON over TCP, so a design-space-exploration GUI,
//! a CI job, or a fleet of scripted clients can share one warm process
//! (and one result cache) instead of paying process startup and
//! recomputation per query.
//!
//! The pieces:
//!
//! - [`protocol`] — the NDJSON request/response grammar (including the
//!   `batch` op), request parsing, and the canonical FNV-1a cache key.
//! - [`ops`] — op execution shared with the CLI subcommands, which is
//!   what makes server responses byte-identical to one-shot runs.
//! - [`cache`] — the sharded LRU result cache.
//! - [`pool`] — the bounded worker pool (backpressure + drain).
//! - [`reactor`] — readiness primitives: a safe `poll(2)` wrapper and
//!   the cross-thread wake pipe.
//! - [`singleflight`] — coalescing of concurrent identical requests
//!   onto one computation.
//! - [`server`] — the event loops, deadlines, and graceful shutdown.
//! - [`client`] — a minimal blocking client (`datareuse query`).
//!
//! Everything is `std`-only, like the rest of the workspace. `unsafe`
//! is denied crate-wide with exactly one scoped exception: the
//! [`reactor`]'s FFI binding of `poll(2)` (the one readiness syscall
//! std does not expose), which is why this is `deny` and not `forbid`.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod ops;
pub mod pool;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod singleflight;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use cache::ResultCache;
pub use client::Client;
pub use ops::OpError;
pub use pool::WorkerPool;
pub use protocol::{cache_key, Request};
pub use server::{Server, ServerConfig, SloThresholds};
pub use singleflight::{JoinRole, SingleFlight};

/// Serializes this crate's unit tests that run explorations. The span
/// registry is process-wide, so a `stats` snapshot taken while another
/// test's span is open holds that span's finished children without it,
/// and the span rows stop partitioning the root totals.
#[cfg(test)]
pub(crate) fn serial_test() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    lock(&SERIAL)
}

/// Locks `mutex`, recovering the guard if a thread panicked while
/// holding it. Every critical section in this crate only moves values
/// into or out of a collection and calls no callback, so a poisoned
/// lock still guards consistent data and serving can go on.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
