//! Zero-dependency observability for the data-reuse exploration pipeline.
//!
//! The DATE 2002 flow this workspace reproduces is an *exploration*: the
//! eq. 12–22 cost parameters are evaluated over thousands of copy-candidate
//! chains, and the trace simulators replay millions of accesses. This crate
//! makes that work visible without adding any crates.io dependency:
//!
//! - **Counters and gauges** ([`Counter`], [`Gauge`], [`add`],
//!   [`gauge_max`]) — fixed-enum atomic counts of pipeline events:
//!   candidates generated and pruned, chains enumerated and costed, Pareto
//!   points kept, Belady evictions, working-set windows, parallel-sweep
//!   items.
//! - **Spans** ([`span`], [`span_with`]) — one RAII guard that charges
//!   wall time *and* bytes allocated in scope to a `/`-joined
//!   hierarchical path (`explore/pairs`, `explore/chains`) and, with
//!   tracing on, also emits a request-trace event. Served requests
//!   record `request` and `request/cache` on the event loop and
//!   `execute/explore/…` on the worker.
//! - **Allocation tracking** ([`alloc_snapshot`], [`thread_alloc_bytes`],
//!   [`AllocSnapshot`]) — a `#[global_allocator]` wrapper over `System`
//!   with sharded atomic tallies (alloc/dealloc/realloc counts, bytes
//!   allocated/freed, live bytes, high-water peak) and a per-thread
//!   cumulative counter the span layer samples for per-phase
//!   attribution (a fan-out credits its workers' bytes back to the
//!   spawning thread with [`credit_thread_alloc_bytes`]); surfaced as
//!   the `alloc_*` gauges and the spans' byte columns.
//! - **Latency histograms** ([`Hist`], [`record_hist`], [`Histogram`]) —
//!   atomic log-bucketed (power-of-√2) histograms with p50/p90/p99/p999
//!   extraction, recorded on the serving path (cold vs cache-hit
//!   separately), pool queue wait, explore chunks, and trace-simulator
//!   runs; mergeable across threads.
//! - **Request tracing** ([`TraceCtx`], [`set_tracing_enabled`],
//!   [`chrome_trace_json`]) — 64-bit trace ids propagated explicitly
//!   across thread hops; the same spans, exported as Chrome trace-event
//!   JSON (loadable in Perfetto).
//! - **Flight recorder** ([`flight_record`], [`flight_tail`]) — a
//!   lock-free ring buffer of the last [`FLIGHT_CAPACITY`] structured
//!   serving events, dumped on demand and attached to timeout/overload
//!   error responses.
//! - **Self-time profiler** ([`ProfileRow`], [`collapsed_stacks`]) —
//!   derives per-path self time and self bytes from the span registry.
//!   The registry has two exports: the snapshot's `spans` rows (`ns`,
//!   `bytes`, `self_ns`, `self_bytes`) and flamegraph.pl-compatible
//!   collapsed-stack text.
//! - **Snapshots** ([`snapshot`], [`MetricsSnapshot`]) — serialize the
//!   registry to the workspace's hand-rolled [`Json`] as a
//!   `METRICS_*.json` artifact (schema `datareuse-metrics-v2`, embedding
//!   the histograms and the span profile), or to Prometheus text format
//!   ([`prometheus_text`]).
//! - **Progress** ([`Progress`]) — a periodic stderr narrator for
//!   long-running CLI commands.
//!
//! The registry is **off by default** and every recording call starts with
//! one `Relaxed` atomic load, so instrumentation left in hot loops costs a
//! predictable branch when disabled — no allocation, no locking, no clock
//! reads. Hot per-access simulators batch locally via [`LocalCounter`].
//!
//! The `counters` section of a snapshot counts *work*, not time, and the
//! exploration's `parallel_map` is order-preserving, so counters are
//! deterministic for a given workload regardless of thread count; the
//! `spans`, `gauges`, and `hists` sections carry the scheduling- and
//! clock-dependent data.
//!
//! # Example
//!
//! ```
//! use datareuse_obs::{add, set_metrics_enabled, reset_metrics, snapshot, span, Counter};
//!
//! reset_metrics();
//! set_metrics_enabled(true);
//! {
//!     let _timer = span("explore");
//!     add(Counter::ChainsEnumerated, 42);
//! }
//! set_metrics_enabled(false);
//!
//! let snap = snapshot();
//! assert_eq!(snap.counter(Counter::ChainsEnumerated), 42);
//! let json = snap.to_json().to_string();
//! assert!(json.starts_with("{\"schema\":\"datareuse-metrics-v2\""));
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

mod alloc;
mod explain;
mod flight;
mod hist;
mod json;
mod metrics;
mod profile;
mod progress;
mod prom;
mod span;
mod tracing;

pub use alloc::{
    alloc_snapshot, credit_thread_alloc_bytes, thread_alloc_bytes, AllocSnapshot,
    TrackingAllocator,
};
pub use explain::Explain;

pub use flight::{
    flight_record, flight_tail, flight_tail_json, FlightEvent, FlightKind, FLIGHT_CAPACITY,
    FLIGHT_ERROR_TAIL,
};
pub use hist::{hist_snapshot, record_hist, Hist, HistSnapshot, Histogram};
pub use json::{write_escaped, write_num, Json, JsonParseError};
pub use metrics::{
    add, counter_value, gauge_add, gauge_max, gauge_sub, gauge_value, metrics_enabled,
    reset_metrics, set_metrics_enabled, snapshot, Counter, Gauge,
    LocalCounter, MetricsSnapshot,
};
pub use profile::{collapsed_stacks, ProfileRow};
pub use progress::Progress;
pub use prom::prometheus_text;
pub use span::{span, span_with, AttachGuard, SpanGuard};
pub use tracing::{
    chrome_trace_json, record_span_at, set_tracing_enabled, take_trace_events, TraceCtx,
    TraceEvent, MAX_TRACE_EVENTS,
};
