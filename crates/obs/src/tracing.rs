//! End-to-end request tracing: trace ids, span contexts, and Chrome
//! trace-event export.
//!
//! The aggregated spans of [`crate::span`] answer "where does time go
//! on average"; with tracing on, the same guards also answer "where did
//! *this request* spend its time". A [`TraceCtx`] carries a 64-bit
//! trace id (minted by SplitMix64 from a process-seeded counter — no
//! wall-clock reads, so tests stay deterministic-ish and hermetic) plus
//! the id of the current span.
//! Contexts are propagated **explicitly** across thread hops: the server
//! captures a request's ctx into the worker-pool job, the parallel sweep
//! captures the caller's ctx into its scoped workers, and each side
//! re-installs it with [`TraceCtx::attach`]. Spans opened under an
//! attached context nest under it.
//!
//! Completed spans are buffered in a bounded queue (oldest dropped) and
//! exported as Chrome trace-event JSON ([`chrome_trace_json`]) — the
//! format `chrome://tracing` and <https://ui.perfetto.dev> load
//! directly. Recording is gated on its own flag
//! ([`set_tracing_enabled`]), independent of the metrics registry, so a
//! server can run with counters on and tracing off.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

static TRACING: AtomicBool = AtomicBool::new(false);
/// Completed spans awaiting export, oldest first.
static EVENTS: Mutex<VecDeque<TraceEvent>> = Mutex::new(VecDeque::new());
/// Monotonic span-id allocator (0 means "no span" / root).
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Monotonic trace-id counter, mixed with the process seed.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Bound on buffered completed spans; beyond it the oldest are dropped
/// so an unscraped long-running server cannot grow without limit.
pub const MAX_TRACE_EVENTS: usize = 65_536;

thread_local! {
    /// Small dense per-thread id for trace export (ThreadId's integer
    /// form is unstable).
    static TID: u64 = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        NEXT_TID.fetch_add(1, Ordering::Relaxed)
    };
}

/// SplitMix64 output function — the same mixer `datareuse-proptest`
/// uses, re-declared here to keep `obs` a leaf crate.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The process-wide trace epoch: all event timestamps are nanoseconds
/// since the first call. Monotonic, no wall clock involved.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
pub(crate) fn trace_now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns trace-event recording on or off for the whole process.
pub fn set_tracing_enabled(on: bool) {
    if on {
        // Pin the epoch before any traced span reads its start instant.
        epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether trace-event recording is currently on.
#[inline]
pub(crate) fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// A trace context: which trace this work belongs to and which span is
/// its parent. `Copy`, 16 bytes — made to be captured into closures
/// that hop threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The 64-bit trace id shared by every span of one request.
    pub trace_id: u64,
    /// The span new children should report as their parent (0 = root).
    pub span_id: u64,
}

impl TraceCtx {
    /// Mints a context with a fresh trace id and no parent span.
    ///
    /// Ids come from SplitMix64 over a process-seeded counter (seeded
    /// with the process id), so they are unique within a process,
    /// collision-resistant across concurrent processes, and involve no
    /// wall-clock read.
    pub fn root() -> TraceCtx {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| splitmix64(u64::from(std::process::id())));
        let n = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        TraceCtx {
            trace_id: splitmix64(seed ^ n),
            span_id: 0,
        }
    }

    /// A new span under this one: same trace, fresh span id.
    pub(crate) fn child(self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// One completed span, ready for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (a code location, like [`crate::span`] names).
    pub name: &'static str,
    /// Detail (the op name of a served request) shown in the trace
    /// viewer; empty for none.
    pub detail: &'static str,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's own id.
    pub span_id: u64,
    /// Parent span id (0 = root span of its trace).
    pub parent_span: u64,
    /// Dense per-thread id of the recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Buffers one completed span with its own context `ctx`, started at
/// `started` and lasting `dur_ns`.
pub(crate) fn push_event(
    name: &'static str,
    detail: &'static str,
    ctx: TraceCtx,
    parent_span: u64,
    started: Instant,
    dur_ns: u64,
) {
    let event = TraceEvent {
        name,
        detail,
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_span,
        tid: TID.with(|t| *t),
        ts_ns: started.saturating_duration_since(*epoch()).as_nanos() as u64,
        dur_ns,
    };
    let mut events = EVENTS.lock().expect("trace event buffer poisoned");
    if events.len() >= MAX_TRACE_EVENTS {
        events.pop_front();
    }
    events.push_back(event);
}

/// Records a completed span under `parent` directly, for intervals whose
/// start and end live on different threads (queue wait: submitted on the
/// connection thread, picked up on a worker). Trace-only: the aggregate
/// side of such intervals is a histogram. No-op when tracing is
/// disabled.
pub fn record_span_at(name: &'static str, parent: TraceCtx, started: Instant, dur_ns: u64) {
    if !tracing_enabled() {
        return;
    }
    push_event(name, "", parent.child(), parent.span_id, started, dur_ns);
}

/// Drains and returns all buffered completed spans, oldest first.
pub fn take_trace_events() -> Vec<TraceEvent> {
    EVENTS
        .lock()
        .expect("trace event buffer poisoned")
        .drain(..)
        .collect()
}

/// Clears the event buffer without returning it.
pub(crate) fn reset_tracing() {
    EVENTS.lock().expect("trace event buffer poisoned").clear();
}

/// Renders completed spans as a Chrome trace-event document
/// (`{"traceEvents": [...]}` with `ph: "X"` duration events), loadable
/// in `chrome://tracing` and Perfetto. Timestamps are microseconds with
/// sub-µs fractions preserved; trace and span ids ride in `args`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> Json {
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        (
            "traceEvents",
            Json::arr(events.iter().map(|e| {
                let mut args = vec![
                    ("trace_id".to_string(), Json::str(format!("{:016x}", e.trace_id))),
                    ("span_id".to_string(), Json::UInt(e.span_id)),
                    ("parent_span".to_string(), Json::UInt(e.parent_span)),
                ];
                if !e.detail.is_empty() {
                    args.push(("detail".to_string(), Json::str(e.detail)));
                }
                Json::obj([
                    ("name", Json::str(e.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(e.tid)),
                    ("ts", Json::Num(e.ts_ns as f64 / 1_000.0)),
                    ("dur", Json::Num((e.dur_ns.max(1)) as f64 / 1_000.0)),
                    ("args", Json::Obj(args)),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::test_lock;

    #[test]
    fn root_ids_are_distinct_and_nonzero() {
        let a = TraceCtx::root();
        let b = TraceCtx::root();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.trace_id, 0);
        assert_eq!(a.span_id, 0);
    }

    #[test]
    fn chrome_export_parses_and_carries_ids() {
        let events = vec![TraceEvent {
            name: "request",
            detail: "explore",
            trace_id: 0xabcd,
            span_id: 7,
            parent_span: 0,
            tid: 3,
            ts_ns: 2_500,
            dur_ns: 1_000,
        }];
        let text = chrome_trace_json(&events).to_string();
        let doc = Json::parse(&text).unwrap();
        let items = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(items[0].get("ts").and_then(Json::as_f64), Some(2.5));
        assert_eq!(
            items[0]
                .get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_str),
            Some("000000000000abcd")
        );
    }

    #[test]
    fn event_buffer_is_bounded() {
        let _guard = test_lock::hold();
        crate::reset_metrics();
        set_tracing_enabled(true);
        let ctx = TraceCtx::root();
        for _ in 0..(MAX_TRACE_EVENTS + 10) {
            record_span_at("tick", ctx, Instant::now(), 1);
        }
        set_tracing_enabled(false);
        assert_eq!(take_trace_events().len(), MAX_TRACE_EVENTS);
        crate::reset_metrics();
    }
}
