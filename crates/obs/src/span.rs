//! Hierarchical timed spans: one guard feeds the profile, the byte
//! attribution and the request trace.
//!
//! With metrics on ([`crate::metrics_enabled`]), a [`SpanGuard`] charges
//! the elapsed nanoseconds and the bytes this thread allocated in scope
//! ([`crate::thread_alloc_bytes`]) to a `/`-joined path built from the
//! spans open on the current thread (`explore/pairs`,
//! `explore/chains/pareto`, …); [`crate::snapshot`] reports the call
//! count, totals and self weights per path. Bytes are cumulative like
//! time, so the profiler subtracts direct children to get
//! self-allocation. A span sees the allocations of its own thread plus
//! whatever a fan-out credits back to it
//! ([`crate::credit_thread_alloc_bytes`]); other threads' allocations
//! show up only in [`crate::alloc_snapshot`].
//!
//! With tracing on ([`crate::set_tracing_enabled`]), the same guard
//! mints a span id under [`TraceCtx::current`] (a fresh root trace if
//! none is attached) and buffers one [`crate::TraceEvent`] on drop. Both
//! sinks share one clock read at each end; with both off the guard is
//! inert: no clock read, no push, no lock.
//!
//! One thread-local stack of frames backs both: a span pushes its name
//! (and its context when tracing), [`TraceCtx::attach`] pushes a
//! nameless frame that the path join skips.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::Instant;

use crate::tracing::{push_event, tracing_enabled, TraceCtx};

/// Aggregated span data: path → (calls, total nanoseconds, total bytes
/// allocated in scope by the opening thread).
static SPANS: Mutex<BTreeMap<String, (u64, u64, u64)>> = Mutex::new(BTreeMap::new());

/// One open frame: a span's name (`None` for an attached context) and
/// the trace context children inherit (`None` when not tracing).
type Frame = (Option<&'static str>, Option<TraceCtx>);

thread_local! {
    /// Frames open on this thread, outermost first.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

impl TraceCtx {
    /// The context currently installed on this thread (by
    /// [`TraceCtx::attach`] or an open traced [`span`]), if any.
    pub fn current() -> Option<TraceCtx> {
        STACK.with(|stack| stack.borrow().iter().rev().find_map(|f| f.1))
    }

    /// Installs this context as the thread's current one until the
    /// returned guard drops. This is the explicit propagation primitive:
    /// capture a ctx into a closure, attach it on the thread that runs
    /// the closure, and spans opened there nest under the right parent.
    pub fn attach(self) -> AttachGuard {
        STACK.with(|stack| stack.borrow_mut().push((None, Some(self))));
        AttachGuard(PhantomData)
    }
}

/// RAII guard from [`TraceCtx::attach`]; restores the previous context
/// on drop. `!Send`, like [`SpanGuard`].
#[derive(Debug)]
pub struct AttachGuard(PhantomData<*const ()>);

impl Drop for AttachGuard {
    fn drop(&mut self) {
        STACK.with(|stack| stack.borrow_mut().pop());
    }
}

/// RAII guard returned by [`span`] and [`span_with`]; records on drop.
///
/// The guard pops a thread-local frame, so it must drop on the thread
/// that opened it; it is `!Send`:
///
/// ```compile_fail
/// let guard = datareuse_obs::span("outer");
/// std::thread::spawn(move || drop(guard));
/// ```
#[derive(Debug)]
pub struct SpanGuard(Option<Open>); // `None`: both sinks were off at open

#[derive(Debug)]
struct Open {
    name: &'static str,
    detail: &'static str,
    started: Instant,
    /// This thread's cumulative allocated bytes when the span opened;
    /// `None` when metrics were off.
    bytes_at_open: Option<u64>,
    /// This span's own context and its parent's span id; `None` when
    /// tracing was off.
    trace: Option<(TraceCtx, u64)>,
    _not_send: PhantomData<*const ()>,
}

/// Opens a timed span named `name`, nested under any spans already open
/// on this thread. Returns a guard that records on drop.
///
/// `name` is `&'static str` by design: span names are code locations, not
/// data, and static names keep the disabled path allocation-free.
///
/// # Examples
///
/// ```
/// use datareuse_obs::{span, snapshot, set_metrics_enabled, reset_metrics};
/// reset_metrics();
/// set_metrics_enabled(true);
/// {
///     let _outer = span("outer");
///     let _inner = span("inner");
/// }
/// set_metrics_enabled(false);
/// let spans = snapshot().spans;
/// let paths: Vec<&str> = spans.iter().map(|r| r.path.as_str()).collect();
/// assert_eq!(paths, ["outer", "outer/inner"]);
/// assert!(spans.iter().all(|r| r.calls == 1));
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, "")
}

/// Like [`span`], with a `detail` exported in the trace event's `args`
/// (the op name of a served request). The path aggregate ignores it.
///
/// # Examples
///
/// ```
/// use datareuse_obs::{reset_metrics, set_tracing_enabled, span_with, take_trace_events};
/// reset_metrics();
/// set_tracing_enabled(true);
/// {
///     let _outer = span_with("request", "explore");
///     let _inner = span_with("execute", "explore");
/// }
/// set_tracing_enabled(false);
/// let events = take_trace_events();
/// assert_eq!(events.len(), 2);
/// // Inner completes first and points at the outer span.
/// assert_eq!(events[0].parent_span, events[1].span_id);
/// assert_eq!(events[0].trace_id, events[1].trace_id);
/// assert_eq!(events[1].detail, "explore");
/// ```
pub fn span_with(name: &'static str, detail: &'static str) -> SpanGuard {
    let metrics = crate::metrics_enabled();
    let tracing = tracing_enabled();
    if !metrics && !tracing {
        return SpanGuard(None);
    }
    let trace = tracing.then(|| {
        let parent = TraceCtx::current().unwrap_or_else(TraceCtx::root);
        (parent.child(), parent.span_id)
    });
    STACK.with(|stack| stack.borrow_mut().push((Some(name), trace.map(|t| t.0))));
    SpanGuard(Some(Open {
        name,
        detail,
        started: Instant::now(),
        bytes_at_open: metrics.then(crate::thread_alloc_bytes),
        trace,
        _not_send: PhantomData,
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let elapsed = open.started.elapsed().as_nanos() as u64;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(bytes_at_open) = open.bytes_at_open {
                // Saturating: during thread teardown the counter reads 0.
                let bytes = crate::thread_alloc_bytes().saturating_sub(bytes_at_open);
                let names = || stack.iter().filter_map(|f| f.0);
                let mut path = String::with_capacity(names().map(|n| n.len() + 1).sum());
                for name in names() {
                    if !path.is_empty() {
                        path.push('/');
                    }
                    path.push_str(name);
                }
                let mut spans = SPANS.lock().expect("span registry poisoned");
                let entry = spans.entry(path).or_insert((0, 0, 0));
                entry.0 += 1;
                entry.1 += elapsed;
                entry.2 += bytes;
            }
            stack.pop();
        });
        if let Some((ctx, parent_span)) = open.trace {
            push_event(open.name, open.detail, ctx, parent_span, open.started, elapsed);
        }
    }
}

/// Copies the aggregated spans as `(path, calls, total_ns, total_bytes)`
/// rows, sorted by path (the `BTreeMap` order).
pub(crate) fn span_rows() -> Vec<(String, u64, u64, u64)> {
    SPANS
        .lock()
        .expect("span registry poisoned")
        .iter()
        .map(|(path, &(calls, ns, bytes))| (path.clone(), calls, ns, bytes))
        .collect()
}

/// Clears all aggregated span data.
pub(crate) fn reset_spans() {
    SPANS.lock().expect("span registry poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::test_lock;
    use crate::{
        reset_metrics, set_metrics_enabled, set_tracing_enabled, snapshot, take_trace_events,
    };

    #[test]
    fn nested_spans_aggregate_by_path() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        for _ in 0..3 {
            let _outer = span("explore");
            {
                let _inner = span("pairs");
            }
            {
                let _inner = span("chains");
            }
        }
        set_metrics_enabled(false);
        let rows = snapshot().spans;
        let by_path: std::collections::HashMap<&str, u64> = rows
            .iter()
            .map(|r| (r.path.as_str(), r.calls))
            .collect();
        assert_eq!(by_path["explore"], 3);
        assert_eq!(by_path["explore/pairs"], 3);
        assert_eq!(by_path["explore/chains"], 3);
        reset_metrics();
    }

    #[test]
    fn spans_charge_bytes_allocated_in_scope_cumulatively() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        {
            let _outer = span("outer");
            let _held = vec![1u8; 1 << 20]; // charged to "outer" only
            {
                let _inner = span("inner");
                let _tmp = vec![2u8; 1 << 20]; // charged to both paths
            }
        }
        set_metrics_enabled(false);
        let rows = snapshot().spans;
        let bytes_of = |wanted: &str| {
            rows.iter()
                .find(|r| r.path == wanted)
                .map(|r| r.total_bytes)
                .unwrap_or_else(|| panic!("no span row for {wanted}"))
        };
        let outer = bytes_of("outer");
        let inner = bytes_of("outer/inner");
        assert!(inner >= 1 << 20, "inner missed its 1 MiB: {inner}");
        assert!(
            outer >= inner + (1 << 20),
            "outer ({outer}) must include inner ({inner}) plus its own MiB"
        );
        reset_metrics();
    }

    #[test]
    fn one_guard_feeds_each_enabled_sink_and_nests_across_attach() {
        let _guard = test_lock::hold();
        for (metrics, tracing) in [(false, false), (true, false), (false, true), (true, true)] {
            reset_metrics();
            set_metrics_enabled(metrics);
            set_tracing_enabled(tracing);
            let request = TraceCtx::root();
            {
                let _attach = request.attach();
                let _execute = span_with("execute", "explore");
                let _explore = span("explore");
                let ctx = TraceCtx::current().expect("the attached context at least");
                std::thread::spawn(move || {
                    let _attach = ctx.attach();
                    let _worker = span("worker");
                })
                .join()
                .unwrap();
            }
            set_metrics_enabled(false);
            set_tracing_enabled(false);
            let paths: Vec<String> = snapshot().spans.into_iter().map(|r| r.path).collect();
            let expected: &[&str] = if metrics {
                // Attached frames are nameless: the worker's span is a root.
                &["execute", "execute/explore", "worker"]
            } else {
                &[]
            };
            assert_eq!(paths, expected, "metrics={metrics} tracing={tracing}");
            let events = take_trace_events();
            if !tracing {
                assert!(events.is_empty(), "metrics={metrics}: {events:?}");
                continue;
            }
            let named = |name: &str| events.iter().find(|e| e.name == name).unwrap();
            let (execute, explore, worker) = (named("execute"), named("explore"), named("worker"));
            assert_eq!(events.len(), 3);
            assert!(events.iter().all(|e| e.trace_id == request.trace_id));
            assert_eq!(execute.parent_span, request.span_id);
            assert_eq!(explore.parent_span, execute.span_id);
            assert_eq!(worker.parent_span, explore.span_id);
            assert_eq!(execute.detail, "explore");
            assert_eq!(explore.detail, "");
        }
        reset_metrics();
    }

    #[test]
    fn span_opened_while_disabled_stays_inert_if_enabled_later() {
        let _guard = test_lock::hold();
        reset_metrics();
        let guard = span("late");
        set_metrics_enabled(true);
        drop(guard); // must not pop a stack entry it never pushed
        set_metrics_enabled(false);
        assert!(snapshot().spans.is_empty());
        reset_metrics();
    }
}
