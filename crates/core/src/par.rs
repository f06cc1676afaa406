//! Minimal scoped-thread work distribution for the exploration sweeps.
//!
//! The hermetic-workspace policy rules out rayon, so this module provides
//! the one primitive the sweeps need: an order-preserving parallel map
//! built on [`std::thread::scope`]. Items are handed out through a shared
//! iterator (natural load balancing for the uneven per-pair sweep costs),
//! results carry their input index and are sorted back into input order,
//! so the output is bit-identical to the sequential path regardless of
//! scheduling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use datareuse_obs::{
    add, credit_thread_alloc_bytes, gauge_max, metrics_enabled, record_hist, thread_alloc_bytes,
    Counter, Gauge, Hist, TraceCtx,
};

/// Resolves the worker-thread count for a sweep.
///
/// Precedence: an explicit `requested` count, then the
/// `DATAREUSE_THREADS` environment variable, then the machine's
/// available parallelism. The result is always at least 1, and 1 selects
/// the thread-free path.
///
/// Out-of-range values are sanitized rather than silently obeyed or
/// silently dropped (see [`sanitize_threads`]): `0` falls back to auto
/// with a warning, and anything above [`max_reasonable_threads`] (4× the
/// machine's parallelism) is clamped to that cap with a warning —
/// oversubscribing a CPU-bound sweep hundreds-fold only adds scheduler
/// churn.
///
/// The environment variable is read once per process: the exploration
/// resolves a thread count for every sweep (thousands per exhaustive
/// run), and `env::var` takes a process-global lock that showed up as
/// avoidable per-sweep overhead.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    static ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    requested
        .and_then(|n| sanitize_threads(n, "ExploreOptions::threads"))
        .or_else(|| {
            *ENV.get_or_init(|| {
                std::env::var("DATAREUSE_THREADS")
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
                    .and_then(|n| sanitize_threads(n, "DATAREUSE_THREADS"))
            })
        })
        .unwrap_or_else(auto_threads)
}

/// The largest worker count a request is allowed to pin: 4× the
/// machine's available parallelism. The sweeps are CPU-bound, so counts
/// beyond this only add contention; the small headroom keeps deliberate
/// mild oversubscription (I/O-adjacent callers, tests) usable.
pub fn max_reasonable_threads() -> usize {
    4 * auto_threads()
}

/// Validates a requested worker count: `0` is rejected (auto-detection
/// takes over) and values above [`max_reasonable_threads`] are clamped
/// to it. Either correction prints a one-line warning to stderr, once
/// per process per source, so a typo'd `DATAREUSE_THREADS=0` or
/// `--threads 10000` does not silently misconfigure a long run.
pub fn sanitize_threads(requested: usize, source: &str) -> Option<usize> {
    use std::sync::atomic::{AtomicBool, Ordering};
    static WARNED_ZERO: AtomicBool = AtomicBool::new(false);
    static WARNED_CLAMP: AtomicBool = AtomicBool::new(false);
    if requested == 0 {
        if !WARNED_ZERO.swap(true, Ordering::Relaxed) {
            eprintln!("datareuse: warning: {source}=0 is not a usable thread count; using auto-detection");
        }
        return None;
    }
    let cap = max_reasonable_threads();
    if requested > cap {
        if !WARNED_CLAMP.swap(true, Ordering::Relaxed) {
            eprintln!(
                "datareuse: warning: {source}={requested} exceeds 4x available parallelism; clamping to {cap}"
            );
        }
        return Some(cap);
    }
    Some(requested)
}

/// `available_parallelism()` cached for the process lifetime: the call
/// walks cgroup quota files on Linux (~10µs), which would otherwise tax
/// every sweep invocation.
fn auto_threads() -> usize {
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Maps `f` over `items` on up to `threads` scoped workers, preserving
/// input order in the output.
///
/// With `threads <= 1` (or fewer than two items) no thread is spawned and
/// the map runs inline — the single-thread fallback the exploration
/// options expose as `threads: Some(1)`.
///
/// # Examples
///
/// ```
/// let doubled = datareuse_core::parallel_map(4, (0..100).collect(), |x: u64| x * 2);
/// assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
/// ```
pub fn parallel_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    add(Counter::ParSweeps, 1);
    add(Counter::ParItems, n as u64);
    let observed = metrics_enabled();
    if threads <= 1 || n <= 1 {
        gauge_max(Gauge::ThreadsMax, 1);
        if !observed {
            return items.into_iter().map(f).collect();
        }
        return items
            .into_iter()
            .map(|item| {
                let started = std::time::Instant::now();
                let result = f(item);
                record_hist(Hist::ExploreChunk, started.elapsed().as_nanos() as u64);
                result
            })
            .collect();
    }
    gauge_max(Gauge::ThreadsMax, threads.min(n) as u64);
    // The sweep may run on a server worker carrying a request's trace
    // context; hand it to the scoped workers so their chunk timings stay
    // attributable to that request.
    let ctx = TraceCtx::current();
    let queue = Mutex::new(items.into_iter().enumerate());
    let done: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    // Bytes the workers allocate, credited to this thread after the join
    // so the span open here is charged for the work it farmed out.
    let worker_bytes = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| {
                let _attach = ctx.map(TraceCtx::attach);
                let bytes_at_start = observed.then(thread_alloc_bytes);
                loop {
                    let next = queue.lock().expect("work queue poisoned").next();
                    let Some((index, item)) = next else { break };
                    let started = observed.then(std::time::Instant::now);
                    let result = f(item);
                    if let Some(started) = started {
                        record_hist(Hist::ExploreChunk, started.elapsed().as_nanos() as u64);
                    }
                    done.lock().expect("result sink poisoned").push((index, result));
                }
                if let Some(start) = bytes_at_start {
                    let bytes = thread_alloc_bytes().saturating_sub(start);
                    worker_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
            });
        }
    });
    if observed {
        credit_thread_alloc_bytes(worker_bytes.into_inner());
    }
    let mut tagged = done.into_inner().expect("result sink poisoned");
    tagged.sort_unstable_by_key(|(index, _)| *index);
    tagged.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        for threads in [1, 2, 3, 8, 64] {
            let items: Vec<u64> = (0..257).collect();
            let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            assert_eq!(
                parallel_map(threads, items, |x| x * x + 1),
                expect,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        assert_eq!(parallel_map(8, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(8, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(1)), 1);
        // Zero is not a usable count; falls through to auto (>= 1).
        assert!(resolve_threads(Some(0)) >= 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn sanitize_threads_rejects_zero_and_clamps_absurd_requests() {
        let cap = max_reasonable_threads();
        assert!(cap >= 4, "cap is at least 4x one core");
        // Zero: rejected so auto-detection takes over.
        assert_eq!(sanitize_threads(0, "test"), None);
        // In-range values pass through untouched.
        assert_eq!(sanitize_threads(1, "test"), Some(1));
        assert_eq!(sanitize_threads(cap, "test"), Some(cap));
        // Absurd values clamp to the cap instead of oversubscribing.
        assert_eq!(sanitize_threads(cap + 1, "test"), Some(cap));
        assert_eq!(sanitize_threads(usize::MAX, "test"), Some(cap));
    }

    #[test]
    fn resolve_threads_clamps_through_the_explicit_path() {
        let cap = max_reasonable_threads();
        assert_eq!(resolve_threads(Some(usize::MAX)), cap);
    }
}
