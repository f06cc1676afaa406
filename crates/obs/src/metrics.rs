//! Global metrics registry: named atomic counters and gauges.
//!
//! The registry is process-global and **off by default**. Every recording
//! entry point first does one `Relaxed` load of the enabled flag and
//! returns immediately when metrics are off — no allocation, no locks, no
//! clock reads — so instrumented hot loops cost a single predictable
//! branch when nobody is watching. Hot simulators batch their updates
//! locally (see [`LocalCounter`]) so even the enabled path touches the
//! shared atomics only once per [`LocalCounter::FLUSH_EVERY`] events.
//!
//! Counters are a closed enum rather than a string-keyed map: the set of
//! interesting events in this workspace is small and known, and a fixed
//! `[AtomicU64; N]` array keeps recording allocation-free and snapshots
//! deterministic (fixed iteration order).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::hist::{hist_snapshot, Hist, HistSnapshot};
use crate::json::Json;
use crate::profile::{profile_rows, ProfileRow};

/// Every counter the pipeline records. The `name` strings are the keys in
/// the `counters` object of [`snapshot`] output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)] // Variant names mirror their snapshot keys below.
pub enum Counter {
    ExploreGroups,
    ExplorePairsSwept,
    ExploreCandidatesGenerated,
    ExploreCandidatesPruned,
    SymbolicHits,
    SimFallbacks,
    SimFallbackGuarded,
    SimFallbackSharedIterators,
    SimFallbackSparseDim,
    SimFallbackUnalignedUnion,
    SimFallbackNotTranslated,
    SimFallbackOverflow,
    SimFallbackBadAccess,
    ExprKernelsLowered,
    CorpusKernelsLoaded,
    ChainsEnumerated,
    ChainsEvaluated,
    ParetoPointsKept,
    ParetoPointsDropped,
    BeladyAccesses,
    BeladyHits,
    BeladyEvictions,
    BeladyBypasses,
    WorkingSetWindows,
    CurvePoints,
    ParSweeps,
    ParItems,
    ServeRequests,
    ServeCacheHits,
    ServeCacheMisses,
    ServeCacheEvictions,
    ServeCoalesced,
    ServeBatchRequests,
    ServeOverloaded,
    ServeTimeouts,
    ServeErrors,
}

impl Counter {
    /// All counters, in snapshot order.
    pub const ALL: [Counter; 36] = [
        Counter::ExploreGroups,
        Counter::ExplorePairsSwept,
        Counter::ExploreCandidatesGenerated,
        Counter::ExploreCandidatesPruned,
        Counter::SymbolicHits,
        Counter::SimFallbacks,
        Counter::SimFallbackGuarded,
        Counter::SimFallbackSharedIterators,
        Counter::SimFallbackSparseDim,
        Counter::SimFallbackUnalignedUnion,
        Counter::SimFallbackNotTranslated,
        Counter::SimFallbackOverflow,
        Counter::SimFallbackBadAccess,
        Counter::ExprKernelsLowered,
        Counter::CorpusKernelsLoaded,
        Counter::ChainsEnumerated,
        Counter::ChainsEvaluated,
        Counter::ParetoPointsKept,
        Counter::ParetoPointsDropped,
        Counter::BeladyAccesses,
        Counter::BeladyHits,
        Counter::BeladyEvictions,
        Counter::BeladyBypasses,
        Counter::WorkingSetWindows,
        Counter::CurvePoints,
        Counter::ParSweeps,
        Counter::ParItems,
        Counter::ServeRequests,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeCacheEvictions,
        Counter::ServeCoalesced,
        Counter::ServeBatchRequests,
        Counter::ServeOverloaded,
        Counter::ServeTimeouts,
        Counter::ServeErrors,
    ];

    /// The counter's stable snapshot key.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::ExploreGroups => "explore_groups",
            Counter::ExplorePairsSwept => "explore_pairs_swept",
            Counter::ExploreCandidatesGenerated => "explore_candidates_generated",
            Counter::ExploreCandidatesPruned => "explore_candidates_pruned",
            Counter::SymbolicHits => "symbolic_hits",
            Counter::SimFallbacks => "sim_fallbacks",
            Counter::SimFallbackGuarded => "sim_fallbacks_guarded",
            Counter::SimFallbackSharedIterators => "sim_fallbacks_shared_iterators",
            Counter::SimFallbackSparseDim => "sim_fallbacks_sparse_dim",
            Counter::SimFallbackUnalignedUnion => "sim_fallbacks_unaligned_union",
            Counter::SimFallbackNotTranslated => "sim_fallbacks_not_translated",
            Counter::SimFallbackOverflow => "sim_fallbacks_overflow",
            Counter::SimFallbackBadAccess => "sim_fallbacks_bad_access",
            Counter::ExprKernelsLowered => "expr_kernels_lowered",
            Counter::CorpusKernelsLoaded => "corpus_kernels_loaded",
            Counter::ChainsEnumerated => "chains_enumerated",
            Counter::ChainsEvaluated => "chains_evaluated",
            Counter::ParetoPointsKept => "pareto_points_kept",
            Counter::ParetoPointsDropped => "pareto_points_dropped",
            Counter::BeladyAccesses => "belady_accesses",
            Counter::BeladyHits => "belady_hits",
            Counter::BeladyEvictions => "belady_evictions",
            Counter::BeladyBypasses => "belady_bypasses",
            Counter::WorkingSetWindows => "workingset_windows",
            Counter::CurvePoints => "curve_points",
            Counter::ParSweeps => "par_sweeps",
            Counter::ParItems => "par_items",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeCacheMisses => "serve_cache_misses",
            Counter::ServeCacheEvictions => "serve_cache_evictions",
            Counter::ServeCoalesced => "serve_coalesced",
            Counter::ServeBatchRequests => "serve_batch_requests",
            Counter::ServeOverloaded => "serve_overloaded",
            Counter::ServeTimeouts => "serve_timeouts",
            Counter::ServeErrors => "serve_errors",
        }
    }
}

/// Gauges: instantaneous levels ([`gauge_add`] / [`gauge_sub`]) and
/// high-water marks ([`gauge_max`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)] // Variant names mirror their snapshot keys below.
pub enum Gauge {
    ThreadsMax,
    ServeQueueDepth,
    ServeQueueDepthMax,
    ServeOpenConnections,
    AllocLiveBytes,
    AllocPeakBytes,
    AllocBytesTotal,
}

impl Gauge {
    /// All gauges, in snapshot order.
    pub const ALL: [Gauge; 7] = [
        Gauge::ThreadsMax,
        Gauge::ServeQueueDepth,
        Gauge::ServeQueueDepthMax,
        Gauge::ServeOpenConnections,
        Gauge::AllocLiveBytes,
        Gauge::AllocPeakBytes,
        Gauge::AllocBytesTotal,
    ];

    /// The gauge's stable snapshot key.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::ThreadsMax => "threads_max",
            Gauge::ServeQueueDepth => "serve_queue_depth",
            Gauge::ServeQueueDepthMax => "serve_queue_depth_max",
            Gauge::ServeOpenConnections => "serve_open_connections",
            Gauge::AllocLiveBytes => "alloc_live_bytes",
            Gauge::AllocPeakBytes => "alloc_peak_bytes",
            Gauge::AllocBytesTotal => "alloc_bytes_total",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; Counter::ALL.len()] =
    [const { AtomicU64::new(0) }; Counter::ALL.len()];
static GAUGES: [AtomicU64; Gauge::ALL.len()] = [const { AtomicU64::new(0) }; Gauge::ALL.len()];

/// Turns metrics recording on or off for the whole process.
///
/// Off (the default) makes every recording call a single relaxed atomic
/// load; on makes counters accumulate and spans record wall time.
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metrics recording is currently on.
#[inline]
pub fn metrics_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to `counter`. No-op (one relaxed load) when metrics are off.
///
/// # Examples
///
/// ```
/// use datareuse_obs::{add, snapshot, set_metrics_enabled, reset_metrics, Counter};
/// reset_metrics();
/// add(Counter::ChainsEvaluated, 5); // off: ignored
/// set_metrics_enabled(true);
/// add(Counter::ChainsEvaluated, 5);
/// set_metrics_enabled(false);
/// assert_eq!(snapshot().counter(Counter::ChainsEvaluated), 5);
/// ```
#[inline]
pub fn add(counter: Counter, n: u64) {
    if metrics_enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises `gauge` to at least `value` (monotonic max). No-op when off.
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if metrics_enabled() {
        GAUGES[gauge as usize].fetch_max(value, Ordering::Relaxed);
    }
}

/// Increments a level gauge by `n`. No-op when off.
#[inline]
pub fn gauge_add(gauge: Gauge, n: u64) {
    if metrics_enabled() {
        GAUGES[gauge as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Decrements a level gauge by `n`, saturating at zero. Saturation (not
/// wrapping) matters because recording can be toggled between the
/// matching increment and decrement — e.g. a job enqueued before
/// `reset_metrics` and dequeued after it must not wrap the gauge to
/// 2^64-1. No-op when off.
#[inline]
pub fn gauge_sub(gauge: Gauge, n: u64) {
    if metrics_enabled() {
        let _ = GAUGES[gauge as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(n))
        });
    }
}

/// Reads the live value of a gauge (0 when never recorded).
///
/// The three `alloc_*` gauges are backed by the tracking allocator, not
/// the gauge array: they read live from [`crate::alloc_snapshot`] so
/// every snapshot and Prometheus scrape sees the
/// current heap state without anything having to "record" it.
pub fn gauge_value(gauge: Gauge) -> u64 {
    match gauge {
        Gauge::AllocLiveBytes => crate::alloc_snapshot().live_bytes,
        Gauge::AllocPeakBytes => crate::alloc_snapshot().peak_bytes,
        Gauge::AllocBytesTotal => crate::alloc_snapshot().bytes_allocated,
        _ => GAUGES[gauge as usize].load(Ordering::Relaxed),
    }
}

/// Reads the live value of a counter (0 when never recorded).
pub fn counter_value(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// Clears the entire registry — counters, gauges, spans, latency
/// histograms, the flight recorder, buffered trace
/// events, and the allocator's monotone
/// accumulators (the live-byte level survives, since that memory is
/// still resident, and the peak resets to the current live level) — and
/// turns recording (metrics *and* tracing) off. Clearing the spans also empties the derived
/// profile (the snapshot's span rows are a pure function of the span
/// registry). Intended for tests and for reusing a process across
/// independent runs.
pub fn reset_metrics() {
    set_metrics_enabled(false);
    crate::tracing::set_tracing_enabled(false);
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
    crate::span::reset_spans();
    crate::alloc::reset_alloc();
    crate::hist::reset_hists();
    crate::flight::reset_flight();
    crate::tracing::reset_tracing();
}

/// A point-in-time copy of the registry, convertible to JSON.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Cumulative and self weights (nanoseconds and bytes) per span
    /// path, sorted by path.
    pub spans: Vec<ProfileRow>,
    /// `(name, snapshot)` for every latency histogram, in
    /// [`Hist::ALL`] order.
    pub hists: Vec<(&'static str, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up one counter's value in the snapshot.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(name, _)| *name == counter.name())
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Looks up one histogram's snapshot by [`Hist`].
    pub fn hist(&self, hist: Hist) -> Option<&HistSnapshot> {
        self.hists
            .iter()
            .find(|(name, _)| *name == hist.name())
            .map(|(_, snap)| snap)
    }

    /// Serializes the snapshot as the `datareuse-metrics-v2` JSON object.
    ///
    /// v2 extends v1 with a `hists` section: one object per latency
    /// histogram carrying count/min/max/mean, p50/p90/p99/p999, and the
    /// non-empty `[upper_bound_ns, count]` bucket pairs.
    ///
    /// Each `spans` row carries `path`, `calls`, the cumulative `ns` and
    /// `bytes`, and the derived `self_ns` and `self_bytes`; the self
    /// columns partition each root's totals exactly.
    ///
    /// The `counters` section is deterministic for a given workload (it
    /// counts work, not time); `gauges`, `spans`, and `hists`
    /// report scheduling- and clock-dependent data and vary run to run.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("datareuse-metrics-v2")),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|&(name, v)| (name, Json::UInt(v))),
                ),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|&(name, v)| (name, Json::UInt(v)))),
            ),
            (
                "spans",
                Json::arr(self.spans.iter().map(|row| {
                    Json::obj([
                        ("path", Json::str(row.path.clone())),
                        ("calls", Json::UInt(row.calls)),
                        ("ns", Json::UInt(row.total_ns)),
                        ("bytes", Json::UInt(row.total_bytes)),
                        ("self_ns", Json::UInt(row.self_ns)),
                        ("self_bytes", Json::UInt(row.self_bytes)),
                    ])
                })),
            ),
            (
                "hists",
                Json::obj(self.hists.iter().map(|(name, snap)| (*name, snap.to_json()))),
            ),
        ])
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

/// Copies the current registry state into a [`MetricsSnapshot`].
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: Counter::ALL
            .iter()
            .map(|&c| (c.name(), counter_value(c)))
            .collect(),
        gauges: Gauge::ALL
            .iter()
            .map(|&g| (g.name(), gauge_value(g)))
            .collect(),
        spans: profile_rows(),
        hists: Hist::ALL
            .iter()
            .map(|&h| (h.name(), hist_snapshot(h)))
            .collect(),
    }
}

/// A thread-local accumulator that batches counter updates from per-item
/// hot loops, flushing to the shared atomic every
/// [`LocalCounter::FLUSH_EVERY`] increments (and on drop).
///
/// Per-access simulators (Belady, working sets) record millions of events
/// per run; hitting the shared cache line for each one would both cost
/// time and defeat the disabled fast path's purpose. Batching keeps the
/// shared counter fresh enough for live progress narration while making
/// the per-event cost one local integer add.
///
/// # Examples
///
/// ```
/// use datareuse_obs::{Counter, LocalCounter, set_metrics_enabled, reset_metrics, snapshot};
/// reset_metrics();
/// set_metrics_enabled(true);
/// {
///     let mut hits = LocalCounter::new(Counter::BeladyHits);
///     for _ in 0..100_000 { hits.incr(); }
/// } // drop flushes the remainder
/// set_metrics_enabled(false);
/// assert_eq!(snapshot().counter(Counter::BeladyHits), 100_000);
/// ```
#[derive(Debug)]
pub struct LocalCounter {
    counter: Counter,
    pending: u64,
}

impl LocalCounter {
    /// How many locally-buffered increments trigger a flush to the
    /// shared atomic.
    pub const FLUSH_EVERY: u64 = 65_536;

    /// Creates an accumulator feeding `counter`.
    pub fn new(counter: Counter) -> Self {
        Self {
            counter,
            pending: 0,
        }
    }

    /// Records one event.
    #[inline]
    pub fn incr(&mut self) {
        self.pending += 1;
        if self.pending >= Self::FLUSH_EVERY {
            self.flush();
        }
    }

    /// Records `n` events at once.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
        if self.pending >= Self::FLUSH_EVERY {
            self.flush();
        }
    }

    /// Pushes buffered events to the shared counter immediately.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            add(self.counter, self.pending);
            self.pending = 0;
        }
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that enable the global registry serialize through this lock
    /// so their counts don't interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = test_lock::hold();
        reset_metrics();
        add(Counter::ParItems, 10);
        gauge_max(Gauge::ThreadsMax, 8);
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::ParItems), 0);
        assert_eq!(snap.gauges[0].1, 0);
    }

    #[test]
    fn counters_and_gauges_accumulate_when_enabled() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        add(Counter::ParetoPointsKept, 3);
        add(Counter::ParetoPointsKept, 4);
        gauge_max(Gauge::ThreadsMax, 2);
        gauge_max(Gauge::ThreadsMax, 8);
        gauge_max(Gauge::ThreadsMax, 4);
        set_metrics_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::ParetoPointsKept), 7);
        assert_eq!(snap.gauges[0], ("threads_max", 8));
        reset_metrics();
        assert_eq!(snapshot().counter(Counter::ParetoPointsKept), 0);
    }

    #[test]
    fn local_counter_flushes_in_chunks_and_on_drop() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        let mut local = LocalCounter::new(Counter::BeladyAccesses);
        for _ in 0..LocalCounter::FLUSH_EVERY {
            local.incr();
        }
        // A full chunk flushed eagerly; live value is already visible.
        assert_eq!(counter_value(Counter::BeladyAccesses), LocalCounter::FLUSH_EVERY);
        local.add(3);
        assert_eq!(counter_value(Counter::BeladyAccesses), LocalCounter::FLUSH_EVERY);
        drop(local);
        set_metrics_enabled(false);
        assert_eq!(
            snapshot().counter(Counter::BeladyAccesses),
            LocalCounter::FLUSH_EVERY + 3
        );
        reset_metrics();
    }

    #[test]
    fn snapshot_json_has_all_sections_and_parses() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        add(Counter::ChainsEnumerated, 12);
        set_metrics_enabled(false);
        let text = snapshot().to_json().to_string();
        let parsed = Json::parse(&text).expect("snapshot JSON must parse");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("datareuse-metrics-v2")
        );
        let counters = parsed.get("counters").expect("counters section");
        assert_eq!(counters.entries().unwrap().len(), Counter::ALL.len());
        assert_eq!(
            counters.get("chains_enumerated").and_then(Json::as_u64),
            Some(12)
        );
        assert!(parsed.get("gauges").is_some());
        assert!(parsed.get("spans").is_some());
        assert!(parsed.get("load").is_none());
        let hists = parsed.get("hists").expect("hists section");
        assert_eq!(hists.entries().unwrap().len(), Hist::ALL.len());
        reset_metrics();
    }

    #[test]
    fn level_gauges_add_sub_and_saturate() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        gauge_add(Gauge::ServeQueueDepth, 3);
        gauge_sub(Gauge::ServeQueueDepth, 1);
        assert_eq!(gauge_value(Gauge::ServeQueueDepth), 2);
        // Saturates at zero instead of wrapping when decrements outpace
        // increments (possible across a reset).
        gauge_sub(Gauge::ServeQueueDepth, 10);
        assert_eq!(gauge_value(Gauge::ServeQueueDepth), 0);
        reset_metrics();
    }

    #[test]
    fn reset_clears_hists_and_flight_recorder() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        crate::record_hist(Hist::ServeLatencyCold, 100);
        crate::flight_record(crate::FlightKind::RequestStart, 1, 1);
        gauge_add(Gauge::ServeQueueDepth, 5);
        {
            let _span = crate::span("reset_probe");
        }
        assert!(!snapshot().spans.is_empty());
        reset_metrics();
        assert_eq!(snapshot().hist(Hist::ServeLatencyCold).unwrap().count, 0);
        assert!(crate::flight_tail(16).is_empty());
        assert_eq!(gauge_value(Gauge::ServeQueueDepth), 0);
        // The derived profiler view is wiped too: a reused process
        // starts from a clean slate.
        assert!(snapshot().spans.is_empty());
        assert!(crate::collapsed_stacks().is_empty());
    }

    #[test]
    fn reset_rebases_alloc_peak_to_live_not_zero() {
        let _guard = test_lock::hold();
        // Push the high-water mark well above the steady live level,
        // release it, then reset: the accumulators restart but the peak
        // must come back as the (nonzero) live level — the memory that
        // was resident before the reset is still resident after it.
        let spike = vec![0u8; 32 << 20];
        let peak_with_spike = crate::alloc_snapshot().peak_bytes;
        drop(spike);
        reset_metrics();
        let after = crate::alloc_snapshot();
        assert!(
            after.peak_bytes < peak_with_spike,
            "reset must drop the 32 MiB spike from the peak: {} -> {}",
            peak_with_spike,
            after.peak_bytes
        );
        assert!(after.peak_bytes > 0, "peak rebases to live, not zero");
        assert!(after.peak_bytes >= after.live_bytes);
        assert!(after.live_bytes > 0, "the test harness itself has a live heap");
        // Snapshot gauges read through to the allocator.
        let snap = snapshot();
        let gauge = |wanted: &str| {
            snap.gauges
                .iter()
                .find(|(name, _)| *name == wanted)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("no gauge {wanted}"))
        };
        assert!(gauge("alloc_live_bytes") > 0);
        assert!(gauge("alloc_peak_bytes") >= gauge("alloc_live_bytes"));
    }
}
