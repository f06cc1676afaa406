//! Log-bucketed latency histograms: atomic, mergeable, std-only.
//!
//! Means hide tails; a production serving path is judged by its p99
//! ("The Tail at Scale", Dean & Barroso). This module provides the
//! percentile substrate for the workspace: a fixed array of
//! [`Histogram::BUCKETS`] power-of-√2 buckets (two buckets per power of
//! two) covering `0..2³²` nanoseconds exactly, with one saturating
//! catch-all bucket above — a recorded value is **never dropped**, even
//! at `u64::MAX`. Recording is one atomic add per field with `Relaxed`
//! ordering, so concurrent recorders never lock and never lose counts.
//!
//! Percentiles are extracted from a [`HistSnapshot`] by walking the
//! cumulative bucket counts; the reported value is the bucket's upper
//! bound clamped to the observed maximum, so `p50 ≤ p90 ≤ p99 ≤ p999 ≤
//! max` holds by construction. Snapshots merge losslessly: merging two
//! snapshots yields exactly the snapshot of recording both value
//! sequences into one histogram (bucket counts, min, max, count, and
//! wrapping sum are all commutative).
//!
//! Like the counters, the *global* registry ([`Hist`], [`record_hist`])
//! is gated on [`crate::metrics_enabled`]; standalone [`Histogram`]
//! values (used by the bench harness) record unconditionally.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Every latency histogram the pipeline records. The `name` strings are
/// the keys of the `hists` object in a `datareuse-metrics-v2` snapshot
/// and the Prometheus metric suffixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)] // Variant names mirror their snapshot keys below.
pub enum Hist {
    ServeLatencyCold,
    ServeLatencyCacheHit,
    ServeQueueWait,
    ExploreChunk,
    TraceSimRun,
}

impl Hist {
    /// All histograms, in snapshot order.
    pub const ALL: [Hist; 5] = [
        Hist::ServeLatencyCold,
        Hist::ServeLatencyCacheHit,
        Hist::ServeQueueWait,
        Hist::ExploreChunk,
        Hist::TraceSimRun,
    ];

    /// The histogram's stable snapshot key. All values are nanoseconds.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::ServeLatencyCold => "serve_latency_cold_ns",
            Hist::ServeLatencyCacheHit => "serve_latency_cache_hit_ns",
            Hist::ServeQueueWait => "serve_queue_wait_ns",
            Hist::ExploreChunk => "explore_chunk_ns",
            Hist::TraceSimRun => "trace_sim_run_ns",
        }
    }
}

/// An atomic log-bucketed histogram of `u64` values.
///
/// Buckets follow a power-of-√2 progression: each power-of-two octave
/// `[2ᵉ, 2ᵉ⁺¹)` is split at `1.5·2ᵉ` into a lower and an upper
/// half-bucket, giving a worst-case relative quantization error of ~33%
/// of the value — tight enough to separate a 10µs cache hit from a 10ms
/// cold request, coarse enough that 64 buckets span `0..2³²` ns (~4.3s)
/// before the final bucket saturates.
///
/// # Examples
///
/// ```
/// use datareuse_obs::Histogram;
/// let h = Histogram::new();
/// for v in [10, 20, 30, 40, 1_000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert_eq!(snap.min, 10);
/// assert_eq!(snap.max, 1_000);
/// assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99());
/// ```
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; Histogram::BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Number of buckets: two per power-of-two octave over `0..2³²`,
    /// with the last bucket absorbing everything larger (up to
    /// `u64::MAX`).
    pub const BUCKETS: usize = 64;

    /// Creates an empty histogram. `const` so histograms can live in
    /// `static` registries.
    pub const fn new() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; Histogram::BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index holding `value`. Total over all of `u64`: no
    /// value is ever out of range.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        let e = 63 - value.leading_zeros() as usize;
        let upper = e > 0 && (value >> (e - 1)) & 1 == 1;
        (2 * e + usize::from(upper)).min(Self::BUCKETS - 1)
    }

    /// The largest value stored in bucket `index` (inclusive). The last
    /// bucket's bound is `u64::MAX` — it saturates rather than loses.
    pub fn bucket_bound(index: usize) -> u64 {
        assert!(index < Self::BUCKETS, "bucket index out of range");
        if index >= Self::BUCKETS - 1 {
            return u64::MAX;
        }
        let e = index / 2;
        if index % 2 == 0 {
            // Lower half-bucket [2^e, 1.5·2^e); for e = 0 this is {0, 1}.
            if e == 0 {
                1
            } else {
                (1u64 << e) + (1u64 << (e - 1)) - 1
            }
        } else {
            // Upper half-bucket [1.5·2^e, 2^(e+1)).
            (1u64 << (e + 1)) - 1
        }
    }

    /// Records one value. Lock-free; safe from any number of threads.
    pub fn record(&self, value: u64) {
        self.counts[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Wrapping by design: 2⁶⁴ ns of cumulative latency is ~584 years,
        // and a wrapped sum still merges commutatively.
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Copies the current state into an immutable [`HistSnapshot`].
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = [0u64; Self::BUCKETS];
        for (out, c) in counts.iter_mut().zip(&self.counts) {
            *out = c.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Clears all buckets and statistics.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`]: percentile extraction,
/// merging, and JSON serialization happen here, off the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (see [`Histogram::bucket_bound`]).
    pub counts: [u64; Histogram::BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Wrapping sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// The value at quantile `q` in `(0, 1]`: the upper bound of the
    /// bucket containing the rank-`⌈q·count⌉` value, clamped to the
    /// observed maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Histogram::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Arithmetic mean of the recorded values (0 when empty). Only
    /// meaningful while the wrapping `sum` has not overflowed.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Combines two snapshots into the snapshot that recording both
    /// underlying value sequences would have produced: bucket-wise count
    /// sums, min of mins, max of maxes, wrapping sum of sums.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut counts = self.counts;
        for (a, b) in counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        let count = self.count + other.count;
        HistSnapshot {
            counts,
            count,
            sum: self.sum.wrapping_add(other.sum),
            min: match (self.count, other.count) {
                (0, _) => other.min,
                (_, 0) => self.min,
                _ => self.min.min(other.min),
            },
            max: self.max.max(other.max),
        }
    }

    /// Serializes the snapshot as the `hists` entry of a
    /// `datareuse-metrics-v2` document: summary statistics followed by
    /// the non-empty buckets as `[upper_bound, count]` pairs.
    ///
    /// An empty histogram has no percentiles, so a zero-count snapshot
    /// serializes them as `null` and the mean as `0` — never `NaN` or
    /// `inf`, which are not JSON and would poison any consumer doing
    /// arithmetic on the document.
    pub fn to_json(&self) -> Json {
        let pct = |v: u64| {
            if self.count == 0 {
                Json::Null
            } else {
                Json::UInt(v)
            }
        };
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("min", Json::UInt(self.min)),
            ("max", Json::UInt(self.max)),
            ("mean", Json::Num(self.mean())),
            ("p50", pct(self.p50())),
            ("p90", pct(self.p90())),
            ("p99", pct(self.p99())),
            ("p999", pct(self.p999())),
            (
                "buckets",
                Json::arr(self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(
                    |(i, &c)| {
                        Json::arr([Json::UInt(Histogram::bucket_bound(i)), Json::UInt(c)])
                    },
                )),
            ),
        ])
    }

    /// The values recorded between `earlier` and `self`, two snapshots
    /// of one cumulative histogram: the bucket-wise count difference,
    /// from which the window's percentiles are read. A window's extremes
    /// are not tracked, so `min`/`max` stay cumulative and percentiles
    /// clamp to the cumulative maximum. Each bucket difference saturates
    /// at zero, so a registry reset between the two snapshots reads as
    /// an empty window, never a wrapped one.
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut counts = [0u64; Histogram::BUCKETS];
        for ((out, &c), &e) in counts.iter_mut().zip(&self.counts).zip(&earlier.counts) {
            *out = c.saturating_sub(e);
        }
        HistSnapshot {
            counts,
            count: counts.iter().sum(),
            sum: self.sum.wrapping_sub(earlier.sum),
            min: self.min,
            max: self.max,
        }
    }

    /// Reads back a snapshot serialized by [`HistSnapshot::to_json`]:
    /// buckets, `count`, `min` and `max` exactly; `sum` only as
    /// `mean × count`, since the document carries the mean. `None` when
    /// a field is missing or a bucket bound is not a bucket's.
    pub fn from_json(doc: &Json) -> Option<HistSnapshot> {
        let field = |key: &str| doc.get(key).and_then(Json::as_u64);
        let mut counts = [0u64; Histogram::BUCKETS];
        for pair in doc.get("buckets")?.as_array()? {
            let (bound, c) = (pair.at(0)?.as_u64()?, pair.at(1)?.as_u64()?);
            let index = Histogram::bucket_index(bound);
            if Histogram::bucket_bound(index) != bound {
                return None;
            }
            counts[index] = c;
        }
        let count = field("count")?;
        Some(HistSnapshot {
            counts,
            count,
            sum: (doc.get("mean")?.as_f64()? * count as f64).round() as u64,
            min: field("min")?,
            max: field("max")?,
        })
    }
}

/// The global histogram registry, indexed by [`Hist`].
static HISTS: [Histogram; Hist::ALL.len()] =
    [const { Histogram::new() }; Hist::ALL.len()];

/// Records `value` (nanoseconds) into the global histogram `hist`.
/// No-op (one relaxed load) when metrics are off.
///
/// # Examples
///
/// ```
/// use datareuse_obs::{record_hist, hist_snapshot, set_metrics_enabled, reset_metrics, Hist};
/// reset_metrics();
/// set_metrics_enabled(true);
/// record_hist(Hist::ServeQueueWait, 1_500);
/// set_metrics_enabled(false);
/// assert_eq!(hist_snapshot(Hist::ServeQueueWait).count, 1);
/// reset_metrics();
/// ```
#[inline]
pub fn record_hist(hist: Hist, value: u64) {
    if crate::metrics_enabled() {
        HISTS[hist as usize].record(value);
    }
}

/// Snapshots one global histogram.
pub fn hist_snapshot(hist: Hist) -> HistSnapshot {
    HISTS[hist as usize].snapshot()
}

/// Clears every global histogram.
pub(crate) fn reset_hists() {
    for h in &HISTS {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_in_exactly_one_bucket() {
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 95, 96, 97, u64::MAX - 1, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_bound(i), "v={v} bucket={i}");
            if i > 0 {
                assert!(v > Histogram::bucket_bound(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn bucket_bounds_are_non_decreasing() {
        for i in 1..Histogram::BUCKETS {
            assert!(
                Histogram::bucket_bound(i) >= Histogram::bucket_bound(i - 1),
                "bucket {i}"
            );
        }
        assert_eq!(Histogram::bucket_bound(Histogram::BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn percentiles_track_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        // Bucket bounds quantize upward, but never past the max.
        assert!(s.p50() >= 50 && s.p50() <= 63, "p50 = {}", s.p50());
        assert!(s.p99() >= 99 && s.p99() <= 100, "p99 = {}", s.p99());
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99() && s.p99() <= s.p999());
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.min, s.max, s.p50(), s.p999()), (0, 0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_is_commutative_and_lossless() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [3u64, 9, 1_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, u64::MAX, 17] {
            b.record(v);
            both.record(v);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.merge(&sb), both.snapshot());
        assert_eq!(sa.merge(&sb), sb.merge(&sa));
    }

    #[test]
    fn empty_snapshot_json_has_null_percentiles_and_zero_mean() {
        // Regression: a zero-count histogram must serialize to clean
        // JSON — percentiles null, mean 0 — never NaN/inf tokens that
        // would make the whole metrics document unparseable.
        let text = Histogram::new().snapshot().to_json().to_string();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        let parsed = Json::parse(&text).expect("empty-hist JSON must parse");
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(0));
        assert_eq!(parsed.get("mean").and_then(Json::as_f64), Some(0.0));
        for key in ["p50", "p90", "p99", "p999"] {
            assert!(
                matches!(parsed.get(key), Some(Json::Null)),
                "{key} of an empty histogram must be null, got {:?}",
                parsed.get(key)
            );
        }
        assert_eq!(
            parsed.get("buckets").and_then(Json::as_array).map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn snapshot_json_has_stats_and_nonempty_buckets() {
        let h = Histogram::new();
        h.record(5);
        h.record(5);
        let doc = h.snapshot().to_json();
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(2));
        let buckets = parsed.get("buckets").and_then(Json::as_array).unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].at(1).and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn from_json_reads_back_what_to_json_writes() {
        let h = Histogram::new();
        for v in [0u64, 7, 7, 1_500, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        let text = snap.to_json().to_string();
        let back = HistSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!((back.counts, back.count), (snap.counts, snap.count));
        assert_eq!((back.min, back.max, back.p99()), (snap.min, snap.max, snap.p99()));
        // A bound that is no bucket's upper bound is refused.
        let bad = Json::parse(r#"{"count":1,"min":4,"max":4,"mean":4,"buckets":[[4,1]]}"#);
        assert_eq!(HistSnapshot::from_json(&bad.unwrap()), None);
    }

    #[test]
    fn global_registry_is_gated_on_the_metrics_flag() {
        let _guard = crate::metrics::test_lock::hold();
        crate::reset_metrics();
        record_hist(Hist::ExploreChunk, 42);
        assert_eq!(hist_snapshot(Hist::ExploreChunk).count, 0);
        crate::set_metrics_enabled(true);
        record_hist(Hist::ExploreChunk, 42);
        crate::set_metrics_enabled(false);
        assert_eq!(hist_snapshot(Hist::ExploreChunk).count, 1);
        crate::reset_metrics();
        assert_eq!(hist_snapshot(Hist::ExploreChunk).count, 0);
    }
}
