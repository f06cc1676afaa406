//! A fixed-capacity metrics time-series ring (RRD-style).
//!
//! Prometheus-style pull scraping samples the registry every few
//! seconds; a burst that rises and falls *between* two scrapes is
//! invisible in the exported counters. This module keeps a bounded ring
//! of downsampled registry snapshots recorded by the server's own
//! scraper thread at a much shorter interval: counters are stored as
//! **deltas** since the previous scrape (so a point reads as "work done
//! in this window"), gauges as instantaneous levels, and each latency
//! histogram as the p50/p99 of the values recorded *within the window*.
//! When the ring is full the oldest point is dropped — memory stays
//! fixed no matter how long the server runs.
//!
//! Deltas are computed with `saturating_sub` against the last absolute
//! baseline, and [`reset_series`] (called from
//! [`crate::reset_metrics`]) clears both the ring and the baseline
//! under the same lock, so a scrape racing a registry reset can never
//! produce a negative (wrapped) delta — it degrades to a zero delta for
//! that window instead.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::hist::{hist_snapshot, Hist, HistSnapshot, Histogram};
use crate::json::Json;
use crate::metrics::{counter_value, gauge_value, Counter, Gauge};

/// Maximum number of points the ring retains; the oldest point is
/// evicted when a new scrape would exceed this.
pub const SERIES_CAPACITY: usize = 256;

/// One latency histogram's contribution to a series point: the activity
/// within the scrape window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesHist {
    /// Values recorded during the window (count delta).
    pub count: u64,
    /// Median of the window's values (0 when the window is empty).
    pub p50: u64,
    /// 99th percentile of the window's values (0 when empty).
    pub p99: u64,
}

/// One downsampled registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Monotonic scrape sequence number (resets with [`crate::reset_metrics`]).
    pub seq: u64,
    /// Wall-clock scrape time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Counter deltas since the previous scrape, in [`Counter::ALL`]
    /// order.
    pub counters: Vec<u64>,
    /// Instantaneous gauge levels, in [`Gauge::ALL`] order.
    pub gauges: Vec<u64>,
    /// Per-histogram window activity, in [`Hist::ALL`] order.
    pub hists: Vec<SeriesHist>,
}

impl SeriesPoint {
    /// Delta of one counter in this window.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Level of one gauge at scrape time.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }

    /// Window activity of one histogram.
    pub fn hist(&self, hist: Hist) -> &SeriesHist {
        &self.hists[hist as usize]
    }

    /// Serializes the point as one self-describing JSON object (the
    /// NDJSON record format of `serve --series-out`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::UInt(self.seq)),
            ("unix_ms", Json::UInt(self.unix_ms)),
            (
                "counters",
                Json::obj(
                    Counter::ALL
                        .iter()
                        .zip(&self.counters)
                        .map(|(c, &v)| (c.name(), Json::UInt(v))),
                ),
            ),
            (
                "gauges",
                Json::obj(
                    Gauge::ALL
                        .iter()
                        .zip(&self.gauges)
                        .map(|(g, &v)| (g.name(), Json::UInt(v))),
                ),
            ),
            (
                "hists",
                Json::obj(Hist::ALL.iter().zip(&self.hists).map(|(h, sh)| {
                    (
                        h.name(),
                        Json::obj([
                            ("count", Json::UInt(sh.count)),
                            ("p50", Json::UInt(sh.p50)),
                            ("p99", Json::UInt(sh.p99)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Baseline absolute values the next scrape diffs against, plus the ring
/// itself. One lock guards both so reset and scrape are atomic relative
/// to each other.
struct SeriesState {
    seq: u64,
    counters: [u64; Counter::ALL.len()],
    hists: Vec<HistSnapshot>,
    ring: VecDeque<SeriesPoint>,
}

impl SeriesState {
    const fn new() -> Self {
        Self {
            seq: 0,
            counters: [0; Counter::ALL.len()],
            hists: Vec::new(),
            ring: VecDeque::new(),
        }
    }
}

static SERIES: Mutex<SeriesState> = Mutex::new(SeriesState::new());

fn empty_hist_snapshot() -> HistSnapshot {
    Histogram::new().snapshot()
}

/// The p50/p99 of the values recorded between `prev` and `cur`:
/// bucket-wise count difference, percentiles extracted from the
/// difference histogram. Bounds are bucket upper bounds clamped to the
/// cumulative max (the window max is not tracked separately).
fn window_hist(prev: &HistSnapshot, cur: &HistSnapshot) -> SeriesHist {
    let mut counts = [0u64; Histogram::BUCKETS];
    for ((out, &c), &p) in counts.iter_mut().zip(&cur.counts).zip(&prev.counts) {
        *out = c.saturating_sub(p);
    }
    let window = HistSnapshot {
        counts,
        count: cur.count.saturating_sub(prev.count),
        sum: cur.sum.wrapping_sub(prev.sum),
        min: cur.min,
        max: cur.max,
    };
    SeriesHist {
        count: window.count,
        p50: window.p50(),
        p99: window.p99(),
    }
}

/// Reads the registry, records one [`SeriesPoint`] into the ring, and
/// returns it. Unlike the hot-path recorders this is *not* gated on
/// [`crate::metrics_enabled`] — the caller (the serve scraper thread or
/// a test) decides when to sample.
pub fn scrape_series() -> SeriesPoint {
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let cur_counters: Vec<u64> = Counter::ALL.iter().map(|&c| counter_value(c)).collect();
    let cur_hists: Vec<HistSnapshot> = Hist::ALL.iter().map(|&h| hist_snapshot(h)).collect();
    let gauges: Vec<u64> = Gauge::ALL.iter().map(|&g| gauge_value(g)).collect();

    let mut state = SERIES.lock().expect("series ring poisoned");
    if state.hists.is_empty() {
        state.hists = vec![empty_hist_snapshot(); Hist::ALL.len()];
    }
    let counters: Vec<u64> = cur_counters
        .iter()
        .zip(&state.counters)
        .map(|(&cur, &prev)| cur.saturating_sub(prev))
        .collect();
    let hists: Vec<SeriesHist> = cur_hists
        .iter()
        .zip(&state.hists)
        .map(|(cur, prev)| window_hist(prev, cur))
        .collect();
    let point = SeriesPoint {
        seq: state.seq,
        unix_ms,
        counters,
        gauges,
        hists,
    };
    state.seq += 1;
    state.counters.copy_from_slice(&cur_counters);
    state.hists = cur_hists;
    if state.ring.len() >= SERIES_CAPACITY {
        state.ring.pop_front();
    }
    state.ring.push_back(point.clone());
    point
}

/// A copy of the ring, oldest point first.
pub(crate) fn series_points() -> Vec<SeriesPoint> {
    SERIES
        .lock()
        .expect("series ring poisoned")
        .ring
        .iter()
        .cloned()
        .collect()
}

/// Number of points currently retained.
pub fn series_len() -> usize {
    SERIES.lock().expect("series ring poisoned").ring.len()
}

/// Serializes the ring as one JSON document (the `series` section of a
/// `stats {"series":true}` response).
pub fn series_json() -> Json {
    Json::obj([
        ("schema", Json::str("datareuse-series-v1")),
        ("capacity", Json::UInt(SERIES_CAPACITY as u64)),
        (
            "points",
            Json::arr(series_points().iter().map(SeriesPoint::to_json)),
        ),
    ])
}

/// Serializes the ring as NDJSON, one point per line (the
/// `serve --series-out` dump format).
pub fn series_ndjson() -> String {
    let mut out = String::new();
    for p in series_points() {
        out.push_str(&p.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Clears the ring, the delta baseline, and the sequence counter under
/// one lock. Called from [`crate::reset_metrics`] so counters and the
/// series reset together — a scrape landing right after a reset sees a
/// zero baseline, never a stale one that would make deltas go
/// "negative" (clamped to zero by `saturating_sub` regardless).
pub(crate) fn reset_series() {
    let mut state = SERIES.lock().expect("series ring poisoned");
    *state = SeriesState::new();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::test_lock;
    use crate::{add, record_hist, reset_metrics, set_metrics_enabled};

    #[test]
    fn scrapes_record_deltas_not_absolutes() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        add(Counter::ServeRequests, 5);
        let p0 = scrape_series();
        assert_eq!(p0.seq, 0);
        assert_eq!(p0.counter(Counter::ServeRequests), 5);
        add(Counter::ServeRequests, 2);
        let p1 = scrape_series();
        assert_eq!(p1.seq, 1);
        assert_eq!(p1.counter(Counter::ServeRequests), 2);
        // Quiet window: delta is zero even though the absolute is 7.
        let p2 = scrape_series();
        assert_eq!(p2.counter(Counter::ServeRequests), 0);
        assert_eq!(series_len(), 3);
        set_metrics_enabled(false);
        reset_metrics();
        assert_eq!(series_len(), 0);
    }

    #[test]
    fn hist_points_reflect_only_the_window() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        record_hist(Hist::ServeLatencyCold, 1_000);
        scrape_series();
        // Second window records much slower requests; its p50 must
        // reflect the new values, not the cumulative distribution.
        for _ in 0..10 {
            record_hist(Hist::ServeLatencyCold, 1_000_000);
        }
        let p = scrape_series();
        let h = p.hist(Hist::ServeLatencyCold);
        assert_eq!(h.count, 10);
        assert!(h.p50 >= 1_000_000, "window p50 {} pulled down", h.p50);
        set_metrics_enabled(false);
        reset_metrics();
    }

    #[test]
    fn reset_between_scrapes_cannot_go_negative() {
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        add(Counter::ServeRequests, 100);
        record_hist(Hist::ServeLatencyCold, 50);
        scrape_series();
        // Counters drop to zero but the series baseline is cleared with
        // them, so the next scrape starts a fresh sequence at delta 0
        // instead of wrapping 0 - 100.
        reset_metrics();
        set_metrics_enabled(true);
        let p = scrape_series();
        assert_eq!(p.seq, 0, "reset must restart the sequence");
        assert_eq!(p.counter(Counter::ServeRequests), 0);
        assert_eq!(p.hist(Hist::ServeLatencyCold).count, 0);
        assert_eq!(series_len(), 1);
        set_metrics_enabled(false);
        reset_metrics();
    }

    #[test]
    fn wraparound_keeps_newest_points_and_conserves_deltas() {
        use datareuse_proptest::{check, prop_assert_eq, Config};
        let _guard = test_lock::hold();
        // Property: after N > SERIES_CAPACITY scrapes the ring holds
        // exactly the newest 256 points with contiguous sequence
        // numbers, each point's delta matches the work done in its
        // window, and retained + evicted deltas recompose the absolute
        // counter — eviction loses history, never accounting.
        check(
            "series_wraparound_conserves_deltas",
            &Config::with_cases(6),
            |rng| {
                rng.vec(SERIES_CAPACITY + 1, SERIES_CAPACITY + 32, |r| {
                    r.u64_in(0, 1_000)
                })
            },
            |increments| {
                reset_metrics();
                set_metrics_enabled(true);
                let mut total = 0u64;
                for &n in increments {
                    add(Counter::ServeRequests, n);
                    total += n;
                    scrape_series();
                }
                set_metrics_enabled(false);
                let points = series_points();
                prop_assert_eq!(points.len(), SERIES_CAPACITY);
                let first = increments.len() - SERIES_CAPACITY;
                for (i, p) in points.iter().enumerate() {
                    prop_assert_eq!(p.seq, (first + i) as u64);
                    prop_assert_eq!(
                        p.counter(Counter::ServeRequests),
                        increments[first + i],
                        "window {} delta",
                        first + i
                    );
                }
                let evicted: u64 = increments[..first].iter().sum();
                let kept: u64 = points
                    .iter()
                    .map(|p| p.counter(Counter::ServeRequests))
                    .sum();
                prop_assert_eq!(kept + evicted, total);
                reset_metrics();
                Ok(())
            },
        );
    }

    #[test]
    fn window_hists_recompose_the_cumulative_count() {
        use datareuse_proptest::{check, prop_assert, prop_assert_eq, Config};
        let _guard = test_lock::hold();
        // Property: each point's window histogram counts exactly the
        // values recorded in that window (the bucket-difference merge is
        // lossless), window percentiles stay ordered, and the windows
        // sum back to the cumulative histogram count.
        check(
            "series_window_hists_recompose",
            &Config::with_cases(16),
            |rng| {
                rng.vec(1, 8, |r| {
                    r.vec(0, 12, |v| v.u64_in(1, 10_000_000))
                })
            },
            |windows| {
                reset_metrics();
                set_metrics_enabled(true);
                let mut per_window = Vec::new();
                for batch in windows {
                    for &v in batch {
                        record_hist(Hist::ServeQueueWait, v);
                    }
                    per_window.push(scrape_series());
                }
                set_metrics_enabled(false);
                let mut windowed = 0u64;
                for (point, batch) in per_window.iter().zip(windows) {
                    let h = point.hist(Hist::ServeQueueWait);
                    prop_assert_eq!(h.count, batch.len() as u64);
                    prop_assert!(h.p50 <= h.p99, "window p50 {} > p99 {}", h.p50, h.p99);
                    windowed += h.count;
                }
                prop_assert_eq!(windowed, hist_snapshot(Hist::ServeQueueWait).count);
                reset_metrics();
                Ok(())
            },
        );
    }

    #[test]
    fn ring_is_bounded_and_json_parses() {
        let _guard = test_lock::hold();
        reset_metrics();
        for _ in 0..(SERIES_CAPACITY + 10) {
            scrape_series();
        }
        assert_eq!(series_len(), SERIES_CAPACITY);
        let points = series_points();
        // Oldest points were evicted: the ring starts at seq 10.
        assert_eq!(points[0].seq, 10);
        assert_eq!(points.last().unwrap().seq, (SERIES_CAPACITY + 9) as u64);

        let doc = series_json().to_string();
        let parsed = Json::parse(&doc).expect("series JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("datareuse-series-v1")
        );
        assert_eq!(
            parsed.get("points").and_then(Json::as_array).unwrap().len(),
            SERIES_CAPACITY
        );
        let ndjson = series_ndjson();
        assert_eq!(ndjson.lines().count(), SERIES_CAPACITY);
        for line in ndjson.lines() {
            Json::parse(line).expect("each NDJSON line parses");
        }
        reset_metrics();
    }
}
