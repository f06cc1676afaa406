//! Property tests of the latency histogram and the Chrome trace export.
//!
//! The histogram is the only lossy structure on the serving path — the
//! percentiles it reports feed the `stats` op, the window panels of
//! `datareuse top` and the `--metrics` snapshot — so its invariants are pinned over the *whole*
//! `u64` domain, not just plausible nanosecond values. All cases run
//! from fixed seeds (see `datareuse-proptest`); failures reproduce from
//! the printed `(seed, case)` pair.

use datareuse_obs::{chrome_trace_json, HistSnapshot, Histogram, Json, TraceEvent};
use datareuse_proptest::{check, prop_assert, prop_assert_eq, Config, Rng};

/// Draws a value biased across scales: u64 extremes (0, MAX, powers of
/// two and their neighbours) must be as common as mid-range latencies,
/// since bucket-boundary off-by-ones only surface there.
fn any_value(rng: &mut Rng) -> u64 {
    match rng.u64_in(0, 5) {
        0 => rng.u64_in(0, 16),
        1 => rng.u64_in(0, 1 << 20),
        2 => rng.u64_in(u64::MAX - 16, u64::MAX),
        3 => {
            let exp = rng.u64_in(0, 63) as u32;
            let base = 1u64 << exp;
            base.wrapping_add(rng.u64_in(0, 2)).wrapping_sub(1)
        }
        _ => rng.next_u64(),
    }
}

fn snapshot_of(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn no_value_is_lost_and_extremes_stay_in_range() {
    check(
        "hist_count_conservation",
        &Config::default(),
        |rng| rng.vec(0, 64, any_value),
        |values| {
            let snap = snapshot_of(values);
            // Every recorded value landed in exactly one bucket.
            prop_assert_eq!(snap.count, values.len() as u64);
            prop_assert_eq!(snap.counts.iter().sum::<u64>(), values.len() as u64);
            if values.is_empty() {
                prop_assert_eq!(snap.min, 0);
                prop_assert_eq!(snap.max, 0);
                return Ok(());
            }
            prop_assert_eq!(snap.min, *values.iter().min().unwrap());
            prop_assert_eq!(snap.max, *values.iter().max().unwrap());
            let sum = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
            prop_assert_eq!(snap.sum, sum, "wrapping sum conserved");
            // Each value's bucket upper bound is an over-approximation.
            for &v in values {
                let i = Histogram::bucket_index(v);
                prop_assert!(i < Histogram::BUCKETS);
                prop_assert!(Histogram::bucket_bound(i) >= v, "bound below value {v}");
                prop_assert!(i == 0 || Histogram::bucket_bound(i - 1) < v);
            }
            Ok(())
        },
    );
}

#[test]
fn percentiles_are_monotone_and_bounded_by_observation() {
    check(
        "hist_percentile_monotone",
        &Config::default(),
        |rng| rng.vec(1, 64, any_value),
        |values| {
            let snap = snapshot_of(values);
            let grid = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
            for q in grid.windows(2) {
                prop_assert!(
                    snap.percentile(q[0]) <= snap.percentile(q[1]),
                    "p{} > p{}",
                    q[0],
                    q[1]
                );
            }
            for &q in &grid {
                let p = snap.percentile(q);
                // A percentile is a bucket bound clamped to the observed
                // max: never below the minimum, never above the maximum.
                prop_assert!(snap.min <= p && p <= snap.max, "p({q}) = {p} escapes range");
            }
            prop_assert_eq!(snap.percentile(1.0), snap.max);
            Ok(())
        },
    );
}

#[test]
fn merging_snapshots_equals_recording_the_concatenation() {
    check(
        "hist_merge_is_concat",
        &Config::default(),
        |rng| (rng.vec(0, 48, any_value), rng.vec(0, 48, any_value)),
        |(a, b)| {
            let merged = snapshot_of(a).merge(&snapshot_of(b));
            let concat: Vec<u64> = a.iter().chain(b).copied().collect();
            prop_assert_eq!(merged, snapshot_of(&concat));
            // And merge is commutative, so shards can combine in any order.
            prop_assert_eq!(
                snapshot_of(a).merge(&snapshot_of(b)),
                snapshot_of(b).merge(&snapshot_of(a))
            );
            Ok(())
        },
    );
}

#[test]
fn histogram_json_is_parseable_and_consistent() {
    check(
        "hist_json_roundtrip",
        &Config::with_cases(128),
        |rng| rng.vec(0, 32, any_value),
        |values| {
            let snap = snapshot_of(values);
            let doc = Json::parse(&snap.to_json().to_string()).map_err(|e| e.to_string())?;
            let field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
            prop_assert_eq!(field("count"), snap.count);
            prop_assert_eq!(field("min"), snap.min);
            prop_assert_eq!(field("max"), snap.max);
            if snap.count == 0 {
                // Empty histograms have no percentiles: serialized null.
                prop_assert!(matches!(doc.get("p50"), Some(Json::Null)));
                prop_assert!(matches!(doc.get("p999"), Some(Json::Null)));
            } else {
                prop_assert_eq!(field("p50"), snap.p50());
                prop_assert_eq!(field("p999"), snap.p999());
            }
            // The serialized buckets re-add to the total count.
            let buckets = doc.get("buckets").and_then(Json::as_array).unwrap();
            let total: u64 = buckets
                .iter()
                .map(|pair| pair.at(1).and_then(Json::as_u64).unwrap())
                .sum();
            prop_assert_eq!(total, snap.count);
            Ok(())
        },
    );
}

#[test]
fn merged_histogram_percentiles_stay_monotone_and_in_range() {
    // Consumers read *merged* snapshots (shard merges), so monotonicity
    // must survive the merge, not just a single-recorder histogram.
    check(
        "hist_merged_percentile_monotone",
        &Config::default(),
        |rng| (rng.vec(1, 48, any_value), rng.vec(1, 48, any_value)),
        |(a, b)| {
            let (sa, sb) = (snapshot_of(a), snapshot_of(b));
            let merged = sa.merge(&sb);
            let grid = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
            for q in grid.windows(2) {
                prop_assert!(
                    merged.percentile(q[0]) <= merged.percentile(q[1]),
                    "merged p{} > p{}",
                    q[0],
                    q[1]
                );
            }
            for &q in &grid {
                let p = merged.percentile(q);
                prop_assert!(
                    merged.min <= p && p <= merged.max,
                    "merged p({q}) = {p} escapes [{}, {}]",
                    merged.min,
                    merged.max
                );
            }
            prop_assert_eq!(merged.percentile(1.0), sa.max.max(sb.max));
            // Merging with an empty snapshot changes nothing.
            prop_assert_eq!(sa.merge(&snapshot_of(&[])), sa);
            Ok(())
        },
    );
}

#[test]
fn windows_of_a_cumulative_histogram_recompose_it() {
    // `top` diffs consecutive `stats` polls: each window must count
    // exactly the values recorded inside it (the bucket difference is
    // lossless, so an early fast value cannot pull a slow window's
    // median down), keep its percentiles ordered, and the windows must
    // sum back to the cumulative count.
    check(
        "hist_windows_recompose",
        &Config::default(),
        |rng| rng.vec(1, 8, |r| r.vec(0, 12, any_value)),
        |windows| {
            let h = Histogram::new();
            let mut prev = h.snapshot();
            let mut windowed = 0u64;
            for batch in windows {
                for &v in batch {
                    h.record(v);
                }
                let cur = h.snapshot();
                let window = cur.since(&prev);
                prop_assert_eq!(window.count, batch.len() as u64);
                prop_assert_eq!(window.counts, snapshot_of(batch).counts);
                prop_assert!(window.p50() <= window.p99(), "window p50 > p99");
                // A reset between polls reads as an empty window.
                prop_assert_eq!(Histogram::new().snapshot().since(&cur).count, 0);
                windowed += window.count;
                prev = cur;
            }
            prop_assert_eq!(windowed, h.snapshot().count);
            Ok(())
        },
    );
}

/// Names and details must be `&'static str`, so generated events draw
/// from pools; the details include the JSON escapes `"` and `\`.
const NAMES: [&str; 4] = ["request", "execute", "queue_wait", "flush"];
const DETAILS: [&str; 4] = ["", "explore", "say \"hi\"", "C:\\tmp\\k.dr"];

/// The first field picks both pools: name `k % 4`, detail `k / 4`.
fn any_event(rng: &mut Rng) -> (usize, u64, u64, u64, u64, u64, u64) {
    (
        rng.usize_in(0, NAMES.len() * DETAILS.len() - 1),
        rng.next_u64(),               // trace_id
        rng.u64_in(1, u64::MAX),      // span_id
        rng.next_u64(),               // parent_span
        rng.u64_in(0, 512),           // tid
        rng.u64_in(0, u64::MAX / 2),  // ts_ns
        rng.u64_in(0, u64::MAX / 2),  // dur_ns
    )
}

#[test]
fn chrome_trace_export_round_trips_through_the_json_parser() {
    check(
        "chrome_trace_roundtrip",
        &Config::with_cases(128),
        |rng| rng.vec(0, 24, any_event),
        |raw| {
            let events: Vec<TraceEvent> = raw
                .iter()
                .map(|&(k, trace_id, span_id, parent_span, tid, ts_ns, dur_ns)| TraceEvent {
                    name: NAMES[k % NAMES.len()],
                    detail: DETAILS[k / NAMES.len()],
                    trace_id,
                    span_id,
                    parent_span,
                    tid,
                    ts_ns,
                    dur_ns,
                })
                .collect();
            let text = chrome_trace_json(&events).to_string();
            let doc = Json::parse(&text).map_err(|e| e.to_string())?;
            prop_assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ns"));
            let out = doc.get("traceEvents").and_then(Json::as_array).unwrap();
            prop_assert_eq!(out.len(), events.len());
            for (e, j) in events.iter().zip(out) {
                prop_assert_eq!(j.get("name").and_then(Json::as_str), Some(e.name));
                prop_assert_eq!(j.get("ph").and_then(Json::as_str), Some("X"));
                prop_assert_eq!(j.get("tid").and_then(Json::as_u64), Some(e.tid));
                let args = j.get("args").unwrap();
                let hex = format!("{:016x}", e.trace_id);
                prop_assert_eq!(args.get("trace_id").and_then(Json::as_str), Some(hex.as_str()));
                prop_assert_eq!(args.get("span_id").and_then(Json::as_u64), Some(e.span_id));
                prop_assert_eq!(
                    args.get("parent_span").and_then(Json::as_u64),
                    Some(e.parent_span)
                );
                prop_assert_eq!(
                    args.get("detail").and_then(Json::as_str),
                    (!e.detail.is_empty()).then_some(e.detail),
                    "detail round-trips, key only when non-empty"
                );
                // Timestamps survive the µs conversion to Perfetto
                // precision (a 53-bit mantissa covers every ts the
                // process-epoch clock can mint in ~104 days).
                let ts = j.get("ts").and_then(Json::as_f64).unwrap();
                prop_assert!((ts - e.ts_ns as f64 / 1_000.0).abs() < 1e-3 * ts.abs().max(1.0));
                let dur = j.get("dur").and_then(Json::as_f64).unwrap();
                prop_assert!(dur > 0.0, "zero-duration spans render invisibly");
            }
            Ok(())
        },
    );
}
