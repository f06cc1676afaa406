//! Prometheus text-format exposition of a [`MetricsSnapshot`].
//!
//! Renders the exposition format version 0.0.4 (the plain-text format
//! every Prometheus scraper accepts): one `# TYPE` line per family,
//! `datareuse_`-prefixed sample names, and histograms as cumulative
//! `_bucket{le="…"}` series plus `_sum`/`_count`.
//!
//! The renderer iterates the snapshot's own vectors — which are built
//! from `Counter::ALL` / `Gauge::ALL` / `Hist::ALL` — so a newly added
//! enum variant shows up in the scrape automatically; the unit test
//! below fails on any drift between the enums and the exposition
//! output.

use crate::metrics::MetricsSnapshot;

/// Renders `snap` as a Prometheus text-format scrape body.
///
/// Counters become `datareuse_<name>` with `# TYPE … counter`, gauges
/// likewise as `gauge`, and each latency histogram becomes a
/// `# TYPE … histogram` family with cumulative `_bucket{le="…"}` rows
/// (one per non-empty bucket, plus the mandatory `le="+Inf"`), `_sum`,
/// and `_count`. Bucket bounds are nanoseconds, matching the `_ns`
/// suffix in the metric names.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for &(name, value) in &snap.counters {
        out.push_str(&format!(
            "# TYPE datareuse_{name} counter\ndatareuse_{name} {value}\n"
        ));
    }
    for &(name, value) in &snap.gauges {
        out.push_str(&format!(
            "# TYPE datareuse_{name} gauge\ndatareuse_{name} {value}\n"
        ));
    }
    for (name, hist) in &snap.hists {
        out.push_str(&format!("# TYPE datareuse_{name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, &count) in hist.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            let bound = crate::hist::Histogram::bucket_bound(i);
            out.push_str(&format!(
                "datareuse_{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "datareuse_{name}_bucket{{le=\"+Inf\"}} {count}\n",
            count = hist.count
        ));
        out.push_str(&format!("datareuse_{name}_sum {sum}\n", sum = hist.sum));
        out.push_str(&format!(
            "datareuse_{name}_count {count}\n",
            count = hist.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Hist;
    use crate::metrics::test_lock;
    use crate::{Counter, Gauge};

    /// The drift gate: every Counter/Gauge/Hist variant must appear in
    /// the scrape, and histograms must expose bucket series.
    #[test]
    fn scrape_covers_every_registered_metric() {
        let _guard = test_lock::hold();
        crate::reset_metrics();
        crate::set_metrics_enabled(true);
        crate::add(Counter::ServeRequests, 2);
        crate::record_hist(Hist::ServeLatencyCold, 1_000);
        crate::record_hist(Hist::ServeLatencyCold, 2_000_000);
        let snap = crate::snapshot();
        crate::reset_metrics();

        let text = prometheus_text(&snap);
        for counter in Counter::ALL {
            // Every sample row follows its `# TYPE` line's newline.
            assert!(
                text.contains(&format!("\ndatareuse_{} ", counter.name())),
                "missing counter {} in scrape",
                counter.name()
            );
        }
        for gauge in Gauge::ALL {
            assert!(
                text.contains(&format!("\ndatareuse_{} ", gauge.name())),
                "missing gauge {} in scrape",
                gauge.name()
            );
        }
        for hist in Hist::ALL {
            assert!(
                text.contains(&format!("# TYPE datareuse_{} histogram", hist.name())),
                "missing histogram {} in scrape",
                hist.name()
            );
            assert!(
                text.contains(&format!("datareuse_{}_bucket{{le=\"+Inf\"}}", hist.name())),
                "missing +Inf bucket for {}",
                hist.name()
            );
        }
        assert!(text.contains("datareuse_serve_requests 2\n"));
        // Two recorded values -> two non-empty buckets, cumulative.
        assert!(text.contains("datareuse_serve_latency_cold_ns_count 2\n"));
        let inf = "datareuse_serve_latency_cold_ns_bucket{le=\"+Inf\"} 2";
        assert!(text.contains(inf));
    }

    #[test]
    fn bucket_rows_are_cumulative_and_bounded_by_count() {
        let _guard = test_lock::hold();
        crate::reset_metrics();
        crate::set_metrics_enabled(true);
        for v in [10u64, 10, 500, 70_000] {
            crate::record_hist(Hist::ExploreChunk, v);
        }
        let snap = crate::snapshot();
        crate::reset_metrics();
        let text = prometheus_text(&snap);
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("datareuse_explore_chunk_ns_bucket{le=\"") {
                let value: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(value >= last, "bucket rows must be cumulative: {line}");
                assert!(value <= 4);
                last = value;
            }
        }
        assert_eq!(last, 4, "final bucket (+Inf) must equal total count");
    }
}
