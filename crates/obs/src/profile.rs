//! Span-derived self-time and self-allocation profiler.
//!
//! The span registry ([`crate::span`]) aggregates wall time *and* bytes
//! allocated in scope by `/`-joined hierarchical path (`explore/pairs`,
//! `explore/chains`). Those totals are *cumulative*: time spent (and
//! bytes allocated) in `explore/pairs` are also inside `explore`. This
//! module derives the classic profiler view from them — per-path **self
//! time** and **self bytes** (cumulative minus the amount attributed to
//! direct children) — and the registry has exactly two exports of it:
//!
//! - the `spans` rows of the metrics snapshot ([`crate::snapshot`]),
//!   which carry `ns`, `bytes`, `self_ns` and `self_bytes` per path;
//! - [`collapsed_stacks`]: the collapsed-stack text format consumed by
//!   `flamegraph.pl` and compatible viewers — one line per path with
//!   positive self time, `a;b;c SELF_NS`.
//!
//! Self weights partition cumulative weights: for any span tree, the sum
//! of the self values of a root and all its descendants equals the
//! root's cumulative total — for nanoseconds and for bytes alike — so
//! summing every line of a collapsed export reconstructs the total
//! profiled wall time (or allocation) exactly. No extra accumulator
//! state lives here — the profile is a pure function of the span
//! registry, so [`crate::reset_metrics`] clearing the spans clears the
//! profile too.

/// One aggregated profile row: a span path with cumulative and self
/// weights for both wall time and allocated bytes. The metrics snapshot
/// carries one per span path ([`crate::MetricsSnapshot::spans`]).
///
/// # Examples
///
/// ```
/// use datareuse_obs::{reset_metrics, set_metrics_enabled, snapshot, span};
/// reset_metrics();
/// set_metrics_enabled(true);
/// {
///     let _outer = span("outer");
///     let _inner = span("inner");
/// }
/// set_metrics_enabled(false);
/// let rows = snapshot().spans;
/// assert_eq!(rows.len(), 2);
/// let outer = &rows[0];
/// let inner = &rows[1];
/// assert_eq!(outer.path, "outer");
/// assert_eq!(inner.path, "outer/inner");
/// assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
/// assert_eq!(inner.self_ns, inner.total_ns);
/// reset_metrics();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// `/`-joined span path, e.g. `explore/pairs`.
    pub path: String,
    /// Number of times a span completed at this path.
    pub calls: u64,
    /// Cumulative nanoseconds: all time with this path on the stack.
    pub total_ns: u64,
    /// Self nanoseconds: cumulative minus direct children's cumulative.
    pub self_ns: u64,
    /// Cumulative bytes allocated with this path on the stack (by the
    /// opening thread).
    pub total_bytes: u64,
    /// Self bytes: cumulative minus direct children's cumulative.
    pub self_bytes: u64,
}

/// Derives profile rows from the live span registry, sorted by path:
/// the `spans` section of [`crate::snapshot`].
///
/// Self time is `total_ns` minus the summed `total_ns` of *direct*
/// children (paths one `/` segment deeper), and self bytes likewise.
/// Clock jitter can make a child's recorded total marginally exceed its
/// parent's; self values saturate at zero rather than going negative.
pub(crate) fn profile_rows() -> Vec<ProfileRow> {
    rows_from(&crate::span::span_rows())
}

/// Pure core of the snapshot's span rows: derives rows from `(path, calls,
/// total_ns, total_bytes)` tuples. Input order does not matter; output
/// is sorted by path.
fn rows_from(spans: &[(String, u64, u64, u64)]) -> Vec<ProfileRow> {
    let mut rows: Vec<ProfileRow> = spans
        .iter()
        .map(|(path, calls, total_ns, total_bytes)| ProfileRow {
            path: path.clone(),
            calls: *calls,
            total_ns: *total_ns,
            self_ns: *total_ns,
            total_bytes: *total_bytes,
            self_bytes: *total_bytes,
        })
        .collect();
    rows.sort_by(|a, b| a.path.cmp(&b.path));
    // Subtract each direct child's cumulative weights from its parent's
    // self weights. A direct child of `p` is `p/<segment>` with no
    // further separator.
    let totals: Vec<(String, u64, u64)> = rows
        .iter()
        .map(|r| (r.path.clone(), r.total_ns, r.total_bytes))
        .collect();
    for row in &mut rows {
        let prefix = format!("{}/", row.path);
        let (mut child_ns, mut child_bytes) = (0u64, 0u64);
        for (p, ns, bytes) in &totals {
            if p.strip_prefix(&prefix)
                .is_some_and(|rest| !rest.contains('/'))
            {
                child_ns += ns;
                child_bytes += bytes;
            }
        }
        row.self_ns = row.total_ns.saturating_sub(child_ns);
        row.self_bytes = row.total_bytes.saturating_sub(child_bytes);
    }
    rows
}

/// Renders the profile in collapsed-stack format: one `a;b;c SELF_NS`
/// line per path with positive self time, sorted by path, ending in a
/// newline when non-empty. The output feeds `flamegraph.pl` directly
/// (sample unit: nanoseconds).
///
/// Because self times partition cumulative time, the values on all
/// emitted lines sum to the total profiled wall time (the sum of the
/// root spans' cumulative totals).
pub fn collapsed_stacks() -> String {
    let mut out = String::new();
    for row in profile_rows().into_iter().filter(|r| r.self_ns > 0) {
        out.push_str(&row.path.replace('/', ";"));
        out.push(' ');
        out.push_str(&row.self_ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> Vec<(String, u64, u64, u64)> {
        vec![
            ("explore".into(), 2, 1_000, 10_000),
            ("explore/pairs".into(), 2, 300, 3_000),
            ("explore/chains".into(), 2, 500, 5_000),
            ("explore/chains/pareto".into(), 4, 200, 2_000),
            ("serve".into(), 1, 50, 500),
        ]
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let rows = rows_from(&fixed());
        let by_path: std::collections::HashMap<&str, u64> = rows
            .iter()
            .map(|r| (r.path.as_str(), r.self_ns))
            .collect();
        assert_eq!(by_path["explore"], 1_000 - 300 - 500);
        assert_eq!(by_path["explore/chains"], 500 - 200);
        assert_eq!(by_path["explore/chains/pareto"], 200);
        assert_eq!(by_path["explore/pairs"], 300);
        assert_eq!(by_path["serve"], 50);
    }

    #[test]
    fn self_bytes_subtract_only_direct_children() {
        let rows = rows_from(&fixed());
        let by_path: std::collections::HashMap<&str, u64> = rows
            .iter()
            .map(|r| (r.path.as_str(), r.self_bytes))
            .collect();
        assert_eq!(by_path["explore"], 10_000 - 3_000 - 5_000);
        assert_eq!(by_path["explore/chains"], 5_000 - 2_000);
        assert_eq!(by_path["explore/chains/pareto"], 2_000);
        assert_eq!(by_path["explore/pairs"], 3_000);
        assert_eq!(by_path["serve"], 500);
    }

    #[test]
    fn self_times_partition_root_totals() {
        let rows = rows_from(&fixed());
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        let root_sum: u64 = rows
            .iter()
            .filter(|r| !r.path.contains('/'))
            .map(|r| r.total_ns)
            .sum();
        assert_eq!(self_sum, root_sum);
    }

    #[test]
    fn self_bytes_partition_root_totals() {
        let rows = rows_from(&fixed());
        let self_sum: u64 = rows.iter().map(|r| r.self_bytes).sum();
        let root_sum: u64 = rows
            .iter()
            .filter(|r| !r.path.contains('/'))
            .map(|r| r.total_bytes)
            .sum();
        assert_eq!(self_sum, root_sum);
    }

    #[test]
    fn sibling_prefixes_are_not_mistaken_for_children() {
        // `explore2` shares a string prefix with `explore` but is not
        // its child; `a/bc` is not a child of `a/b`.
        let rows = rows_from(&[
            ("explore".into(), 1, 100, 100),
            ("explore2".into(), 1, 40, 40),
            ("a/b".into(), 1, 30, 30),
            ("a/bc".into(), 1, 20, 20),
            ("a".into(), 1, 60, 60),
        ]);
        let by_path: std::collections::HashMap<&str, (u64, u64)> = rows
            .iter()
            .map(|r| (r.path.as_str(), (r.self_ns, r.self_bytes)))
            .collect();
        assert_eq!(by_path["explore"], (100, 100));
        assert_eq!(by_path["explore2"], (40, 40));
        assert_eq!(by_path["a"], (60 - 30 - 20, 60 - 30 - 20));
        assert_eq!(by_path["a/b"], (30, 30));
        assert_eq!(by_path["a/bc"], (20, 20));
    }

    #[test]
    fn grandchildren_do_not_double_subtract() {
        // Only `a/b` is subtracted from `a`; `a/b/c` charges to `a/b`.
        let rows = rows_from(&[
            ("a".into(), 1, 100, 1_000),
            ("a/b".into(), 1, 80, 800),
            ("a/b/c".into(), 1, 30, 300),
        ]);
        assert_eq!(rows[0].self_ns, 20);
        assert_eq!(rows[1].self_ns, 50);
        assert_eq!(rows[2].self_ns, 30);
        assert_eq!(rows[0].self_bytes, 200);
        assert_eq!(rows[1].self_bytes, 500);
        assert_eq!(rows[2].self_bytes, 300);
    }

    #[test]
    fn jitter_saturates_instead_of_underflowing() {
        // A child total above its parent's (clock jitter on the time
        // column) saturates, each column independently.
        let rows = rows_from(&[("a".into(), 1, 100, 500), ("a/b".into(), 1, 120, 700)]);
        assert_eq!(rows[0].self_ns, 0);
        assert_eq!(rows[0].self_bytes, 0);
    }

    #[test]
    fn collapsed_format_replaces_separators_and_skips_zero_self() {
        use crate::metrics::test_lock;
        use crate::{reset_metrics, set_metrics_enabled, span};
        let _guard = test_lock::hold();
        reset_metrics();
        set_metrics_enabled(true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_metrics_enabled(false);
        let text = collapsed_stacks();
        for line in text.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("`stack VALUE` shape");
            assert!(!stack.contains('/'), "separator not collapsed: {line}");
            let v: u64 = value.parse().expect("numeric self time");
            assert!(v > 0, "zero-self line emitted: {line}");
        }
        assert!(text.lines().any(|l| l.starts_with("outer;inner ")));
        reset_metrics();
        assert!(collapsed_stacks().is_empty());
    }
}
