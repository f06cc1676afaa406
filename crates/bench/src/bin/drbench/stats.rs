//! Exact order statistics over raw samples, and the `/proc` readings
//! behind `cpu_us_per_op` and `peak_rss_mb`.
//!
//! Percentiles come from the sorted samples themselves, never from
//! `datareuse_obs::Histogram`: its buckets are about 50% wide and cannot
//! resolve a 10% regression bound.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MARGIN: usize = 10;

/// The median of sorted samples (mean of the middle two for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail percentile of sorted samples: p99 by the nearest-rank rule,
/// lowered to the highest percentile that still leaves [`TAIL_MARGIN`]
/// samples beyond it when there are fewer than 1000 samples. Returns the
/// percentile used and its value; `None` below `TAIL_MARGIN + 1` samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_MARGIN {
        return None;
    }
    let p99_rank = (99 * n).div_ceil(100);
    let rank = p99_rank.min(n - TAIL_MARGIN);
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Nanosecond samples as sorted microseconds.
pub fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    us
}

/// The quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so `--repeat` reports the spread the way a reader would recompute it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), median(&v), cut(3))
}

/// The geometric mean of positive values (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 by
/// the kernel ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (`utime + stime`) a process has used, from
/// `/proc/<pid>/stat`. Dead threads' time stays in these fields, so the
/// exploration's short-lived fan-out workers are counted.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name is parenthesized and may hold spaces; fields
    // after it are space-separated, utime and stime being 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("{path}: bad field {i}"))
    };
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    Ok((tick(14 - 3)? + tick(15 - 3)?) / TICKS_PER_SECOND)
}

/// The peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 10.0]), 3.0);
    }

    #[test]
    fn the_tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        // Eleven samples: only the smallest has ten beyond it.
        let (p, x) = tail(&v).unwrap();
        assert_eq!(x, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-9);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!((p, x), (99.0, 4950.0));
        assert!(v.iter().filter(|&&s| s > x).count() >= TAIL_MARGIN);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn this_process_has_cpu_time_and_a_resident_set() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }
}
