//! Working-set analysis (Denning windows).
//!
//! The paper's Fig. 1 explains the whole idea through time-frames: "when
//! we look at smaller time-frames … only part of the data is needed in
//! each time-frame, so it would fit in a smaller, less power consuming
//! memory". [`working_set_profile`] quantifies exactly that: the number
//! of distinct elements touched inside a sliding window of `τ` accesses,
//! giving a model-free sanity bound for copy-candidate sizes.

use std::collections::HashMap;

use datareuse_obs::{Counter, LocalCounter};

/// Distinct-elements statistics over a sliding access window.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkingSetProfile {
    /// Window length `τ` in accesses.
    pub window: u64,
    /// Mean working-set size over all full windows.
    pub average: f64,
    /// Largest working-set size observed.
    pub peak: u64,
    /// Smallest working-set size observed.
    pub min: u64,
}

/// Computes the working-set profile of `trace` for window length
/// `window` (clamped to the trace length). Runs in `O(n)`.
///
/// # Panics
///
/// Panics when `window` is 0.
///
/// # Examples
///
/// ```
/// use datareuse_trace::working_set_profile;
///
/// // Sliding 2-wide window over a diagonal walk: always 2 distinct.
/// let trace = [0u64, 1, 1, 2, 2, 3, 3, 4];
/// let ws = working_set_profile(&trace, 4);
/// assert_eq!(ws.peak, 3);
/// assert_eq!(ws.min, 2);
/// ```
pub fn working_set_profile(trace: &[u64], window: u64) -> WorkingSetProfile {
    assert!(window > 0, "window must be positive");
    let window = window.min(trace.len().max(1) as u64);
    let w = window as usize;
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut peak = 0u64;
    let mut min = u64::MAX;
    let mut sum = 0u128;
    let mut windows = 0u64;
    let mut obs_windows = LocalCounter::new(Counter::WorkingSetWindows);
    for (i, &addr) in trace.iter().enumerate() {
        *counts.entry(addr).or_insert(0) += 1;
        if i + 1 >= w {
            let size = counts.len() as u64;
            peak = peak.max(size);
            min = min.min(size);
            sum += size as u128;
            windows += 1;
            obs_windows.incr();
            // Retire the oldest access of the window.
            let old = trace[i + 1 - w];
            if let Some(c) = counts.get_mut(&old) {
                *c -= 1;
                if *c == 0 {
                    counts.remove(&old);
                }
            }
        }
    }
    if windows == 0 {
        return WorkingSetProfile {
            window,
            average: 0.0,
            peak: 0,
            min: 0,
        };
    }
    WorkingSetProfile {
        window,
        average: sum as f64 / windows as f64,
        peak,
        min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::distinct_count;

    #[test]
    fn window_one_is_always_one() {
        let t = [5u64, 6, 7, 5];
        let ws = working_set_profile(&t, 1);
        assert_eq!((ws.peak, ws.min), (1, 1));
        assert_eq!(ws.average, 1.0);
    }

    #[test]
    fn whole_trace_window_equals_footprint() {
        let t: Vec<u64> = (0..50u64).map(|i| i % 7).collect();
        let ws = working_set_profile(&t, t.len() as u64);
        assert_eq!(ws.peak, distinct_count(&t));
        assert_eq!(ws.min, ws.peak);
    }

    #[test]
    fn peak_grows_monotonically_with_window() {
        let t: Vec<u64> = (0..200u64).map(|i| (i * 13) % 31).collect();
        let curve: Vec<WorkingSetProfile> = [1, 4, 16, 64, 200]
            .iter()
            .map(|&w| working_set_profile(&t, w))
            .collect();
        for w in curve.windows(2) {
            assert!(w[1].peak >= w[0].peak);
            assert!(w[1].average >= w[0].average);
        }
    }

    #[test]
    fn brute_force_agreement() {
        let t = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        for w in 1..=t.len() as u64 {
            let ws = working_set_profile(&t, w);
            let mut peak = 0;
            let mut min = u64::MAX;
            for win in t.windows(w as usize) {
                let mut v = win.to_vec();
                v.sort_unstable();
                v.dedup();
                peak = peak.max(v.len() as u64);
                min = min.min(v.len() as u64);
            }
            assert_eq!((ws.peak, ws.min), (peak, min), "window {w}");
        }
    }

    #[test]
    fn empty_trace_profile() {
        let ws = working_set_profile(&[], 4);
        assert_eq!(ws.peak, 0);
        assert_eq!(ws.average, 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        working_set_profile(&[1, 2], 0);
    }
}
