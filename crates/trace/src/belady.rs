//! Belady optimal replacement simulation.
//!
//! The paper (Section 4) defines the search space boundary: "For a fixed
//! memory size `A_j` the highest possible data reuse factor is reached by
//! applying Belady's optimal replacement strategy". This module implements
//! that strategy exactly — with and without *bypass* — so the analytical
//! model of Sections 5–6 can be validated against the true optimum, as the
//! paper does in Figs. 4, 10 and 11.

use std::collections::{BTreeMap, HashMap};

use datareuse_obs::{Counter, LocalCounter};

use crate::result::SimResult;

/// Index used for "never accessed again".
const NEVER: u64 = u64::MAX;

/// Precomputes, for each trace position, the position of the next access to
/// the same address (`NEVER` when there is none).
fn next_use_table(trace: &[u64]) -> Vec<u64> {
    let mut next = vec![NEVER; trace.len()];
    let mut last: HashMap<u64, u64> = HashMap::new();
    for (i, &addr) in trace.iter().enumerate().rev() {
        if let Some(&n) = last.get(&addr) {
            next[i] = n;
        }
        last.insert(addr, i as u64);
    }
    next
}

/// Simulates Belady's MIN policy on `trace` with `capacity` elements.
///
/// Every miss fills the buffer (no bypass), evicting the resident element
/// whose next use lies farthest in the future. This is the classic
/// replacement optimum for fill-on-miss buffers, i.e. the paper's
/// simulation-based reuse bound without the Section 6.2 bypass option.
///
/// # Panics
///
/// Panics if `capacity` is 0.
///
/// # Examples
///
/// ```
/// use datareuse_trace::opt_simulate;
///
/// // A[j+k] for j in 0..3, k in 0..2: 0 1 1 2 2 3
/// let trace = [0u64, 1, 1, 2, 2, 3];
/// let r = opt_simulate(&trace, 1);
/// assert_eq!(r.fills, 4);          // each distinct element loaded once
/// assert_eq!(r.hits, 2);
/// assert_eq!(r.reuse_factor(), 1.5);
/// ```
pub fn opt_simulate(trace: &[u64], capacity: u64) -> SimResult {
    let next = next_use_table(trace);
    opt_simulate_impl(trace, &next, capacity, false)
}

/// Simulates optimal replacement **with bypass**: on a miss whose next use
/// lies farther than every resident's, the access is served directly from
/// the next level without polluting the buffer.
///
/// This corresponds to the paper's "copy-candidate with bypass"
/// (Section 6.2, Fig. 9b): data without sufficient future reuse is never
/// written to the intermediate copy-candidate, so `fills` (= `C_j`) drops
/// and the reuse factor `F'_R` rises (eq. 19).
///
/// # Panics
///
/// Panics if `capacity` is 0.
pub fn opt_simulate_bypass(trace: &[u64], capacity: u64) -> SimResult {
    let next = next_use_table(trace);
    opt_simulate_impl(trace, &next, capacity, true)
}

/// Simulates Belady's MIN at several capacities, sharing the forward-use
/// precomputation across all of them — the workhorse behind whole
/// reuse-factor-curve sweeps (Fig. 4a/11a).
///
/// # Panics
///
/// Panics if any capacity is 0.
///
/// # Examples
///
/// ```
/// use datareuse_trace::{opt_simulate, opt_simulate_many};
///
/// let trace = [0u64, 1, 1, 2, 2, 3, 0, 1];
/// let many = opt_simulate_many(&trace, &[1, 2, 4]);
/// assert_eq!(many.len(), 3);
/// assert_eq!(many[1], opt_simulate(&trace, 2));
/// ```
pub fn opt_simulate_many(trace: &[u64], capacities: &[u64]) -> Vec<SimResult> {
    let next = next_use_table(trace);
    capacities
        .iter()
        .map(|&c| opt_simulate_impl(trace, &next, c, false))
        .collect()
}

/// Bypass-enabled variant of [`opt_simulate_many`].
///
/// # Panics
///
/// Panics if any capacity is 0.
pub fn opt_simulate_bypass_many(trace: &[u64], capacities: &[u64]) -> Vec<SimResult> {
    let next = next_use_table(trace);
    capacities
        .iter()
        .map(|&c| opt_simulate_impl(trace, &next, c, true))
        .collect()
}

fn opt_simulate_impl(trace: &[u64], next: &[u64], capacity: u64, bypass: bool) -> SimResult {
    assert!(capacity > 0, "copy-candidate capacity must be positive");
    // Resident set: addr -> its current next-use key; inverse: key -> addr.
    // Keys are trace positions, hence unique; NEVER collides, so dedupe it
    // by (NEVER - addr) which stays unique and still sorts above all real
    // positions for traces shorter than NEVER/2.
    let mut resident: HashMap<u64, u64> = HashMap::new();
    let mut by_key: BTreeMap<u64, u64> = BTreeMap::new();
    let key_of = |next_pos: u64, addr: u64| -> u64 {
        if next_pos == NEVER {
            NEVER - addr
        } else {
            next_pos
        }
    };

    let mut hits = 0u64;
    let mut fills = 0u64;
    let mut bypasses = 0u64;
    // Chunked flushes keep the shared `belady_accesses` counter fresh
    // enough for live `--progress` narration without touching the shared
    // cache line per access (and they cost nothing when metrics are off).
    let mut obs_accesses = LocalCounter::new(Counter::BeladyAccesses);
    let mut obs_hits = LocalCounter::new(Counter::BeladyHits);
    let mut obs_evictions = LocalCounter::new(Counter::BeladyEvictions);
    let mut obs_bypasses = LocalCounter::new(Counter::BeladyBypasses);

    for (i, &addr) in trace.iter().enumerate() {
        obs_accesses.incr();
        let new_key = key_of(next[i], addr);
        if let Some(old_key) = resident.remove(&addr) {
            hits += 1;
            obs_hits.incr();
            by_key.remove(&old_key);
            resident.insert(addr, new_key);
            by_key.insert(new_key, addr);
            continue;
        }
        // Miss.
        if (resident.len() as u64) < capacity {
            fills += 1;
            resident.insert(addr, new_key);
            by_key.insert(new_key, addr);
            continue;
        }
        let (&worst_key, &worst_addr) = by_key.iter().next_back().expect("non-empty buffer");
        if bypass && new_key >= worst_key {
            // The incoming element is the worst candidate: serve it
            // upstream and leave the buffer untouched.
            bypasses += 1;
            obs_bypasses.incr();
            continue;
        }
        by_key.remove(&worst_key);
        resident.remove(&worst_addr);
        fills += 1;
        obs_evictions.incr();
        resident.insert(addr, new_key);
        by_key.insert(new_key, addr);
    }

    SimResult {
        capacity,
        accesses: trace.len() as u64,
        hits,
        fills,
        bypasses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference OPT via brute force over a tiny trace: exhaustive search of
    /// all eviction decisions.
    fn brute_force_opt_misses(trace: &[u64], capacity: usize) -> u64 {
        fn go(trace: &[u64], at: usize, buf: &mut Vec<u64>, capacity: usize) -> u64 {
            if at == trace.len() {
                return 0;
            }
            let addr = trace[at];
            if buf.contains(&addr) {
                return go(trace, at + 1, buf, capacity);
            }
            if buf.len() < capacity {
                buf.push(addr);
                let r = 1 + go(trace, at + 1, buf, capacity);
                buf.pop();
                return r;
            }
            let mut best = u64::MAX;
            for victim in 0..buf.len() {
                let old = buf[victim];
                buf[victim] = addr;
                best = best.min(1 + go(trace, at + 1, buf, capacity));
                buf[victim] = old;
            }
            best
        }
        go(trace, 0, &mut Vec::new(), capacity)
    }

    #[test]
    fn matches_brute_force_on_small_traces() {
        let traces: &[&[u64]] = &[
            &[0, 1, 2, 0, 1, 2, 3, 0, 1, 2],
            &[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5],
            &[0, 0, 0, 1, 1, 2],
            &[5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5],
        ];
        for trace in traces {
            for cap in 1..=4u64 {
                let got = opt_simulate(trace, cap).misses();
                let want = brute_force_opt_misses(trace, cap as usize);
                assert_eq!(got, want, "trace {trace:?} capacity {cap}");
            }
        }
    }

    #[test]
    fn full_capacity_loads_each_element_once() {
        let trace = [0u64, 1, 2, 0, 1, 2, 0, 1, 2];
        let r = opt_simulate(&trace, 3);
        assert_eq!(r.fills, 3);
        assert_eq!(r.hits, 6);
        assert_eq!(r.reuse_factor(), 3.0);
    }

    #[test]
    fn capacity_one_hits_only_consecutive_repeats() {
        let trace = [7u64, 7, 8, 8, 8, 7];
        let r = opt_simulate(&trace, 1);
        assert_eq!(r.hits, 3);
        assert_eq!(r.fills, 3);
    }

    #[test]
    fn bypass_never_loses_to_plain_opt() {
        let trace: Vec<u64> = vec![0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 0, 1, 9, 0, 1, 2, 3];
        for cap in 1..=5 {
            let plain = opt_simulate(&trace, cap);
            let by = opt_simulate_bypass(&trace, cap);
            assert!(by.hits >= plain.hits, "cap {cap}");
            assert!(by.fills <= plain.fills, "cap {cap}");
        }
    }

    #[test]
    fn bypass_skips_streaming_data() {
        // 0 is hot, the rest streams through exactly once.
        let trace = [0u64, 1, 0, 2, 0, 3, 0, 4, 0];
        let r = opt_simulate_bypass(&trace, 1);
        assert_eq!(r.fills, 1); // only `0` is ever copied
        assert_eq!(r.bypasses, 4);
        assert_eq!(r.hits, 4);
    }

    #[test]
    fn many_matches_single_for_both_policies() {
        let trace: Vec<u64> = (0..400u64).map(|i| (i * 7 + i / 5) % 37).collect();
        let caps = [1u64, 3, 8, 21, 37];
        let many = opt_simulate_many(&trace, &caps);
        let many_b = opt_simulate_bypass_many(&trace, &caps);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(many[i], opt_simulate(&trace, c));
            assert_eq!(many_b[i], opt_simulate_bypass(&trace, c));
        }
    }

    #[test]
    fn next_use_table_is_correct() {
        let trace = [3u64, 1, 3, 3, 1];
        let next = next_use_table(&trace);
        assert_eq!(next, vec![2, 4, 3, NEVER, NEVER]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        opt_simulate(&[1, 2, 3], 0);
    }

    #[test]
    fn empty_trace_is_fine() {
        let r = opt_simulate(&[], 4);
        assert_eq!(r.accesses, 0);
        assert_eq!(r.hits, 0);
        assert_eq!(r.fills, 0);
    }
}
