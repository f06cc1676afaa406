//! Spatially-sampled curve simulation for very large traces.
//!
//! The paper's core complaint about simulation is its cost on real signal
//! sizes. Exact Belady sweeps are `O(n log A)` *per size*; spatial
//! (SHARDS-style) sampling keeps only the accesses whose address hashes
//! below a threshold, simulates a proportionally scaled buffer, and
//! rescales the counts. For uniformly structured loop traces the relative
//! error of the reuse factor is small at rates of a few percent, turning
//! minutes into milliseconds when the analytical model does not apply
//! (non-affine indexing, data-dependent guards).

use crate::belady::{opt_simulate_bypass_many, opt_simulate_many};
use crate::curve::{CurvePoint, CurvePolicy};

fn mix(addr: u64) -> u64 {
    // splitmix64 finalizer.
    let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sampled estimate of a reuse-factor curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCurve {
    /// Sampling rate actually used.
    pub rate: f64,
    /// Number of sampled accesses simulated.
    pub sampled_accesses: u64,
    /// Estimated curve points (counts rescaled by `1/rate`).
    pub points: Vec<CurvePoint>,
}

/// Simulates a Belady curve on an address-sampled trace.
///
/// Addresses are kept when `hash(addr) < rate·2⁶⁴` — all accesses to a
/// kept address survive, preserving per-element reuse patterns. Buffer
/// capacities are scaled by `rate` for the simulation and reported at
/// their original sizes; fills/accesses are rescaled by `1/rate`.
///
/// # Panics
///
/// Panics when `rate` is outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use datareuse_trace::{sampled_reuse_curve, CurvePolicy};
///
/// let trace: Vec<u64> = (0..20_000u64).map(|i| (i / 4 + i % 4) % 997).collect();
/// let sampled = sampled_reuse_curve(&trace, [64, 256], 0.25, CurvePolicy::Optimal);
/// assert_eq!(sampled.points.len(), 2);
/// assert!(sampled.sampled_accesses < trace.len() as u64);
/// ```
pub fn sampled_reuse_curve(
    trace: &[u64],
    sizes: impl IntoIterator<Item = u64>,
    rate: f64,
    policy: CurvePolicy,
) -> SampledCurve {
    assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
    let threshold = (rate * u64::MAX as f64) as u64;
    let sampled: Vec<u64> = trace
        .iter()
        .copied()
        .filter(|&a| mix(a) <= threshold)
        .collect();
    let mut pairs: Vec<(u64, u64)> = sizes
        .into_iter()
        .filter(|&s| s > 0)
        .map(|s| (s, ((s as f64 * rate).round() as u64).max(1)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let scaled: Vec<u64> = pairs.iter().map(|&(_, s)| s).collect();
    let results = match policy {
        CurvePolicy::Optimal => opt_simulate_many(&sampled, &scaled),
        CurvePolicy::OptimalBypass => opt_simulate_bypass_many(&sampled, &scaled),
    };
    let points = pairs
        .iter()
        .zip(results)
        .map(|(&(original, _), r)| CurvePoint {
            size: original,
            fills: (r.fills as f64 / rate).round() as u64,
            bypasses: (r.bypasses as f64 / rate).round() as u64,
            reuse_factor: r.reuse_factor(),
        })
        .collect();
    SampledCurve {
        rate,
        sampled_accesses: sampled.len() as u64,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::ReuseCurve;

    fn big_window_trace() -> Vec<u64> {
        // A[j + k] with jRANGE = 4000, kRANGE = 64.
        let mut t = Vec::with_capacity(256_000);
        for j in 0..4000u64 {
            for k in 0..64u64 {
                t.push(j + k);
            }
        }
        t
    }

    #[test]
    fn rate_one_matches_exact() {
        let t: Vec<u64> = (0..4000u64).map(|i| (i / 8) % 97).collect();
        let exact = ReuseCurve::simulate(&t, [8, 32], CurvePolicy::Optimal);
        let sampled = sampled_reuse_curve(&t, [8, 32], 1.0, CurvePolicy::Optimal);
        for (e, s) in exact.points().iter().zip(&sampled.points) {
            assert_eq!(e.size, s.size);
            assert_eq!(e.fills, s.fills);
        }
    }

    #[test]
    fn sampled_reuse_factor_tracks_exact_away_from_knees() {
        // The knee of this trace sits at A_Max = 64; sample off-knee sizes
        // (deep below and well above) where the estimate is reliable.
        let t = big_window_trace();
        let sizes = [16u64, 128, 512];
        let exact = ReuseCurve::simulate(&t, sizes, CurvePolicy::Optimal);
        let sampled = sampled_reuse_curve(&t, sizes, 0.3, CurvePolicy::Optimal);
        for (e, s) in exact.points().iter().zip(&sampled.points) {
            let rel = (s.reuse_factor - e.reuse_factor).abs() / e.reuse_factor;
            assert!(
                rel < 0.3,
                "size {}: sampled {} vs exact {} ({rel:.2} rel err)",
                e.size,
                s.reuse_factor,
                e.reuse_factor
            );
        }
        assert!(sampled.sampled_accesses < t.len() as u64 / 2);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn bad_rate_panics() {
        sampled_reuse_curve(&[1, 2, 3], [1], 0.0, CurvePolicy::Optimal);
    }
}
