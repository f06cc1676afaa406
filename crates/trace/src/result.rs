//! Common result type for buffer simulations.

/// Outcome of simulating one replacement policy on one address trace with a
/// fixed copy-candidate capacity.
///
/// In the paper's terms (Section 3): `accesses` is `C_tot` (total reads of
/// the signal), `fills` is `C_j` (number of writes into the copy-candidate,
/// equal to the reads from the level above), and
/// [`SimResult::reuse_factor`] is `F_Rj = C_tot / C_j` (eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimResult {
    /// Copy-candidate capacity in elements.
    pub capacity: u64,
    /// Total accesses in the trace (`C_tot`).
    pub accesses: u64,
    /// Accesses served by the copy-candidate (hits).
    pub hits: u64,
    /// Elements written into the copy-candidate (`C_j`); for policies
    /// without bypass this equals the number of misses.
    pub fills: u64,
    /// Accesses that bypassed the copy-candidate and were served directly
    /// by the next level (0 for policies without bypass).
    pub bypasses: u64,
}

impl SimResult {
    /// Misses: accesses not served by the copy-candidate.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// The data reuse factor `F_R = C_tot / C_j` (paper eq. 1).
    ///
    /// With bypassing, both sides follow the paper's `F'_R` (eq. 19): the
    /// numerator counts only the *copied* traffic `C'_tot` (bypassed
    /// accesses cost a read from the higher level but never touch the
    /// sub-level) and `C_j = fills`.
    ///
    /// Returns the copied traffic itself when nothing was filled (every
    /// access bypassed or an empty trace), mirroring the paper's `b=c=0`
    /// footnote where `F_RMax = C_tot`.
    pub fn reuse_factor(&self) -> f64 {
        let copied = self.accesses - self.bypasses;
        if self.fills == 0 {
            copied as f64
        } else {
            copied as f64 / self.fills as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_are_consistent() {
        let r = SimResult {
            capacity: 8,
            accesses: 100,
            hits: 80,
            fills: 20,
            bypasses: 0,
        };
        assert_eq!(r.misses(), 20);
        assert!((r.reuse_factor() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_fill_reuse_factor_matches_paper_footnote() {
        let r = SimResult {
            capacity: 1,
            accesses: 64,
            hits: 63,
            fills: 0,
            bypasses: 1,
        };
        assert_eq!(r.reuse_factor(), 63.0);
    }

    #[test]
    fn bypassed_traffic_is_excluded_from_the_numerator() {
        // eq. 19: F'_R = C'_tot / C'_j with C'_tot = C_tot − bypassed.
        let r = SimResult {
            capacity: 8,
            accesses: 100,
            hits: 30,
            fills: 10,
            bypasses: 60,
        };
        assert_eq!(r.reuse_factor(), 4.0);
    }
}
