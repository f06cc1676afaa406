//! Pairwise analytical reuse model (paper Sections 5, 6.1).
//!
//! The paper analyzes "the data reuse in the two inner loops (j,k) … for
//! one iteration of the higher loop levels at a time". [`PairGeometry`]
//! extracts everything that model needs from a [`LoopNest`] access:
//!
//! - the loop pair ranges `jRANGE`, `kRANGE` (eq. 10–11);
//! - the reuse classification / normalized `(b', c')` (eq. 5–9);
//! - the *repeat factors* of the Section 6.3 adaptation: loops inside the
//!   analyzed sub-nest other than the pair multiply either the
//!   copy-candidate size (when their iterator addresses distinct data, like
//!   loop (5) in the motion-estimation kernel) or the reuse factor (when
//!   the index is independent of them);
//! - the number of invocations of the sub-nest by the outer loops.
//!
//! [`max_reuse`] then evaluates the closed forms of Section 6.1
//! (eq. 12–15), producing a [`ReusePoint`] whose fill count is *provably
//! minimal* (one fill per first access), which the tests confirm by
//! checking it coincides with Belady-optimal simulation at the same size.

use datareuse_loopir::LoopNest;

use crate::error::AnalyzeError;
use crate::vectors::ReuseClass;

/// Geometry of one access analyzed over an inner loop pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairGeometry {
    /// Iterator name of the outer loop of the pair (the paper's `j`).
    pub j_name: String,
    /// Iterator name of the inner loop of the pair (the paper's `k`).
    pub k_name: String,
    /// `jRANGE = jU − jL + 1` (eq. 10).
    pub j_range: i64,
    /// `kRANGE = kU − kL + 1` (eq. 11).
    pub k_range: i64,
    /// Reuse classification of the `B` matrix over the pair (eq. 9).
    pub class: ReuseClass,
    /// Product of the ranges of sub-nest loops (other than the pair) whose
    /// iterators appear in the index: each addresses distinct data, so it
    /// multiplies the copy-candidate size and all traffic counts (the
    /// Section 6.3 factor `n`).
    pub repeat_distinct: u64,
    /// Product of the ranges of sub-nest loops whose iterators do *not*
    /// appear in the index: the same data is re-swept, multiplying the
    /// reuse factor.
    pub repeat_same: u64,
    /// Number of times the outer loops execute the analyzed sub-nest.
    pub invocations: u64,
    /// Number of accesses reading the same array through this exact
    /// index expression (merged copy-candidates, as done for the SUSAN
    /// test-vehicle).
    pub group_size: u64,
    /// True when a guard makes the counts approximate (the paper's SUSAN
    /// conditional).
    pub approximate: bool,
}

impl PairGeometry {
    /// Extracts the geometry for `nest.accesses()[access]` over the loop
    /// pair at depths `(outer, inner)`.
    ///
    /// The nest is step-normalized first, so loops with steps > 1 are
    /// handled exactly as the paper prescribes ("by (temporarily)
    /// transforming the loop nest to a loop nest with a step size equal
    /// to 1").
    ///
    /// # Errors
    ///
    /// Returns an [`AnalyzeError`] when the access or loop depths do not
    /// exist, or when `outer >= inner`.
    ///
    /// # Examples
    ///
    /// Reproducing the Section 6.3 analysis of the motion-estimation inner
    /// nest (pair `(i4, i6)` with intermediate loop `i5`):
    ///
    /// ```
    /// use datareuse_core::{PairGeometry, ReuseClass};
    /// use datareuse_loopir::parse_program;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = parse_program(
    ///     "array Old[159][191] bits 8;
    ///      for i4 in 0..16 { for i5 in 0..8 { for i6 in 0..8 {
    ///        read Old[i5][i4 + i6];
    ///      } } }",
    /// )?;
    /// let g = PairGeometry::from_access(&p.nests()[0], 0, 0, 2)?;
    /// assert_eq!(g.class, ReuseClass::Vector { bp: 1, cp: 1, anti: false });
    /// assert_eq!((g.j_range, g.k_range), (16, 8));
    /// assert_eq!(g.repeat_distinct, 8); // loop i5 addresses distinct rows
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_access(
        nest: &LoopNest,
        access: usize,
        outer: usize,
        inner: usize,
    ) -> Result<Self, AnalyzeError> {
        let raw_access = nest
            .accesses()
            .get(access)
            .ok_or(AnalyzeError::NoSuchAccess { index: access })?;
        let group_size = crate::footprint::group_members(nest, raw_access).len() as u64;

        let nest = nest.normalized();
        if outer >= inner {
            return Err(AnalyzeError::BadLoopPair { outer, inner });
        }
        if inner >= nest.depth() {
            return Err(AnalyzeError::NoSuchLoop { depth: inner });
        }
        let acc = &nest.accesses()[access];
        let loops = nest.loops();
        let j_name = loops[outer].name().to_string();
        let k_name = loops[inner].name().to_string();
        let rows: Vec<(i64, i64)> = acc
            .indices()
            .iter()
            .map(|e| (e.coeff(&j_name), e.coeff(&k_name)))
            .collect();
        let class = ReuseClass::classify(&rows);

        let mut repeat_distinct = 1u64;
        let mut repeat_same = 1u64;
        for (d, l) in loops.iter().enumerate() {
            if d <= outer || d == inner {
                continue;
            }
            let appears = acc.indices().iter().any(|e| e.coeff(l.name()) != 0);
            if appears {
                repeat_distinct *= l.trip_count();
            } else {
                repeat_same *= l.trip_count();
            }
        }
        let invocations = loops[..outer].iter().map(|l| l.trip_count()).product();
        Ok(Self {
            j_name,
            k_name,
            j_range: loops[outer].range(),
            k_range: loops[inner].range(),
            class,
            repeat_distinct,
            repeat_same,
            invocations,
            group_size,
            approximate: !acc.guards().is_empty(),
        })
    }

    /// Total reads this access group issues over the whole nest execution
    /// (`C_tot` summed over all invocations, repeats and merged accesses).
    pub fn total_accesses(&self) -> u64 {
        self.invocations
            * self.repeat_distinct
            * self.repeat_same
            * self.group_size
            * (self.j_range as u64)
            * (self.k_range as u64)
    }
}

/// How a [`ReusePoint`] was derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    /// Maximum reuse in the pair iteration space (Section 6.1).
    Max,
    /// Partial reuse without bypass at the given `γ` (eq. 16–18).
    Partial {
        /// The `γ` split parameter.
        gamma: i64,
    },
    /// Partial reuse with bypass at the given `γ` (eq. 19–22).
    PartialBypass {
        /// The `γ` split parameter.
        gamma: i64,
    },
}

/// One analytically derived copy-candidate point: a size plus the exact
/// traffic it induces over the whole nest execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReusePoint {
    /// Copy-candidate size `A` in elements (repeat factor included).
    pub size: u64,
    /// Total element writes into the copy-candidate (`C_j` over the whole
    /// execution).
    pub fills: u64,
    /// Total accesses bypassing the copy-candidate (0 without bypass).
    pub bypasses: u64,
    /// Total reads issued by the access group (`C_tot`).
    pub c_tot: u64,
    /// Derivation of the point.
    pub kind: PointKind,
}

impl ReusePoint {
    /// The paper's reuse factor for the point: `F_R = C_tot / C_j`
    /// (eq. 1/16) without bypass, `F'_R = C'_tot / C'_j` (eq. 19) with —
    /// the copied traffic over the fills.
    pub fn reuse_factor(&self) -> f64 {
        let copied = self.c_tot - self.bypasses;
        if self.fills == 0 {
            copied as f64
        } else {
            copied as f64 / self.fills as f64
        }
    }
}

/// Evaluates the Section 6.1 maximum-reuse closed forms for a geometry.
///
/// Returns `None` when the pair carries no exploitable reuse: `rank(B)=2`,
/// or the eq. 12–15 preconditions `jRANGE > c'`, `kRANGE > b'` fail.
///
/// The special cases follow the paper's footnotes: for `b=c=0`,
/// `F_RMax = C_tot` and `A_Max = 1`.
///
/// # Examples
///
/// The §6.3 motion-estimation numbers, `m = n = 8`:
///
/// ```
/// use datareuse_core::{max_reuse, PairGeometry, ReuseClass};
///
/// let geom = PairGeometry {
///     j_name: "i4".into(),
///     k_name: "i6".into(),
///     j_range: 16,          // 2m
///     k_range: 8,           // n
///     class: ReuseClass::Vector { bp: 1, cp: 1, anti: false },
///     repeat_distinct: 8,   // loop (5) range n
///     repeat_same: 1,
///     invocations: 1,
///     group_size: 1,
///     approximate: false,
/// };
/// let p = max_reuse(&geom).expect("reuse exists");
/// assert_eq!(p.size, 56);                             // A_Max = n(n-1)
/// assert!((p.reuse_factor() - 128.0 / 23.0).abs() < 1e-12); // F_RMax
/// ```
pub fn max_reuse(geom: &PairGeometry) -> Option<ReusePoint> {
    let j_range = geom.j_range;
    let k_range = geom.k_range;
    let base_c_tot = (j_range * k_range) as u64;
    let (base_fills, base_size) = match geom.class {
        ReuseClass::NoReuse => return None,
        ReuseClass::SameElement => (1u64, 1u64),
        ReuseClass::Vector { bp, cp, anti } => {
            if j_range <= cp || k_range <= bp {
                return None; // no reuse possible (Section 6 precondition)
            }
            let c_r = (j_range - cp) * (k_range - bp); // eq. 14
            let fills = base_c_tot - c_r as u64; // first accesses
            let size = if geom.repeat_same > 1 {
                // Re-swept slices keep the whole current window (every
                // element is reused by the next sweep), so the candidate
                // must span the union of the last c' j-windows.
                window_union_size(cp, k_range)
            } else if anti {
                // Anti-diagonal orientation: reuse lands b' iterations
                // later in the next k sweep, extending occupancy.
                (cp * (k_range - bp) + bp).max(1) as u64
            } else {
                (cp * (k_range - bp)).max(1) as u64 // eq. 15
            };
            (fills, size)
        }
    };
    Some(ReusePoint {
        size: geom.repeat_distinct * base_size,
        fills: geom.invocations * geom.repeat_distinct * base_fills,
        bypasses: 0,
        c_tot: geom.total_accesses(),
        kind: PointKind::Max,
    })
}

/// Number of distinct elements in the union of `c'` consecutive
/// `j`-windows: `|{b'·a + c'·k : a ∈ [0, c'), k ∈ [0, kRANGE)}|`.
///
/// [`ReuseClass::classify`] makes `(b', c')` coprime, so each `a` fills
/// its own residue class mod `c'` with `kRANGE` distinct values: the
/// union has exactly `c'·kRANGE` elements (one when `c' = 0`).
fn window_union_size(cp: i64, k_range: i64) -> u64 {
    (cp * k_range).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use datareuse_loopir::{parse_program, read_addresses, Program};
    use datareuse_trace::opt_simulate;

    fn single_nest(src: &str) -> Program {
        parse_program(src).expect("valid program")
    }

    /// Analytical max-reuse fills must equal Belady fills at A_Max: the
    /// analytical point loads every element exactly once (provably minimal)
    /// and claims A_Max suffices.
    fn assert_matches_opt(src: &str, outer: usize, inner: usize) {
        let p = single_nest(src);
        let nest = &p.nests()[0];
        let geom = PairGeometry::from_access(nest, 0, outer, inner).unwrap();
        let point = max_reuse(&geom).expect("carries reuse");
        let trace = read_addresses(&p, p.arrays()[0].name());
        assert_eq!(point.c_tot, trace.len() as u64, "C_tot mismatch");
        let sim = opt_simulate(&trace, point.size);
        assert_eq!(
            point.fills, sim.fills,
            "analytical fills != OPT fills at size {} (geom {geom:?})",
            point.size
        );
    }

    #[test]
    fn canonical_window_matches_opt() {
        // b=c=1: the classic sliding diagonal.
        assert_matches_opt(
            "array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
            0,
            1,
        );
    }

    #[test]
    fn coprime_coefficients_match_opt() {
        assert_matches_opt(
            "array A[60]; for j in 0..12 { for k in 0..10 { read A[2*j + 3*k]; } }",
            0,
            1,
        );
    }

    #[test]
    fn gcd_reduction_matches_opt() {
        // b=2, c=4 → b'=1, c'=2.
        assert_matches_opt(
            "array A[70]; for j in 0..12 { for k in 0..10 { read A[2*j + 4*k]; } }",
            0,
            1,
        );
    }

    #[test]
    fn negative_coefficient_matches_opt() {
        // y = 12 + k − j: normalized to (1, 1).
        assert_matches_opt(
            "array A[30]; for j in 0..12 { for k in 0..10 { read A[12 + k - j]; } }",
            0,
            1,
        );
    }

    #[test]
    fn b_zero_outer_reuse_matches_opt() {
        // Index depends only on k: whole row must be buffered (A = kRANGE).
        assert_matches_opt(
            "array A[10]; for j in 0..6 { for k in 0..10 { read A[k]; } }",
            0,
            1,
        );
    }

    #[test]
    fn c_zero_inner_reuse_matches_opt() {
        // Index depends only on j: one element suffices (A = 1).
        let p = single_nest("array A[6]; for j in 0..6 { for k in 0..10 { read A[j]; } }");
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        let point = max_reuse(&geom).unwrap();
        assert_eq!(point.size, 1);
        assert!((point.reuse_factor() - 10.0).abs() < 1e-12);
        assert_matches_opt(
            "array A[6]; for j in 0..6 { for k in 0..10 { read A[j]; } }",
            0,
            1,
        );
    }

    #[test]
    fn same_element_case_matches_footnotes() {
        let p = single_nest("array A[4]; for j in 0..5 { for k in 0..6 { read A[2]; } }");
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        assert_eq!(geom.class, ReuseClass::SameElement);
        let point = max_reuse(&geom).unwrap();
        assert_eq!(point.size, 1); // footnote 3
        assert_eq!(point.fills, 1);
        assert_eq!(point.reuse_factor(), 30.0); // footnote 2: F = C_tot
    }

    #[test]
    fn rank_two_has_no_reuse() {
        let p = single_nest("array A[8][8]; for j in 0..8 { for k in 0..8 { read A[j][k]; } }");
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        assert_eq!(geom.class, ReuseClass::NoReuse);
        assert!(max_reuse(&geom).is_none());
    }

    #[test]
    fn reuse_precondition_rejects_small_ranges() {
        // jRANGE = 3 <= c' = 4: reuse never completes a dependency step.
        let p = single_nest("array A[40]; for j in 0..3 { for k in 0..8 { read A[j + 4*k]; } }");
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        assert!(max_reuse(&geom).is_none());
    }

    #[test]
    fn bp_at_k_range_boundary_is_rejected_exactly() {
        // b' = 3 with kRANGE = 3: eq. 14's (kRANGE − b') window is empty —
        // no dependency step ever completes, so there is no reuse point.
        let p = single_nest("array A[24]; for j in 0..8 { for k in 0..3 { read A[3*j + k]; } }");
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        assert_eq!(geom.class, ReuseClass::Vector { bp: 3, cp: 1, anti: false });
        assert!(max_reuse(&geom).is_none());
        // One more k iteration (kRANGE = 4 > b') and the closed forms
        // engage — and still agree with Belady.
        assert_matches_opt(
            "array A[25]; for j in 0..8 { for k in 0..4 { read A[3*j + k]; } }",
            0,
            1,
        );
    }

    #[test]
    fn c_prime_zero_with_negative_b_matches_opt() {
        // Index −j + 6 over the pair: classify flips to b' = 1, c' = 0, so
        // a single-element buffer carries all the k-loop reuse.
        let src = "array A[7]; for j in 0..7 { for k in 0..5 { read A[6 - j]; } }";
        let p = single_nest(src);
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        assert_eq!(geom.class, ReuseClass::Vector { bp: 1, cp: 0, anti: false });
        let point = max_reuse(&geom).unwrap();
        assert_eq!(point.size, 1);
        assert_eq!(point.fills, 7); // one fill per distinct element
        assert_matches_opt(src, 0, 1);
    }

    #[test]
    fn reuse_factor_handles_zero_fills_without_dividing() {
        // A bypass-everything point has C'_j = 0; eq. 19 would divide by
        // zero. The guard returns the copied count (here 0) instead.
        let all_bypassed = ReusePoint {
            size: 0,
            fills: 0,
            bypasses: 120,
            c_tot: 120,
            kind: PointKind::PartialBypass { gamma: 0 },
        };
        assert_eq!(all_bypassed.reuse_factor(), 0.0);
        // Degenerate zero-fill with copies: finite, equals C_tot (the
        // footnote-2 convention for the same-element case).
        let zero_fills = ReusePoint {
            size: 1,
            fills: 0,
            bypasses: 0,
            c_tot: 64,
            kind: PointKind::Max,
        };
        assert_eq!(zero_fills.reuse_factor(), 64.0);
    }

    #[test]
    fn max_reuse_never_produces_zero_fills() {
        // C_R = (jRANGE − c')(kRANGE − b') < jRANGE·kRANGE whenever the
        // class is Vector (b', c' not both zero), so C_tot == C_R — the
        // fills = 0 division hazard — cannot arise from eq. 12–15.
        for (b, c) in [(0, 1), (1, 0), (1, 1), (2, 3), (3, 1), (-1, 1), (2, -4)] {
            for (jr, kr) in [(2i64, 2i64), (3, 8), (16, 8), (9, 5)] {
                let geom = PairGeometry {
                    j_name: "j".into(),
                    k_name: "k".into(),
                    j_range: jr,
                    k_range: kr,
                    class: ReuseClass::classify(&[(b, c)]),
                    repeat_distinct: 1,
                    repeat_same: 1,
                    invocations: 1,
                    group_size: 1,
                    approximate: false,
                };
                if let Some(point) = max_reuse(&geom) {
                    assert!(point.fills > 0, "zero fills for b={b} c={c} jr={jr} kr={kr}");
                    assert!(point.size >= 1);
                    assert!(point.reuse_factor().is_finite());
                }
            }
        }
    }

    #[test]
    fn partial_points_keep_finite_reuse_factors() {
        let p = single_nest("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }");
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        for bypass in [false, true] {
            for point in crate::partial::partial_sweep(&geom, bypass) {
                assert!(point.reuse_factor().is_finite());
                assert!(point.bypasses <= point.c_tot);
            }
        }
    }

    #[test]
    fn motion_estimation_inner_nest_section_6_3() {
        // Old[..+i5][..+i4+i6] over (i4, i5, i6); m = n = 8.
        let p = single_nest(
            "array Old[8][23];
             for i4 in 0..16 { for i5 in 0..8 { for i6 in 0..8 {
               read Old[i5][i4 + i6];
             } } }",
        );
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 2).unwrap();
        assert_eq!(geom.class, ReuseClass::Vector { bp: 1, cp: 1, anti: false });
        assert_eq!(geom.repeat_distinct, 8);
        assert_eq!(geom.repeat_same, 1);
        let point = max_reuse(&geom).unwrap();
        // Paper §6.3: A_Max = n·(n−1) = 56, F_RMax = 2mn/(2mn−(2m−1)(n−1)).
        assert_eq!(point.size, 56);
        let f_want = (2.0 * 8.0 * 8.0) / (2.0 * 8.0 * 8.0 - 15.0 * 7.0);
        assert!((point.reuse_factor() - f_want).abs() < 1e-12);
        // And the simulation agrees at that size.
        let trace = read_addresses(&p, "Old");
        let sim = opt_simulate(&trace, 56);
        assert_eq!(sim.fills, point.fills);
    }

    #[test]
    fn repeat_same_multiplies_reuse_factor() {
        // Middle loop m does not appear in the index: the (j,k) data is
        // re-swept trip(m) times.
        let p = single_nest(
            "array A[23]; for j in 0..16 { for m in 0..4 { for k in 0..8 {
               read A[j + k];
             } } }",
        );
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 2).unwrap();
        assert_eq!(geom.repeat_same, 4);
        assert_eq!(geom.repeat_distinct, 1);
        let point = max_reuse(&geom).unwrap();
        let trace = read_addresses(&p, "A");
        let sim = opt_simulate(&trace, point.size);
        assert_eq!(point.c_tot, trace.len() as u64);
        assert_eq!(point.fills, sim.fills);
    }

    #[test]
    fn invocations_scale_fills() {
        let p = single_nest(
            "array A[5][23]; for h in 0..5 { for j in 0..16 { for k in 0..8 {
               read A[h][j + k];
             } } }",
        );
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 1, 2).unwrap();
        assert_eq!(geom.invocations, 5);
        let point = max_reuse(&geom).unwrap();
        let trace = read_addresses(&p, "A");
        let sim = opt_simulate(&trace, point.size);
        assert_eq!(point.fills, sim.fills);
    }

    #[test]
    fn stepped_loops_are_normalized_first() {
        // for j step 2: y = j + k ≡ 2j' + k after normalization.
        let p = single_nest(
            "array A[40]; for j in 0..24 step 2 { for k in 0..8 { read A[j + k]; } }",
        );
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        assert_eq!(geom.class, ReuseClass::Vector { bp: 2, cp: 1, anti: false });
        assert_matches_opt(
            "array A[40]; for j in 0..24 step 2 { for k in 0..8 { read A[j + k]; } }",
            0,
            1,
        );
    }

    #[test]
    fn merged_group_counts_every_access() {
        let p = single_nest(
            "array A[23]; for j in 0..16 { for k in 0..8 {
               read A[j + k];
               read A[j + k];
             } }",
        );
        let geom = PairGeometry::from_access(&p.nests()[0], 0, 0, 1).unwrap();
        assert_eq!(geom.group_size, 2);
        let point = max_reuse(&geom).unwrap();
        let trace = read_addresses(&p, "A");
        assert_eq!(point.c_tot, trace.len() as u64);
        let sim = opt_simulate(&trace, point.size);
        assert_eq!(point.fills, sim.fills);
    }

    #[test]
    fn window_union_size_matches_enumeration() {
        // Oracle: walk every b'·a + c'·k of the c' windows. The (b', c')
        // pairs come out of `classify`, so they are coprime as in use.
        for b in 0..=8 {
            for c in 0..=8 {
                let Some((bp, cp)) = ReuseClass::classify(&[(b, c)]).vector() else {
                    continue;
                };
                for k_range in 1..30 {
                    let mut union = std::collections::BTreeSet::new();
                    for a in 0..cp.max(1) {
                        for k in 0..k_range {
                            union.insert(bp * a + cp * k);
                        }
                    }
                    assert_eq!(
                        window_union_size(cp, k_range),
                        union.len() as u64,
                        "b'={bp} c'={cp} K={k_range}"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_pair_arguments_error() {
        let p = single_nest("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }");
        let nest = &p.nests()[0];
        assert!(matches!(
            PairGeometry::from_access(nest, 5, 0, 1),
            Err(AnalyzeError::NoSuchAccess { .. })
        ));
        assert!(matches!(
            PairGeometry::from_access(nest, 0, 1, 1),
            Err(AnalyzeError::BadLoopPair { .. })
        ));
        assert!(matches!(
            PairGeometry::from_access(nest, 0, 0, 7),
            Err(AnalyzeError::NoSuchLoop { .. })
        ));
    }
}
