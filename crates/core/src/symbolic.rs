//! Symbolic reuse profiles: closed-form footprints and fills for
//! arbitrary-depth affine nests.
//!
//! The paper's analytical model (eq. 1–22) covers the double inner nest;
//! [`crate::footprint_levels`] extends it to deeper nests by *enumerating*
//! per-dimension value sets, which degrades to a dense-interval bound once
//! the enumeration budget is exceeded — and the trace simulators behind
//! cross-validation are O(iterations). This module computes the same
//! hold-current-footprint candidate levels in closed form, in O(depth ×
//! dims) arithmetic, for every nest in the *conforming* class:
//!
//! - every guard of the group is separable — it mentions at most one
//!   loop iterator, so its execution count is a product of clipped
//!   interval lengths (guards shrink `C_tot`, never the footprints),
//! - the accesses are translations of one another (identical iterator
//!   coefficients, different constant offsets),
//! - at every depth, no inner iterator feeds two index dimensions,
//! - every per-dimension value set is a gap-free strided interval
//!   ([`StridedInterval::from_terms`]), and the union across translated
//!   accesses is one too.
//!
//! All kernels shipped in `datareuse-kernels` are conforming, the
//! guarded SUSAN mask included. Non-conforming nests return a
//! [`SymbolicFallback`] naming the first violated condition and the
//! caller falls back to enumeration/simulation — the dispatch that
//! [`crate::explore_signal`] records in the `symbolic_hits` /
//! `sim_fallbacks` counters.
//!
//! Where both paths apply, the symbolic candidates are *identical* to
//! [`crate::footprint_levels`] output (the property harness in
//! `tests/symbolic.rs` pins this on randomly generated nests); where the
//! enumeration budget would have forced an approximation, the closed
//! forms stay exact.
//!
//! | Paper | Here |
//! |---|---|
//! | eq. 1: `F_R = C_tot / C_j` | [`crate::LevelCandidate::reuse_factor`] on [`SymbolicProfile::level_candidates`] |
//! | Fig. 4a discontinuities `A₁…A₄` | [`SymbolicProfile::level_candidates`] (sizes) |

use std::fmt;

use datareuse_loopir::{Loop, LoopNest};

use crate::footprint::{separable_count, LevelCandidate};
use crate::stride::StridedInterval;

/// Why a nest left the symbolic path — the first conforming-class
/// condition it violates. Carried into `--explain` audit records and
/// counted by the `sim_fallbacks` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolicFallback {
    /// An access carries a non-separable guard — one coupling two or
    /// more loop iterators, such as `i != j` — whose execution count has
    /// no closed form here.
    Guarded,
    /// An inner iterator feeds two index dimensions (e.g. the diagonal
    /// `A[k][k]`), so the footprint does not factor per dimension.
    SharedIterators,
    /// A dimension's value set has gaps no strided interval covers
    /// (the density condition of [`StridedInterval::from_terms`] fails).
    SparseDim,
    /// The translated accesses' value sets do not union into a single
    /// gap-free strided interval.
    UnalignedUnion,
    /// The accesses are not translations of one another (different
    /// arrays, ranks, or iterator coefficients).
    NotTranslated,
    /// A closed-form count overflowed 64-bit arithmetic.
    Overflow,
    /// Empty or out-of-range access list.
    BadAccess,
}

impl SymbolicFallback {
    /// Stable kebab-case reason string (the `reason` field of the
    /// `symbolic-profile` audit record).
    pub const fn reason(self) -> &'static str {
        match self {
            SymbolicFallback::Guarded => "guarded",
            SymbolicFallback::SharedIterators => "shared-iterators",
            SymbolicFallback::SparseDim => "sparse-dim",
            SymbolicFallback::UnalignedUnion => "unaligned-union",
            SymbolicFallback::NotTranslated => "not-translated",
            SymbolicFallback::Overflow => "overflow",
            SymbolicFallback::BadAccess => "bad-access",
        }
    }
}

impl fmt::Display for SymbolicFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reason())
    }
}

/// One closed-form copy-candidate level: the hold-current-footprint
/// schedule at `depth` outer loops fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicLevel {
    /// Number of outer loops fixed (matches
    /// [`crate::LevelCandidate::depth`]).
    pub depth: usize,
    /// Footprint of the sub-nest below `depth` — the candidate capacity
    /// `A` in elements.
    pub size: u64,
    /// Total fills `C_j` over the whole nest execution.
    pub fills: u64,
}

/// The symbolic reuse profile of one access group: per-depth candidate
/// levels, the whole-nest footprint, and the derived miss-rate curve and
/// reuse-distance distribution — all computed without touching a trace.
///
/// # Examples
///
/// ```
/// use datareuse_core::SymbolicProfile;
/// use datareuse_loopir::parse_program;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program(
///     "array A[23];
///      for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
/// )?;
/// let profile = SymbolicProfile::analyze(&p.nests()[0], &[0]).unwrap();
/// assert_eq!(profile.c_tot(), 128);
/// assert_eq!(profile.total_footprint(), 23);
/// // Depth 1 holds the 8-wide window and refreshes one element per step.
/// let levels = profile.level_candidates();
/// assert_eq!((levels[0].size, levels[0].fills), (8, 23));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicProfile {
    nest_depth: usize,
    c_tot: u64,
    total_footprint: u64,
    levels: Vec<SymbolicLevel>,
}

impl SymbolicProfile {
    /// Analyzes the access group `accesses` (indices into
    /// `nest.accesses()`) symbolically, or reports the first
    /// conforming-class violation.
    ///
    /// # Errors
    ///
    /// Returns the [`SymbolicFallback`] naming why the nest left the
    /// symbolic path; the caller is expected to fall back to
    /// [`crate::footprint_levels_merged`].
    pub fn analyze(nest: &LoopNest, accesses: &[usize]) -> Result<Self, SymbolicFallback> {
        if accesses.is_empty() {
            return Err(SymbolicFallback::BadAccess);
        }
        for &a in accesses {
            if a >= nest.accesses().len() {
                return Err(SymbolicFallback::BadAccess);
            }
        }
        // Normalize exactly as `footprint_levels_merged` does: loops
        // rewritten to 0-based unit step with the affine substitution
        // folded into the access coefficients, so the two paths see the
        // same coefficients and the outputs can be compared byte for
        // byte.
        let nest = nest.normalized();
        let loops = nest.loops();
        let reps: Vec<&datareuse_loopir::Access> =
            accesses.iter().map(|&a| &nest.accesses()[a]).collect();
        // Separable guards only shrink the executed iteration space:
        // C_tot takes their closed-form counts while footprints and
        // overlaps stay those of the full box — as on the enumeration
        // path, which ignores guards for footprints too.
        let mut c_tot = 0u64;
        for acc in &reps {
            let count =
                separable_count(loops, acc.guards())?.ok_or(SymbolicFallback::Guarded)?;
            c_tot = c_tot.checked_add(count).ok_or(SymbolicFallback::Overflow)?;
        }
        let base = reps[0];
        for acc in &reps {
            let same_shape = acc.array() == base.array()
                && acc.indices().len() == base.indices().len()
                && acc.indices().iter().zip(base.indices()).all(|(a, b)| {
                    loops.iter().all(|l| a.coeff(l.name()) == b.coeff(l.name()))
                });
            if !same_shape {
                return Err(SymbolicFallback::NotTranslated);
            }
        }

        let mut levels = Vec::with_capacity(loops.len());
        for depth in 1..=loops.len() {
            let inner = &loops[depth..];
            let carrier = &loops[depth - 1];
            let invocations = loops[..depth - 1]
                .iter()
                .try_fold(1u64, |acc, l| acc.checked_mul(l.trip_count()))
                .ok_or(SymbolicFallback::Overflow)?;
            let (size, overlap) = group_terms(base, &reps, inner, Some(carrier))?;
            let new_per_step = size - overlap.min(size);
            let fills = invocations
                .checked_mul(
                    size.checked_add(
                        (carrier.trip_count() - 1)
                            .checked_mul(new_per_step)
                            .ok_or(SymbolicFallback::Overflow)?,
                    )
                    .ok_or(SymbolicFallback::Overflow)?,
                )
                .ok_or(SymbolicFallback::Overflow)?;
            levels.push(SymbolicLevel { depth, size, fills });
        }
        let (total_footprint, _) = group_terms(base, &reps, loops, None)?;
        Ok(Self {
            nest_depth: loops.len(),
            c_tot,
            total_footprint,
            levels,
        })
    }

    /// Total reads of the group over the whole execution (`C_tot`).
    pub fn c_tot(&self) -> u64 {
        self.c_tot
    }

    /// Distinct elements the group touches — the whole-nest footprint,
    /// equal to the trace's distinct count and to the compulsory misses
    /// of any replacement policy at any capacity.
    pub fn total_footprint(&self) -> u64 {
        self.total_footprint
    }

    /// Depth of the analyzed nest.
    pub fn nest_depth(&self) -> usize {
        self.nest_depth
    }

    /// Every per-depth level, including useless ones (`F_R = 1`), in
    /// depth order.
    pub fn levels(&self) -> &[SymbolicLevel] {
        &self.levels
    }

    /// The copy-candidate levels as [`LevelCandidate`]s, with useless
    /// levels pruned — element-for-element identical to
    /// [`crate::footprint_levels_merged`] output on conforming nests
    /// (each carries the eq. 1 cost terms: `A` = size, `C_j` = fills,
    /// `C_R = C_tot − C_j`, `F_R` via
    /// [`LevelCandidate::reuse_factor`]).
    pub fn level_candidates(&self) -> Vec<LevelCandidate> {
        self.levels
            .iter()
            .map(|l| LevelCandidate {
                depth: l.depth,
                size: l.size,
                fills: l.fills,
                c_tot: self.c_tot,
                exact: true,
            })
            .filter(LevelCandidate::is_useful)
            .collect()
    }

}

/// Closed-form footprint and consecutive-carrier-step overlap of the
/// access group over `inner` loops, as products of per-dimension strided
/// intervals — the symbolic twin of the `value_set`/`shifted_overlap`
/// enumeration in `footprint.rs`.
fn group_terms(
    base: &datareuse_loopir::Access,
    reps: &[&datareuse_loopir::Access],
    inner: &[Loop],
    carrier: Option<&Loop>,
) -> Result<(u64, u64), SymbolicFallback> {
    // Cross-dimension iterator disjointness among the inner loops (the
    // coefficients are shared across reps, so the base access suffices).
    let mut seen: Vec<&str> = Vec::new();
    for e in base.indices() {
        for l in inner {
            if e.coeff(l.name()) != 0 {
                if seen.contains(&l.name()) {
                    return Err(SymbolicFallback::SharedIterators);
                }
                seen.push(l.name());
            }
        }
    }
    let mut footprint: u64 = 1;
    let mut overlap: u64 = 1;
    for dim in 0..base.indices().len() {
        let mut sets: Vec<StridedInterval> = Vec::with_capacity(reps.len());
        for acc in reps {
            let e = &acc.indices()[dim];
            let terms: Vec<(i64, u64)> = inner
                .iter()
                .map(|l| (e.coeff(l.name()), l.trip_count()))
                .collect();
            sets.push(
                StridedInterval::from_terms(e.constant_part(), &terms)
                    .ok_or(SymbolicFallback::SparseDim)?,
            );
        }
        // Union in min order so an interval bridging two others merges
        // regardless of source-code access order.
        sets.sort_by_key(StridedInterval::min);
        let mut union = sets[0];
        for set in &sets[1..] {
            union = union
                .union(set)
                .ok_or(SymbolicFallback::UnalignedUnion)?;
        }
        footprint = footprint
            .checked_mul(union.count())
            .ok_or(SymbolicFallback::Overflow)?;
        let shift = carrier
            .map(|c| base.indices()[dim].coeff(c.name()))
            .unwrap_or(0);
        overlap = overlap
            .checked_mul(union.shifted_overlap(shift))
            .ok_or(SymbolicFallback::Overflow)?;
    }
    Ok((footprint, overlap))
}

/// The symbolic twin of [`crate::footprint_levels`]: groups the accesses
/// sharing `nest.accesses()[access]`'s array, exact index expression and
/// kind, then analyzes the group symbolically.
///
/// # Errors
///
/// Returns the [`SymbolicFallback`] naming why the nest left the
/// symbolic path.
pub fn symbolic_profile(
    nest: &LoopNest,
    access: usize,
) -> Result<SymbolicProfile, SymbolicFallback> {
    let raw = nest
        .accesses()
        .get(access)
        .ok_or(SymbolicFallback::BadAccess)?;
    SymbolicProfile::analyze(nest, &crate::footprint::group_members(nest, raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{footprint_levels, footprint_levels_merged};
    use datareuse_loopir::{parse_program, read_addresses, Program};
    use datareuse_trace::distinct_count;

    fn program(src: &str) -> Program {
        parse_program(src).expect("valid program")
    }

    fn assert_matches_enumeration(src: &str) {
        let p = program(src);
        let nest = &p.nests()[0];
        let profile = symbolic_profile(nest, 0).expect("conforming nest");
        assert_eq!(
            profile.level_candidates(),
            footprint_levels(nest, 0).unwrap(),
            "symbolic != enumeration for {src}"
        );
        let trace = read_addresses(&p, p.arrays()[0].name());
        assert_eq!(profile.c_tot(), trace.len() as u64, "{src}");
        assert_eq!(profile.total_footprint(), distinct_count(&trace), "{src}");
    }

    #[test]
    fn conforming_nests_match_the_enumeration_path() {
        for src in [
            "array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
            "array A[8]; for r in 0..10 { for k in 0..8 { read A[k]; } }",
            "array A[30]; for j in 0..8 { for k in 0..6 { read A[2*j + 2*k]; } }",
            "array A[50]; for j in 0..8 { for k in 0..6 { read A[2*j + 4*k]; } }",
            "array A[8][8]; for j in 0..8 { for k in 0..8 { read A[j][k]; } }",
            "array Old[30][30];
             for i1 in 0..4 { for i3 in 0..8 { for i4 in 0..8 { for i5 in 0..8 { for i6 in 0..8 {
               read Old[3*i1 + i3 + i5][i4 + i6];
             } } } } }",
            "array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; read A[j + k]; } }",
            // Non-unit lower bounds and steps exercise normalization.
            "array A[64]; for j in 4..20 step 2 { for k in 1..9 { read A[2*j + k]; } }",
        ] {
            assert_matches_enumeration(src);
        }
    }

    #[test]
    fn motion_estimation_profile_matches_the_paper_sizes() {
        let p = program(
            "array Old[39][39];
             for i1 in 0..8 { for i2 in 0..8 { for i3 in 0..8 { for i4 in 0..8 {
               for i5 in 0..4 { for i6 in 0..4 {
                 read Old[4*i1 + i3 + i5][4*i2 + i4 + i6];
             } } } } } }",
        );
        let nest = &p.nests()[0];
        let profile = symbolic_profile(nest, 0).unwrap();
        let sizes: Vec<u64> = profile.level_candidates().iter().map(|l| l.size).collect();
        assert_eq!(sizes, vec![11 * 39, 11 * 11, 4 * 11, 4 * 4]);
        assert_eq!(profile.level_candidates(), footprint_levels(nest, 0).unwrap());
        assert_eq!(profile.total_footprint(), 39 * 39);
    }

    #[test]
    fn guarded_and_diagonal_nests_fall_back() {
        let p = program(
            "array A[16][16]; for j in 0..8 { for k in 0..8 { read A[k][k]; } }",
        );
        assert_eq!(
            symbolic_profile(&p.nests()[0], 0),
            Err(SymbolicFallback::SharedIterators)
        );
        // A guard coupling two iterators is non-separable.
        let p = program(
            "array A[16]; for i in 0..8 { for j in 0..8 { read A[i + j] if i != j; } }",
        );
        assert_eq!(
            symbolic_profile(&p.nests()[0], 0),
            Err(SymbolicFallback::Guarded)
        );
    }

    #[test]
    fn sparse_dimension_falls_back_and_enumeration_agrees_it_is_exact() {
        // 3j + 7k: value set has Frobenius gaps; enumeration still
        // handles it exactly, which is exactly why the fallback exists.
        let p = program("array A[60]; for j in 0..4 { for k in 0..4 { read A[3*j + 7*k]; } }");
        assert_eq!(
            symbolic_profile(&p.nests()[0], 0),
            Err(SymbolicFallback::SparseDim)
        );
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        assert!(levels.iter().all(|l| l.exact));
    }

    #[test]
    fn merged_translated_accesses_union_into_one_profile() {
        let src = "array A[32];
             for j in 0..16 { for k in 0..8 {
               read A[j + k]; read A[j + k + 1];
             } }";
        let p = program(src);
        let nest = &p.nests()[0];
        let profile = SymbolicProfile::analyze(nest, &[0, 1]).unwrap();
        assert_eq!(
            profile.level_candidates(),
            footprint_levels_merged(nest, &[0, 1]).unwrap()
        );
        // The union is the 9-wide rolling band shared by both accesses.
        assert_eq!(profile.level_candidates()[0].size, 9);
        assert_eq!(profile.c_tot(), 256);
    }

    #[test]
    fn unaligned_translations_fall_back() {
        // Strides 2 with offset 1: the union interleaves instead of
        // extending, so the closed form refuses and enumeration decides.
        let p = program(
            "array A[40];
             for j in 0..8 { for k in 0..8 {
               read A[2*j + 2*k]; read A[2*j + 2*k + 1];
             } }",
        );
        assert_eq!(
            SymbolicProfile::analyze(&p.nests()[0], &[0, 1]),
            Err(SymbolicFallback::UnalignedUnion)
        );
        // Offset 8 with an 8-wide window: the depth-1 bands abut, but the
        // depth-2 singletons {0} and {8} leave a gap — classification is
        // all-or-nothing, so the whole nest falls back to enumeration.
        let p = program(
            "array A[32];
             for j in 0..16 { for k in 0..8 {
               read A[j + k]; read A[j + k + 8];
             } }",
        );
        assert_eq!(
            SymbolicProfile::analyze(&p.nests()[0], &[0, 1]),
            Err(SymbolicFallback::UnalignedUnion)
        );
        let p = program(
            "array A[4][8]; for j in 0..8 { for k in 0..4 { read A[k][j]; read A[k][7 - j]; } }",
        );
        assert_eq!(
            SymbolicProfile::analyze(&p.nests()[0], &[0, 1]),
            Err(SymbolicFallback::NotTranslated)
        );
    }

    #[test]
    fn bad_access_lists_are_rejected() {
        let p = program("array A[4]; for i in 0..4 { read A[i]; }");
        assert_eq!(
            SymbolicProfile::analyze(&p.nests()[0], &[]),
            Err(SymbolicFallback::BadAccess)
        );
        assert_eq!(
            SymbolicProfile::analyze(&p.nests()[0], &[7]),
            Err(SymbolicFallback::BadAccess)
        );
        assert_eq!(symbolic_profile(&p.nests()[0], 9), Err(SymbolicFallback::BadAccess));
    }

    #[test]
    fn fallback_reasons_are_stable_strings() {
        for (fb, want) in [
            (SymbolicFallback::Guarded, "guarded"),
            (SymbolicFallback::SharedIterators, "shared-iterators"),
            (SymbolicFallback::SparseDim, "sparse-dim"),
            (SymbolicFallback::UnalignedUnion, "unaligned-union"),
            (SymbolicFallback::NotTranslated, "not-translated"),
            (SymbolicFallback::Overflow, "overflow"),
            (SymbolicFallback::BadAccess, "bad-access"),
        ] {
            assert_eq!(fb.to_string(), want);
        }
    }
}
