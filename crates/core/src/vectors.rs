//! Reuse dependency vectors and the rank-of-`B` classification
//! (paper Section 5.2–5.3).
//!
//! For an access `A[y₁]…[yₙ]` with `yᵢ = bᵢ·j + cᵢ·k + constᵢ` inside the
//! inner loop pair `(j, k)`, two iterations touch the same element iff
//!
//! ```text
//! B · [j_tMAX − j_tMIN, k_tMIN − k_tMAX]ᵀ = 0,   B = [[b₁, −c₁], …, [bₙ, −cₙ]]
//! ```
//!
//! (eq. 4/8). The solution structure depends only on `rank(B)` (eq. 9):
//! rank 2 ⇒ no reuse, rank 0 ⇒ every iteration reads the same element,
//! rank 1 ⇒ reuse along the *uniformly generated dependency vector*
//! `(c', −b')` with `b' = b/gcd(b,c)`, `c' = c/gcd(b,c)` (eq. 5–7).

/// Greatest common divisor of the absolute values; `gcd(0, 0) = 0`.
///
/// # Examples
///
/// ```
/// use datareuse_core::gcd;
/// assert_eq!(gcd(12, -18), 6);
/// assert_eq!(gcd(0, 7), 7);
/// ```
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Classification of the data reuse carried by an inner loop pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseClass {
    /// `rank(B) = 0`: the index is independent of both iterators — "the
    /// same element is accessed in every iteration of the (j,k) iteration
    /// space".
    SameElement,
    /// `rank(B) = 2`: "each element is accessed only once and no gain is
    /// possible from data reuse".
    NoReuse,
    /// `rank(B) = 1`: reuse along the normalized dependency vector
    /// `(c', −b')`; `bp`/`cp` are the paper's `b'`/`c'` (non-negative, not
    /// both zero, coprime).
    Vector {
        /// `b' = |b| / gcd(|b|, |c|)`.
        bp: i64,
        /// `c' = |c| / gcd(|b|, |c|)`.
        cp: i64,
        /// True for the *anti-diagonal* orientation (`b` and `c` of
        /// opposite signs): the dependency runs `(c', +b')`, i.e. `k`
        /// *increases* along reuse. First-access counts are mirrored and
        /// unchanged, but an element's reuse arrives `b'` iterations later
        /// within the next `k` sweep, so occupancy grows by `b'`
        /// (`A_Max = c'(kRANGE − b') + b'`). This is one of the "analogous
        /// formulas for b < 0" the paper leaves to the reader; it is
        /// validated against Belady simulation in this crate's tests.
        anti: bool,
    },
}

impl ReuseClass {
    /// Classifies the `B` matrix given as `(bᵢ, cᵢ)` coefficient rows, one
    /// per signal dimension.
    ///
    /// Sign normalization: the paper derives the formulas for `b ≥ 0`,
    /// `c > 0` and notes "analogous formulas for `b < 0` and/or `c ≤ 0`
    /// can be straightforwardly derived in the same way". Reversing the
    /// direction of either loop maps every such case onto the canonical
    /// one without changing footprints, first-access counts or buffer
    /// occupancy maxima, so the classification uses `|b|`, `|c|` — this is
    /// validated against Belady simulation in the crate's tests.
    ///
    /// # Examples
    ///
    /// ```
    /// use datareuse_core::ReuseClass;
    ///
    /// // Old[… + 0·i4 + 1·i6][… + 1·i4 + 1·i6] (ME inner pair, §6.3)
    /// let class = ReuseClass::classify(&[(0, 0), (1, 1)]);
    /// assert_eq!(class, ReuseClass::Vector { bp: 1, cp: 1, anti: false });
    ///
    /// // Old[… + 1·i5][… + 1·i6]: rank 2, no reuse
    /// assert_eq!(ReuseClass::classify(&[(1, 0), (0, 1)]), ReuseClass::NoReuse);
    /// ```
    pub fn classify(rows: &[(i64, i64)]) -> Self {
        // rank 0: all rows zero.
        let mut pivot: Option<(i64, i64)> = None;
        for &(b, c) in rows {
            if b == 0 && c == 0 {
                continue;
            }
            match pivot {
                None => pivot = Some((b, c)),
                Some((pb, pc)) => {
                    // Rows must be parallel: b·pc − c·pb = 0.
                    if b * pc - c * pb != 0 {
                        return Self::NoReuse;
                    }
                }
            }
        }
        match pivot {
            None => Self::SameElement,
            Some((b, c)) => {
                // Flip the row so that c > 0 (or b > 0 when c == 0); the
                // row and its negation define the same constraint.
                let (b, c) = if c < 0 || (c == 0 && b < 0) {
                    (-b, -c)
                } else {
                    (b, c)
                };
                let g = gcd(b, c);
                Self::Vector {
                    bp: b.abs() / g,
                    cp: c / g,
                    anti: b < 0 && c > 0,
                }
            }
        }
    }

    /// The normalized `(b', c')` pair when reuse is carried, `None`
    /// otherwise.
    pub fn vector(&self) -> Option<(i64, i64)> {
        match *self {
            Self::Vector { bp, cp, .. } => Some((bp, cp)),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReuseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SameElement => write!(f, "rank 0 (same element everywhere)"),
            Self::NoReuse => write!(f, "rank 2 (no reuse)"),
            Self::Vector { bp, cp, anti: false } => {
                write!(f, "rank 1, reuse vector ({cp}, -{bp})")
            }
            Self::Vector { bp, cp, anti: true } => {
                write!(f, "rank 1, reuse vector ({cp}, +{bp}) [anti-diagonal]")
            }
        }
    }
}

/// Solves eq. 4 for the canonical case: given `(b', c')` and a first
/// access at `(j_min, k_min)`, accesses to the same element occur at
/// `(j_min + t·c', k_min − t·b')` for `t = 0..=L` with `L` given by eq. 8.
///
/// Returns the reuse chain length `L` for a first access at
/// `(j_min, k_min)` within `jL..=jU`, `kL..=kU`.
pub fn reuse_chain_length(
    (bp, cp): (i64, i64),
    (j_min, k_min): (i64, i64),
    (j_lower, j_upper): (i64, i64),
    (k_lower, _k_upper): (i64, i64),
) -> i64 {
    // eq. 8: L = min[(k_tMIN − kL) div b', (jU − j_tMIN) div c']
    match (bp, cp) {
        (0, 0) => 0,
        (0, cp) => (j_upper - j_min) / cp,
        (bp, 0) => (k_min - k_lower) / bp,
        (bp, cp) => std::cmp::min((k_min - k_lower) / bp, (j_upper - j_min) / cp),
    }
    .max(0)
    .min(if j_lower > j_upper { 0 } else { i64::MAX })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-8, 12), 4);
        assert_eq!(gcd(7, 7), 7);
        assert_eq!(gcd(1, 999), 1);
    }

    #[test]
    fn rank_zero_is_same_element() {
        assert_eq!(ReuseClass::classify(&[(0, 0), (0, 0)]), ReuseClass::SameElement);
        assert_eq!(ReuseClass::classify(&[]), ReuseClass::SameElement);
        assert_eq!(ReuseClass::classify(&[(0, 0)]), ReuseClass::SameElement);
    }

    #[test]
    fn rank_one_normalizes_with_gcd() {
        // y = 2j + 4k: b'=1, c'=2
        assert_eq!(
            ReuseClass::classify(&[(2, 4)]),
            ReuseClass::Vector { bp: 1, cp: 2, anti: false }
        );
        // parallel rows agree
        assert_eq!(
            ReuseClass::classify(&[(2, 4), (3, 6), (0, 0)]),
            ReuseClass::Vector { bp: 1, cp: 2, anti: false }
        );
    }

    #[test]
    fn footnote_case_b_zero() {
        // Footnote 1: b=0, c>0 → b'=0, c'=1.
        assert_eq!(
            ReuseClass::classify(&[(0, 5)]),
            ReuseClass::Vector { bp: 0, cp: 1, anti: false }
        );
        assert_eq!(
            ReuseClass::classify(&[(5, 0)]),
            ReuseClass::Vector { bp: 1, cp: 0, anti: false }
        );
    }

    #[test]
    fn negative_coefficients_normalize_to_canonical() {
        assert_eq!(
            ReuseClass::classify(&[(-1, 1)]),
            ReuseClass::Vector { bp: 1, cp: 1, anti: true }
        );
        assert_eq!(
            ReuseClass::classify(&[(2, -6)]),
            ReuseClass::Vector { bp: 1, cp: 3, anti: true }
        );
        // Both coefficients negative: plain diagonal after row negation.
        assert_eq!(
            ReuseClass::classify(&[(-2, -6)]),
            ReuseClass::Vector { bp: 1, cp: 3, anti: false }
        );
    }

    #[test]
    fn c_zero_column_flips_on_negative_b() {
        // When c == 0 the flip rule keys on b's sign: the row and its
        // negation define the same constraint, so (−5, 0) classifies like
        // (5, 0) — c' = 0, never anti-diagonal.
        assert_eq!(
            ReuseClass::classify(&[(-5, 0)]),
            ReuseClass::Vector { bp: 1, cp: 0, anti: false }
        );
        assert_eq!(
            ReuseClass::classify(&[(0, -5)]),
            ReuseClass::Vector { bp: 0, cp: 1, anti: false }
        );
        // Parallel all-c-zero rows: the pivot row normalizes via the gcd.
        assert_eq!(
            ReuseClass::classify(&[(0, 0), (-4, 0), (-2, 0)]),
            ReuseClass::Vector { bp: 1, cp: 0, anti: false }
        );
    }

    #[test]
    fn chain_length_degenerate_vectors_clamp_to_zero() {
        // (0, 0) carries no step; eq. 8 has no division to perform.
        assert_eq!(reuse_chain_length((0, 0), (3, 3), (0, 7), (0, 7)), 0);
        // First access already at the boundary: no further reuse.
        assert_eq!(reuse_chain_length((1, 1), (7, 0), (0, 7), (0, 7)), 0);
        // Empty j-range clamps rather than going negative.
        assert_eq!(reuse_chain_length((0, 1), (5, 0), (0, 3), (0, 7)), 0);
    }

    #[test]
    fn non_parallel_rows_have_no_reuse() {
        assert_eq!(ReuseClass::classify(&[(1, 1), (1, 2)]), ReuseClass::NoReuse);
        assert_eq!(ReuseClass::classify(&[(1, 0), (0, 1)]), ReuseClass::NoReuse);
    }

    #[test]
    fn chain_length_follows_eq8() {
        // b'=1, c'=1 in an 8x8 space: first access at (0, 5) is reused
        // min(5-0, 7-0) = 5 times.
        assert_eq!(reuse_chain_length((1, 1), (0, 5), (0, 7), (0, 7)), 5);
        // (0, 7): min(7, 7) = 7
        assert_eq!(reuse_chain_length((1, 1), (0, 7), (0, 7), (0, 7)), 7);
        // b'=0: reuse along j only.
        assert_eq!(reuse_chain_length((0, 1), (2, 3), (0, 7), (0, 7)), 5);
        // c'=0: reuse along k only.
        assert_eq!(reuse_chain_length((1, 0), (2, 3), (0, 7), (0, 7)), 3);
    }

    #[test]
    fn display_is_informative() {
        let s = ReuseClass::Vector { bp: 2, cp: 3, anti: false }.to_string();
        assert!(s.contains("(3, -2)"));
    }
}
