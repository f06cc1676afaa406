//! Multi-level copy-candidate generation by footprint analysis.
//!
//! The paper's Fig. 4a shows "several discontinuities … for smaller
//! copy-candidate sizes (A₂ − A₄). These are the sizes where maximum reuse
//! is obtained for a subset of inner loops in the total loop nest." This
//! module computes those candidate levels analytically, one per loop depth:
//! the candidate at depth `d` holds the footprint of the sub-nest below
//! depth `d`, is refreshed incrementally as the loop at depth `d−1` steps
//! (exploiting the overlap between consecutive footprints), and is reloaded
//! for every iteration of the loops above.
//!
//! The fill counts are *exact* for the hold-current-footprint schedule
//! whenever the index dimensions depend on disjoint iterator sets (true for
//! all kernels in the paper); otherwise the candidate is flagged
//! approximate and uses a product upper bound.

use std::collections::BTreeSet;

use datareuse_loopir::{
    Access, AccessKind, AffineExpr, CmpOp, Guard, IterSpace, Loop, LoopNest, Program,
};

use crate::error::AnalyzeError;
use crate::symbolic::SymbolicFallback;

/// Enumeration budget for per-dimension value sets; beyond this the
/// analysis falls back to dense-interval approximation.
const ENUM_BUDGET: u64 = 1 << 22;

/// One footprint-derived copy-candidate level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCandidate {
    /// Number of outer loops fixed: the candidate holds the footprint of
    /// `loops[depth..]` and exploits reuse carried by `loops[depth-1]`.
    pub depth: usize,
    /// Candidate capacity in elements.
    pub size: u64,
    /// Total writes into the candidate over the whole nest execution.
    pub fills: u64,
    /// Total reads of the access group (`C_tot`).
    pub c_tot: u64,
    /// False when the counts are upper bounds rather than exact (index
    /// dimensions sharing iterators, or enumeration budget exceeded).
    pub exact: bool,
}

impl LevelCandidate {
    /// The reuse factor `F_R = C_tot / C_j` this level achieves.
    pub fn reuse_factor(&self) -> f64 {
        if self.fills == 0 {
            self.c_tot as f64
        } else {
            self.c_tot as f64 / self.fills as f64
        }
    }

    /// A level is useful only when its reuse factor exceeds 1 — otherwise
    /// "this sub-level is useless and would even lead to an increase of
    /// memory size and power" (paper Section 3) and is pruned.
    pub fn is_useful(&self) -> bool {
        self.fills < self.c_tot
    }
}

/// The distinct values of `expr` over the box spanned by `loops`,
/// *including the constant offset* (iterators of `expr` absent from
/// `loops` contribute 0), or `None` when the enumeration budget is
/// exceeded. The offset matters when unioning sets of several translated
/// accesses sharing one copy-candidate.
fn value_set(expr: &AffineExpr, loops: &[&Loop]) -> Option<BTreeSet<i64>> {
    let contributing: Vec<&Loop> = loops
        .iter()
        .copied()
        .filter(|l| expr.coeff(l.name()) != 0)
        .collect();
    let combos: u64 = contributing.iter().map(|l| l.trip_count()).product();
    if combos > ENUM_BUDGET {
        return None;
    }
    let mut values = BTreeSet::new();
    let mut stack = vec![(0usize, expr.constant_part())];
    while let Some((dim, acc)) = stack.pop() {
        if dim == contributing.len() {
            values.insert(acc);
            continue;
        }
        let l = contributing[dim];
        let coeff = expr.coeff(l.name());
        for v in l.values() {
            stack.push((dim + 1, acc + coeff * v));
        }
    }
    Some(values)
}

fn shifted_overlap(set: &BTreeSet<i64>, shift: i64) -> u64 {
    if shift == 0 {
        return set.len() as u64;
    }
    set.iter().filter(|&&v| set.contains(&(v - shift))).count() as u64
}

/// Iteration budget for enumerating non-separable guards.
const COUNT_BUDGET: u64 = 1 << 24;

/// A guard resolved against loop positions once:
/// `Σ coeff·point[pos] + constant op 0`, iterators outside the loops
/// contributing 0 as they do under [`datareuse_loopir::Guard::holds`].
struct ResolvedGuard {
    terms: Vec<(usize, i128)>,
    constant: i128,
    op: CmpOp,
}

impl ResolvedGuard {
    fn new(loops: &[Loop], g: &Guard) -> Self {
        let diff = |l: i64, r: i64| i128::from(l) - i128::from(r);
        let terms = loops
            .iter()
            .enumerate()
            .filter_map(|(pos, l)| {
                let c = diff(g.lhs.coeff(l.name()), g.rhs.coeff(l.name()));
                (c != 0).then_some((pos, c))
            })
            .collect();
        Self {
            terms,
            constant: diff(g.lhs.constant_part(), g.rhs.constant_part()),
            op: g.op,
        }
    }

    fn holds(&self, point: &[i64]) -> bool {
        let v = self
            .terms
            .iter()
            .fold(self.constant, |acc, &(pos, c)| acc + c * i128::from(point[pos]));
        // The sign decides every comparison against zero.
        self.op.holds(v.signum() as i64, 0)
    }
}

/// A single-iterator guard in normal form `coeff·t + constant op 0`, with
/// `coeff > 0`, over the 0-based counter `t ∈ 0..trip` of the loop at
/// `pos` (the loop's lower bound and step folded in, as
/// [`LoopNest::normalized`] does).
struct Clip {
    pos: usize,
    coeff: i128,
    constant: i128,
    op: CmpOp,
}

/// Magnitude bound on a clip's terms, so the interval arithmetic in
/// [`Clip::narrow`] cannot overflow `i128`.
const CLIP_LIMIT: u128 = 1 << 100;

impl Clip {
    fn new(loop_: &Loop, pos: usize, coeff: i128, constant: i128, op: CmpOp) -> Option<Self> {
        // x = lower + step·t
        let constant = coeff
            .checked_mul(i128::from(loop_.lower()))?
            .checked_add(constant)?;
        let coeff = coeff.checked_mul(i128::from(loop_.step()))?;
        if coeff.unsigned_abs() >= CLIP_LIMIT || constant.unsigned_abs() >= CLIP_LIMIT {
            return None;
        }
        // Negating both sides keeps `coeff` positive and mirrors the op.
        Some(if coeff > 0 {
            Self { pos, coeff, constant, op }
        } else {
            let op = match op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                same => same,
            };
            Self { pos, coeff: -coeff, constant: -constant, op }
        })
    }

    /// Narrows `[lo, hi]` to the counter values the guard admits. `!=`
    /// removes a point rather than a range and is left to the caller.
    fn narrow(&self, lo: &mut i128, hi: &mut i128) {
        let (c, k) = (self.coeff, self.constant);
        let floor = |r: i128| r.div_euclid(c);
        let ceil = |r: i128| -(-r).div_euclid(c);
        match self.op {
            CmpOp::Lt => *hi = (*hi).min(floor(-k - 1)),
            CmpOp::Le => *hi = (*hi).min(floor(-k)),
            CmpOp::Gt => *lo = (*lo).max(ceil(1 - k)),
            CmpOp::Ge => *lo = (*lo).max(ceil(-k)),
            CmpOp::Eq => {
                *lo = (*lo).max(ceil(-k));
                *hi = (*hi).min(floor(-k));
            }
            CmpOp::Ne => {}
        }
    }

    /// The counter value a `!=` guard excludes, if it is an integer.
    fn hole(&self) -> Option<i128> {
        (self.op == CmpOp::Ne && self.constant % self.coeff == 0)
            .then(|| -self.constant / self.coeff)
    }
}

/// Executions of an access over `loops` under the conjunction `guards`,
/// in closed form: `Ok(Some(count))` when every guard is *separable*
/// (mentions at most one loop iterator), `Ok(None)` when some guard
/// couples two or more iterators.
///
/// A guard without iterators is true or false for the whole nest; a
/// single-iterator guard clips that loop's counter range to an interval
/// (`< <= > >= ==`) or removes one point from it (`!=`). The count is the
/// product of the admissible values per loop — O(#guards × depth)
/// arithmetic, never a scan of a trip range. Unguarded accesses return
/// without allocating.
///
/// # Errors
///
/// [`SymbolicFallback::Overflow`] when the count, or a guard's terms once
/// the loop bounds are folded in, leave the integer range; nothing wraps.
pub(crate) fn separable_count(
    loops: &[Loop],
    guards: &[Guard],
) -> Result<Option<u64>, SymbolicFallback> {
    let overflow = SymbolicFallback::Overflow;
    if guards.is_empty() {
        return loops
            .iter()
            .try_fold(1u64, |acc, l| acc.checked_mul(l.trip_count()))
            .map(Some)
            .ok_or(overflow);
    }
    let mut clips: Vec<Clip> = Vec::with_capacity(guards.len());
    for g in guards {
        let resolved = ResolvedGuard::new(loops, g);
        match resolved.terms[..] {
            [] if resolved.holds(&[]) => {}
            [] => return Ok(Some(0)),
            [(pos, coeff)] => clips.push(
                Clip::new(&loops[pos], pos, coeff, resolved.constant, g.op).ok_or(overflow)?,
            ),
            _ => return Ok(None),
        }
    }
    // A zero factor anywhere wins over an overflowing product.
    let mut count = Some(1u64);
    for (pos, l) in loops.iter().enumerate() {
        let on_loop = || clips.iter().filter(move |c| c.pos == pos);
        let (mut lo, mut hi) = (0i128, i128::from(l.trip_count()) - 1);
        for clip in on_loop() {
            clip.narrow(&mut lo, &mut hi);
        }
        let holes = || on_loop().filter_map(Clip::hole).filter(|t| (lo..=hi).contains(t));
        // Repeated `!=` guards on one value remove it once.
        let removed = holes()
            .enumerate()
            .filter(|&(i, t)| !holes().take(i).any(|u| u == t))
            .count();
        let admitted = (hi - lo + 1).max(0) - removed as i128;
        if admitted <= 0 {
            return Ok(Some(0));
        }
        count = count.and_then(|n| n.checked_mul(u64::try_from(admitted).ok()?));
    }
    count.map(Some).ok_or(overflow)
}

/// Exact number of executions of an access, honouring its guards, plus an
/// exactness flag. Separable guards are counted in closed form; a
/// non-separable guard space is enumerated, or — beyond `COUNT_BUDGET`
/// points — bounded by the unguarded iteration count (flag false).
pub(crate) fn guarded_count(nest: &LoopNest, access: &Access) -> (u64, bool) {
    let loops = nest.loops();
    if let Ok(Some(count)) = separable_count(loops, access.guards()) {
        return (count, true);
    }
    match loops.iter().try_fold(1u64, |acc, l| acc.checked_mul(l.trip_count())) {
        Some(total) if total <= COUNT_BUDGET => {
            let resolved: Vec<ResolvedGuard> =
                access.guards().iter().map(|g| ResolvedGuard::new(loops, g)).collect();
            let mut count = 0u64;
            IterSpace::over(loops).for_each_point(|p| {
                count += u64::from(resolved.iter().all(|g| g.holds(p)));
            });
            (count, true)
        }
        total => (total.unwrap_or(u64::MAX), false),
    }
}

/// Reads of `array` over the whole program, honouring guards: the closed
/// form of [`datareuse_loopir::trace_len`] with
/// [`TraceFilter::READS`](datareuse_loopir::TraceFilter::READS), counted
/// per access as the explore path counts `C_tot`. Accesses with
/// non-separable guards are enumerated up to the same budget and bounded
/// above beyond it; a total beyond `u64` saturates.
///
/// # Examples
///
/// ```
/// use datareuse_core::read_count;
/// use datareuse_loopir::parse_program;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program(
///     "array A[16];
///      for j in 0..8 { for k in 0..8 { read A[j + k] if k < 3; } }",
/// )?;
/// assert_eq!(read_count(&p, "A"), 8 * 3);
/// # Ok(())
/// # }
/// ```
pub fn read_count(program: &Program, array: &str) -> u64 {
    program
        .nests()
        .iter()
        .flat_map(|nest| nest.accesses().iter().map(move |acc| (nest, acc)))
        .filter(|(_, acc)| acc.array() == array && acc.kind() == AccessKind::Read)
        .fold(0u64, |total, (nest, acc)| total.saturating_add(guarded_count(nest, acc).0))
}

/// The access group of `rep` in `nest`: the indices of every access
/// with the same array, kind and index expressions, in body order. All
/// reads of one group hit the same copy, so every analysis that merges
/// accesses (`C_tot`, footprint levels, the symbolic profile, the pair
/// geometry's group size) groups through here.
pub(crate) fn group_members(nest: &LoopNest, rep: &Access) -> Vec<usize> {
    nest.accesses()
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            a.array() == rep.array() && a.kind() == rep.kind() && a.indices() == rep.indices()
        })
        .map(|(i, _)| i)
        .collect()
}

/// Computes the footprint-level candidates of `nest.accesses()[access]`
/// for every depth `1..=nest.depth()`, pruning useless levels
/// (`F_R = 1`). Accesses in the body reading the same array through the
/// exact same index expression are merged into the candidate (their
/// reads all hit the same copy).
///
/// # Errors
///
/// Returns [`AnalyzeError::NoSuchAccess`] for a bad index.
///
/// # Examples
///
/// ```
/// use datareuse_core::footprint_levels;
/// use datareuse_loopir::parse_program;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program(
///     "array A[23];
///      for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
/// )?;
/// let levels = footprint_levels(&p.nests()[0], 0)?;
/// // Depth 1: hold the 8-element window, refresh 1 element per j step.
/// assert_eq!(levels[0].size, 8);
/// assert_eq!(levels[0].fills, 8 + 15);
/// # Ok(())
/// # }
/// ```
pub fn footprint_levels(
    nest: &LoopNest,
    access: usize,
) -> Result<Vec<LevelCandidate>, AnalyzeError> {
    let raw = nest
        .accesses()
        .get(access)
        .ok_or(AnalyzeError::NoSuchAccess { index: access })?;
    footprint_levels_merged(nest, &group_members(nest, raw))
}

/// Computes footprint-level candidates for a *shared* copy serving several
/// accesses at once — the paper's merging of copy-candidates, extended to
/// accesses that are translations of each other (identical iterator
/// coefficients, different constant offsets), like the seven mask-row
/// accesses of the SUSAN test-vehicle sharing one row-band buffer.
///
/// The shared candidate at depth `d` holds the *union* of the accesses'
/// sub-nest footprints; consecutive-iteration overlap of the union is what
/// turns seven single-use row sweeps into a high-reuse rolling row buffer.
///
/// # Errors
///
/// Returns [`AnalyzeError::NoSuchAccess`] for a bad index and
/// [`AnalyzeError::NotTranslated`] when the accesses are not translations
/// of one another (or target different arrays).
pub fn footprint_levels_merged(
    nest: &LoopNest,
    accesses: &[usize],
) -> Result<Vec<LevelCandidate>, AnalyzeError> {
    if accesses.is_empty() {
        return Err(AnalyzeError::NoSuchAccess { index: 0 });
    }
    for &a in accesses {
        if a >= nest.accesses().len() {
            return Err(AnalyzeError::NoSuchAccess { index: a });
        }
    }
    let nest = nest.normalized();
    let loops = nest.loops();
    let reps: Vec<&Access> = accesses.iter().map(|&a| &nest.accesses()[a]).collect();
    // Translation check: same array, same rank, same coefficients.
    let base = reps[0];
    for acc in &reps {
        let same_shape = acc.array() == base.array()
            && acc.indices().len() == base.indices().len()
            && acc
                .indices()
                .iter()
                .zip(base.indices())
                .all(|(a, b)| {
                    loops
                        .iter()
                        .all(|l| a.coeff(l.name()) == b.coeff(l.name()))
                });
        if !same_shape {
            return Err(AnalyzeError::NotTranslated);
        }
    }

    let mut c_tot = 0u64;
    let mut counts_exact = true;
    for acc in &reps {
        let (count, exact) = guarded_count(&nest, acc);
        c_tot = c_tot.saturating_add(count);
        counts_exact &= exact;
    }
    let mut out = Vec::new();

    for depth in 1..=loops.len() {
        let inner: Vec<&Loop> = loops[depth..].iter().collect();
        let carrier = &loops[depth - 1];
        let invocations: u64 = loops[..depth - 1].iter().map(Loop::trip_count).product();
        let carrier_trips = carrier.trip_count();

        // Cross-dimension iterator disjointness among inner loops (the
        // coefficients are shared, so checking the base access suffices).
        let mut seen: Vec<&str> = Vec::new();
        let mut disjoint = true;
        for e in base.indices() {
            for l in &inner {
                if e.coeff(l.name()) != 0 {
                    if seen.contains(&l.name()) {
                        disjoint = false;
                    }
                    seen.push(l.name());
                }
            }
        }

        let mut footprint: u64 = 1;
        let mut overlap: u64 = 1;
        let mut exact = disjoint && counts_exact;
        for dim in 0..base.indices().len() {
            let shift = base.indices()[dim].coeff(carrier.name());
            let mut union: Option<BTreeSet<i64>> = Some(BTreeSet::new());
            for acc in &reps {
                match (value_set(&acc.indices()[dim], &inner), union.as_mut()) {
                    (Some(set), Some(u)) => u.extend(set),
                    _ => union = None,
                }
            }
            match union {
                Some(set) => {
                    footprint *= set.len() as u64;
                    overlap *= shifted_overlap(&set, shift);
                }
                None => {
                    // Dense-interval fallback over the union of ranges.
                    exact = false;
                    let mut lo = i64::MAX;
                    let mut hi = i64::MIN;
                    for acc in &reps {
                        let (l, h) = acc.indices()[dim]
                            .value_range(|n| {
                                inner
                                    .iter()
                                    .find(|lp| lp.name() == n)
                                    .map(|lp| (lp.lower(), lp.upper()))
                            })
                            .ok_or(AnalyzeError::Overflow)?;
                        lo = lo.min(l);
                        hi = hi.max(h);
                    }
                    let width = (hi - lo + 1).max(1) as u64;
                    footprint *= width;
                    overlap *= width.saturating_sub(shift.unsigned_abs());
                }
            }
        }
        let new_per_step = footprint - overlap.min(footprint);
        let fills = invocations * (footprint + (carrier_trips - 1) * new_per_step);
        let candidate = LevelCandidate {
            depth,
            size: footprint,
            fills,
            c_tot,
            exact,
        };
        if candidate.is_useful() {
            out.push(candidate);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datareuse_loopir::{parse_program, read_addresses, Program};
    use datareuse_trace::opt_simulate;

    fn program(src: &str) -> Program {
        parse_program(src).expect("valid program")
    }

    /// For exact candidates, OPT at the candidate size must fill at most
    /// as much (the candidate schedule is feasible), and the element-load
    /// minimum (distinct count) bounds from below.
    fn check_against_sim(src: &str) {
        let p = program(src);
        let trace = read_addresses(&p, p.arrays()[0].name());
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        assert!(!levels.is_empty());
        for lv in &levels {
            assert!(lv.exact, "expected exact analysis for {src}");
            let sim = opt_simulate(&trace, lv.size);
            assert!(
                sim.fills <= lv.fills,
                "OPT fills {} > candidate fills {} at size {} ({src})",
                sim.fills,
                lv.fills,
                lv.size
            );
        }
    }

    #[test]
    fn sliding_window_levels() {
        let p = program("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }");
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        assert_eq!(levels.len(), 1); // depth 2 (inner k only) is useless
        let l = &levels[0];
        assert_eq!(l.depth, 1);
        assert_eq!(l.size, 8);
        assert_eq!(l.fills, 23); // 8 initial + 15 new
        assert_eq!(l.c_tot, 128);
        // Matches the OPT optimum exactly here.
        let trace = read_addresses(&p, "A");
        assert_eq!(opt_simulate(&trace, 8).fills, 23);
    }

    #[test]
    fn deep_nest_produces_multiple_levels() {
        let p = program(
            "array Old[30][30];
             for i1 in 0..4 { for i3 in 0..8 { for i4 in 0..8 { for i5 in 0..8 { for i6 in 0..8 {
               read Old[3*i1 + i3 + i5][i4 + i6];
             } } } } }",
        );
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        assert!(levels.len() >= 3);
        // Sizes strictly decrease with depth; reuse factors decrease too.
        for w in levels.windows(2) {
            assert!(w[1].size < w[0].size);
            assert!(w[1].reuse_factor() <= w[0].reuse_factor() + 1e-9);
        }
        check_against_sim(
            "array Old[30][30];
             for i1 in 0..4 { for i3 in 0..8 { for i4 in 0..8 { for i5 in 0..8 { for i6 in 0..8 {
               read Old[3*i1 + i3 + i5][i4 + i6];
             } } } } }",
        );
    }

    #[test]
    fn carrier_not_in_index_gives_full_reuse_across_it() {
        let p = program(
            "array A[8]; for r in 0..10 { for k in 0..8 { read A[k]; } }",
        );
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        let l = &levels[0];
        assert_eq!(l.depth, 1);
        assert_eq!(l.size, 8);
        assert_eq!(l.fills, 8); // loaded once, reused for all r
        assert_eq!(l.reuse_factor(), 10.0);
    }

    #[test]
    fn gapped_coefficients_count_distinct_values_exactly() {
        // 2*k over k in 0..6: 6 distinct values, not a dense 11-interval.
        let src = "array A[30]; for j in 0..8 { for k in 0..6 { read A[2*j + 2*k]; } }";
        let p = program(src);
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        assert_eq!(levels[0].size, 6);
        check_against_sim(src);
    }

    #[test]
    fn lagged_reuse_is_invisible_to_footprint_levels() {
        // 2*j + 4*k: reuse exists (j+2, k−1) but skips adjacent j
        // iterations, so the depth-1 hold-current-footprint candidate sees
        // no overlap and is pruned as useless. The pairwise model
        // (b'=1, c'=2) covers this case instead.
        let p = program("array A[50]; for j in 0..8 { for k in 0..6 { read A[2*j + 4*k]; } }");
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        assert!(levels.is_empty());
    }

    #[test]
    fn useless_levels_are_pruned() {
        // Innermost loop alone carries no reuse: every candidate with
        // F_R = 1 must be absent.
        let p = program("array A[8][8]; for j in 0..8 { for k in 0..8 { read A[j][k]; } }");
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        assert!(levels.iter().all(LevelCandidate::is_useful));
        assert!(levels.is_empty()); // streaming access: no reuse at all
    }

    #[test]
    fn merged_identical_accesses_double_c_tot() {
        let p = program(
            "array A[23]; for j in 0..16 { for k in 0..8 {
               read A[j + k]; read A[j + k];
             } }",
        );
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        assert_eq!(levels[0].c_tot, 256);
        assert_eq!(levels[0].fills, 23);
    }

    #[test]
    fn shared_iterator_dims_are_flagged_approximate() {
        let p = program(
            "array A[16][16]; for j in 0..8 { for k in 0..8 { read A[k][k]; } }",
        );
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        // Diagonal access: dims share k; counts are upper bounds.
        assert!(levels.iter().all(|l| !l.exact));
    }

    #[test]
    fn bad_access_index_errors() {
        let p = program("array A[4]; for i in 0..4 { read A[i]; }");
        assert!(matches!(
            footprint_levels(&p.nests()[0], 3),
            Err(AnalyzeError::NoSuchAccess { .. })
        ));
    }

    /// Enumeration oracle: the points of `loops` where every guard holds,
    /// evaluated by name through [`Guard::holds`].
    fn enumerated(loops: &[Loop], guards: &[Guard]) -> u64 {
        IterSpace::over(loops)
            .filter(|p| {
                guards.iter().all(|g| {
                    g.holds(|n| loops.iter().position(|l| l.name() == n).map(|d| p[d]))
                })
            })
            .count() as u64
    }

    #[test]
    fn separable_counts_match_enumeration() {
        use datareuse_loopir::CmpOp::{Eq, Ge, Gt, Le, Lt, Ne};
        let loops = [Loop::with_step("i", -3, 9, 2), Loop::new("j", 2, 6)];
        let c = AffineExpr::constant;
        let mut guards_seen = 0;
        for op in [Eq, Ne, Lt, Le, Gt, Ge] {
            for coeff in [-3i64, -2, -1, 1, 2, 3] {
                for constant in -7i64..=7 {
                    for it in ["i", "j"] {
                        // Iterator on the left, then on the right.
                        let term = AffineExpr::term(it, coeff);
                        for g in [
                            Guard::new(term.clone(), op, c(constant)),
                            Guard::new(c(constant), op, term),
                        ] {
                            let pair = [g, Guard::new(AffineExpr::var("j"), Ne, c(4))];
                            for guards in [&pair[..1], &pair[..]] {
                                assert_eq!(
                                    separable_count(&loops, guards),
                                    Ok(Some(enumerated(&loops, guards))),
                                    "{guards:?}"
                                );
                                guards_seen += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(guards_seen, 6 * 6 * 15 * 2 * 2 * 2);
    }

    #[test]
    fn constant_and_repeated_guards_count_in_closed_form() {
        let loops = [Loop::new("i", 0, 9), Loop::new("j", 0, 9)];
        let g = |l: AffineExpr, op, r: AffineExpr| Guard::new(l, op, r);
        let c = AffineExpr::constant;
        let i = || AffineExpr::var("i");
        assert_eq!(separable_count(&loops, &[g(c(1), CmpOp::Lt, c(2))]), Ok(Some(100)));
        assert_eq!(separable_count(&loops, &[g(c(2), CmpOp::Lt, c(2))]), Ok(Some(0)));
        // `i != 3` twice removes one point; a hole outside the interval
        // or at a non-integer root removes none.
        let twice = [g(i(), CmpOp::Ne, c(3)), g(i(), CmpOp::Ne, c(3))];
        assert_eq!(separable_count(&loops, &twice), Ok(Some(90)));
        let outside = [g(i(), CmpOp::Le, c(4)), g(i(), CmpOp::Ne, c(7))];
        assert_eq!(separable_count(&loops, &outside), Ok(Some(50)));
        let fractional = [g(i().scaled(2), CmpOp::Ne, c(5))];
        assert_eq!(separable_count(&loops, &fractional), Ok(Some(100)));
        // Two iterators in one guard: not separable.
        let coupled = [g(i(), CmpOp::Lt, AffineExpr::var("j"))];
        assert_eq!(separable_count(&loops, &coupled), Ok(None));
    }

    #[test]
    fn non_separable_guards_are_enumerated() {
        let p = program(
            "array A[10]; for i in -3..=9 step 2 { for j in 2..=6 {
               read A[j] if 2*i < 3*j - 4; read A[j] if i != j;
             } }",
        );
        let nest = &p.nests()[0];
        for acc in nest.accesses() {
            assert_eq!(separable_count(nest.loops(), acc.guards()), Ok(None));
            assert_eq!(
                guarded_count(nest, acc),
                (enumerated(nest.loops(), acc.guards()), true),
                "{acc:?}"
            );
        }
    }

    #[test]
    fn read_count_bounds_a_non_separable_guard_beyond_the_budget() {
        // 2^26 points: over COUNT_BUDGET, so no enumeration runs and the
        // unguarded count is the (upper-bound) answer.
        let p = program(
            "array A[8192]; for i in 0..8192 { for j in 0..8192 { read A[i] if i != j; } }",
        );
        assert_eq!(guarded_count(&p.nests()[0], &p.nests()[0].accesses()[0]), (1 << 26, false));
        assert_eq!(read_count(&p, "A"), 1 << 26);
    }

    #[test]
    fn closed_form_counts_overflow_instead_of_wrapping() {
        let huge = [
            Loop::new("a", 0, 1 << 40),
            Loop::new("b", 0, 1 << 40),
            Loop::new("c", 0, 9),
        ];
        let keep_most = [Guard::new(AffineExpr::var("c"), CmpOp::Ne, AffineExpr::constant(3))];
        assert_eq!(separable_count(&huge, &keep_most), Err(SymbolicFallback::Overflow));
        // An empty factor still wins over the overflowing product.
        let none = [Guard::new(AffineExpr::var("c"), CmpOp::Gt, AffineExpr::constant(9))];
        assert_eq!(separable_count(&huge, &none), Ok(Some(0)));
    }

    #[test]
    fn read_count_agrees_with_the_trace_oracle() {
        let p = program(
            "array A[40];
             for j in 0..16 { for k in 0..8 {
               read A[j + k] if k != 2; read A[j + k + 1] if j < k; read A[j] if j >= 3;
               write A[j];
             } }",
        );
        assert_eq!(
            read_count(&p, "A"),
            datareuse_loopir::trace_len(&p, "A", datareuse_loopir::TraceFilter::READS)
        );
        assert_eq!(read_count(&p, "B"), 0);
    }

    #[test]
    fn motion_estimation_level_sizes() {
        // Full ME at reduced size to keep the test fast: H=W=32, n=m=4.
        let p = program(
            "array Old[39][39];
             for i1 in 0..8 { for i2 in 0..8 { for i3 in 0..8 { for i4 in 0..8 {
               for i5 in 0..4 { for i6 in 0..4 {
                 read Old[4*i1 + i3 + i5][4*i2 + i4 + i6];
             } } } } } }",
        );
        let levels = footprint_levels(&p.nests()[0], 0).unwrap();
        let sizes: Vec<u64> = levels.iter().map(|l| l.size).collect();
        // depth 1: rows {i3,i5}=11 × cols {i2,i4,i6}=39; depth 2: 11×11;
        // depth 3: rows {i5}=4 × cols {i4,i6}=11; depth 4: 4×4;
        // depth 5 (inner i6 only) carries no reuse and is pruned.
        assert_eq!(sizes, vec![11 * 39, 11 * 11, 4 * 11, 4 * 4]);
        let trace = read_addresses(&p, "Old");
        for lv in &levels {
            let sim = opt_simulate(&trace, lv.size);
            assert!(sim.fills <= lv.fills);
            // The analytical candidate is close to the optimum.
            assert!(
                (lv.fills as f64) < 1.6 * sim.fills as f64,
                "depth {}: {} vs OPT {}",
                lv.depth,
                lv.fills,
                sim.fills
            );
        }
    }
}
