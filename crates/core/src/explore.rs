//! Per-signal exploration driver (DTSE step 3, "data reuse").
//!
//! For one array signal, the driver gathers every analytical
//! copy-candidate point the model can derive — footprint levels for all
//! loop depths, and pairwise max/partial/bypass points for all inner loop
//! pairs — merges candidates across the access groups of the program (as
//! the paper does for the SUSAN test-vehicle), enumerates copy-candidate
//! chains, and evaluates them into the power–memory-size Pareto curve.

use std::borrow::Cow;

use datareuse_loopir::{AccessKind, LoopNest, Program};
use datareuse_memmodel::{
    evaluate_chain, pareto_front, pareto_front_explained, AreaModel, ChainCost, CopyChain,
    MemoryTechnology, ParetoPoint,
};
use datareuse_obs::{add, span, Counter, Explain};

use crate::error::AnalyzeError;
use crate::explain::{
    chain_why, emit_candidate_records, emit_chain_records, symbolic_record, PairVector,
};
use crate::footprint::{footprint_levels, footprint_levels_merged, group_members, guarded_count};
use crate::levels::{
    dedupe_candidates_explained, enumerate_chains, CandidatePoint, CandidateVerdict,
};
use crate::pairwise::{max_reuse, PairGeometry};
use crate::partial::partial_sweep;
use crate::symbolic::{symbolic_profile, SymbolicFallback, SymbolicProfile};

/// The per-reason counter behind the aggregate `sim_fallbacks`: each
/// fallback bumps both, so the per-reason breakdown always sums to
/// the total and says *why* work left the symbolic fast path.
fn fallback_counter(fallback: SymbolicFallback) -> Counter {
    match fallback {
        SymbolicFallback::Guarded => Counter::SimFallbackGuarded,
        SymbolicFallback::SharedIterators => Counter::SimFallbackSharedIterators,
        SymbolicFallback::SparseDim => Counter::SimFallbackSparseDim,
        SymbolicFallback::UnalignedUnion => Counter::SimFallbackUnalignedUnion,
        SymbolicFallback::NotTranslated => Counter::SimFallbackNotTranslated,
        SymbolicFallback::Overflow => Counter::SimFallbackOverflow,
        SymbolicFallback::BadAccess => Counter::SimFallbackBadAccess,
    }
}

/// Options steering [`explore_signal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Generate partial-reuse points (Section 6.2).
    pub include_partial: bool,
    /// Generate bypass variants of the partial points.
    pub include_bypass: bool,
    /// Maximum number of sub-levels per enumerated chain.
    pub max_chain_depth: usize,
    /// Worker threads for the pair and chain sweeps. `None` resolves to
    /// the `DATAREUSE_THREADS` environment variable, then the machine's
    /// available parallelism; `Some(1)` forces the sequential path. The
    /// result is identical either way — parallel results are sorted back
    /// into input order (see [`crate::parallel_map`]).
    pub threads: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            include_partial: true,
            include_bypass: true,
            max_chain_depth: 2,
            threads: None,
        }
    }
}

/// One group of reads of the signal through one index expression within
/// one nest.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessGroup {
    /// Nest index within the program.
    pub nest: usize,
    /// Representative access index within the nest.
    pub access: usize,
    /// Accesses merged into the group.
    pub group_size: u64,
    /// Reads the group issues over the whole execution.
    pub c_tot: u64,
    /// Candidate points derived for this group.
    pub candidates: Vec<CandidatePoint>,
}

/// The exploration result for one signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalExploration {
    /// The explored array.
    pub array: String,
    /// Element bit width.
    pub bits: u32,
    /// Background memory footprint (declared array size, elements).
    pub background_words: u64,
    /// Total reads of the signal (`C_tot` over all groups).
    pub c_tot: u64,
    /// Per-group detail.
    pub groups: Vec<AccessGroup>,
    /// Signal-level candidates (combined across groups, deduplicated).
    pub candidates: Vec<CandidatePoint>,
    /// Every candidate offered to the signal's one dedupe, in offer
    /// order: the `candidate` audit records' ids index this list.
    pub offered: Vec<CandidatePoint>,
    /// The dedupe's verdict on each offered candidate, parallel to
    /// `offered`. The audit records and the report's `why` section are
    /// rendered from these two lists.
    pub verdicts: Vec<CandidateVerdict>,
}

/// The pairwise max/partial/bypass points (eq. 12–22) of every access
/// group, swept in one fan-out. `groups` names each group's normalized
/// nest and representative access. The result holds one candidate list
/// per group, in input order, each point paired with its pair-geometry
/// annotation when `annotate` is set.
fn pair_candidates(
    groups: &[(&LoopNest, usize)],
    opts: &ExploreOptions,
    annotate: bool,
) -> Vec<(Vec<CandidatePoint>, Vec<Option<PairVector>>)> {
    let mut pairs = Vec::new();
    for (group, (nest, _)) in groups.iter().enumerate() {
        let depth = nest.depth();
        for outer in 0..depth.saturating_sub(1) {
            for inner in outer + 1..depth {
                pairs.push((group, outer, inner));
            }
        }
    }
    // Each (group, outer, inner) geometry is independent: its max-reuse
    // point and γ sweeps read only the nest. Fan every pair of the signal
    // out at once and flatten back in group order, then pair order, so
    // the candidate stream is identical to the sequential loop's.
    let _timer = span("pairs");
    add(Counter::ExplorePairsSwept, pairs.len() as u64);
    let threads = crate::par::resolve_threads(opts.threads);
    let per_pair = crate::par::parallel_map(threads, pairs, |(group, outer, inner)| {
        let (nest, access) = groups[group];
        let Ok(geom) = PairGeometry::from_access(nest, access, outer, inner) else {
            return (group, Vec::new(), None);
        };
        let exact = !geom.approximate;
        let mut out = Vec::new();
        if let Some(point) = max_reuse(&geom) {
            out.push(CandidatePoint::from_reuse_point(&point, exact));
        }
        if opts.include_partial {
            for point in partial_sweep(&geom, false) {
                out.push(CandidatePoint::from_reuse_point(&point, exact));
            }
        }
        if opts.include_bypass {
            for point in partial_sweep(&geom, true) {
                out.push(CandidatePoint::from_reuse_point(&point, exact));
            }
        }
        // The pair's geometry annotates every point it produced; skipped
        // entirely when no audit sink is attached.
        let vector = annotate.then(|| PairVector::from_geometry(&geom)).flatten();
        (group, out, vector)
    });
    let mut out = vec![(Vec::new(), Vec::new()); groups.len()];
    for (group, pts, vector) in per_pair {
        let (points, annots) = &mut out[group];
        if annotate {
            annots.resize(annots.len() + pts.len(), vector);
        }
        points.extend(pts);
    }
    out
}

/// Explores all read accesses to `array` in `program`.
///
/// For every access group the driver derives footprint levels (Fig. 4a's
/// discontinuities `A₁…A₄`) and the pairwise max/partial/bypass points
/// (eq. 12–22), then combines and deduplicates them into the signal's
/// copy-candidates. Each candidate carries its reuse factor
/// `F_R = C_tot / C_j` (eq. 1) via
/// [`CandidatePoint::reuse_factor`](crate::CandidatePoint::reuse_factor).
///
/// When metrics are enabled ([`datareuse_obs::set_metrics_enabled`]) the
/// sweep records the `explore` span and the `explore_*` counters.
///
/// # Errors
///
/// Returns [`AnalyzeError::UnknownArray`] when the array is not declared
/// and [`AnalyzeError::NoAccesses`] when nothing reads it.
///
/// # Examples
///
/// ```
/// use datareuse_core::{explore_signal, ExploreOptions};
/// use datareuse_loopir::parse_program;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program(
///     "array A[23];
///      for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
/// )?;
/// let ex = explore_signal(&p, "A", &ExploreOptions::default())?;
/// assert_eq!(ex.c_tot, 128);
/// assert!(!ex.candidates.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn explore_signal(
    program: &Program,
    array: &str,
    opts: &ExploreOptions,
) -> Result<SignalExploration, AnalyzeError> {
    explore_signal_explained(program, array, opts, None)
}

/// [`explore_signal`] with an optional audit sink: when `explain` is
/// `Some`, one audit NDJSON record is emitted per offered
/// copy-candidate (the eq. 12–22 cost terms plus a terminal verdict).
/// The exploration result is identical either way, and with `None` no
/// record is built at all.
///
/// # Errors
///
/// Same as [`explore_signal`].
pub fn explore_signal_explained(
    program: &Program,
    array: &str,
    opts: &ExploreOptions,
    explain: Option<&Explain>,
) -> Result<SignalExploration, AnalyzeError> {
    let _timer = span("explore");
    let decl = program
        .array(array)
        .ok_or_else(|| AnalyzeError::UnknownArray(array.to_string()))?;
    // The paper step-normalizes a nest "(temporarily)" before its
    // pairwise analysis (Sec. 5). Do it once per nest that reads the
    // signal, so every analysis below borrows the normal form instead of
    // rebuilding it per call.
    let mut nests: Vec<(usize, Cow<'_, LoopNest>, Vec<usize>)> = Vec::new();
    for (nest_idx, nest) in program.nests().iter().enumerate() {
        let reads: Vec<usize> = nest
            .accesses()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.array() == array && a.kind() == AccessKind::Read)
            .map(|(i, _)| i)
            .collect();
        if !reads.is_empty() {
            nests.push((nest_idx, nest.normalized(), reads));
        }
    }
    let mut groups = Vec::new();
    let mut sweeps: Vec<(&LoopNest, usize)> = Vec::new();
    for &(nest_idx, ref norm, ref reads) in &nests {
        let nest = &program.nests()[nest_idx];
        for &access_idx in reads {
            let members = group_members(nest, &nest.accesses()[access_idx]);
            if members[0] != access_idx {
                continue; // merged into an earlier group
            }
            // Guard-aware C_tot: guarded accesses (the SUSAN circular
            // mask) execute on a subset of the iteration space.
            let c_tot = members
                .iter()
                .try_fold(0u64, |sum, &a| {
                    sum.checked_add(guarded_count(nest, &nest.accesses()[a]).0)
                })
                .ok_or(AnalyzeError::Overflow)?;
            let mut candidates = Vec::new();
            // Default analysis path: closed-form symbolic profile. The
            // enumeration path runs only for non-conforming groups (the
            // `sim_fallbacks` counter and the `symbolic-profile` audit
            // record say which and why); where both apply their outputs
            // are identical (pinned by tests/symbolic.rs).
            match symbolic_profile(norm, access_idx) {
                Ok(profile) => {
                    add(Counter::SymbolicHits, 1);
                    if let Some(sink) = explain {
                        sink.emit(&symbolic_record(array, nest_idx, false, Ok(&profile)));
                    }
                    for level in profile.level_candidates() {
                        candidates.push(CandidatePoint::from_footprint(&level, nest.depth()));
                    }
                }
                Err(fallback) => {
                    add(Counter::SimFallbacks, 1);
                    add(fallback_counter(fallback), 1);
                    if let Some(sink) = explain {
                        sink.emit(&symbolic_record(array, nest_idx, false, Err(fallback)));
                    }
                    // Counts beyond u64 are terminal: enumerating them
                    // would never finish, so refuse before the pair sweep.
                    if fallback == SymbolicFallback::Overflow {
                        return Err(AnalyzeError::Overflow);
                    }
                    for level in footprint_levels(norm, access_idx)? {
                        candidates.push(CandidatePoint::from_footprint(&level, nest.depth()));
                    }
                }
            }
            sweeps.push((norm, access_idx));
            groups.push(AccessGroup {
                nest: nest_idx,
                access: access_idx,
                group_size: members.len() as u64,
                c_tot,
                candidates,
            });
        }
    }
    if groups.is_empty() {
        return Err(AnalyzeError::NoAccesses(array.to_string()));
    }
    // Cross-group combination sums by source over group 0's seeds, so the
    // pair-geometry annotations of the first group cover the whole pool.
    let mut first_annots: Vec<Option<PairVector>> = Vec::new();
    let swept = pair_candidates(&sweeps, opts, explain.is_some());
    for (i, (g, (pair_points, pair_annots))) in groups.iter_mut().zip(swept).enumerate() {
        if explain.is_some() && i == 0 {
            first_annots = vec![None; g.candidates.len()];
            first_annots.extend(pair_annots);
        }
        g.candidates.extend(pair_points);
    }
    add(Counter::ExploreGroups, groups.len() as u64);
    add(
        Counter::ExploreCandidatesGenerated,
        groups.iter().map(|g| g.candidates.len() as u64).sum(),
    );
    let c_tot = groups
        .iter()
        .try_fold(0u64, |sum, g| sum.checked_add(g.c_tot))
        .ok_or(AnalyzeError::Overflow)?;
    let (mut pool, seed_map) = combine_groups_raw(&groups, c_tot);
    let mut pool_annots: Vec<Option<PairVector>> = if explain.is_some() {
        seed_map
            .iter()
            .map(|&i| first_annots.get(i).copied().flatten())
            .collect()
    } else {
        Vec::new()
    };
    // Shared candidates over translated accesses within one nest — the
    // paper's merged copy-candidates (Section 6.4). A single buffer
    // holding the union footprint serves all mask rows at once, turning
    // seven single-sweep accesses into one high-reuse rolling buffer.
    for &(nest_idx, ref nest, ref members) in &nests {
        if members.len() < 2 {
            continue;
        }
        match SymbolicProfile::analyze(nest, members) {
            Ok(profile) => {
                add(Counter::SymbolicHits, 1);
                if let Some(sink) = explain {
                    sink.emit(&symbolic_record(array, nest_idx, true, Ok(&profile)));
                }
                for level in profile.level_candidates() {
                    pool.push(CandidatePoint::from_merged_footprint(&level, nest.depth()));
                    if explain.is_some() {
                        pool_annots.push(None);
                    }
                }
            }
            Err(SymbolicFallback::Overflow) => return Err(AnalyzeError::Overflow),
            Err(fallback) => {
                // Enumeration may still refuse (accesses that are not
                // translations of each other produce no shared candidate
                // on either path — no fallback work ran, no counter).
                if let Ok(levels) = footprint_levels_merged(nest, members) {
                    add(Counter::SimFallbacks, 1);
                    add(fallback_counter(fallback), 1);
                    if let Some(sink) = explain {
                        sink.emit(&symbolic_record(array, nest_idx, true, Err(fallback)));
                    }
                    for level in levels {
                        pool.push(CandidatePoint::from_merged_footprint(&level, nest.depth()));
                        if explain.is_some() {
                            pool_annots.push(None);
                        }
                    }
                }
            }
        }
    }
    // One final dedupe over the whole pool. This is equivalent to the
    // nested dedupe-then-dedupe the combination used to do — dominance
    // is transitive, so dropping a point early or late never changes the
    // survivor set or the pruned-counter total — and it gives every
    // offered candidate exactly one verdict against pool-wide ids.
    let (candidates, verdicts) = dedupe_candidates_explained(&pool);
    let ex = SignalExploration {
        array: array.to_string(),
        bits: decl.elem_bits(),
        background_words: decl.len(),
        c_tot,
        groups,
        candidates,
        offered: pool,
        verdicts,
    };
    if let Some(sink) = explain {
        emit_candidate_records(sink, &ex, &pool_annots);
    }
    Ok(ex)
}

/// Combines per-group candidates into one signal-level pool, *without*
/// deduplicating (the caller runs the single final dedupe).
///
/// With a single group, its candidates pass through. With several (the
/// SUSAN shape: one nest per mask row), candidates whose
/// [`CandidateSource`] appears in *every* group are summed — each group
/// keeps its own buffer partition, so sizes and traffic add. The second
/// vector maps each pooled candidate back to its seed index in group 0
/// (the identity for a single group), which carries the annotations.
fn combine_groups_raw(groups: &[AccessGroup], c_tot: u64) -> (Vec<CandidatePoint>, Vec<usize>) {
    if groups.len() == 1 {
        let pool = groups[0].candidates.clone();
        let seeds = (0..pool.len()).collect();
        return (pool, seeds);
    }
    let mut combined = Vec::new();
    let mut seeds = Vec::new();
    for (seed_idx, seed) in groups[0].candidates.iter().enumerate() {
        let mut size = 0u64;
        let mut fills = 0u64;
        let mut bypasses = 0u64;
        let mut exact = true;
        let mut complete = true;
        for g in groups {
            match g.candidates.iter().find(|c| c.source == seed.source) {
                Some(c) => {
                    size += c.size;
                    fills += c.fills;
                    bypasses += c.bypasses;
                    exact &= c.exact;
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            combined.push(CandidatePoint {
                size,
                fills,
                bypasses,
                c_tot,
                source: seed.source,
                exact,
            });
            seeds.push(seed_idx);
        }
    }
    (combined, seeds)
}

impl SignalExploration {
    /// Enumerates every copy-candidate chain over the signal candidates.
    pub fn chains(&self, opts: &ExploreOptions) -> Vec<CopyChain> {
        let _timer = span("chains");
        enumerate_chains(
            &self.candidates,
            self.c_tot,
            self.background_words,
            self.bits,
            opts.max_chain_depth,
        )
    }

    /// Evaluates all chains and returns the power–memory-size Pareto front
    /// (Fig. 4b / 10b / 11b), pairs of the chain and its cost, sorted by
    /// increasing on-chip size.
    ///
    /// Each chain is costed with the eq. 3 hierarchy power model (eq. 19
    /// bypass semantics included); the front keeps the points no other
    /// chain dominates in both power and size — the designer's trade-off
    /// curve from which eq. 2 picks a single operating point.
    pub fn pareto(
        &self,
        opts: &ExploreOptions,
        tech: &MemoryTechnology,
        area: &(impl AreaModel + Sync),
    ) -> Vec<ParetoPoint<(CopyChain, ChainCost)>> {
        self.pareto_explained(opts, tech, area, None).0
    }

    /// [`SignalExploration::pareto`] with an optional audit sink: when
    /// `explain` is `Some`, every enumerated hierarchy gets one `chain`
    /// NDJSON record with its eq. 2–3 cost terms and its Pareto verdict,
    /// and the second list holds the report's `why` lines for them
    /// (empty without a sink). The front is identical either way.
    pub(crate) fn pareto_explained(
        &self,
        opts: &ExploreOptions,
        tech: &MemoryTechnology,
        area: &(impl AreaModel + Sync),
        explain: Option<&Explain>,
    ) -> (Vec<ParetoPoint<(CopyChain, ChainCost)>>, Vec<String>) {
        let _timer = span("pareto");
        let threads = crate::par::resolve_threads(opts.threads);
        let points = crate::par::parallel_map(threads, self.chains(opts), |chain| {
            let cost = evaluate_chain(&chain, tech, area);
            ParetoPoint::new(cost.onchip_words as f64, cost.normalized_energy, (chain, cost))
        });
        let Some(sink) = explain else {
            return (pareto_front(points), Vec::new());
        };
        // Record every evaluated chain in enumeration order; the clone
        // only happens on the audited path.
        let inputs: Vec<(CopyChain, ChainCost)> =
            points.iter().map(|p| p.payload.clone()).collect();
        let (front, verdicts) = pareto_front_explained(points);
        emit_chain_records(sink, &self.array, &inputs, &verdicts);
        (front, chain_why(&inputs, &verdicts))
    }

    /// The `(size, F_R)` pairs of all signal candidates, sorted by size —
    /// the analytical overlay of Fig. 10a/11a.
    pub fn reuse_factor_points(&self) -> Vec<(u64, f64)> {
        let mut pts: Vec<(u64, f64)> = self
            .candidates
            .iter()
            .map(|c| (c.size, c.reuse_factor()))
            .collect();
        pts.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        pts
    }
}

/// Explores every array read anywhere in the program, in declaration
/// order. Arrays without read accesses are skipped.
///
/// # Errors
///
/// Propagates the first per-signal [`AnalyzeError`].
///
/// # Examples
///
/// ```
/// use datareuse_core::{explore_program, ExploreOptions};
/// use datareuse_loopir::parse_program;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program(
///     "array A[23]; array B[16];
///      for j in 0..16 { for k in 0..8 { read A[j + k]; read B[k]; } }",
/// )?;
/// let all = explore_program(&p, &ExploreOptions::default())?;
/// assert_eq!(all.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn explore_program(
    program: &Program,
    opts: &ExploreOptions,
) -> Result<Vec<SignalExploration>, AnalyzeError> {
    explore_program_explained(program, opts, None)
}

/// [`explore_program`] with an optional audit sink shared by all signals
/// (records carry the array name for filtering).
///
/// # Errors
///
/// Propagates the first per-signal [`AnalyzeError`].
pub fn explore_program_explained(
    program: &Program,
    opts: &ExploreOptions,
    explain: Option<&Explain>,
) -> Result<Vec<SignalExploration>, AnalyzeError> {
    let mut out = Vec::new();
    for decl in program.arrays() {
        let read = program.nests().iter().any(|n| {
            n.accesses()
                .iter()
                .any(|a| a.array() == decl.name() && a.kind() == AccessKind::Read)
        });
        if !read {
            continue;
        }
        out.push(explore_signal_explained(program, decl.name(), opts, explain)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::CandidateSource;
    use datareuse_loopir::parse_program;
    use datareuse_memmodel::BitCount;

    fn simple() -> Program {
        parse_program("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }").unwrap()
    }

    #[test]
    fn explores_simple_window() {
        let ex = explore_signal(&simple(), "A", &ExploreOptions::default()).unwrap();
        assert_eq!(ex.c_tot, 128);
        assert_eq!(ex.background_words, 23);
        assert_eq!(ex.groups.len(), 1);
        // Candidates include the max-reuse point (size 7 or 8) and the
        // partial family.
        assert!(ex.candidates.len() >= 5);
        let pts = ex.reuse_factor_points();
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn pareto_contains_baseline_and_improves() {
        let ex = explore_signal(&simple(), "A", &ExploreOptions::default()).unwrap();
        let tech = MemoryTechnology::new();
        let front = ex.pareto(&ExploreOptions::default(), &tech, &BitCount);
        assert!(!front.is_empty());
        // Baseline (size 0, energy 1) is always on the front.
        assert_eq!(front[0].size, 0.0);
        assert!((front[0].power - 1.0).abs() < 1e-12);
        // And something beats the baseline.
        assert!(front.last().unwrap().power < 0.8);
        for w in front.windows(2) {
            assert!(w[1].size > w[0].size);
            assert!(w[1].power < w[0].power);
        }
    }

    #[test]
    fn unknown_array_and_no_access_errors() {
        let p = simple();
        assert!(matches!(
            explore_signal(&p, "Nope", &ExploreOptions::default()),
            Err(AnalyzeError::UnknownArray(_))
        ));
        let q = parse_program("array A[4]; array B[4]; for i in 0..4 { read A[i]; }").unwrap();
        assert!(matches!(
            explore_signal(&q, "B", &ExploreOptions::default()),
            Err(AnalyzeError::NoAccesses(_))
        ));
    }

    #[test]
    fn guarded_fallbacks_are_attributed_by_reason() {
        use datareuse_obs::{counter_value, set_metrics_enabled};
        // An access with a non-separable guard leaves the symbolic path
        // with the `Guarded` classification; the aggregate counter and its
        // per-reason breakdown must move together so the breakdown always
        // sums to `sim_fallbacks`.
        let p = parse_program(
            "array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k] if j != k; } }",
        )
        .unwrap();
        let total0 = counter_value(Counter::SimFallbacks);
        let guarded0 = counter_value(Counter::SimFallbackGuarded);
        set_metrics_enabled(true);
        explore_signal(&p, "A", &ExploreOptions::default()).unwrap();
        set_metrics_enabled(false);
        let total = counter_value(Counter::SimFallbacks) - total0;
        let guarded = counter_value(Counter::SimFallbackGuarded) - guarded0;
        assert!(guarded >= 1, "non-separable guard must record a guarded fallback");
        assert_eq!(total, guarded, "every fallback here is a guard fallback");
    }

    #[test]
    fn multi_nest_groups_combine() {
        // Two structurally identical nests reading different rows — the
        // SUSAN shape in miniature.
        let p = parse_program(
            "array I[2][30];
             for x in 0..16 { for d in 0..8 { read I[0][x + d]; } }
             for x in 0..16 { for d in 0..8 { read I[1][x + d]; } }",
        )
        .unwrap();
        let ex = explore_signal(&p, "I", &ExploreOptions::default()).unwrap();
        assert_eq!(ex.groups.len(), 2);
        assert_eq!(ex.c_tot, 256);
        assert!(!ex.candidates.is_empty());
        // Combined candidates sum the two groups' buffers.
        for c in &ex.candidates {
            assert_eq!(c.c_tot, 256);
        }
    }

    #[test]
    fn options_control_candidate_families() {
        let none = ExploreOptions {
            include_partial: false,
            include_bypass: false,
            ..ExploreOptions::default()
        };
        let all = ExploreOptions::default();
        let p = simple();
        let ex_none = explore_signal(&p, "A", &none).unwrap();
        let ex_all = explore_signal(&p, "A", &all).unwrap();
        assert!(ex_all.candidates.len() > ex_none.candidates.len());
        assert!(ex_none
            .candidates
            .iter()
            .all(|c| !matches!(c.source, CandidateSource::PairPartial { .. })));
    }

    #[test]
    fn parallel_sweep_matches_single_thread() {
        // A 4-deep nest gives 6 loop pairs, so the fan-out is exercised
        // with real work per worker. The SUSAN-shaped program (offset
        // loops, guarded mask rows, several groups over two nests) sweeps
        // every group's pairs in one fan-out, so it also pins that results
        // come back in group order, then pair order. The Pareto points
        // must be bit-identical between the sequential fallback and any
        // worker count.
        let window = parse_program(
            "array A[1056];
             for f in 0..4 { for j in 0..16 { for k in 0..8 { for d in 0..4 {
                 read A[64*f + 2*j + k + d];
             } } } }",
        )
        .unwrap();
        let susan = parse_program(
            "array A[12][40];
             for y in 3..9 { for x in 3..30 { for d in -3..4 {
                 read A[y - 1][x + d] if d >= -2;
                 read A[y][x + d] if d != 0;
                 read A[y + 1][x + d];
             } } }
             for y in 3..9 { for x in 3..30 { for d in -2..3 {
                 read A[y - 2][x + d];
                 read A[y + 2][x + d] if d <= 1;
             } } }",
        )
        .unwrap();
        let single = ExploreOptions {
            threads: Some(1),
            ..ExploreOptions::default()
        };
        let tech = MemoryTechnology::new();
        for p in [window, susan] {
            let ex_single = explore_signal(&p, "A", &single).unwrap();
            let front_single = ex_single.pareto(&single, &tech, &BitCount);
            for workers in [2usize, 4, 16] {
                let multi = ExploreOptions {
                    threads: Some(workers),
                    ..ExploreOptions::default()
                };
                let ex_multi = explore_signal(&p, "A", &multi).unwrap();
                assert_eq!(
                    ex_single, ex_multi,
                    "candidates differ at {workers} workers"
                );
                let front_multi = ex_multi.pareto(&multi, &tech, &BitCount);
                assert_eq!(front_single.len(), front_multi.len());
                for (a, b) in front_single.iter().zip(&front_multi) {
                    assert_eq!(a.size, b.size);
                    assert_eq!(a.power, b.power);
                    assert_eq!(a.payload.0, b.payload.0);
                }
            }
        }
    }

    #[test]
    fn groups_do_not_span_arrays() {
        // `B` reads through the same index expression as `A`; it must
        // neither join `A`'s group nor change `A`'s result.
        let alone = parse_program(
            "array A[8][8]; array B[8][8];
             for i in 0..8 { for k in 0..8 { read A[i][k]; } }",
        )
        .unwrap();
        let shared = parse_program(
            "array A[8][8]; array B[8][8];
             for i in 0..8 { for k in 0..8 { read A[i][k]; read B[i][k]; } }",
        )
        .unwrap();
        let opts = ExploreOptions::default();
        let a = explore_signal(&shared, "A", &opts).unwrap();
        assert_eq!(a, explore_signal(&alone, "A", &opts).unwrap());
        assert_eq!(
            (a.groups.len(), a.groups[0].group_size, a.c_tot),
            (1, 1, 64)
        );
        let b = explore_signal(&shared, "B", &opts).unwrap();
        assert_eq!((b.groups[0].access, b.c_tot), (1, 64));
    }

    #[test]
    fn explore_program_covers_all_read_arrays() {
        let p = parse_program(
            "array A[23]; array B[16]; array C[4];
             for j in 0..16 { for k in 0..8 { read A[j + k]; read B[k]; write C[0]; } }",
        )
        .unwrap();
        let all = explore_program(&p, &ExploreOptions::default()).unwrap();
        let names: Vec<&str> = all.iter().map(|e| e.array.as_str()).collect();
        assert_eq!(names, vec!["A", "B"]); // C is write-only
        assert!(all.iter().all(|e| e.c_tot == 128));
    }

    #[test]
    fn write_accesses_are_ignored() {
        let p = parse_program(
            "array A[23];
             for j in 0..16 { for k in 0..8 { read A[j + k]; write A[j + k]; } }",
        )
        .unwrap();
        let ex = explore_signal(&p, "A", &ExploreOptions::default()).unwrap();
        assert_eq!(ex.c_tot, 128); // the write does not count
    }
}
