//! Candidate points and copy-candidate chain enumeration.
//!
//! Section 4 of the paper builds its Pareto curve "by considering all
//! possible hierarchies combining points on the data reuse factor curve".
//! [`CandidatePoint`] is one such point (from the footprint analysis, the
//! pairwise closed forms, or raw simulation), and [`enumerate_chains`]
//! produces every well-formed multi-level hierarchy over a candidate set,
//! pruning useless levels as Section 3 prescribes.

use datareuse_memmodel::{ChainLevel, CopyChain};
use datareuse_obs::{add, Counter};

use crate::footprint::LevelCandidate;
use crate::pairwise::{PointKind, ReusePoint};

/// Where a candidate point came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateSource {
    /// Footprint analysis at the given loop depth.
    Footprint {
        /// Loops fixed above the footprint, counted from the innermost
        /// loop so that structurally identical nests align.
        depth_from_inner: usize,
    },
    /// Shared footprint candidate serving several translated accesses
    /// (the paper's merged copy-candidates, Section 6.4).
    MergedFootprint {
        /// Loops fixed above the footprint, counted from the innermost.
        depth_from_inner: usize,
    },
    /// Pairwise maximum reuse (Section 6.1).
    PairMax,
    /// Pairwise partial reuse (Section 6.2).
    PairPartial {
        /// The γ split parameter.
        gamma: i64,
        /// Whether not-reused data bypasses the candidate.
        bypass: bool,
    },
    /// Belady simulation at a chosen size.
    Simulated,
}

/// One copy-candidate option for a signal: a size plus the traffic it
/// induces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidatePoint {
    /// Capacity in elements.
    pub size: u64,
    /// Writes into the candidate over the whole execution (`C_j`).
    pub fills: u64,
    /// Accesses bypassing the candidate.
    pub bypasses: u64,
    /// Total reads of the signal (`C_tot`).
    pub c_tot: u64,
    /// Provenance.
    pub source: CandidateSource,
    /// False when the counts are approximate.
    pub exact: bool,
}

impl CandidatePoint {
    /// The reuse factor of the point (`F_R`, or `F'_R` for bypass points).
    pub fn reuse_factor(&self) -> f64 {
        let copied = self.c_tot - self.bypasses;
        if self.fills == 0 {
            copied as f64
        } else {
            copied as f64 / self.fills as f64
        }
    }

    /// Useful per the Section 3 pruning rule: strictly fewer upstream
    /// reads than `C_tot`.
    pub fn is_useful(&self) -> bool {
        self.fills + self.bypasses < self.c_tot
    }

    /// Builds a point from a footprint level candidate.
    pub fn from_footprint(level: &LevelCandidate, nest_depth: usize) -> Self {
        Self {
            size: level.size,
            fills: level.fills,
            bypasses: 0,
            c_tot: level.c_tot,
            source: CandidateSource::Footprint {
                depth_from_inner: nest_depth - level.depth,
            },
            exact: level.exact,
        }
    }

    /// Builds a point from a merged (shared) footprint level candidate.
    pub fn from_merged_footprint(level: &LevelCandidate, nest_depth: usize) -> Self {
        Self {
            size: level.size,
            fills: level.fills,
            bypasses: 0,
            c_tot: level.c_tot,
            source: CandidateSource::MergedFootprint {
                depth_from_inner: nest_depth - level.depth,
            },
            exact: level.exact,
        }
    }

    /// Builds a point from a pairwise analytical reuse point.
    pub fn from_reuse_point(point: &ReusePoint, exact: bool) -> Self {
        let source = match point.kind {
            PointKind::Max => CandidateSource::PairMax,
            PointKind::Partial { gamma } => CandidateSource::PairPartial {
                gamma,
                bypass: false,
            },
            PointKind::PartialBypass { gamma } => CandidateSource::PairPartial {
                gamma,
                bypass: true,
            },
        };
        Self {
            size: point.size,
            fills: point.fills,
            bypasses: point.bypasses,
            c_tot: point.c_tot,
            source,
            exact,
        }
    }
}

/// The fate of one offered candidate in [`dedupe_candidates_explained`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateVerdict {
    /// Survived deduplication and the dominance filter.
    Kept,
    /// Survived, and routes part of the traffic around the buffer
    /// (Section 6.2 bypass variants).
    Bypass,
    /// Dropped by the Section 3 usefulness rule: upstream traffic not
    /// strictly below `C_tot`.
    Pruned,
    /// Dropped because the candidate at the given *input index* offers
    /// the same size for less traffic, or strictly dominates it.
    DominatedBy(usize),
}

impl std::fmt::Display for CandidateVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CandidateVerdict::Kept => f.write_str("kept"),
            CandidateVerdict::Bypass => f.write_str("bypass"),
            CandidateVerdict::Pruned => f.write_str("pruned"),
            CandidateVerdict::DominatedBy(i) => write!(f, "dominated-by {i}"),
        }
    }
}

/// Deduplicates candidates by size (keeping the least upstream traffic),
/// drops useless points, and removes *dominated* candidates — those with
/// both a larger size and no less upstream traffic than another candidate
/// are never preferable at any chain position. Returned sorted by
/// decreasing size.
pub fn dedupe_candidates(candidates: Vec<CandidatePoint>) -> Vec<CandidatePoint> {
    dedupe_candidates_explained(&candidates).0
}

/// [`dedupe_candidates`] with a per-input verdict: the returned vector is
/// parallel to `candidates` and records why each offered point survived
/// or fell. The kept list is byte-identical to what `dedupe_candidates`
/// returns for the same input.
pub fn dedupe_candidates_explained(
    candidates: &[CandidatePoint],
) -> (Vec<CandidatePoint>, Vec<CandidateVerdict>) {
    let offered = candidates.len();
    let mut verdicts = vec![CandidateVerdict::Pruned; offered];
    // Indices of the useful candidates, in ascending size order with ties
    // resolved toward less upstream traffic (the stable sort preserves
    // offer order among exact duplicates, matching `dedup_by_key`).
    let upstream = |i: usize| candidates[i].fills + candidates[i].bypasses;
    let mut order: Vec<usize> = (0..offered)
        .filter(|&i| candidates[i].is_useful())
        .collect();
    order.sort_by(|&a, &b| {
        candidates[a]
            .size
            .cmp(&candidates[b].size)
            .then(upstream(a).cmp(&upstream(b)))
    });
    // Per size class the first entry wins; later ones lose to it.
    let mut survivors: Vec<usize> = Vec::with_capacity(order.len());
    for &i in &order {
        match survivors.last() {
            Some(&w) if candidates[w].size == candidates[i].size => {
                verdicts[i] = CandidateVerdict::DominatedBy(w);
            }
            _ => survivors.push(i),
        }
    }
    // Pareto filter on (size, upstream): growing the buffer must strictly
    // reduce traffic, else the last strictly-better point dominates.
    let mut kept: Vec<usize> = Vec::with_capacity(survivors.len());
    let mut best_upstream = u64::MAX;
    for i in survivors {
        if upstream(i) < best_upstream {
            best_upstream = upstream(i);
            verdicts[i] = if candidates[i].bypasses > 0 {
                CandidateVerdict::Bypass
            } else {
                CandidateVerdict::Kept
            };
            kept.push(i);
        } else {
            // `kept` is non-empty here: the first useful point always
            // beats the u64::MAX sentinel.
            verdicts[i] = CandidateVerdict::DominatedBy(*kept.last().unwrap());
        }
    }
    kept.reverse();
    add(Counter::ExploreCandidatesPruned, (offered - kept.len()) as u64);
    (kept.into_iter().map(|i| candidates[i]).collect(), verdicts)
}

/// Enumerates every copy-candidate chain of at most `max_depth` sub-levels
/// over the candidate set, including the baseline (no hierarchy).
///
/// A chain is well-formed when sizes strictly decrease inward, fills do
/// not decrease inward, and only the innermost level bypasses — exactly
/// the [`CopyChain::validate`] invariants. Candidates with bypass traffic
/// are therefore only placed innermost.
///
/// # Examples
///
/// ```
/// use datareuse_core::{enumerate_chains, CandidatePoint, CandidateSource};
///
/// let pts = vec![
///     CandidatePoint {
///         size: 64, fills: 100, bypasses: 0, c_tot: 1000,
///         source: CandidateSource::Simulated, exact: true,
///     },
///     CandidatePoint {
///         size: 8, fills: 400, bypasses: 0, c_tot: 1000,
///         source: CandidateSource::Simulated, exact: true,
///     },
/// ];
/// let chains = enumerate_chains(&pts, 1000, 4096, 8, 2);
/// // baseline, {64}, {8}, {64, 8}
/// assert_eq!(chains.len(), 4);
/// ```
pub fn enumerate_chains(
    candidates: &[CandidatePoint],
    c_tot: u64,
    background_words: u64,
    bits: u32,
    max_depth: usize,
) -> Vec<CopyChain> {
    let candidates = dedupe_candidates(candidates.to_vec());
    let mut out = vec![CopyChain::baseline(c_tot, background_words, bits)];
    // Depth-first extension over the size-descending candidate list.
    fn extend(
        candidates: &[CandidatePoint],
        from: usize,
        stack: &mut Vec<CandidatePoint>,
        max_depth: usize,
        base: &CopyChain,
        out: &mut Vec<CopyChain>,
    ) {
        // A bypassing level may only sit innermost, so nothing goes
        // inside one.
        if stack.len() >= max_depth || stack.last().is_some_and(|prev| prev.bypasses > 0) {
            return;
        }
        for (offset, cand) in candidates[from..].iter().enumerate() {
            if let Some(prev) = stack.last() {
                if cand.size >= prev.size || cand.fills < prev.fills {
                    continue;
                }
            } else if cand.size >= base.background_words {
                continue;
            }
            stack.push(*cand);
            let mut chain = base.clone();
            for c in stack.iter() {
                chain.push_level(ChainLevel::with_bypass(c.size, c.fills, c.bypasses));
            }
            debug_assert!(chain.validate().is_ok(), "{chain:?}");
            out.push(chain);
            extend(candidates, from + offset + 1, stack, max_depth, base, out);
            stack.pop();
        }
    }
    let base = CopyChain::baseline(c_tot, background_words, bits);
    extend(
        &candidates,
        0,
        &mut Vec::new(),
        max_depth.max(1),
        &base,
        &mut out,
    );
    add(Counter::ChainsEnumerated, out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(size: u64, fills: u64, bypasses: u64) -> CandidatePoint {
        CandidatePoint {
            size,
            fills,
            bypasses,
            c_tot: 1000,
            source: CandidateSource::Simulated,
            exact: true,
        }
    }

    #[test]
    fn dedupe_keeps_best_per_size_and_drops_useless() {
        let pts = vec![pt(64, 300, 0), pt(64, 100, 0), pt(8, 1000, 0), pt(16, 500, 0)];
        let d = dedupe_candidates(pts);
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].size, d[0].fills), (64, 100));
        assert_eq!(d[1].size, 16);
    }

    #[test]
    fn explained_dedupe_names_the_winner_for_every_loser() {
        let pts = vec![
            pt(64, 300, 0),  // size-tie loser to index 1
            pt(64, 100, 0),  // kept
            pt(8, 1000, 0),  // useless: fills == c_tot
            pt(16, 500, 0),  // kept
            pt(128, 200, 0), // Pareto-dominated: bigger than 64 yet more traffic
            pt(4, 600, 300), // kept, bypassing
        ];
        let (kept, verdicts) = dedupe_candidates_explained(&pts);
        assert_eq!(kept, dedupe_candidates(pts.clone()));
        assert_eq!(verdicts.len(), pts.len());
        assert_eq!(verdicts[0], CandidateVerdict::DominatedBy(1));
        assert_eq!(verdicts[1], CandidateVerdict::Kept);
        assert_eq!(verdicts[2], CandidateVerdict::Pruned);
        assert_eq!(verdicts[3], CandidateVerdict::Kept);
        assert_eq!(verdicts[4], CandidateVerdict::DominatedBy(1));
        assert_eq!(verdicts[5], CandidateVerdict::Bypass);
        // Kept verdicts count exactly the surviving candidates.
        let survivors = verdicts
            .iter()
            .filter(|v| matches!(v, CandidateVerdict::Kept | CandidateVerdict::Bypass))
            .count();
        assert_eq!(survivors, kept.len());
        assert_eq!(CandidateVerdict::DominatedBy(1).to_string(), "dominated-by 1");
    }

    #[test]
    fn chains_are_valid_and_complete() {
        let pts = vec![pt(512, 20, 0), pt(64, 100, 0), pt(8, 400, 0)];
        let chains = enumerate_chains(&pts, 1000, 4096, 8, 3);
        // baseline + 3 singles + 3 pairs + 1 triple.
        assert_eq!(chains.len(), 8);
        for c in &chains {
            c.validate().unwrap();
        }
    }

    #[test]
    fn max_depth_limits_chains() {
        let pts = vec![pt(512, 20, 0), pt(64, 100, 0), pt(8, 400, 0)];
        let chains = enumerate_chains(&pts, 1000, 4096, 8, 1);
        assert_eq!(chains.len(), 4); // baseline + singles
    }

    #[test]
    fn bypass_candidates_only_sit_innermost() {
        let pts = vec![pt(512, 20, 0), pt(64, 100, 200)];
        let chains = enumerate_chains(&pts, 1000, 4096, 8, 2);
        for c in &chains {
            c.validate().unwrap();
        }
        // {bypass64}, {512}, {512, bypass64}, baseline.
        assert_eq!(chains.len(), 4);
        // And the bypassing one never appears with a level inside it:
        assert!(chains.iter().all(|c| {
            c.levels
                .iter()
                .enumerate()
                .all(|(i, l)| l.bypasses == 0 || i == c.levels.len() - 1)
        }));
    }

    #[test]
    fn bypassing_levels_end_the_walk_in_linear_time() {
        use std::sync::mpsc;
        use std::time::Duration;
        // The sliding window `read A[i + j]`, `i, j in 0..n`, offers n − 1
        // candidates, all but one bypassing. Nothing nests inside a
        // bypassing level, so enumeration must return from it at once
        // rather than test every later candidate: O(n²) → O(n). In a
        // debug build at n = 3·10⁴ the quadratic walk takes about 6 s,
        // the linear one about 16 ms; the 500 ms limit keeps a 10×
        // margin either way. The walk runs on its own thread so the
        // quadratic one fails at the limit instead of hanging.
        let n = 30_000;
        let program = datareuse_loopir::parse_program(&format!(
            "array A[{}]; for i in 0..{n} {{ for j in 0..{n} {{ read A[i + j]; }} }}",
            2 * n - 1
        ))
        .unwrap();
        let ex = crate::explore_signal(&program, "A", &crate::ExploreOptions::default()).unwrap();
        let bypassing = ex.candidates.iter().filter(|c| c.bypasses > 0).count();
        assert_eq!((ex.candidates.len(), bypassing), (n - 1, n - 2));
        let (tx, rx) = mpsc::channel();
        let walk = std::thread::spawn(move || {
            let chains =
                enumerate_chains(&ex.candidates, ex.c_tot, ex.background_words, ex.bits, 2);
            tx.send(chains.len()).unwrap();
        });
        let chains = rx
            .recv_timeout(Duration::from_millis(500))
            .expect("chain enumeration is linear in the bypassing candidates");
        walk.join().unwrap();
        // The baseline and every candidate alone: no two of them nest.
        assert_eq!(chains, n);
    }

    #[test]
    fn dominated_candidates_are_pruned_before_chaining() {
        // {512, 300 fills} is dominated by {64, 100 fills}: bigger and
        // more traffic — it can never appear in a sensible hierarchy.
        let pts = vec![pt(512, 300, 0), pt(64, 100, 0)];
        assert_eq!(dedupe_candidates(pts.clone()).len(), 1);
        let chains = enumerate_chains(&pts, 1000, 4096, 8, 2);
        assert_eq!(chains.len(), 2); // baseline + {64}
    }

    #[test]
    fn oversized_candidates_are_skipped() {
        let pts = vec![pt(8192, 20, 0)];
        let chains = enumerate_chains(&pts, 1000, 4096, 8, 2);
        assert_eq!(chains.len(), 1); // baseline only
    }

    #[test]
    fn reuse_factor_accounts_for_bypass() {
        let p = pt(64, 100, 200);
        assert!((p.reuse_factor() - 8.0).abs() < 1e-12);
        assert!(p.is_useful());
        let useless = pt(64, 800, 200);
        assert!(!useless.is_useful());
    }
}
