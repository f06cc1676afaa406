//! Copy-candidate chain cost evaluation (paper Section 3, eq. 1–3).
//!
//! A chain consists of the background memory (level 0) and `n` on-chip
//! copy-candidate sub-levels of strictly decreasing size. Each level `j`
//! receives `C_j` element writes (equal to the reads from level `j-1`), and
//! the processor issues `C_tot` reads at the innermost level. The total
//! power of the chain is (eq. 3):
//!
//! ```text
//! ΣP_j = C_1·(P_0^r + P_1^w) + C_2·(P_1^r + P_2^w) + … + C_tot·P_n^r
//! ```
//!
//! and the combined exploration cost is (eq. 2):
//!
//! ```text
//! F_c = α · ΣP_j + β · ΣA_j
//! ```
//!
//! The Section 6.2 *bypass* extension is supported at the innermost level:
//! bypassed accesses read level `n-1` directly and are never written into
//! level `n`.

use std::fmt;

use crate::area::AreaModel;
use crate::power::MemoryTechnology;

/// One on-chip sub-level of a copy-candidate chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLevel {
    /// Capacity `A_j` in elements.
    pub words: u64,
    /// Writes into this level per frame (`C_j`, eq. 1 denominator).
    pub fills: u64,
    /// Accesses bypassing this level per frame (only meaningful — and only
    /// allowed — at the innermost level; see [`CopyChain::validate`]).
    pub bypasses: u64,
}

impl ChainLevel {
    /// A level without bypass.
    pub fn new(words: u64, fills: u64) -> Self {
        Self {
            words,
            fills,
            bypasses: 0,
        }
    }

    /// A level with bypassed accesses (paper Fig. 9b).
    pub fn with_bypass(words: u64, fills: u64, bypasses: u64) -> Self {
        Self {
            words,
            fills,
            bypasses,
        }
    }
}

/// Errors detected by [`CopyChain::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateChainError {
    /// A level has zero capacity or zero fills.
    DegenerateLevel {
        /// 1-based level number.
        level: usize,
    },
    /// Level sizes do not strictly decrease inward.
    NonDecreasingSizes {
        /// 1-based level whose size is not smaller than its parent.
        level: usize,
    },
    /// Fill counts decrease inward (a smaller level cannot be filled less
    /// often than a larger one under optimal replacement).
    DecreasingFills {
        /// 1-based level with fewer fills than its parent.
        level: usize,
    },
    /// Bypass on a level that is not the innermost.
    BypassNotInnermost {
        /// 1-based offending level.
        level: usize,
    },
    /// A level's upstream traffic exceeds `C_tot`.
    TrafficExceedsTotal {
        /// 1-based offending level.
        level: usize,
    },
}

impl fmt::Display for ValidateChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DegenerateLevel { level } => {
                write!(f, "level {level} has zero capacity or zero fills")
            }
            Self::NonDecreasingSizes { level } => write!(
                f,
                "level {level} is not strictly smaller than the level above"
            ),
            Self::DecreasingFills { level } => {
                write!(f, "level {level} has fewer fills than the level above")
            }
            Self::BypassNotInnermost { level } => {
                write!(f, "level {level} has bypasses but is not the innermost level")
            }
            Self::TrafficExceedsTotal { level } => {
                write!(f, "level {level} traffic exceeds the total access count")
            }
        }
    }
}

impl std::error::Error for ValidateChainError {}

/// A copy-candidate chain for one signal: background memory plus zero or
/// more on-chip sub-levels, outermost (largest) first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyChain {
    /// Total reads of the signal per frame (`C_tot`).
    pub c_tot: u64,
    /// Footprint of the signal in the background memory, in elements.
    pub background_words: u64,
    /// Element bit width.
    pub bits: u32,
    /// Sub-levels, outermost first.
    pub levels: Vec<ChainLevel>,
}

impl CopyChain {
    /// The chain with no hierarchy: all accesses go to the background
    /// memory. This is the normalization baseline of the paper's figures.
    pub fn baseline(c_tot: u64, background_words: u64, bits: u32) -> Self {
        Self {
            c_tot,
            background_words,
            bits,
            levels: Vec::new(),
        }
    }

    /// Adds an inner sub-level.
    pub fn push_level(&mut self, level: ChainLevel) {
        self.levels.push(level);
    }

    /// Number of sub-levels `n`.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The data reuse factor `F_Rj = C_tot / C_j` of sub-level `j`
    /// (1-based, eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `j` is 0 or greater than [`CopyChain::depth`].
    pub fn reuse_factor(&self, j: usize) -> f64 {
        let level = &self.levels[j - 1];
        self.c_tot as f64 / level.fills as f64
    }

    /// Checks the structural invariants described on
    /// [`ValidateChainError`].
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ValidateChainError> {
        let mut prev_words = self.background_words;
        let mut prev_fills = 0u64;
        for (i, level) in self.levels.iter().enumerate() {
            let ord = i + 1;
            if level.words == 0 || level.fills == 0 {
                return Err(ValidateChainError::DegenerateLevel { level: ord });
            }
            if level.words >= prev_words {
                return Err(ValidateChainError::NonDecreasingSizes { level: ord });
            }
            if level.fills < prev_fills {
                return Err(ValidateChainError::DecreasingFills { level: ord });
            }
            if level.bypasses > 0 && ord != self.levels.len() {
                return Err(ValidateChainError::BypassNotInnermost { level: ord });
            }
            if level.fills + level.bypasses > self.c_tot {
                return Err(ValidateChainError::TrafficExceedsTotal { level: ord });
            }
            prev_words = level.words;
            prev_fills = level.fills;
        }
        Ok(())
    }
}

/// Evaluated cost of one chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainCost {
    /// Total access energy per frame (eq. 3 numerator, arbitrary units).
    pub energy: f64,
    /// Energy normalized to the all-background baseline (1.0 = no savings).
    pub normalized_energy: f64,
    /// On-chip size cost `ΣA_j` (eq. 2 second term).
    pub size_cost: f64,
    /// Total on-chip capacity in elements (the x axis of Fig. 4b/10b/11b).
    pub onchip_words: u64,
}

impl ChainCost {
    /// Serializes the eq. 2–3 cost terms for the audit log.
    pub fn to_json(&self) -> datareuse_obs::Json {
        datareuse_obs::Json::obj([
            ("energy", datareuse_obs::Json::Num(self.energy)),
            (
                "normalized_energy",
                datareuse_obs::Json::Num(self.normalized_energy),
            ),
            ("size_cost", datareuse_obs::Json::Num(self.size_cost)),
            ("onchip_words", datareuse_obs::Json::UInt(self.onchip_words)),
        ])
    }
}

/// Evaluates a chain after collapsing its virtual levels onto a physical
/// memory library (the predefined-hierarchy flow): each level is rounded
/// up to the next available memory, colliding levels merge into the
/// outermost of them, and oversized levels fall back to the background.
///
/// Returns the physical chain and its cost.
///
/// # Examples
///
/// ```
/// use datareuse_memmodel::{
///     evaluate_on_platform, BitCount, ChainLevel, CopyChain, MemoryLibrary, MemoryTechnology,
/// };
///
/// let tech = MemoryTechnology::new();
/// let lib = MemoryLibrary::powers_of_two(64, 4096);
/// let mut chain = CopyChain::baseline(10_000, 25_344, 8);
/// chain.push_level(ChainLevel::new(400, 50));
/// chain.push_level(ChainLevel::new(90, 200));
/// let (physical, cost) = evaluate_on_platform(&chain, &lib, &tech, &BitCount);
/// assert_eq!(physical.levels[0].words, 512); // 400 rounded up
/// assert_eq!(physical.levels[1].words, 128); // 90 rounded up
/// assert!(cost.normalized_energy < 1.0);
/// ```
pub fn evaluate_on_platform(
    chain: &CopyChain,
    library: &crate::library::MemoryLibrary,
    tech: &MemoryTechnology,
    area: &impl AreaModel,
) -> (CopyChain, ChainCost) {
    let virtual_sizes: Vec<u64> = chain.levels.iter().map(|l| l.words).collect();
    let mut physical = CopyChain::baseline(chain.c_tot, chain.background_words, chain.bits);
    for (phys_words, virt_idx) in library.collapse(&virtual_sizes) {
        // The surviving (outermost merged) virtual level supplies the
        // traffic: inner copies that were merged now live in the same
        // physical memory and cost nothing extra to "fill".
        let v = &chain.levels[virt_idx];
        physical.push_level(ChainLevel::with_bypass(
            phys_words.min(physical.background_words.saturating_sub(1)).max(1),
            v.fills,
            v.bypasses,
        ));
    }
    let cost = evaluate_chain(&physical, tech, area);
    (physical, cost)
}

/// Evaluates a chain under a memory technology and an area model.
///
/// Implements eq. 3 with the Fig. 9b bypass extension at the innermost
/// level: bypassed accesses read the next-outer level directly and are
/// never written inward.
///
/// # Examples
///
/// ```
/// use datareuse_memmodel::{
///     evaluate_chain, BitCount, ChainLevel, CopyChain, MemoryTechnology,
/// };
///
/// let tech = MemoryTechnology::new();
/// let mut chain = CopyChain::baseline(101_376, 25_344, 8);
/// chain.push_level(ChainLevel::new(2745, 484));
/// let cost = evaluate_chain(&chain, &tech, &BitCount);
/// assert!(cost.normalized_energy < 0.15); // large power saving
/// ```
pub fn evaluate_chain(
    chain: &CopyChain,
    tech: &MemoryTechnology,
    area: &impl AreaModel,
) -> ChainCost {
    datareuse_obs::add(datareuse_obs::Counter::ChainsEvaluated, 1);
    let bits = chain.bits;
    // words(level j): None = background.
    let words_of = |j: usize| -> Option<u64> {
        if j == 0 {
            None
        } else {
            Some(chain.levels[j - 1].words)
        }
    };
    let n = chain.levels.len();
    let mut energy = 0.0;
    for (i, level) in chain.levels.iter().enumerate() {
        let j = i + 1;
        // C_j · (P_{j-1}^r + P_j^w)
        energy += level.fills as f64
            * (tech.level_read_energy(words_of(j - 1), bits)
                + tech.level_write_energy(words_of(j), bits));
        // Bypassed accesses read level j-1 directly (only innermost).
        energy += level.bypasses as f64 * tech.level_read_energy(words_of(j - 1), bits);
    }
    // Processor reads from the innermost level; bypassed ones were already
    // charged above.
    let innermost_bypasses = chain.levels.last().map_or(0, |l| l.bypasses);
    energy +=
        (chain.c_tot - innermost_bypasses) as f64 * tech.level_read_energy(words_of(n), bits);

    let baseline = chain.c_tot as f64 * tech.level_read_energy(None, bits);
    let size_cost: f64 = chain
        .levels
        .iter()
        .map(|l| area.size_cost(l.words, bits))
        .sum();
    ChainCost {
        energy,
        normalized_energy: if baseline > 0.0 { energy / baseline } else { 0.0 },
        size_cost,
        onchip_words: chain.levels.iter().map(|l| l.words).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::BitCount;

    fn tech() -> MemoryTechnology {
        MemoryTechnology::new()
    }

    #[test]
    fn baseline_normalizes_to_one() {
        let chain = CopyChain::baseline(1000, 4096, 8);
        let cost = evaluate_chain(&chain, &tech(), &BitCount);
        assert!((cost.normalized_energy - 1.0).abs() < 1e-12);
        assert_eq!(cost.size_cost, 0.0);
        assert_eq!(cost.onchip_words, 0);
    }

    #[test]
    fn high_reuse_level_saves_power() {
        let mut chain = CopyChain::baseline(10_000, 25_344, 8);
        chain.push_level(ChainLevel::new(256, 100)); // F_R = 100
        chain.validate().unwrap();
        assert_eq!(chain.reuse_factor(1), 100.0);
        let cost = evaluate_chain(&chain, &tech(), &BitCount);
        assert!(cost.normalized_energy < 0.2, "{}", cost.normalized_energy);
    }

    #[test]
    fn useless_level_increases_power() {
        // F_R = 1: every access misses; the paper prunes these cases
        // "because the number of read operations from level (j-1) would
        // remain unchanged while the data also has to be stored and read
        // from level j".
        let mut chain = CopyChain::baseline(1000, 4096, 8);
        chain.push_level(ChainLevel::new(64, 1000));
        let cost = evaluate_chain(&chain, &tech(), &BitCount);
        assert!(cost.normalized_energy > 1.0);
    }

    #[test]
    fn two_level_chain_matches_hand_computed_eq3() {
        let t = tech();
        let mut chain = CopyChain::baseline(1000, 4096, 8);
        chain.push_level(ChainLevel::new(512, 10));
        chain.push_level(ChainLevel::new(64, 100));
        chain.validate().unwrap();
        let cost = evaluate_chain(&chain, &t, &BitCount);
        let p0r = t.level_read_energy(None, 8);
        let p1r = t.level_read_energy(Some(512), 8);
        let p1w = t.level_write_energy(Some(512), 8);
        let p2r = t.level_read_energy(Some(64), 8);
        let p2w = t.level_write_energy(Some(64), 8);
        let want = 10.0 * (p0r + p1w) + 100.0 * (p1r + p2w) + 1000.0 * p2r;
        assert!((cost.energy - want).abs() < 1e-9);
        assert_eq!(cost.onchip_words, 576);
        assert_eq!(cost.size_cost, 576.0 * 8.0);
    }

    #[test]
    fn bypass_reduces_energy_vs_polluting_fill() {
        let t = tech();
        // 1000 accesses; 400 have no reuse. Without bypass they fill the
        // level (fills 500); with bypass fills drop to 100.
        let mut plain = CopyChain::baseline(1000, 4096, 8);
        plain.push_level(ChainLevel::new(64, 500));
        let mut bypass = CopyChain::baseline(1000, 4096, 8);
        bypass.push_level(ChainLevel::with_bypass(64, 100, 400));
        bypass.validate().unwrap();
        let pc = evaluate_chain(&plain, &t, &BitCount);
        let bc = evaluate_chain(&bypass, &t, &BitCount);
        assert!(bc.energy < pc.energy);
    }

    #[test]
    fn validate_rejects_malformed_chains() {
        let mut c = CopyChain::baseline(100, 1000, 8);
        c.push_level(ChainLevel::new(1000, 10));
        assert!(matches!(
            c.validate(),
            Err(ValidateChainError::NonDecreasingSizes { level: 1 })
        ));

        let mut c = CopyChain::baseline(100, 1000, 8);
        c.push_level(ChainLevel::new(100, 50));
        c.push_level(ChainLevel::new(50, 10));
        assert!(matches!(
            c.validate(),
            Err(ValidateChainError::DecreasingFills { level: 2 })
        ));

        let mut c = CopyChain::baseline(100, 1000, 8);
        c.push_level(ChainLevel::with_bypass(100, 10, 5));
        c.push_level(ChainLevel::new(50, 20));
        assert!(matches!(
            c.validate(),
            Err(ValidateChainError::BypassNotInnermost { level: 1 })
        ));

        let mut c = CopyChain::baseline(100, 1000, 8);
        c.push_level(ChainLevel::new(10, 0));
        assert!(matches!(
            c.validate(),
            Err(ValidateChainError::DegenerateLevel { level: 1 })
        ));

        let mut c = CopyChain::baseline(100, 1000, 8);
        c.push_level(ChainLevel::with_bypass(10, 90, 20));
        assert!(matches!(
            c.validate(),
            Err(ValidateChainError::TrafficExceedsTotal { level: 1 })
        ));
    }

    #[test]
    fn platform_evaluation_rounds_merges_and_drops() {
        use crate::library::MemoryLibrary;
        let t = tech();
        let lib = MemoryLibrary::new([64, 256]);
        let mut chain = CopyChain::baseline(10_000, 25_344, 8);
        chain.push_level(ChainLevel::new(4096, 10)); // too big for the library
        chain.push_level(ChainLevel::new(200, 50)); // -> 256
        chain.push_level(ChainLevel::new(70, 200)); // -> 256, merged away
        chain.push_level(ChainLevel::new(9, 400)); // -> 64
        let (physical, cost) = evaluate_on_platform(&chain, &lib, &t, &BitCount);
        let words: Vec<u64> = physical.levels.iter().map(|l| l.words).collect();
        assert_eq!(words, vec![256, 64]);
        let fills: Vec<u64> = physical.levels.iter().map(|l| l.fills).collect();
        assert_eq!(fills, vec![50, 400]);
        physical.validate().unwrap();
        assert!(cost.normalized_energy < 1.0);
    }
}
