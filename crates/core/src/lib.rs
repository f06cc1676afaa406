//! # datareuse-core
//!
//! The analytical data-reuse exploration model of *"Data Reuse Exploration
//! Techniques for Loop-dominated Applications"* (Van Achteren, Deconinck,
//! Catthoor, Lauwereins — DATE 2002): the paper's main contribution,
//! implemented exactly from its equations.
//!
//! | Paper | Here |
//! |---|---|
//! | eq. 4–9: reuse vectors, `rank(B)` | [`ReuseClass`], [`gcd`] |
//! | eq. 10–15: maximum reuse `F_RMax`, `A_Max` | [`PairGeometry`], [`max_reuse`] |
//! | eq. 16–18: partial reuse | [`partial_reuse`], [`partial_sweep`] |
//! | eq. 19–22: partial reuse with bypass | [`partial_reuse`] with `bypass = true` |
//! | Fig. 4a discontinuities `A₁…A₄` | [`footprint_levels`], [`SymbolicProfile::level_candidates`] |
//! | eq. 1 in closed form, any depth | [`SymbolicProfile`], [`StridedInterval`] |
//! | "all possible hierarchies combining points" | [`enumerate_chains`] |
//! | per-signal exploration | [`explore_signal`], [`SignalExploration`] |
//!
//! # Examples
//!
//! End-to-end exploration of a sliding-window access:
//!
//! ```
//! use datareuse_core::{explore_signal, ExploreOptions};
//! use datareuse_loopir::parse_program;
//! use datareuse_memmodel::{BitCount, MemoryTechnology};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "array A[23];
//!      for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
//! )?;
//! let exploration = explore_signal(&program, "A", &ExploreOptions::default())?;
//! let tech = MemoryTechnology::new();
//! let front = exploration.pareto(&ExploreOptions::default(), &tech, &BitCount);
//! assert!(front.last().expect("non-empty").power < 1.0); // hierarchy saves power
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod explain;
mod explore;
mod footprint;
mod levels;
mod orders;
mod pairwise;
mod par;
mod partial;
mod report;
mod stride;
mod symbolic;
mod vectors;

pub use error::AnalyzeError;
pub use explore::{
    explore_program, explore_program_explained, explore_signal, explore_signal_explained,
    AccessGroup, ExploreOptions, SignalExploration,
};
pub use footprint::{footprint_levels, read_count, LevelCandidate};
pub use footprint::footprint_levels_merged;
pub use levels::{
    dedupe_candidates, dedupe_candidates_explained, enumerate_chains, CandidatePoint,
    CandidateSource, CandidateVerdict,
};
pub use orders::{explore_orders, OrderChoice};
pub use pairwise::{max_reuse, PairGeometry, PointKind, ReusePoint};
pub use par::{max_reasonable_threads, parallel_map, resolve_threads, sanitize_threads};
pub use partial::{gamma_interval, partial_reuse, partial_sweep};
pub use report::{describe_source, ExplorationReport, HierarchyRow, Json, JsonParseError};
pub use stride::StridedInterval;
pub use symbolic::{symbolic_profile, SymbolicFallback, SymbolicLevel, SymbolicProfile};
pub use vectors::{gcd, reuse_chain_length, ReuseClass};
