//! # datareuse-trace
//!
//! Trace-driven copy-candidate simulation for the `datareuse` project
//! (reproduction of the DATE 2002 data-reuse exploration paper).
//!
//! The paper validates its analytical model against a simulation prototype
//! that assumes Belady's optimal replacement (Section 4). This crate is
//! that simulator, plus the hardware-cache baselines the paper argues
//! against:
//!
//! - [`opt_simulate`] / [`opt_simulate_bypass`] — Belady MIN, without and
//!   with the Section 6.2 bypass of not-reused data;
//! - [`lru_simulate`], [`fifo_simulate`], [`direct_mapped_simulate`] —
//!   hardware replacement baselines;
//! - [`ReuseCurve`] — the data reuse factor curve of Fig. 4a/10a/11a;
//! - [`TraceStats`] — footprint and reuse summaries.
//!
//! # Examples
//!
//! ```
//! use datareuse_trace::{opt_simulate, lru_simulate};
//!
//! let trace = [0u64, 1, 2, 0, 1, 2, 3, 0];
//! let opt = opt_simulate(&trace, 2);
//! let lru = lru_simulate(&trace, 2);
//! assert!(opt.hits >= lru.hits); // Belady is the upper bound
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod belady;
mod curve;
mod lines;
mod policies;
mod result;
mod sampling;
mod stats;
mod workingset;

pub use belady::{opt_simulate, opt_simulate_bypass, opt_simulate_bypass_many, opt_simulate_many};
pub use curve::{CurvePoint, CurvePolicy, ReuseCurve};
pub use lines::{interleave, to_lines};
pub use policies::{direct_mapped_simulate, fifo_simulate, lru_simulate};
pub use result::SimResult;
pub use sampling::{sampled_reuse_curve, SampledCurve};
pub use stats::{distinct_count, TraceStats};
pub use workingset::{working_set_profile, WorkingSetProfile};
