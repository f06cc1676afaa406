//! # datareuse
//!
//! A production-quality Rust implementation of *"Data Reuse Exploration
//! Techniques for Loop-dominated Applications"* (Tanja Van Achteren, Geert
//! Deconinck, Francky Catthoor, Rudy Lauwereins — DATE 2002): analytical
//! exploration of power-efficient custom memory hierarchies for array
//! signals in nested loops, with simulation-based validation and
//! copy-candidate code generation.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`loopir`] | `datareuse-loopir` | loop-nest IR, affine expressions, DSL parser, traces |
//! | [`exprlang`] | `datareuse-exprlang` | einsum-style expression front end: parse, infer domains, lower |
//! | [`trace`] | `datareuse-trace` | Belady OPT / LRU / FIFO simulators, reuse curves |
//! | [`memmodel`] | `datareuse-memmodel` | SRAM power/area models, chain costs (eq. 1–3), Pareto |
//! | [`model`] | `datareuse-core` | the paper's analytical model (eq. 4–22) and exploration |
//! | [`codegen`] | `datareuse-codegen` | Fig. 8 templates, verifying schedule interpreter, gnuplot |
//! | [`kernels`] | `datareuse-kernels` | motion estimation, SUSAN, conv2d, matmul, … |
//! | [`obs`] | `datareuse-obs` | counters, timed spans, JSON metrics snapshots, progress |
//! | [`server`] | `datareuse-server` | NDJSON-over-TCP serving daemon: worker pool, result cache, deadlines |
//!
//! # Quickstart
//!
//! ```
//! use datareuse::prelude::*;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Describe a kernel (or use datareuse::kernels):
//! let program = parse_program(
//!     "array A[23];
//!      for j in 0..16 { for k in 0..8 { read A[j + k]; } }",
//! )?;
//!
//! // Analytical exploration of copy-candidate hierarchies:
//! let exploration = explore_signal(&program, "A", &ExploreOptions::default())?;
//!
//! // Power–memory-size Pareto curve under the default memory technology:
//! let tech = MemoryTechnology::new();
//! let front = exploration.pareto(&ExploreOptions::default(), &tech, &BitCount);
//! assert!(front.last().expect("non-empty front").power < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use datareuse_codegen as codegen;
pub use datareuse_core as model;
pub use datareuse_exprlang as exprlang;
pub use datareuse_obs as obs;
pub use datareuse_kernels as kernels;
pub use datareuse_loopir as loopir;
pub use datareuse_memmodel as memmodel;
pub use datareuse_server as server;
pub use datareuse_trace as trace;

/// One-stop imports for the common exploration workflow.
pub mod prelude {
    pub use datareuse_codegen::{
        emit_program, emit_selfcheck, emit_transformed, gnuplot_script, run_schedule, Series,
        Strategy, TemplateOptions,
    };
    pub use datareuse_core::{
        explore_orders, explore_signal, footprint_levels, footprint_levels_merged, max_reuse,
        partial_reuse, partial_sweep, CandidatePoint, ExplorationReport, ExploreOptions,
        OrderChoice, PairGeometry, ReuseClass, SignalExploration,
    };
    pub use datareuse_kernels::{Conv2d, Downsample, Fir, MatMul, MotionEstimation, Sobel, Susan};
    pub use datareuse_loopir::{
        parse_program, read_addresses, trace_array, AffineExpr, ArrayDecl, Loop, LoopNest,
        Program, TraceFilter,
    };
    pub use datareuse_memmodel::{
        chain_breakdown, evaluate_chain, pareto_front, BitCount, CellPeriphery, ChainLevel,
        CopyChain, MemoryLibrary, MemoryTechnology, ParetoPoint,
    };
    pub use datareuse_trace::{
        distinct_count, fifo_simulate, lru_simulate, opt_simulate, opt_simulate_bypass,
        opt_simulate_bypass_many, opt_simulate_many, working_set_profile, CurvePolicy, ReuseCurve,
        TraceStats, WorkingSetProfile,
    };
}
