//! # datareuse-kernels
//!
//! Workload library for the `datareuse` project (reproduction of the
//! DATE 2002 data-reuse exploration paper): the paper's two test-vehicles
//! plus a set of classic loop-dominated kernels, all expressed as
//! `datareuse-loopir` programs.
//!
//! - [`MotionEstimation`] — full-search full-pixel motion estimation
//!   (paper Fig. 3; QCIF, n = m = 8);
//! - [`Susan`] — the SUSAN principle with its 37-pixel circular mask
//!   (paper Section 6.4), in both the interleaved and the pre-processed
//!   series-of-loops forms;
//! - [`Conv2d`], [`Sobel`], [`Downsample`], [`MatMul`], [`Fir`] — additional
//!   loop-dominated kernels for tests, examples and ablations;
//! - the **generated corpus** ([`corpus`], [`generate_corpus`],
//!   [`DEFAULT_CORPUS_SEED`]) — `gen-*` workloads minted as
//!   `datareuse-exprlang` einsum expressions (matmul, conv1d, conv2d,
//!   attention score, LU update, 5-point stencil at several sizes), a
//!   pure function of the seed;
//! - [`load_kernel`] (typed: [`resolve_kernel`]) — the one resolution
//!   path every CLI command and serve op uses: builtin name → corpus
//!   name → inline `.dr` source → inline einsum expression. It reads no
//!   file; the CLI reads a `.dr` file itself.
//!
//! # Examples
//!
//! ```
//! use datareuse_kernels::MotionEstimation;
//! use datareuse_loopir::read_addresses;
//!
//! let program = MotionEstimation::SMALL.program();
//! let trace = read_addresses(&program, MotionEstimation::OLD);
//! assert_eq!(trace.len() as u64, MotionEstimation::SMALL.old_reads());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod fir;
mod matmul;
mod me;
mod registry;
mod stencils;
mod susan;

pub use corpus::{corpus, corpus_kernel, generate_corpus, CorpusEntry, DEFAULT_CORPUS_SEED};
pub use fir::Fir;
pub use registry::{builtin_kernel, load_kernel, resolve_kernel, KernelError, BUILTINS};
pub use matmul::{MatMul, MatMulOrder};
pub use me::MotionEstimation;
pub use stencils::{Conv2d, Downsample, Sobel};
pub use susan::Susan;
