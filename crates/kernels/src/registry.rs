//! Named kernel registry: one place that maps a kernel text — a name,
//! `.dr` source, or an einsum expression — to a [`Program`].
//!
//! Both entry points of the workspace — the one-shot `datareuse` CLI and
//! the long-running `datareuse serve` daemon — resolve workloads through
//! this registry, so a request for `"me-small"` means the same program
//! everywhere and the server's responses stay byte-identical to the
//! equivalent CLI invocation. The registry never touches the
//! filesystem: the program is a pure function of the text, which is
//! what lets the server key its result cache by the request text.

use std::fmt;

use datareuse_exprlang::{looks_like_expression, parse_expression};
use datareuse_loopir::{parse_program, ParseNestError, Program};
use datareuse_obs::{add, Counter};

use crate::corpus::corpus_kernel;
use crate::{Conv2d, Downsample, Fir, MatMul, MotionEstimation, Sobel, Susan};

/// The built-in kernels, as `(name, description)` pairs in display order.
pub const BUILTINS: &[(&str, &str)] = &[
    ("me", "full-search motion estimation, QCIF, n=m=8 (paper Fig. 3)"),
    ("me-small", "motion estimation, 32x32 frame, n=m=4"),
    ("susan", "SUSAN 37-pixel circular mask, QCIF (paper Sec. 6.4)"),
    ("susan-small", "SUSAN on a 24x32 image"),
    ("susan-unfolded", "SUSAN pre-processed to a series of loops"),
    ("conv2d", "3x3 convolution over a 64x64 image"),
    ("matmul", "32x32x32 matrix multiply"),
    ("sobel", "Sobel operator over a 64x64 image"),
    ("downsample", "4:1 box downsampler over a 64x64 image"),
    ("fir", "64-tap FIR filter over 1024 samples"),
];

/// Resolves a built-in kernel name to its program, without touching the
/// filesystem. `None` when the name is not a built-in.
pub fn builtin_kernel(name: &str) -> Option<Program> {
    match name {
        "me" => Some(MotionEstimation::QCIF.program()),
        "me-small" => Some(MotionEstimation::SMALL.program()),
        "susan" => Some(Susan::QCIF.program()),
        "susan-small" => Some(Susan::SMALL.program()),
        "susan-unfolded" => Some(Susan::QCIF.unfolded_program()),
        "conv2d" => Some(
            Conv2d {
                height: 64,
                width: 64,
                tap_rows: 3,
                tap_cols: 3,
            }
            .program(),
        ),
        "matmul" => Some(MatMul::square(32).program()),
        "sobel" => Some(
            Sobel {
                height: 64,
                width: 64,
            }
            .program(),
        ),
        "downsample" => Some(
            Downsample {
                height: 64,
                width: 64,
                factor: 4,
            }
            .program(),
        ),
        "fir" => Some(Fir::AUDIO.program()),
        _ => None,
    }
}

/// Why a kernel text did not load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `.dr` source that does not parse.
    Source(ParseNestError),
    /// An einsum expression that does not parse or lower.
    Expression(ParseNestError),
    /// Text that is no builtin or corpus name, no `.dr` source and no
    /// einsum expression. Holds the text itself.
    Unknown(String),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Source(e) => write!(f, "source:{e}"),
            KernelError::Expression(e) => write!(f, "expression:{e}"),
            KernelError::Unknown(text) => write!(
                f,
                "unknown kernel `{text}`: not a builtin or corpus name, `.dr` source \
                 or einsum expression"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Whether `text` is `.dr` source: its first token is a `#` comment,
/// or the keyword `array` or `for` followed by a name. The name rule
/// keeps an einsum whose output is called `array` (`array[i] = x[i]`)
/// an einsum, and this test runs before [`looks_like_expression`],
/// which any `.dr` text with a subscript and a guard such as
/// `if i != j` also satisfies.
fn looks_like_source(text: &str) -> bool {
    let text = text.trim_start();
    text.starts_with('#')
        || ["array", "for"].iter().any(|keyword| {
            text.strip_prefix(keyword).is_some_and(|rest| {
                rest.starts_with(|c: char| c.is_ascii_whitespace())
                    && rest.trim_start().starts_with(|c: char| c.is_alphabetic() || c == '_')
            })
        })
}

/// Resolves a kernel text to its program, trying in order a built-in
/// name, a generated-corpus name, inline `.dr` source, and an inline
/// einsum expression (anything that [`looks_like_expression`]).
///
/// The program is a pure function of the text: nothing here reads a
/// file. Every consumer resolves through here (the CLI subcommands,
/// which read a `.dr` file themselves, and the serve ops), so a served
/// request's `kernel` text means the same program as the equivalent
/// one-shot CLI run, and its cache key covers the whole computation.
///
/// # Errors
///
/// The parse error of `.dr` source or of an expression, or
/// [`KernelError::Unknown`] for any other text.
pub fn resolve_kernel(text: &str) -> Result<Program, KernelError> {
    if let Some(program) = builtin_kernel(text) {
        return Ok(program);
    }
    if let Some(program) = corpus_kernel(text) {
        add(Counter::CorpusKernelsLoaded, 1);
        return Ok(program);
    }
    if looks_like_source(text) {
        return parse_program(text).map_err(KernelError::Source);
    }
    if looks_like_expression(text) {
        let program = parse_expression(text).map_err(KernelError::Expression)?;
        add(Counter::ExprKernelsLowered, 1);
        return Ok(program);
    }
    Err(KernelError::Unknown(text.to_string()))
}

/// [`resolve_kernel`] with the error as text.
///
/// # Errors
///
/// `source:` or `expression:` before the parse error's `line:column:`,
/// or the unknown text quoted back.
///
/// # Examples
///
/// ```
/// let p = datareuse_kernels::load_kernel("me-small").unwrap();
/// assert!(!p.nests().is_empty());
/// let p = datareuse_kernels::load_kernel("gen-matmul-32x32x32").unwrap();
/// assert_eq!(p.nests()[0].depth(), 3);
/// let p = datareuse_kernels::load_kernel("y[n] += x[n+t] * h[t] where n=64, t=8").unwrap();
/// assert_eq!(p.array("x").unwrap().extents(), &[71]);
/// let p = datareuse_kernels::load_kernel("array A[8]; for i in 0..8 { read A[i]; }").unwrap();
/// assert_eq!(p.nests().len(), 1);
/// let e = datareuse_kernels::load_kernel("/etc/hostname").unwrap_err();
/// assert!(e.starts_with("unknown kernel `/etc/hostname`"));
/// ```
pub fn load_kernel(text: &str) -> Result<Program, String> {
    resolve_kernel(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_builtin_resolves() {
        for (name, _) in BUILTINS {
            let p = builtin_kernel(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!p.nests().is_empty(), "{name} has nests");
        }
    }

    #[test]
    fn unknown_text_is_quoted_back_and_never_read_as_a_path() {
        assert!(builtin_kernel("not-a-kernel").is_none());
        let e = load_kernel("/no/such/file.dr").unwrap_err();
        assert_eq!(
            e,
            "unknown kernel `/no/such/file.dr`: not a builtin or corpus name, `.dr` source \
             or einsum expression"
        );
        assert!(matches!(resolve_kernel("Cargo.toml"), Err(KernelError::Unknown(_))));
    }

    #[test]
    fn source_is_told_apart_from_einsums_by_its_first_token() {
        for src in [
            "array A[4]; for i in 0..4 { read A[i]; }",
            "  # a comment\narray A[4]; for i in 0..4 { read A[i]; }",
            "array A[8][8]; for i in 0..8 { for j in 0..8 { read A[i][j] if i != j; } }",
        ] {
            assert!(looks_like_source(src), "{src}");
            assert!(resolve_kernel(src).is_ok(), "{src}");
        }
        for einsum in ["array[i] = x[i]", "array [i] += x[i]", "for[i] += x[i] * y[i]"] {
            assert!(!looks_like_source(einsum), "{einsum}");
        }
        assert!(matches!(resolve_kernel("array A[4]; for"), Err(KernelError::Source(_))));
        assert!(load_kernel("array A[4]; read").unwrap_err().starts_with("source:1:"));
    }

    #[test]
    fn expression_errors_keep_the_line_column_prefix() {
        let e = load_kernel("C[i,j] += A[i,k * B[k,j]").unwrap_err();
        assert!(e.starts_with("expression:1:17:"), "{e}");
    }

    #[test]
    fn every_corpus_entry_resolves_through_the_registry() {
        for entry in crate::corpus() {
            let p = load_kernel(&entry.name).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(!p.nests().is_empty(), "{}", entry.name);
        }
    }
}
