//! Errors of the analytical exploration.

use std::fmt;

/// Errors produced while setting up or running an analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalyzeError {
    /// The requested access index does not exist in the nest.
    NoSuchAccess {
        /// The offending access index.
        index: usize,
    },
    /// The requested loop depth does not exist in the nest.
    NoSuchLoop {
        /// The offending depth.
        depth: usize,
    },
    /// The loop pair is not ordered outer-before-inner.
    BadLoopPair {
        /// Requested outer depth.
        outer: usize,
        /// Requested inner depth.
        inner: usize,
    },
    /// The program declares no array with this name.
    UnknownArray(String),
    /// The program contains no accesses to the array.
    NoAccesses(String),
    /// Accesses passed to a merged analysis are not translations of one
    /// another (different arrays, ranks or iterator coefficients).
    NotTranslated,
    /// An iteration count, `C_tot` or a fill count leaves the `u64`
    /// range. No analysis path can finish such a nest: the closed form
    /// has no integer to return and enumeration would never end.
    Overflow,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSuchAccess { index } => write!(f, "access index {index} does not exist"),
            Self::NoSuchLoop { depth } => write!(f, "loop depth {depth} does not exist"),
            Self::BadLoopPair { outer, inner } => {
                write!(f, "loop pair ({outer}, {inner}) is not outer-before-inner")
            }
            Self::UnknownArray(name) => write!(f, "array `{name}` is not declared"),
            Self::NoAccesses(name) => write!(f, "no accesses to array `{name}`"),
            Self::NotTranslated => {
                write!(f, "accesses are not translations of a common shape")
            }
            Self::Overflow => write!(f, "access counts overflow 64-bit integers"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        assert!(AnalyzeError::NoSuchAccess { index: 3 }.to_string().contains('3'));
        assert!(AnalyzeError::UnknownArray("Old".into())
            .to_string()
            .contains("Old"));
    }
}
