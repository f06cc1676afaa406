//! Error types for loop-nest construction and parsing.

use std::fmt;

/// Errors produced while building or validating loop nests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildNestError {
    /// A loop iterator name occurs more than once in a nest.
    DuplicateIterator(String),
    /// A loop has an empty iteration range (`lower > upper`).
    EmptyLoop {
        /// The iterator name.
        name: String,
        /// The inclusive lower bound.
        lower: i64,
        /// The inclusive upper bound.
        upper: i64,
    },
    /// A loop step is zero or negative.
    BadStep {
        /// The iterator name.
        name: String,
        /// The offending step.
        step: i64,
    },
    /// An access refers to an array that is not declared.
    UnknownArray(String),
    /// An array is declared more than once.
    DuplicateArray(String),
    /// An access has the wrong number of index dimensions.
    DimensionMismatch {
        /// The array name.
        array: String,
        /// Number of dimensions in the declaration.
        declared: usize,
        /// Number of index expressions at the access.
        used: usize,
    },
    /// An index expression mentions an iterator not bound by any loop.
    UnboundIterator {
        /// The array name of the offending access.
        array: String,
        /// The unbound iterator.
        iterator: String,
    },
    /// An array dimension is zero or negative.
    BadExtent {
        /// The array name.
        array: String,
        /// The offending extent.
        extent: i64,
    },
    /// An access can evaluate outside the declared array extents.
    OutOfBounds {
        /// The array name.
        array: String,
        /// Zero-based dimension index.
        dim: usize,
        /// The reachable index value range.
        range: (i64, i64),
        /// The declared extent of that dimension.
        extent: i64,
    },
    /// An index expression's reachable range leaves `i64`.
    IndexOverflow {
        /// The array name.
        array: String,
        /// Zero-based dimension index.
        dim: usize,
    },
}

impl fmt::Display for BuildNestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateIterator(name) => {
                write!(f, "iterator `{name}` is bound by more than one loop")
            }
            Self::EmptyLoop { name, lower, upper } => {
                write!(f, "loop `{name}` has empty range [{lower}, {upper}]")
            }
            Self::BadStep { name, step } => {
                write!(f, "loop `{name}` has non-positive step {step}")
            }
            Self::UnknownArray(name) => write!(f, "array `{name}` is not declared"),
            Self::DuplicateArray(name) => write!(f, "array `{name}` is declared twice"),
            Self::DimensionMismatch {
                array,
                declared,
                used,
            } => write!(
                f,
                "access to `{array}` uses {used} indices but the array has {declared} dimensions"
            ),
            Self::UnboundIterator { array, iterator } => write!(
                f,
                "access to `{array}` mentions iterator `{iterator}` bound by no loop"
            ),
            Self::BadExtent { array, extent } => {
                write!(f, "array `{array}` has non-positive extent {extent}")
            }
            Self::OutOfBounds {
                array,
                dim,
                range,
                extent,
            } => write!(
                f,
                "access to `{array}` dimension {dim} can reach [{}, {}] outside [0, {})",
                range.0, range.1, extent
            ),
            Self::IndexOverflow { array, dim } => write!(
                f,
                "access to `{array}` dimension {dim}: index range overflows 64-bit integers"
            ),
        }
    }
}

impl std::error::Error for BuildNestError {}

/// Errors produced by the loop-nest DSL parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNestError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// 1-based column where the error was detected.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseNestError {
    pub(crate) fn new(line: usize, column: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseNestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseNestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_descriptive() {
        let e = BuildNestError::DimensionMismatch {
            array: "A".into(),
            declared: 2,
            used: 3,
        };
        let s = e.to_string();
        assert!(s.contains('A') && s.contains('2') && s.contains('3'));
        let p = ParseNestError::new(3, 7, "expected `{`");
        assert_eq!(p.to_string(), "3:7: expected `{`");
    }
}
