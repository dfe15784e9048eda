//! Error type shared by the sparse-matrix constructors and I/O.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing, converting or parsing sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseError {
    /// An entry's row or column index lies outside the declared shape.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Declared number of rows.
        rows: usize,
        /// Declared number of columns.
        cols: usize,
    },
    /// Two entries share the same (row, col) coordinate.
    DuplicateEntry {
        /// Row of the duplicated coordinate.
        row: usize,
        /// Column of the duplicated coordinate.
        col: usize,
    },
    /// A vector length does not match the matrix dimension it pairs with.
    DimensionMismatch {
        /// What the caller supplied.
        got: usize,
        /// What the matrix requires.
        expected: usize,
        /// Human-readable description of the mismatched object.
        what: &'static str,
    },
    /// A Matrix Market stream could not be parsed.
    ParseError {
        /// 1-based line number of the failure.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// CSR structural invariant violated (e.g. non-monotone pointers).
    InvalidStructure(String),
    /// An on-disk artifact failed an integrity check (CRC mismatch,
    /// truncated payload, impossible section length). Unlike
    /// [`SparseError::ParseError`], this means the bytes were once valid
    /// and have since been damaged — callers may quarantine the file and
    /// rebuild it from its source.
    Corrupt(String),
    /// The matrix's CSR arrays cannot be allocated: a shape or entry
    /// count beyond what this process can hold, typically from a forged
    /// or damaged header.
    TooLarge {
        /// Declared number of rows.
        rows: usize,
        /// Declared number of columns.
        cols: usize,
        /// Declared number of stored entries.
        nnz: usize,
    },
    /// An underlying I/O operation failed (carries the rendered
    /// [`std::io::Error`]; `String` keeps this type `Clone + PartialEq`).
    Io(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "entry ({row}, {col}) is outside the {rows}x{cols} matrix shape"
            ),
            Self::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row}, {col})")
            }
            Self::DimensionMismatch {
                got,
                expected,
                what,
            } => write!(f, "{what} has length {got} but {expected} is required"),
            Self::ParseError { line, message } => {
                write!(f, "matrix market parse error at line {line}: {message}")
            }
            Self::InvalidStructure(message) => write!(f, "invalid structure: {message}"),
            Self::Corrupt(message) => write!(f, "corrupt data: {message}"),
            Self::TooLarge { rows, cols, nnz } => write!(
                f,
                "{rows}x{cols} matrix with {nnz} entries is too large to allocate"
            ),
            Self::Io(message) => write!(f, "i/o error: {message}"),
        }
    }
}

impl Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SparseError::IndexOutOfBounds {
            row: 5,
            col: 2,
            rows: 4,
            cols: 4,
        };
        assert_eq!(
            e.to_string(),
            "entry (5, 2) is outside the 4x4 matrix shape"
        );

        let e = SparseError::DimensionMismatch {
            got: 3,
            expected: 4,
            what: "input vector",
        };
        assert_eq!(e.to_string(), "input vector has length 3 but 4 is required");

        let e = SparseError::ParseError {
            line: 7,
            message: "bad float".into(),
        };
        assert!(e.to_string().contains("line 7"));

        let e = SparseError::Corrupt("GSPB payload checksum mismatch".into());
        assert!(e.to_string().contains("corrupt"));

        let e = SparseError::from(std::io::Error::other("disk on fire"));
        assert!(matches!(&e, SparseError::Io(m) if m.contains("disk on fire")));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }
}
