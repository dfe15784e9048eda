//! Non-zero placement statistics.
//!
//! GUST's execution time is governed not by total nnz but by the *maxima* of
//! the per-row and per-column-segment nnz counts (paper Eq. 1), and its load
//! balancer (§3.5) exists to shrink the *standard deviation* of those counts.
//! This module computes the distributions those analyses need.

use crate::csr::CsrMatrix;

/// Summary statistics of one nnz-count distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeSummary {
    /// Smallest count.
    pub min: usize,
    /// Largest count.
    pub max: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl DegreeSummary {
    /// Summarizes a slice of counts.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    fn from_counts(counts: &[usize]) -> Self {
        assert!(!counts.is_empty(), "cannot summarize an empty distribution");
        let min = *counts.iter().min().expect("non-empty");
        let max = *counts.iter().max().expect("non-empty");
        let n = counts.len() as f64;
        let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
        let var = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Self {
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        }
    }
}

/// Row/column nnz distributions of a matrix.
///
/// # Example
///
/// ```
/// use gust_sparse::{CooMatrix, CsrMatrix, MatrixStats};
///
/// let coo = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])?;
/// let stats = MatrixStats::from_csr(&CsrMatrix::from(&coo));
/// assert_eq!(stats.row_summary().max, 2);
/// assert_eq!(stats.col_summary().max, 2);
/// # Ok::<(), gust_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    rows: usize,
    cols: usize,
    nnz: usize,
    row_nnz: Vec<usize>,
    col_nnz: Vec<usize>,
}

impl MatrixStats {
    /// Computes statistics from a CSR matrix in O(nnz).
    #[must_use]
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let mut row_nnz = Vec::with_capacity(a.rows());
        let mut col_nnz = vec![0usize; a.cols()];
        for r in 0..a.rows() {
            row_nnz.push(a.row_nnz(r));
            let (cols, _) = a.row(r);
            for &c in cols {
                col_nnz[c as usize] += 1;
            }
        }
        Self {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            row_nnz,
            col_nnz,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Density `nnz / (rows × cols)`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nnz as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Per-row nnz counts.
    #[must_use]
    pub fn row_nnz(&self) -> &[usize] {
        &self.row_nnz
    }

    /// Per-column nnz counts.
    #[must_use]
    pub fn col_nnz(&self) -> &[usize] {
        &self.col_nnz
    }

    /// Summary of the row-nnz distribution.
    #[must_use]
    pub fn row_summary(&self) -> DegreeSummary {
        DegreeSummary::from_counts(&self.row_nnz)
    }

    /// Summary of the column-nnz distribution.
    #[must_use]
    pub fn col_summary(&self) -> DegreeSummary {
        DegreeSummary::from_counts(&self.col_nnz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn example() -> MatrixStats {
        // [[1, 1, 0, 0],
        //  [0, 0, 0, 0],
        //  [1, 1, 1, 1]]
        let coo = CooMatrix::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 1.0),
                (2, 0, 1.0),
                (2, 1, 1.0),
                (2, 2, 1.0),
                (2, 3, 1.0),
            ],
        )
        .unwrap();
        MatrixStats::from_csr(&CsrMatrix::from(&coo))
    }

    #[test]
    fn row_and_col_counts() {
        let s = example();
        assert_eq!(s.row_nnz(), &[2, 0, 4]);
        assert_eq!(s.col_nnz(), &[2, 2, 1, 1]);
    }

    #[test]
    fn summaries() {
        let s = example();
        let rows = s.row_summary();
        assert_eq!(rows.min, 0);
        assert_eq!(rows.max, 4);
        assert!((rows.mean - 2.0).abs() < 1e-12);
        // counts [2,0,4]: var = ((0)^2+(2)^2+(2)^2)/3 = 8/3
        assert!((rows.std_dev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn density() {
        let s = example();
        assert!((s.density() - 6.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty distribution")]
    fn empty_summary_panics() {
        let _ = DegreeSummary::from_counts(&[]);
    }
}
