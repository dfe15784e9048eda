//! Coordinate (COO) format: an unordered list of `(row, col, value)` triplets.
//!
//! COO is the interchange format of this workspace — generators emit it,
//! Matrix Market files parse into it, and GUST's scheduled format (paper
//! §3.3: `M_sch`/`Row_sch`/`Col_sch`, "a compressed storage format similar to
//! the Coordinate format") is derived from it.

use crate::error::SparseError;

/// A sparse matrix stored as coordinate triplets.
///
/// Indices are stored as `u32` (the largest paper matrix, `soc_pokec`, has
/// 1.63 M rows and 30.6 M non-zeros, comfortably within `u32`) but the public
/// API speaks `usize`.
///
/// Invariants: every index is in bounds and no `(row, col)` coordinate
/// appears twice. Values of exactly `0.0` are permitted (they count as stored
/// non-zeros, matching SuiteSparse semantics of "explicit zeros").
///
/// # Example
///
/// ```
/// use gust_sparse::CooMatrix;
///
/// let mut m = CooMatrix::new(3, 3);
/// m.push(0, 1, 5.0)?;
/// m.push(2, 0, -1.0)?;
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.spmv(&[1.0, 2.0, 3.0]), vec![10.0, 0.0, -1.0]);
/// # Ok::<(), gust_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_idx: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CooMatrix {
    /// Creates an empty `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds `u32::MAX`.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "dimensions exceed u32 index range"
        );
        Self {
            rows,
            cols,
            row_idx: Vec::new(),
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a matrix from triplets, validating bounds and duplicates.
    ///
    /// # Errors
    ///
    /// [`SparseError::IndexOutOfBounds`] for an out-of-shape entry, or
    /// [`SparseError::DuplicateEntry`] if a coordinate repeats.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Result<Self, SparseError> {
        let mut m = Self::new(rows, cols);
        for (r, c, v) in triplets {
            m.push(r, c, v)?;
        }
        m.check_duplicates()?;
        Ok(m)
    }

    /// Appends one entry without duplicate checking (bounds are checked).
    ///
    /// Call [`CooMatrix::check_duplicates`] after bulk insertion, or use
    /// [`CooMatrix::from_triplets`] which does so automatically.
    ///
    /// # Errors
    ///
    /// [`SparseError::IndexOutOfBounds`] if `(row, col)` is outside the shape.
    pub fn push(&mut self, row: usize, col: usize, value: f32) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.row_idx.push(row as u32);
        self.col_idx.push(col as u32);
        self.values.push(value);
        Ok(())
    }

    /// Verifies that no coordinate appears twice.
    ///
    /// # Errors
    ///
    /// [`SparseError::DuplicateEntry`] naming the first duplicated coordinate.
    pub fn check_duplicates(&self) -> Result<(), SparseError> {
        let mut coords: Vec<(u32, u32)> = self
            .row_idx
            .iter()
            .zip(&self.col_idx)
            .map(|(&r, &c)| (r, c))
            .collect();
        coords.sort_unstable();
        for pair in coords.windows(2) {
            if pair[0] == pair[1] {
                return Err(SparseError::DuplicateEntry {
                    row: pair[0].0 as usize,
                    col: pair[0].1 as usize,
                });
            }
        }
        Ok(())
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

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of cells that are stored: `nnz / (rows × cols)`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Iterates over `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.row_idx
            .iter()
            .zip(&self.col_idx)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Reference SpMV: `y = A·x` with `f64` accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input vector length mismatch");
        let mut y = vec![0.0f64; self.rows];
        for ((&r, &c), &v) in self.row_idx.iter().zip(&self.col_idx).zip(&self.values) {
            y[r as usize] += f64::from(v) * f64::from(x[c as usize]);
        }
        y.into_iter().map(|v| v as f32).collect()
    }

    /// Returns the transpose (rows and columns swapped).
    #[must_use]
    pub fn transpose(&self) -> Self {
        Self {
            rows: self.cols,
            cols: self.rows,
            row_idx: self.col_idx.clone(),
            col_idx: self.row_idx.clone(),
            values: self.values.clone(),
        }
    }

    /// Internal accessor used by format conversions: raw parallel arrays.
    #[must_use]
    pub fn raw_parts(&self) -> (&[u32], &[u32], &[f32]) {
        (&self.row_idx, &self.col_idx, &self.values)
    }
}

impl FromIterator<(usize, usize, f32)> for CooMatrix {
    /// Collects triplets, inferring the shape as `(max_row+1, max_col+1)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty iterator (shape cannot be inferred) or duplicate
    /// coordinates. Prefer [`CooMatrix::from_triplets`] for fallible
    /// construction with an explicit shape.
    fn from_iter<I: IntoIterator<Item = (usize, usize, f32)>>(iter: I) -> Self {
        let triplets: Vec<_> = iter.into_iter().collect();
        let rows = triplets.iter().map(|t| t.0).max().expect("empty iterator") + 1;
        let cols = triplets.iter().map(|t| t.1).max().expect("empty iterator") + 1;
        Self::from_triplets(rows, cols, triplets).expect("invalid triplets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CooMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CooMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn from_triplets_counts_nnz() {
        let m = example();
        assert_eq!(m.nnz(), 4);
        assert_eq!((m.rows(), m.cols()), (3, 3));
    }

    #[test]
    fn density_is_nnz_over_cells() {
        let m = example();
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let m = example();
        let y = m.spmv(&[1.0, 10.0, 100.0]);
        assert_eq!(y, vec![201.0, 0.0, 43.0]);
    }

    #[test]
    fn out_of_bounds_entry_is_rejected() {
        let err = CooMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn duplicate_entry_is_rejected() {
        let err = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]).unwrap_err();
        assert!(matches!(
            err,
            SparseError::DuplicateEntry { row: 0, col: 0 }
        ));
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let t = example().transpose();
        let mut entries: Vec<_> = t.iter().collect();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 3.0), (1, 2, 4.0), (2, 0, 2.0)]
        );
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = example();
        let tt = m.transpose().transpose();
        assert_eq!((tt.rows(), tt.cols()), (m.rows(), m.cols()));
        let row_major = |m: &CooMatrix| {
            let mut entries: Vec<_> = m.iter().collect();
            entries.sort_by_key(|&(r, c, _)| (r, c));
            entries
        };
        assert_eq!(row_major(&tt), row_major(&m));
    }

    #[test]
    fn from_iterator_infers_shape() {
        let m: CooMatrix = vec![(0, 0, 1.0), (4, 7, 2.0)].into_iter().collect();
        assert_eq!((m.rows(), m.cols()), (5, 8));
    }

    #[test]
    fn explicit_zero_values_are_stored() {
        let m = CooMatrix::from_triplets(1, 2, vec![(0, 0, 0.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn spmv_rejects_wrong_vector_length() {
        let _ = example().spmv(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_dimension_panics() {
        let _ = CooMatrix::new(0, 3);
    }
}
