//! List-of-lists (LIL) format.
//!
//! The paper's Fafnir baseline (§2.2) "uses LIL format"; this type keeps one
//! growable `(column, value)` list per row, which is also the natural format
//! for incremental construction.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A sparse matrix as one sorted `(col, value)` list per row.
///
/// # Example
///
/// ```
/// use gust_sparse::LilMatrix;
///
/// let mut m = LilMatrix::new(2, 4);
/// m.insert(0, 3, 1.5)?;
/// m.insert(0, 1, 2.5)?;
/// assert_eq!(m.row(0), &[(1, 2.5), (3, 1.5)]);
/// # Ok::<(), gust_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LilMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Vec<(u32, f32)>>,
}

impl LilMatrix {
    /// Creates an empty `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![Vec::new(); rows],
        }
    }

    /// Inserts `value` at `(row, col)`, keeping the row sorted by column.
    ///
    /// # Errors
    ///
    /// [`SparseError::IndexOutOfBounds`] if the coordinate is outside the
    /// shape, [`SparseError::DuplicateEntry`] if it is already occupied.
    pub fn insert(&mut self, row: usize, col: usize, value: f32) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let list = &mut self.data[row];
        match list.binary_search_by_key(&(col as u32), |&(c, _)| c) {
            Ok(_) => Err(SparseError::DuplicateEntry { row, col }),
            Err(pos) => {
                list.insert(pos, (col as u32, value));
                Ok(())
            }
        }
    }

    /// Value at `(row, col)`, if stored.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        self.data.get(row).and_then(|list| {
            list.binary_search_by_key(&(col as u32), |&(c, _)| c)
                .ok()
                .map(|pos| list[pos].1)
        })
    }

    /// The sorted `(col, value)` list of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[(u32, f32)] {
        &self.data[i]
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
        self.data.iter().map(Vec::len).sum()
    }

    /// Iterates `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.data
            .iter()
            .enumerate()
            .flat_map(|(r, list)| list.iter().map(move |&(c, v)| (r, c as usize, v)))
    }
}

impl From<&CsrMatrix> for LilMatrix {
    fn from(csr: &CsrMatrix) -> Self {
        let mut m = Self::new(csr.rows(), csr.cols());
        for r in 0..csr.rows() {
            let (cols, vals) = csr.row(r);
            m.data[r] = cols.iter().zip(vals).map(|(&c, &v)| (c, v)).collect();
        }
        m
    }
}

impl From<&CooMatrix> for LilMatrix {
    fn from(coo: &CooMatrix) -> Self {
        LilMatrix::from(&CsrMatrix::from(coo))
    }
}

impl From<&LilMatrix> for CsrMatrix {
    fn from(lil: &LilMatrix) -> Self {
        let mut indptr = Vec::with_capacity(lil.rows + 1);
        let mut indices = Vec::with_capacity(lil.nnz());
        let mut values = Vec::with_capacity(lil.nnz());
        indptr.push(0);
        for list in &lil.data {
            for &(c, v) in list {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::try_new(lil.rows, lil.cols, indptr, indices, values)
            .expect("LIL rows are sorted and deduplicated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_rows_sorted() {
        let mut m = LilMatrix::new(1, 10);
        m.insert(0, 5, 1.0).unwrap();
        m.insert(0, 2, 2.0).unwrap();
        m.insert(0, 8, 3.0).unwrap();
        assert_eq!(m.row(0), &[(2, 2.0), (5, 1.0), (8, 3.0)]);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut m = LilMatrix::new(2, 2);
        m.insert(1, 1, 1.0).unwrap();
        let err = m.insert(1, 1, 2.0).unwrap_err();
        assert!(matches!(
            err,
            SparseError::DuplicateEntry { row: 1, col: 1 }
        ));
    }

    #[test]
    fn get_finds_stored_values() {
        let mut m = LilMatrix::new(2, 2);
        m.insert(0, 1, 7.0).unwrap();
        assert_eq!(m.get(0, 1), Some(7.0));
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(9, 9), None);
    }

    #[test]
    fn csr_round_trip() {
        let coo = CooMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
        .unwrap();
        let csr = CsrMatrix::from(&coo);
        let lil = LilMatrix::from(&csr);
        assert_eq!(CsrMatrix::from(&lil), csr);
    }

    #[test]
    fn nnz_sums_rows() {
        let mut m = LilMatrix::new(3, 3);
        m.insert(0, 0, 1.0).unwrap();
        m.insert(2, 1, 1.0).unwrap();
        m.insert(2, 2, 1.0).unwrap();
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = LilMatrix::new(2, 2);
        assert!(m.insert(2, 0, 1.0).is_err());
        assert!(m.insert(0, 2, 1.0).is_err());
    }

    #[test]
    fn iter_row_major() {
        let mut m = LilMatrix::new(2, 3);
        m.insert(1, 0, 3.0).unwrap();
        m.insert(0, 2, 1.0).unwrap();
        let v: Vec<_> = m.iter().collect();
        assert_eq!(v, vec![(0, 2, 1.0), (1, 0, 3.0)]);
    }
}
