//! Compressed sparse column (CSC) format — used by the column-streaming
//! baselines (Fafnir feeds one matrix column per tree leaf).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A sparse matrix in compressed sparse column form.
///
/// `indptr` has `cols + 1` entries; column `j` occupies
/// `indptr[j]..indptr[j+1]` of `indices`/`values` with row indices sorted
/// ascending within each column.
///
/// # Example
///
/// ```
/// use gust_sparse::{CooMatrix, CscMatrix};
///
/// let coo = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)])?;
/// let csc = CscMatrix::from(&coo);
/// assert_eq!(csc.col(0), (&[0u32, 1][..], &[1.0f32, 2.0][..]));
/// # Ok::<(), gust_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CscMatrix {
    /// Builds a CSC matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidStructure`] or [`SparseError::IndexOutOfBounds`]
    /// under the same conditions as [`CsrMatrix::try_new`], transposed.
    pub fn try_new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        // A CSC matrix is exactly a CSR matrix of the transpose; reuse its
        // validation rather than duplicating the rules here.
        let as_csr = CsrMatrix::try_new(cols, rows, indptr, indices, values)?;
        let (indptr, indices, values) = as_csr.raw_parts();
        Ok(Self {
            rows,
            cols,
            indptr: indptr.to_vec(),
            indices: indices.to_vec(),
            values: values.to_vec(),
        })
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

    /// Row indices and values of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    #[must_use]
    pub fn col(&self, j: usize) -> (&[u32], &[f32]) {
        let range = self.indptr[j]..self.indptr[j + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// Number of stored entries in column `j`.
    #[must_use]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.indptr[j + 1] - self.indptr[j]
    }

    /// Iterates `(row, col, value)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.cols).flat_map(move |j| {
            let (rows, vals) = self.col(j);
            rows.iter()
                .zip(vals)
                .map(move |(&r, &v)| (r as usize, j, v))
        })
    }

    /// SpMV (`y = A·x`) by scattering columns, `f32` accumulation.
    ///
    /// Dispatches through the process-default
    /// [`crate::kernels::Backend`]. The scatter adds stay scalar and in
    /// stored row order under every backend (the accumulation order is
    /// observable in the output), so the result is bit-identical across
    /// backends; AVX2 only widens the product computation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        self.spmv_with(crate::kernels::default_backend(), x)
    }

    /// [`CscMatrix::spmv`] under an explicit kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn spmv_with(&self, backend: crate::kernels::Backend, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input vector length mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(j);
            crate::kernels::csc_scatter_column(backend, rows, vals, xj, &mut y);
        }
        y
    }
}

impl From<&CooMatrix> for CscMatrix {
    fn from(coo: &CooMatrix) -> Self {
        let csr_of_transpose = CsrMatrix::from(&coo.transpose());
        let (indptr, indices, values) = csr_of_transpose.raw_parts();
        Self {
            rows: coo.rows(),
            cols: coo.cols(),
            indptr: indptr.to_vec(),
            indices: indices.to_vec(),
            values: values.to_vec(),
        }
    }
}

impl From<&CsrMatrix> for CscMatrix {
    fn from(csr: &CsrMatrix) -> Self {
        let t = csr.transpose();
        let (indptr, indices, values) = t.raw_parts();
        Self {
            rows: csr.rows(),
            cols: csr.cols(),
            indptr: indptr.to_vec(),
            indices: indices.to_vec(),
            values: values.to_vec(),
        }
    }
}

impl From<&CscMatrix> for CsrMatrix {
    fn from(csc: &CscMatrix) -> Self {
        // The stored arrays are a CSR view of the transpose; transposing that
        // recovers the original orientation.
        CsrMatrix::try_new(
            csc.cols,
            csc.rows,
            csc.indptr.clone(),
            csc.indices.clone(),
            csc.values.clone(),
        )
        .expect("stored CSC arrays are valid")
        .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CscMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        let coo = CooMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
        .unwrap();
        CscMatrix::from(&coo)
    }

    #[test]
    fn columns_are_sorted_by_row() {
        let m = example();
        assert_eq!(m.col(0), (&[0u32, 2][..], &[1.0f32, 3.0][..]));
        assert_eq!(m.col(1), (&[2u32][..], &[4.0f32][..]));
        assert_eq!(m.col(2), (&[0u32][..], &[2.0f32][..]));
    }

    #[test]
    fn spmv_matches_csr() {
        let m = example();
        let csr = CsrMatrix::from(&m);
        let x = [1.0, 10.0, 100.0];
        assert_eq!(m.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn col_nnz_counts() {
        let m = example();
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(1), 1);
        assert_eq!(m.col_nnz(2), 1);
    }

    #[test]
    fn csr_csc_round_trip() {
        let coo = CooMatrix::from_triplets(
            4,
            3,
            vec![
                (0, 1, 1.0),
                (1, 0, 2.0),
                (2, 2, 3.0),
                (3, 1, 4.0),
                (3, 2, 5.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from(&coo);
        let csc = CscMatrix::from(&csr);
        let back = CsrMatrix::from(&csc);
        assert_eq!(back, csr);
    }

    #[test]
    fn iter_is_column_major() {
        let m = example();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(
            triplets,
            vec![(0, 0, 1.0), (2, 0, 3.0), (2, 1, 4.0), (0, 2, 2.0)]
        );
    }

    #[test]
    fn spmv_skips_zero_vector_entries() {
        let m = example();
        assert_eq!(m.spmv(&[0.0, 0.0, 0.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn try_new_validates() {
        // Column 0 has row indices out of the declared 2-row shape.
        let err = CscMatrix::try_new(2, 1, vec![0, 1], vec![7], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn rectangular_dimensions_preserved() {
        let coo = CooMatrix::from_triplets(2, 5, vec![(1, 4, 9.0)]).unwrap();
        let csc = CscMatrix::from(&coo);
        assert_eq!((csc.rows(), csc.cols()), (2, 5));
        assert_eq!(csc.col(4), (&[1u32][..], &[9.0f32][..]));
    }
}
