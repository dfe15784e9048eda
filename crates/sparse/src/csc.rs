//! Compressed sparse column (CSC) format — used by the column-streaming
//! baselines (Fafnir feeds one matrix column per tree leaf).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

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

    /// SpMV (`y = A·x`) by scattering columns, `f32` accumulation. One
    /// scalar loop with no backend: per input column, four products at a
    /// time, added into `y` in stored row order (the accumulation order
    /// is observable in the output), so the result is the same bits on
    /// every host.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input vector length mismatch");
        let mut y = vec![0.0f32; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(j);
            let mut chunks_r = rows.chunks_exact(4);
            let mut chunks_v = vals.chunks_exact(4);
            for (r, v) in (&mut chunks_r).zip(&mut chunks_v) {
                let p0 = v[0] * xj;
                let p1 = v[1] * xj;
                let p2 = v[2] * xj;
                let p3 = v[3] * xj;
                y[r[0] as usize] += p0;
                y[r[1] as usize] += p1;
                y[r[2] as usize] += p2;
                y[r[3] as usize] += p3;
            }
            for (&r, &v) in chunks_r.remainder().iter().zip(chunks_v.remainder()) {
                y[r as usize] += v * xj;
            }
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
    fn spmv_skips_zero_vector_entries() {
        let m = example();
        assert_eq!(m.spmv(&[0.0, 0.0, 0.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn rectangular_dimensions_preserved() {
        let coo = CooMatrix::from_triplets(2, 5, vec![(1, 4, 9.0)]).unwrap();
        let csc = CscMatrix::from(&coo);
        assert_eq!((csc.rows(), csc.cols()), (2, 5));
        assert_eq!(csc.col(4), (&[1u32][..], &[9.0f32][..]));
    }
}
