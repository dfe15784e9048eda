//! Small dense-matrix helper used by tests and by the dense-streaming
//! baselines (1D systolic array and adder tree stream *every* cell,
//! zero or not — that is exactly why their utilization is poor).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// A row-major dense matrix of `f32`.
///
/// # Example
///
/// ```
/// use gust_sparse::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 2);
/// m.set(0, 1, 3.0);
/// assert_eq!(m.get(0, 1), 3.0);
/// assert_eq!(m.matvec(&[0.0, 2.0]), vec![6.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a zero-filled `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major data slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self { rows, cols, data }
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

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Row `i` as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Dense matrix-vector product with `f64` accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input vector length mismatch");
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(x)
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum::<f64>() as f32
            })
            .collect()
    }

    /// Count of exactly-zero cells.
    #[must_use]
    pub fn zero_count(&self) -> usize {
        self.data.iter().filter(|&&v| v == 0.0).count()
    }

    /// Converts to COO, dropping zeros.
    #[must_use]
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.get(r, c);
                if v != 0.0 {
                    coo.push(r, c, v).expect("in bounds by construction");
                }
            }
        }
        coo
    }
}

impl From<&CsrMatrix> for DenseMatrix {
    fn from(csr: &CsrMatrix) -> Self {
        let mut m = Self::zeros(csr.rows(), csr.cols());
        for (r, c, v) in csr.iter() {
            m.set(r, c, v);
        }
        m
    }
}

impl From<&CooMatrix> for DenseMatrix {
    fn from(coo: &CooMatrix) -> Self {
        let mut m = Self::zeros(coo.rows(), coo.cols());
        for (r, c, v) in coo.iter() {
            m.set(r, c, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut m = DenseMatrix::zeros(3, 2);
        m.set(2, 1, 5.5);
        assert_eq!(m.get(2, 1), 5.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = DenseMatrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn sparse_dense_round_trip() {
        let coo = CooMatrix::from_triplets(2, 2, vec![(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let dense = DenseMatrix::from(&coo);
        let back = dense.to_coo();
        let mut entries: Vec<_> = back.iter().collect();
        entries.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(entries, vec![(0, 1, 2.0), (1, 0, 3.0)]);
    }

    #[test]
    fn csr_to_dense_matvec_agrees_with_spmv() {
        let coo =
            CooMatrix::from_triplets(3, 3, vec![(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)]).unwrap();
        let csr = CsrMatrix::from(&coo);
        let dense = DenseMatrix::from(&csr);
        let x = [3.0, 2.0, 1.0];
        assert_eq!(dense.matvec(&x), csr.spmv(&x));
    }

    #[test]
    fn zero_count() {
        let m = DenseMatrix::from_row_major(2, 2, vec![0.0, 1.0, 0.0, 0.0]);
        assert_eq!(m.zero_count(), 3);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_row_major_validates_length() {
        let _ = DenseMatrix::from_row_major(2, 2, vec![1.0]);
    }
}
