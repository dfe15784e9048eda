//! Compressed sparse row (CSR) format — the reference SpMV representation.

use crate::coo::CooMatrix;
use crate::error::SparseError;

/// A sparse matrix in compressed sparse row form.
///
/// `indptr` has `rows + 1` entries; row `i` occupies the half-open range
/// `indptr[i]..indptr[i+1]` of `indices`/`values`, with column indices sorted
/// ascending within each row.
///
/// # Example
///
/// ```
/// use gust_sparse::{CooMatrix, CsrMatrix};
///
/// let coo = CooMatrix::from_triplets(2, 3, vec![(0, 2, 1.0), (1, 0, 2.0)])?;
/// let csr = CsrMatrix::from(&coo);
/// assert_eq!(csr.row(0), (&[2u32][..], &[1.0f32][..]));
/// assert_eq!(csr.spmv(&[1.0, 1.0, 4.0]), vec![4.0, 2.0]);
/// # Ok::<(), gust_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidStructure`] if `indptr` has the wrong length, is
    /// non-monotone, or disagrees with `indices.len()`; if column indices are
    /// out of bounds, unsorted or duplicated within a row; or if `indices`
    /// and `values` lengths differ.
    pub fn try_new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        if indptr.len() != rows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "indptr length {} != rows + 1 = {}",
                indptr.len(),
                rows + 1
            )));
        }
        if indptr[0] != 0 || *indptr.last().expect("non-empty indptr") != indices.len() {
            return Err(SparseError::InvalidStructure(
                "indptr must start at 0 and end at nnz".into(),
            ));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indices length {} != values length {}",
                indices.len(),
                values.len()
            )));
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::InvalidStructure(
                    "indptr must be non-decreasing".into(),
                ));
            }
        }
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for (k, &c) in row.iter().enumerate() {
                if c as usize >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c as usize,
                        rows,
                        cols,
                    });
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} columns not strictly increasing at position {k}"
                    )));
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// The `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "identity dimension must be non-zero");
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// A square diagonal matrix with the given diagonal values.
    #[must_use]
    pub fn diagonal(diag: &[f32]) -> Self {
        let n = diag.len();
        assert!(n > 0, "diagonal must be non-empty");
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: diag.to_vec(),
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

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of cells that are stored.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let range = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// Number of stored entries in row `i`.
    #[must_use]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Iterates `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// SpMV with `f32` accumulation, the precision the accelerators use.
    ///
    /// Dispatches through the process-default
    /// [`crate::kernels::Backend`] (see
    /// [`crate::kernels::default_backend`]): the scalar backend runs four
    /// independent partial sums per row (the seed arithmetic, bit for
    /// bit), the AVX2 backend runs 8-wide `x[col]` gathers fused into FMA
    /// accumulators. Use [`CsrMatrix::spmv_with`] to pin a backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        self.spmv_with(crate::kernels::default_backend(), x)
    }

    /// [`CsrMatrix::spmv`] under an explicit kernel backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn spmv_with(&self, backend: crate::kernels::Backend, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        crate::kernels::csr_spmv_into(backend, self, x, &mut y);
        y
    }

    /// SpMV with `f64` accumulation — the numerical reference the cycle
    /// simulators are checked against. Backend-dispatched like
    /// [`CsrMatrix::spmv`]: four independent `f64` partial sums per row on
    /// the scalar path, 4-wide widened FMAs under AVX2.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn spmv_f64(&self, x: &[f32]) -> Vec<f64> {
        crate::kernels::csr_spmv_f64(crate::kernels::default_backend(), self, x)
    }

    /// Returns the transpose as a new CSR matrix.
    #[must_use]
    pub fn transpose(&self) -> Self {
        // Counting sort by column: O(nnz + cols).
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = counts[c as usize];
                indices[slot] = r as u32;
                values[slot] = v;
                counts[c as usize] += 1;
            }
        }
        indptr.truncate(self.cols + 1);
        Self {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Raw CSR arrays `(indptr, indices, values)`.
    #[must_use]
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[f32]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Converts back to COO triplets (row-major order).
    #[must_use]
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            coo.push(r, c, v).expect("CSR entries are in bounds");
        }
        coo
    }
}

impl CsrMatrix {
    /// Converts `coo` to CSR, sorting columns within each row. Fallible
    /// counterpart of `CsrMatrix::from(&coo)`: every array is reserved
    /// with `try_reserve_exact` before it is written, so a shape no
    /// allocation can hold is an error, not an abort.
    ///
    /// # Errors
    ///
    /// [`SparseError::TooLarge`] when the row pointers or the entry arrays
    /// cannot be allocated.
    pub fn try_from_coo(coo: &CooMatrix) -> Result<Self, SparseError> {
        let rows = coo.rows();
        let cols = coo.cols();
        let nnz = coo.nnz();
        let too_large = || SparseError::TooLarge { rows, cols, nnz };
        let (row_idx, col_idx, vals) = coo.raw_parts();
        // Counting sort by row, then sort columns within each row.
        let ptr_len = rows.checked_add(1).ok_or_else(too_large)?;
        let mut counts = try_filled(ptr_len, 0usize).ok_or_else(too_large)?;
        for &r in row_idx {
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut indptr = try_filled(ptr_len, 0usize).ok_or_else(too_large)?;
        indptr.copy_from_slice(&counts);
        let mut indices = try_filled(nnz, 0u32).ok_or_else(too_large)?;
        let mut values = try_filled(nnz, 0.0f32).ok_or_else(too_large)?;
        for k in 0..nnz {
            let r = row_idx[k] as usize;
            let slot = counts[r];
            indices[slot] = col_idx[k];
            values[slot] = vals[k];
            counts[r] += 1;
        }
        for r in 0..rows {
            let range = indptr[r]..indptr[r + 1];
            let row_cols = &mut indices[range.clone()];
            if row_cols.windows(2).any(|w| w[0] > w[1]) {
                let mut perm: Vec<usize> = (0..row_cols.len()).collect();
                perm.sort_unstable_by_key(|&i| row_cols[i]);
                let sorted_cols: Vec<u32> = perm.iter().map(|&i| row_cols[i]).collect();
                let row_vals = &values[range.clone()];
                let sorted_vals: Vec<f32> = perm.iter().map(|&i| row_vals[i]).collect();
                indices[range.clone()].copy_from_slice(&sorted_cols);
                values[range].copy_from_slice(&sorted_vals);
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }
}

/// `vec![value; len]`, or `None` when `len` elements cannot be allocated.
fn try_filled<T: Clone>(len: usize, value: T) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).ok()?;
    v.resize(len, value);
    Some(v)
}

impl From<&CooMatrix> for CsrMatrix {
    /// # Panics
    ///
    /// Panics where [`CsrMatrix::try_from_coo`] returns an error.
    fn from(coo: &CooMatrix) -> Self {
        Self::try_from_coo(coo).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        let coo = CooMatrix::from_triplets(
            3,
            3,
            vec![(2, 1, 4.0), (0, 2, 2.0), (0, 0, 1.0), (2, 0, 3.0)],
        )
        .unwrap();
        CsrMatrix::from(&coo)
    }

    #[test]
    fn conversion_sorts_rows_and_columns() {
        let m = example();
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row(2), (&[0u32, 1][..], &[3.0f32, 4.0][..]));
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let m = example();
        assert_eq!(m.spmv(&[1.0, 10.0, 100.0]), vec![201.0, 0.0, 43.0]);
    }

    #[test]
    fn spmv_f64_matches_f32_on_small_input() {
        let m = example();
        let y32 = m.spmv(&[1.0, 2.0, 3.0]);
        let y64 = m.spmv_f64(&[1.0, 2.0, 3.0]);
        for (a, b) in y32.iter().zip(&y64) {
            assert!((f64::from(*a) - b).abs() < 1e-6);
        }
    }

    #[test]
    fn identity_spmv_is_identity() {
        let m = CsrMatrix::identity(5);
        let x = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(m.spmv(&x), x.to_vec());
    }

    #[test]
    fn diagonal_scales() {
        let m = CsrMatrix::diagonal(&[2.0, 3.0]);
        assert_eq!(m.spmv(&[1.0, 1.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn row_nnz_counts() {
        let m = example();
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(2), 2);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn transpose_is_involutive_and_correct() {
        let m = example();
        let t = m.transpose();
        assert_eq!(t.row(0), (&[0u32, 2][..], &[1.0f32, 3.0][..]));
        assert_eq!(t.row(1), (&[2u32][..], &[4.0f32][..]));
        assert_eq!(t.row(2), (&[0u32][..], &[2.0f32][..]));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_spmv_agrees_with_coo_transpose() {
        let m = example();
        let x = [1.0, 2.0, 3.0];
        let via_csr = m.transpose().spmv(&x);
        let via_coo = m.to_coo().transpose().spmv(&x);
        assert_eq!(via_csr, via_coo);
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let m = example();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(
            triplets,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn to_coo_round_trips() {
        let m = example();
        let back = CsrMatrix::from(&m.to_coo());
        assert_eq!(back, m);
    }

    #[test]
    fn try_new_validates_indptr_length() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidStructure(_)));
    }

    #[test]
    fn try_new_validates_monotonicity() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidStructure(_)));
    }

    #[test]
    fn try_new_validates_column_bounds() {
        let err = CsrMatrix::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn try_new_rejects_duplicate_columns_in_row() {
        let err = CsrMatrix::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidStructure(_)));
    }

    #[test]
    fn try_new_accepts_valid_input() {
        let m =
            CsrMatrix::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.nnz(), 3);
    }
}
