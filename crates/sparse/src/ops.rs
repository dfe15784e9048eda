//! Reference kernels and floating-point comparison helpers.
//!
//! Every cycle-accurate accelerator model in this workspace is validated by
//! comparing its output vector against [`reference_spmv`], a scalar loop
//! that takes no kernel backend, so the oracle itself never changes with
//! the host or `GUST_BACKEND`. Because the accelerators accumulate partial
//! sums in a different order than the reference (GUST's crossbar
//! interleaves rows arbitrarily), comparisons are made with a relative
//! tolerance rather than bit equality.

use crate::csr::CsrMatrix;

/// The reference `y = A·x`: CSR traversal with `f64` accumulation
/// ([`CsrMatrix::spmv_f64`]), rounded to `f32`. The loop is scalar and
/// takes no kernel backend, so the oracle is the same bits on every host
/// and under every `GUST_BACKEND`.
///
/// # Example
///
/// ```
/// use gust_sparse::{CsrMatrix, ops::reference_spmv};
///
/// let a = CsrMatrix::identity(3);
/// assert_eq!(reference_spmv(&a, &[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
/// ```
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`.
#[must_use]
pub fn reference_spmv(a: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    a.spmv_f64(x).into_iter().map(|v| v as f32).collect()
}

/// Reference `Y = A·B` over a flat column-major panel: vector `j` of `b`
/// occupies `b[j * a.cols() .. (j + 1) * a.cols()]`, and the result is the
/// `a.rows() × batch` output panel in the same layout. Each column is
/// computed with [`reference_spmv`]'s `f64` accumulation. This is the
/// numerical reference for batched engines (`gust::Gust::execute_batch`).
///
/// # Panics
///
/// Panics if `batch == 0` or `b.len() != a.cols() * batch`.
#[must_use]
pub fn reference_spmm_panel(a: &CsrMatrix, b: &[f32], batch: usize) -> Vec<f32> {
    assert!(batch > 0, "batch must contain at least one vector");
    assert_eq!(
        b.len(),
        a.cols() * batch,
        "panel must hold batch × cols values (column-major)"
    );
    let mut y = Vec::with_capacity(a.rows() * batch);
    for j in 0..batch {
        let x = &b[j * a.cols()..(j + 1) * a.cols()];
        y.extend(reference_spmv(a, x));
    }
    y
}

/// Largest relative error between two vectors:
/// `max_i |a_i - b_i| / max(1, |a_i|, |b_i|)`.
///
/// The `max(1, …)` denominator makes the metric behave like absolute error
/// near zero and like relative error for large magnitudes.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn max_relative_error(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must have equal length");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let x = f64::from(x);
            let y = f64::from(y);
            (x - y).abs() / 1.0f64.max(x.abs()).max(y.abs())
        })
        .fold(0.0, f64::max)
}

/// Asserts two vectors agree within `tol` relative error.
///
/// # Panics
///
/// Panics with a diagnostic naming the first offending index if the vectors
/// differ by more than `tol`, or if lengths mismatch.
pub fn assert_vectors_close(actual: &[f32], expected: &[f32], tol: f64) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "length mismatch: {} vs {}",
        actual.len(),
        expected.len()
    );
    for (i, (&x, &y)) in actual.iter().zip(expected).enumerate() {
        let xf = f64::from(x);
        let yf = f64::from(y);
        let err = (xf - yf).abs() / 1.0f64.max(xf.abs()).max(yf.abs());
        assert!(
            err <= tol,
            "vectors differ at index {i}: actual {x} vs expected {y} (rel err {err:.3e} > {tol:.3e})"
        );
    }
}

/// Dot product with `f64` accumulation.
///
/// # Panics
///
/// Panics if lengths mismatch.
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must have equal length");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| f64::from(x) * f64::from(y))
        .sum()
}

/// Euclidean norm with `f64` accumulation.
#[must_use]
pub fn norm2(a: &[f32]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + alpha·x` (axpy), in `f32` like the hardware.
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "vectors must have equal length");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn reference_spmv_small_case() {
        let coo =
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]).unwrap();
        let a = CsrMatrix::from(&coo);
        assert_eq!(reference_spmv(&a, &[1.0, 2.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn reference_panel_is_per_column_spmv() {
        let coo =
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]).unwrap();
        let a = CsrMatrix::from(&coo);
        let panel = [1.0, 2.0, 0.5, 4.0]; // two columns
        let y = reference_spmm_panel(&a, &panel, 2);
        assert_eq!(&y[..2], reference_spmv(&a, &panel[..2]).as_slice());
        assert_eq!(&y[2..], reference_spmv(&a, &panel[2..]).as_slice());
    }

    #[test]
    #[should_panic(expected = "column-major")]
    fn reference_panel_rejects_bad_shape() {
        let a = CsrMatrix::identity(3);
        let _ = reference_spmm_panel(&a, &[1.0; 5], 2);
    }

    #[test]
    fn max_relative_error_zero_for_equal() {
        assert_eq!(max_relative_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn max_relative_error_scales_by_magnitude() {
        // |1e6 - 1e6(1+1e-6)| / 1e6 ≈ 1e-6
        let err = max_relative_error(&[1.0e6], &[1.0e6 + 1.0]);
        assert!(err > 0.5e-6 && err < 2.0e-6, "err = {err}");
    }

    #[test]
    fn max_relative_error_absolute_near_zero() {
        let err = max_relative_error(&[0.0], &[1.0e-7]);
        assert!((err - 1.0e-7).abs() < 1e-12);
    }

    #[test]
    fn assert_close_accepts_within_tol() {
        assert_vectors_close(&[1.0, 2.0], &[1.0 + 1.0e-7, 2.0], 1.0e-5);
    }

    #[test]
    #[should_panic(expected = "differ at index 1")]
    fn assert_close_rejects_beyond_tol() {
        assert_vectors_close(&[1.0, 2.0], &[1.0, 3.0], 1.0e-5);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }
}
