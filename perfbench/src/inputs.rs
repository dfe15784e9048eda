//! Seeded, integer-valued inputs.
//!
//! Every matrix value and vector entry is a small non-zero integer, so
//! each product and partial sum is an exactly representable integer and
//! every summation order gives the same bits: any correct response equals
//! `CsrMatrix::spmv` bit for bit.

use crate::rng::Rng;
use gust_sparse::gen;
use gust_sparse::prelude::*;

/// An input vector with its expected output.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The input vector.
    pub x: Vec<f32>,
    /// `CsrMatrix::spmv` of the matrix with `x`.
    pub y: Vec<f32>,
}

impl Probe {
    /// A probe for `m` with a fresh input from `rng`.
    #[must_use]
    pub fn new(m: &CsrMatrix, rng: &mut Rng) -> Self {
        let x = int_vector(m.cols(), rng);
        let y = m.spmv(&x);
        Self { x, y }
    }

    /// Whether `out` equals the expected output bit for bit.
    #[must_use]
    pub fn matches(&self, out: &[f32]) -> bool {
        out.len() == self.y.len()
            && out
                .iter()
                .zip(&self.y)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// `coo`'s structure with values replaced by non-zero integers in `-3..=3`.
#[must_use]
pub fn integer_valued(coo: &CooMatrix, seed: u64) -> CsrMatrix {
    let csr = CsrMatrix::from(coo);
    let (indptr, indices, values) = csr.raw_parts();
    let mut rng = Rng::new(seed, 0x7a1e);
    let values: Vec<f32> = values.iter().map(|_| rng.nonzero_int(3)).collect();
    CsrMatrix::try_new(
        csr.rows(),
        csr.cols(),
        indptr.to_vec(),
        indices.to_vec(),
        values,
    )
    .expect("re-valued CSR keeps a valid structure")
}

/// A vector of `n` non-zero integers in `-3..=3`.
#[must_use]
pub fn int_vector(n: usize, rng: &mut Rng) -> Vec<f32> {
    (0..n).map(|_| rng.nonzero_int(3)).collect()
}

/// `count` input vectors for `m` with their reference outputs.
#[must_use]
pub fn probes(m: &CsrMatrix, count: usize, seed: u64) -> Vec<Probe> {
    let mut rng = Rng::new(seed, 0x9b0e);
    (0..count).map(|_| Probe::new(m, &mut rng)).collect()
}

/// Scales a dimension, keeping it at least `min`.
#[must_use]
pub fn dim(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

/// The paper-scale power-law matrix served hot: 16 384² with 1.25 M
/// non-zeros at scale 1 (Zipf exponent 1.9, as in the repo's own
/// throughput runners).
#[must_use]
pub fn hot_matrix(seed: u64, scale: f64) -> CsrMatrix {
    let n = dim(16_384, scale, 64);
    let nnz = ((1_250_000.0 * scale * scale) as usize).clamp(4 * n, n * n / 4);
    integer_valued(&gen::power_law(n, n, nnz, 1.9, seed), seed)
}

/// The restart set: six matrices of distinct structure and similar work
/// (8 192 rows and about 100 k non-zeros each at scale 1).
#[must_use]
pub fn restart_set(seed: u64, scale: f64) -> Vec<(&'static str, CsrMatrix)> {
    let n = dim(8_192, scale, 64);
    let nnz = ((100_000.0 * scale) as usize).clamp(4 * n, n * n / 4);
    let grid = (n as f64).sqrt().round() as usize;
    let wide_rows = (n / 4).max(16);
    let set = [
        ("uniform", gen::uniform(n, n, nnz, seed)),
        ("power-law", gen::power_law(n, n, nnz, 1.9, seed ^ 1)),
        ("rmat", gen::rmat(n, n, nnz, seed ^ 2)),
        ("stencil-2d", gen::laplacian_2d(grid)),
        // Few rows, many columns, most non-zeros on a handful of hub
        // columns: long rows and heavy column reuse per window.
        (
            "wide-hub",
            gen::power_law(wide_rows, 4 * n, nnz, 1.3, seed ^ 3),
        ),
        (
            "k-regular",
            gen::k_regular(n, n, (nnz / n).max(1), seed ^ 4),
        ),
    ];
    set.into_iter()
        .enumerate()
        .map(|(i, (name, coo))| (name, integer_valued(&coo, seed ^ ((i as u64) << 8))))
        .collect()
}

/// The `i`-th matrix admitted during churn: 4 096² with 60 k non-zeros
/// at scale 1, cycling through three structures.
#[must_use]
pub fn admit_matrix(seed: u64, i: usize, scale: f64) -> CsrMatrix {
    let n = dim(4_096, scale, 32);
    let nnz = ((60_000.0 * scale) as usize).clamp(2 * n, n * n / 4);
    let s = seed ^ 0xad01 ^ ((i as u64) << 16);
    let coo = match i % 3 {
        0 => gen::power_law(n, n, nnz, 1.9, s),
        1 => gen::uniform(n, n, nnz, s),
        _ => gen::rmat(n, n, nnz, s),
    };
    integer_valued(&coo, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_integer_valued_and_deterministic() {
        let a = hot_matrix(5, 0.02);
        assert_eq!(a, hot_matrix(5, 0.02));
        assert_ne!(a, hot_matrix(6, 0.02));
        assert!(a
            .raw_parts()
            .2
            .iter()
            .all(|v| v.fract() == 0.0 && *v != 0.0));
        let p = probes(&a, 2, 5);
        assert!(p[0].matches(&a.spmv(&p[0].x)));
        assert!(p[0].y.iter().all(|v| v.fract() == 0.0));
    }

    #[test]
    fn restart_set_has_six_distinct_structures() {
        let set = restart_set(1, 0.05);
        assert_eq!(set.len(), 6);
        for (i, (_, a)) in set.iter().enumerate() {
            for (_, b) in &set[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
