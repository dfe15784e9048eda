//! Workload acquisition for the experiment runners.

use gust_sparse::{gen, suite, CsrMatrix};

/// Reads the `GUST_SCALE` environment variable (0 < s ≤ 1), falling back
/// to `default`. Scale shrinks matrix dimensions by `s` and non-zeros by
/// `s²`; `GUST_SCALE=1` reproduces the paper's sizes.
///
/// # Panics
///
/// Panics if the variable is set but not a number in `(0, 1]`.
#[must_use]
pub fn env_scale(default: f64) -> f64 {
    match std::env::var("GUST_SCALE") {
        Ok(raw) => {
            let s: f64 = raw
                .parse()
                .unwrap_or_else(|_| panic!("GUST_SCALE must be a number, got '{raw}'"));
            assert!(s > 0.0 && s <= 1.0, "GUST_SCALE must be in (0, 1], got {s}");
            s
        }
        Err(_) => default,
    }
}

/// Deterministic input vector with non-trivial values in `[-1, 1)`.
#[must_use]
pub fn test_vector(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(17)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((h >> 40) as f32) / 8_388_608.0 - 1.0
        })
        .collect()
}

/// The Fig. 7–9 suite at the given scale: `(entry, matrix)` pairs in the
/// paper's density order.
#[must_use]
pub fn figure7_matrices(scale: f64) -> Vec<(suite::SuiteEntry, CsrMatrix)> {
    suite::figure7()
        .into_iter()
        .map(|e| {
            let m = CsrMatrix::from(&e.generate_scaled(scale));
            (e, m)
        })
        .collect()
}

/// The Tables 3–4 nine-matrix suite at the given scale.
#[must_use]
pub fn serpens_matrices(scale: f64) -> Vec<(suite::SuiteEntry, CsrMatrix)> {
    suite::serpens_nine()
        .into_iter()
        .map(|e| {
            let m = CsrMatrix::from(&e.generate_scaled(scale));
            (e, m)
        })
        .collect()
}

/// The synthetic structures of Fig. 8(b)–(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticKind {
    /// Fig. 8(b): uniform placement.
    Uniform,
    /// Fig. 8(c): power-law degrees (exponent 1.8).
    PowerLaw,
    /// Fig. 8(d): k-regular rows.
    KRegular,
}

impl SyntheticKind {
    /// Label used in the reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Uniform => "uniform",
            Self::PowerLaw => "power-law",
            Self::KRegular => "k-regular",
        }
    }
}

/// Generates one synthetic Fig. 8 matrix: dimension `n`, target `density`.
#[must_use]
pub fn synthetic(kind: SyntheticKind, n: usize, density: f64, seed: u64) -> CsrMatrix {
    let nnz = ((n as f64 * n as f64 * density).round() as usize).clamp(1, n * n);
    let coo = match kind {
        SyntheticKind::Uniform => gen::uniform(n, n, nnz, seed),
        SyntheticKind::PowerLaw => gen::power_law(n, n, nnz, 1.8, seed),
        SyntheticKind::KRegular => {
            let k = (nnz / n).max(1);
            gen::k_regular(n, n, k, seed)
        }
    };
    CsrMatrix::from(&coo)
}

/// The paper's synthetic dimension (§4: 16 384), shrunk by `scale`.
#[must_use]
pub fn synthetic_dimension(scale: f64) -> usize {
    ((16_384.0 * scale).round() as usize).max(256)
}

/// The §4 synthetic density sweep: 1e-4 … 5e-2.
#[must_use]
pub fn density_sweep() -> Vec<f64> {
    vec![1.0e-4, 3.0e-4, 1.0e-3, 3.0e-3, 1.0e-2, 5.0e-2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_vector_is_deterministic_and_bounded() {
        let a = test_vector(100);
        let b = test_vector(100);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        // Not all equal (a degenerate vector would mask routing bugs).
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn figure7_small_scale_loads_all_twelve() {
        let ms = figure7_matrices(0.01);
        assert_eq!(ms.len(), 12);
        for (e, m) in &ms {
            assert!(m.nnz() > 0, "{} is empty", e.name);
        }
    }

    #[test]
    fn synthetic_densities_are_respected() {
        for kind in [
            SyntheticKind::Uniform,
            SyntheticKind::PowerLaw,
            SyntheticKind::KRegular,
        ] {
            let m = synthetic(kind, 512, 1.0e-2, 1);
            let got = m.nnz() as f64 / (512.0 * 512.0);
            assert!(
                (got / 1.0e-2 - 1.0).abs() < 0.2,
                "{}: density {got}",
                kind.label()
            );
        }
    }

    #[test]
    fn synthetic_dimension_scales() {
        assert_eq!(synthetic_dimension(1.0), 16_384);
        assert_eq!(synthetic_dimension(0.25), 4_096);
        assert_eq!(synthetic_dimension(1.0e-6), 256);
    }

    #[test]
    fn env_scale_default_applies() {
        std::env::remove_var("GUST_SCALE");
        assert_eq!(env_scale(0.3), 0.3);
    }
}
