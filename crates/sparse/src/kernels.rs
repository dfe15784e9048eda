//! Runtime-dispatched SIMD kernel backends.
//!
//! Every hot inner loop in this workspace — the engine's window walks in
//! `gust::engine` and the reference CSR kernel here
//! ([`crate::CsrMatrix::spmv`]) — dispatches through a [`Backend`]: a
//! safe scalar implementation that reproduces the seed arithmetic bit for
//! bit, plus `std::arch::x86_64` SIMD implementations selected at runtime
//! with `is_x86_feature_detected!`. The CSR kernel here has one SIMD
//! tier, AVX2+FMA, which [`Backend::Avx512`] runs too (as it runs the
//! engine's `f32` walks); only the engine's `f64` panel walk has an
//! AVX-512 kernel. The selection can be forced with the `GUST_BACKEND`
//! environment variable (`scalar`, `avx2`, `avx512`, or `auto`) so CI
//! legs and benchmarks can pin a backend regardless of host.
//!
//! The `f64` CSR oracle ([`crate::CsrMatrix::spmv_f64`]) and the CSC
//! scatter ([`crate::CscMatrix::spmv`]) have no backend: each is one
//! scalar loop, so their outputs are the same bits on every host.
//!
//! # Numerical contract
//!
//! * **Scalar** is the seed arithmetic, unchanged: four independent partial
//!   sums per CSR row combined as `(a0+a1)+(a2+a3)+tail`. Forcing
//!   [`Backend::Scalar`] reproduces pre-backend outputs bit for bit.
//! * **Avx2** (and **Avx512**, which runs the same kernel) keeps every
//!   *product* exactly (SIMD multiplies are IEEE-exact like scalar ones)
//!   but folds multiply and accumulate into FMA and re-associates the row
//!   sum. One fused op rounds once instead of twice, so each accumulation
//!   step differs from scalar by at most one ULP; over a row of `k`
//!   non-zeros without catastrophic cancellation the relative divergence
//!   is bounded by roughly `k · 2⁻²³` (see `tests/backend_equivalence.rs`,
//!   which enforces the bound on cancellation-free inputs).
//!
//! # Safety
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! root carries `#![deny(unsafe_code)]`). Every unsafe block is one of:
//!
//! * a call to a `#[target_feature(enable = "avx2,fma")]` function, guarded
//!   by [`Backend::is_available`] (which wraps
//!   `is_x86_feature_detected!`) — the only precondition those functions
//!   have is that the features exist;
//! * an intrinsic gather/load inside such a function whose indices are
//!   bounds-checked against the operand slice *before* the unsafe region
//!   (the CSR constructors validate indices at build time — see the
//!   per-function comments).

#![allow(unsafe_code)]
// Every unsafe block must state the contract it discharges; enforced
// mechanically (clippy) on top of the xtask lint.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::csr::CsrMatrix;

/// A kernel backend: which implementation of the hot inner loops to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Safe scalar loops — the seed arithmetic, bit for bit. Always
    /// available, on every target.
    #[default]
    Scalar,
    /// 256-bit AVX2 gathers + FMA (`std::arch::x86_64`). Only available on
    /// x86-64 hosts whose CPU reports `avx2` and `fma`.
    Avx2,
    /// 512-bit AVX-512 gathers + FMA (`std::arch::x86_64`) for the
    /// engine's `f64` panel walk; the CSR kernel here and the engine's
    /// `f32` walks run their AVX2 kernels under this backend (no AVX-512
    /// version of them won a measured probe). Only available on x86-64
    /// hosts whose CPU reports exactly the subfeature set the `f64` panel
    /// kernel uses: `avx512f` (512-bit registers, masked loads/gathers)
    /// and `avx512vl` (256-bit masked ops), plus the `avx2`+`fma`
    /// baseline.
    Avx512,
}

impl Backend {
    /// Short name used in reports, JSON rows and the `GUST_BACKEND` value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
        }
    }

    /// Parses a `GUST_BACKEND`-style name (`"scalar"`, `"avx2"`,
    /// `"avx512"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "scalar" => Some(Self::Scalar),
            "avx2" => Some(Self::Avx2),
            "avx512" => Some(Self::Avx512),
            _ => None,
        }
    }

    /// Whether this backend can run on the current host. [`Backend::Scalar`]
    /// always can; [`Backend::Avx2`] requires a runtime
    /// `is_x86_feature_detected!` check for both `avx2` and `fma`;
    /// [`Backend::Avx512`] additionally requires `avx512f` and `avx512vl`
    /// — exactly the feature set the engine's AVX-512 `f64` panel kernel
    /// is compiled with, no more (`avx512bw`/`avx512dq` are reported by
    /// [`cpu_features`] for diagnostics but not required, because no
    /// kernel uses them).
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            Self::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Self::Avx2 | Self::Avx512 => false,
        }
    }
}

/// The process-wide default backend: the `GUST_BACKEND` environment
/// variable if set (`scalar` / `avx2` / `avx512` / `auto`), otherwise the fastest
/// available backend. Read once and cached; a forced backend that the host
/// cannot run falls back to [`Backend::Scalar`] rather than executing
/// unsupported instructions.
///
/// An unknown `GUST_BACKEND` value warns on stderr (once, at first use)
/// and falls back to automatic selection — a misconfigured environment
/// must not take a serving process down at its first SpMV. Callers that
/// want a misspelled value to fail loudly can validate it with
/// [`Backend::from_name`].
#[must_use]
pub fn default_backend() -> Backend {
    static DEFAULT: std::sync::OnceLock<Backend> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("GUST_BACKEND") {
        Ok(name) if !name.is_empty() && name != "auto" => {
            let Some(requested) = Backend::from_name(&name) else {
                eprintln!(
                    "warning: unknown GUST_BACKEND value {name:?} (scalar|avx2|avx512|auto); \
                     using auto selection"
                );
                return best_available();
            };
            if requested.is_available() {
                requested
            } else {
                Backend::Scalar
            }
        }
        _ => best_available(),
    })
}

/// The fastest backend the host supports, ignoring `GUST_BACKEND`:
/// Avx512 > Avx2 > Scalar.
#[must_use]
pub fn best_available() -> Backend {
    if Backend::Avx512.is_available() {
        Backend::Avx512
    } else if Backend::Avx2.is_available() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// Detected CPU SIMD features relevant to the kernels, as a stable `+`
/// separated string (e.g. `"avx2+fma+avx512f"`), `"none"` when the host
/// supports none of them, `"portable"` off x86-64. Recorded in benchmark
/// JSON so numbers are comparable across runners.
#[must_use]
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        if is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if is_x86_feature_detected!("avx512vl") {
            feats.push("avx512vl");
        }
        if is_x86_feature_detected!("avx512bw") {
            feats.push("avx512bw");
        }
        if is_x86_feature_detected!("avx512dq") {
            feats.push("avx512dq");
        }
        if feats.is_empty() {
            "none".to_string()
        } else {
            feats.join("+")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable".to_string()
    }
}

// ---------------------------------------------------------------------------
// CSR y = A·x (f32 accumulation)
// ---------------------------------------------------------------------------

/// CSR SpMV into a caller-provided output under an explicit backend. The
/// kernel behind [`CsrMatrix::spmv`] and [`CsrMatrix::spmv_with`].
/// [`Backend::Avx2`] and [`Backend::Avx512`] both run the AVX2 kernel
/// (AVX-512 availability implies `avx2+fma`).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()`.
pub fn csr_spmv_into(backend: Backend, a: &CsrMatrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), a.cols(), "input vector length mismatch");
    assert_eq!(y.len(), a.rows(), "output vector length mismatch");
    #[cfg(target_arch = "x86_64")]
    if matches!(backend, Backend::Avx2 | Backend::Avx512) && Backend::Avx2.is_available() {
        // SAFETY: `is_available` proved avx2+fma; row column indices are
        // `< cols == x.len()` by the CSR construction invariant.
        unsafe { avx2::csr_spmv_avx2(a, x, y) };
        return;
    }
    let _ = backend;
    csr_spmv_scalar(a, x, y);
}

/// The seed CSR kernel, verbatim: four independent partial sums per row,
/// combined at row end as `(a0+a1)+(a2+a3)+tail`.
fn csr_spmv_scalar(a: &CsrMatrix, x: &[f32], y: &mut [f32]) {
    for (r, out) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row(r);
        *out = row_sum_scalar(cols, vals, x);
    }
}

/// The seed per-row reduction, verbatim (see [`csr_spmv_scalar`]).
fn row_sum_scalar(cols: &[u32], vals: &[f32], x: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut chunks_c = cols.chunks_exact(4);
    let mut chunks_v = vals.chunks_exact(4);
    for (c, v) in (&mut chunks_c).zip(&mut chunks_v) {
        acc[0] += v[0] * x[c[0] as usize];
        acc[1] += v[1] * x[c[1] as usize];
        acc[2] += v[2] * x[c[2] as usize];
        acc[3] += v[3] * x[c[3] as usize];
    }
    let mut tail = 0.0f32;
    for (&c, &v) in chunks_c.remainder().iter().zip(chunks_v.remainder()) {
        tail += v * x[c as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2+FMA CSR kernel. Every function here carries
    //! `#[target_feature(enable = "avx2,fma")]`; the dispatcher above only
    //! calls the `unsafe` ones after [`super::Backend::is_available`]
    //! returned `true`.

    use super::CsrMatrix;
    use std::arch::x86_64::{
        __m256, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps,
        _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_setzero_ps, _mm_add_ps,
        _mm_add_ss, _mm_cvtss_f32, _mm_movehdup_ps, _mm_movehl_ps,
    };

    /// Horizontal sum of one 256-bit register, pairwise:
    /// `(lo + hi)` then 4→2→1 lane reduction.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn hsum_ps(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let s4 = _mm_add_ps(lo, hi);
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_add_ss(s2, _mm_movehdup_ps(s2));
        _mm_cvtss_f32(s1)
    }

    /// CSR SpMV, f32: per row, 8-wide gather of `x[col]` fused into a
    /// single FMA accumulator, horizontal-summed at row end.
    ///
    /// # Safety
    ///
    /// Caller must have verified avx2+fma support. Gather indices are the
    /// matrix's column indices, which [`CsrMatrix`] guarantees are
    /// `< cols`; the caller asserted `x.len() == cols`, so every gather
    /// lane reads in bounds.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn csr_spmv_avx2(a: &CsrMatrix, x: &[f32], y: &mut [f32]) {
        for (r, out) in y.iter_mut().enumerate() {
            let (cols, vals) = a.row(r);
            // SAFETY: as above — indices in bounds for `x`.
            *out = unsafe { row_sum_avx2(cols, vals, x) };
        }
    }

    /// One row slice's dot product against `x`.
    ///
    /// # Safety
    ///
    /// As [`csr_spmv_avx2`]: avx2+fma verified, every `cols` entry
    /// `< x.len()`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_sum_avx2(cols: &[u32], vals: &[f32], x: &[f32]) -> f32 {
        let mut acc = _mm256_setzero_ps();
        let mut chunks_c = cols.chunks_exact(8);
        let mut chunks_v = vals.chunks_exact(8);
        for (c, v) in (&mut chunks_c).zip(&mut chunks_v) {
            let idx = _mm256_loadu_si256(c.as_ptr().cast());
            let xs = _mm256_i32gather_ps::<4>(x.as_ptr(), idx);
            let vv = _mm256_loadu_ps(v.as_ptr());
            acc = _mm256_fmadd_ps(vv, xs, acc);
        }
        let mut tail = 0.0f32;
        for (&c, &v) in chunks_c.remainder().iter().zip(chunks_v.remainder()) {
            tail = v.mul_add(x[c as usize], tail);
        }
        hsum_ps(acc) + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn vector(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                ((h % 1000) as f32) / 500.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("neon"), None);
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(Backend::Scalar.is_available());
    }

    #[test]
    fn default_backend_is_available() {
        assert!(default_backend().is_available());
        assert!(best_available().is_available());
        assert!(!cpu_features().is_empty());
    }

    #[test]
    fn best_available_prefers_the_widest_supported_tier() {
        let best = best_available();
        if Backend::Avx512.is_available() {
            assert_eq!(best, Backend::Avx512);
        } else if Backend::Avx2.is_available() {
            assert_eq!(best, Backend::Avx2);
        } else {
            assert_eq!(best, Backend::Scalar);
        }
    }

    #[test]
    fn avx512_availability_implies_its_features_are_reported() {
        if Backend::Avx512.is_available() {
            let feats = cpu_features();
            assert!(feats.contains("avx512f"), "features: {feats}");
            assert!(feats.contains("avx512vl"), "features: {feats}");
            assert!(
                Backend::Avx2.is_available(),
                "avx512 tier requires the avx2+fma baseline"
            );
        }
    }

    #[test]
    fn csr_backends_agree_within_ulp_bound() {
        let m = crate::CsrMatrix::from(&gen::uniform(80, 90, 900, 3));
        let x = vector(90, 5);
        let mut y_scalar = vec![0.0f32; 80];
        csr_spmv_into(Backend::Scalar, &m, &x, &mut y_scalar);
        for backend in [Backend::Avx2, Backend::Avx512] {
            if !backend.is_available() {
                continue;
            }
            let mut y_simd = vec![0.0f32; 80];
            csr_spmv_into(backend, &m, &x, &mut y_simd);
            let err = crate::ops::max_relative_error(&y_simd, &y_scalar);
            assert!(err < 1e-4, "{} diverged from scalar: {err}", backend.name());
        }
        // The AVX-512 backend runs the AVX2 CSR kernel: same bits.
        if Backend::Avx512.is_available() {
            let m = crate::CsrMatrix::from(&gen::uniform(80, 70, 600, 9));
            let x = vector(70, 7);
            assert_eq!(
                m.spmv_with(Backend::Avx512, &x),
                m.spmv_with(Backend::Avx2, &x)
            );
        }
    }
}
