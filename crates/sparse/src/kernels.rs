//! Runtime-dispatched SIMD kernel backends for the reference SpMV loops.
//!
//! Every hot inner loop in this workspace — the engine's window walks in
//! `gust::engine` and the reference kernels here ([`crate::CsrMatrix::spmv`]
//! and friends) — dispatches through a [`Backend`]: a safe scalar
//! implementation that reproduces the seed arithmetic bit for bit, plus
//! `std::arch::x86_64` AVX2+FMA and AVX-512 implementations selected at
//! runtime with `is_x86_feature_detected!` (the engine's `f32` walks have
//! no AVX-512 version and run their AVX2 kernels under
//! [`Backend::Avx512`]). The selection can be forced
//! with the `GUST_BACKEND` environment variable (`scalar`, `avx2`,
//! `avx512`, or `auto`) so CI legs and benchmarks can pin a backend
//! regardless of host.
//!
//! # Numerical contract
//!
//! * **Scalar** is the seed arithmetic, unchanged: four independent partial
//!   sums per CSR row combined as `(a0+a1)+(a2+a3)+tail`, four-wide product
//!   batches with in-order scatter adds for CSC. Forcing
//!   [`Backend::Scalar`] reproduces pre-backend outputs bit for bit.
//! * **Avx2** keeps every *product* exactly (SIMD multiplies are IEEE-exact
//!   like scalar ones) but folds multiply and accumulate into FMA where the
//!   accumulation order is already backend-private (the CSR row reductions
//!   here, the engine's batched register blocks). One fused op rounds once
//!   instead of twice, so each accumulation step differs from scalar by at
//!   most one ULP; over a row of `k` non-zeros without catastrophic
//!   cancellation the relative divergence is bounded by roughly
//!   `k · 2⁻²³` (see `tests/backend_equivalence.rs`, which enforces the
//!   bound on cancellation-free inputs). Kernels whose accumulation order
//!   is observable (the CSC column scatter, the engine's single-vector
//!   walk) keep scalar in-order adds and stay bit-identical under every
//!   backend.
//! * **Avx512** follows the same contract as Avx2 at twice the width
//!   (16 f32 lanes), with one deliberate difference in mechanism: ragged
//!   tails are handled by masked loads/gathers/stores instead of scalar
//!   remainder loops, so the whole row runs through the same FMA
//!   accumulator. A masked-out lane contributes an exact `0·0` to the
//!   accumulator and performs no memory access, so the bounds above are
//!   unchanged; order-observable kernels still keep scalar in-order adds.
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
//!   (CSR/CSC constructors validate indices at build time; the engine
//!   validates schedules at assembly — see the per-function comments).

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
    /// 512-bit AVX-512 gathers + FMA with masked tails
    /// (`std::arch::x86_64`) for the CSR/CSC kernels here and the engine's
    /// `f64` panel walk; the engine's `f32` walks run the AVX2 kernels
    /// under this backend (their AVX-512 versions lost every measured
    /// probe). Only available on x86-64 hosts whose CPU reports exactly
    /// the subfeature set the kernels use: `avx512f` (512-bit registers,
    /// masked loads/gathers) and `avx512vl` (the 256-bit masked ops in
    /// the f64 paths), plus the `avx2`+`fma` baseline.
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
    /// — exactly the feature set the AVX-512 kernels are compiled with,
    /// no more (`avx512bw`/`avx512dq` are reported by [`cpu_features`]
    /// for diagnostics but not required, because no kernel uses them).
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
/// want a misspelled value to fail loudly (CI matrix legs) should
/// validate eagerly with [`Backend::from_name`] — `gust`'s
/// `GustConfig::from_env_checked` does exactly that.
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
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()`.
pub fn csr_spmv_into(backend: Backend, a: &CsrMatrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), a.cols(), "input vector length mismatch");
    assert_eq!(y.len(), a.rows(), "output vector length mismatch");
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx512 && Backend::Avx512.is_available() {
        // SAFETY: `is_available` proved avx512f+avx512vl+avx2+fma; row
        // column indices are `< cols == x.len()` by the CSR construction
        // invariant, and masked-out gather lanes access no memory.
        unsafe { csr_spmv_avx512(a, x, y) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 && Backend::Avx2.is_available() {
        // SAFETY: `is_available` proved avx2+fma; row column indices are
        // `< cols == x.len()` by the CSR construction invariant.
        unsafe { csr_spmv_avx2(a, x, y) };
        return;
    }
    let _ = backend;
    csr_spmv_scalar(a, x, y);
}

/// CSR SpMV with `f64` accumulation under an explicit backend. The kernel
/// behind [`CsrMatrix::spmv_f64`].
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`.
#[must_use]
pub fn csr_spmv_f64(backend: Backend, a: &CsrMatrix, x: &[f32]) -> Vec<f64> {
    assert_eq!(x.len(), a.cols(), "input vector length mismatch");
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx512 && Backend::Avx512.is_available() {
        // SAFETY: as `csr_spmv_into`.
        return unsafe { csr_spmv_f64_avx512(a, x) };
    }
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 && Backend::Avx2.is_available() {
        // SAFETY: as `csr_spmv_into`.
        return unsafe { csr_spmv_f64_avx2(a, x) };
    }
    let _ = backend;
    csr_spmv_f64_scalar(a, x)
}

/// CSC SpMV under an explicit backend: per input column, scale the stored
/// column and scatter-add into `y`. Scatter adds stay scalar and in stored
/// row order under every backend (the accumulation order is observable),
/// so the output is bit-identical across backends; AVX2 only widens the
/// product computation.
///
/// # Panics
///
/// Panics if `y.len() != rows` implied by `col_rows` entries (checked by
/// the caller, [`crate::CscMatrix::spmv`]).
pub fn csc_scatter_column(backend: Backend, rows: &[u32], vals: &[f32], xj: f32, y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx512 && Backend::Avx512.is_available() {
        // SAFETY: `is_available` proved avx512f+avx512vl+avx2+fma; row
        // indices are bounds-checked scalar stores inside.
        unsafe { csc_scatter_avx512(rows, vals, xj, y) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 && Backend::Avx2.is_available() {
        // SAFETY: `is_available` proved avx2+fma; row indices are
        // bounds-checked scalar stores inside.
        unsafe { csc_scatter_avx2(rows, vals, xj, y) };
        return;
    }
    let _ = backend;
    csc_scatter_scalar(rows, vals, xj, y);
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

/// The seed `f64`-accumulation CSR kernel, verbatim.
fn csr_spmv_f64_scalar(a: &CsrMatrix, x: &[f32]) -> Vec<f64> {
    (0..a.rows())
        .map(|r| {
            let (cols, vals) = a.row(r);
            let mut acc = [0.0f64; 4];
            let mut chunks_c = cols.chunks_exact(4);
            let mut chunks_v = vals.chunks_exact(4);
            for (c, v) in (&mut chunks_c).zip(&mut chunks_v) {
                acc[0] += f64::from(v[0]) * f64::from(x[c[0] as usize]);
                acc[1] += f64::from(v[1]) * f64::from(x[c[1] as usize]);
                acc[2] += f64::from(v[2]) * f64::from(x[c[2] as usize]);
                acc[3] += f64::from(v[3]) * f64::from(x[c[3] as usize]);
            }
            let mut tail = 0.0f64;
            for (&c, &v) in chunks_c.remainder().iter().zip(chunks_v.remainder()) {
                tail += f64::from(v) * f64::from(x[c as usize]);
            }
            (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
        })
        .collect()
}

/// The seed CSC column scatter, verbatim: four products at a time, adds in
/// stored row order.
fn csc_scatter_scalar(rows: &[u32], vals: &[f32], xj: f32, y: &mut [f32]) {
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

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2+FMA implementations. Every function here carries
    //! `#[target_feature(enable = "avx2,fma")]` and is therefore `unsafe`
    //! to call; the dispatchers above only do so after
    //! [`super::Backend::is_available`] returned `true`.

    use super::CsrMatrix;
    use std::arch::x86_64::{
        __m256, _mm256_castpd256_pd128, _mm256_castps256_ps128, _mm256_cvtps_pd,
        _mm256_extractf128_pd, _mm256_extractf128_ps, _mm256_fmadd_pd, _mm256_fmadd_ps,
        _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_pd, _mm256_setzero_ps, _mm256_storeu_ps, _mm_add_pd, _mm_add_ps, _mm_add_ss,
        _mm_cvtsd_f64, _mm_cvtss_f32, _mm_i32gather_ps, _mm_loadu_ps, _mm_loadu_si128,
        _mm_movehdup_ps, _mm_movehl_ps, _mm_unpackhi_pd,
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

    /// One row slice's dot product against `x` — the AVX2 body shared by
    /// the full and cache-blocked CSR kernels.
    ///
    /// # Safety
    ///
    /// As [`csr_spmv_avx2`]: avx2+fma verified, every `cols` entry
    /// `< x.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn row_sum_avx2(cols: &[u32], vals: &[f32], x: &[f32]) -> f32 {
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

    /// CSR SpMV, f64 accumulation: 4-wide gathers widened to `f64` FMAs.
    ///
    /// # Safety
    ///
    /// As [`csr_spmv_avx2`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn csr_spmv_f64_avx2(a: &CsrMatrix, x: &[f32]) -> Vec<f64> {
        (0..a.rows())
            .map(|r| {
                let (cols, vals) = a.row(r);
                let mut acc = _mm256_setzero_pd();
                let mut chunks_c = cols.chunks_exact(4);
                let mut chunks_v = vals.chunks_exact(4);
                for (c, v) in (&mut chunks_c).zip(&mut chunks_v) {
                    let idx = _mm_loadu_si128(c.as_ptr().cast());
                    let xs = _mm256_cvtps_pd(_mm_i32gather_ps::<4>(x.as_ptr(), idx));
                    let vv = _mm256_cvtps_pd(_mm_loadu_ps(v.as_ptr()));
                    acc = _mm256_fmadd_pd(vv, xs, acc);
                }
                let mut tail = 0.0f64;
                for (&c, &v) in chunks_c.remainder().iter().zip(chunks_v.remainder()) {
                    tail = f64::from(v).mul_add(f64::from(x[c as usize]), tail);
                }
                let lo = _mm256_castpd256_pd128(acc);
                let hi = _mm256_extractf128_pd::<1>(acc);
                let s2 = _mm_add_pd(lo, hi);
                let s1 = _mm_add_pd(s2, _mm_unpackhi_pd(s2, s2));
                _mm_cvtsd_f64(s1) + tail
            })
            .collect()
    }

    /// CSC column scatter: products computed 8-wide, stored to a spill
    /// buffer, then added in stored row order — bit-identical to the
    /// scalar path (SIMD multiplies are IEEE-exact, no FMA is used, and
    /// add order is unchanged).
    ///
    /// # Safety
    ///
    /// Caller must have verified avx2+fma support. All stores go through
    /// bounds-checked slice indexing.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn csc_scatter_avx2(rows: &[u32], vals: &[f32], xj: f32, y: &mut [f32]) {
        let xv = _mm256_set1_ps(xj);
        let mut buf = [0.0f32; 8];
        let mut chunks_r = rows.chunks_exact(8);
        let mut chunks_v = vals.chunks_exact(8);
        for (r, v) in (&mut chunks_r).zip(&mut chunks_v) {
            let p = _mm256_mul_ps(_mm256_loadu_ps(v.as_ptr()), xv);
            _mm256_storeu_ps(buf.as_mut_ptr(), p);
            for (k, &row) in r.iter().enumerate() {
                y[row as usize] += buf[k];
            }
        }
        for (&r, &v) in chunks_r.remainder().iter().zip(chunks_v.remainder()) {
            y[r as usize] += v * xj;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The AVX-512 implementations. Every function here carries
    //! `#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]` — exactly
    //! the set [`super::Backend::Avx512.is_available`] checks — and is
    //! therefore `unsafe` to call; the dispatchers above only do so after
    //! that check returned `true`. Ragged tails run through masked
    //! loads/gathers instead of scalar remainder loops: a lane masked out
    //! of a load is zeroed without touching memory, a lane masked out of a
    //! gather performs no access at all, and a `0·0` FMA contribution is
    //! exact, so masking changes neither the bounds nor the safety
    //! argument.

    use super::CsrMatrix;
    use std::arch::x86_64::{
        __mmask16, __mmask8, _mm256_maskz_loadu_epi32, _mm256_maskz_loadu_ps,
        _mm256_mmask_i32gather_ps, _mm256_setzero_ps, _mm512_cvtps_pd, _mm512_fmadd_pd,
        _mm512_fmadd_ps, _mm512_i32gather_ps, _mm512_loadu_epi32, _mm512_loadu_ps,
        _mm512_mask_i32gather_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_epi32,
        _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_reduce_add_pd, _mm512_reduce_add_ps,
        _mm512_set1_ps, _mm512_setzero_pd, _mm512_setzero_ps,
    };

    /// CSR SpMV, f32: per row, 16-wide gather of `x[col]` fused into a
    /// single FMA accumulator, with a masked 16-wide step for the ragged
    /// tail, reduced at row end.
    ///
    /// # Safety
    ///
    /// Caller must have verified avx512f+avx512vl+avx2+fma support.
    /// Gather indices are the matrix's column indices, which
    /// [`CsrMatrix`] guarantees are `< cols`; the caller asserted
    /// `x.len() == cols`, so every active gather lane reads in bounds,
    /// and masked-out lanes access no memory.
    #[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
    pub(super) unsafe fn csr_spmv_avx512(a: &CsrMatrix, x: &[f32], y: &mut [f32]) {
        for (r, out) in y.iter_mut().enumerate() {
            let (cols, vals) = a.row(r);
            // SAFETY: as above — indices in bounds for `x`.
            *out = unsafe { row_sum_avx512(cols, vals, x) };
        }
    }

    /// One row slice's dot product against `x` — the AVX-512 body shared
    /// by the full and cache-blocked CSR kernels.
    ///
    /// # Safety
    ///
    /// As [`csr_spmv_avx512`]: features verified, every `cols` entry
    /// `< x.len()`.
    #[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
    pub(super) unsafe fn row_sum_avx512(cols: &[u32], vals: &[f32], x: &[f32]) -> f32 {
        let mut acc = _mm512_setzero_ps();
        let full = cols.len() / 16 * 16;
        let mut k = 0usize;
        while k < full {
            // SAFETY: `k + 16 <= cols.len() == vals.len()`; gather lanes
            // index `x` in bounds per the function contract.
            unsafe {
                let idx = _mm512_loadu_epi32(cols.as_ptr().add(k).cast());
                let xs = _mm512_i32gather_ps::<4>(idx, x.as_ptr().cast());
                let vv = _mm512_loadu_ps(vals.as_ptr().add(k));
                acc = _mm512_fmadd_ps(vv, xs, acc);
            }
            k += 16;
        }
        let rem = cols.len() - full;
        if rem > 0 {
            let m: __mmask16 = (1u16 << rem) - 1;
            // SAFETY: the mask covers exactly the `rem` in-bounds
            // elements; masked-out load lanes are zeroed and masked-out
            // gather lanes access no memory.
            unsafe {
                let idx = _mm512_maskz_loadu_epi32(m, cols.as_ptr().add(full).cast());
                let xs =
                    _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), m, idx, x.as_ptr().cast());
                let vv = _mm512_maskz_loadu_ps(m, vals.as_ptr().add(full));
                acc = _mm512_fmadd_ps(vv, xs, acc);
            }
        }
        _mm512_reduce_add_ps(acc)
    }

    /// CSR SpMV, f64 accumulation: 8-wide masked gathers widened to one
    /// 512-bit `f64` FMA accumulator per row — every step including the
    /// tail is the same masked 8-lane body.
    ///
    /// # Safety
    ///
    /// As [`csr_spmv_avx512`].
    #[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
    pub(super) unsafe fn csr_spmv_f64_avx512(a: &CsrMatrix, x: &[f32]) -> Vec<f64> {
        (0..a.rows())
            .map(|r| {
                let (cols, vals) = a.row(r);
                let mut acc = _mm512_setzero_pd();
                let mut k = 0usize;
                while k < cols.len() {
                    let rem = (cols.len() - k).min(8);
                    let m: __mmask8 = if rem == 8 { !0 } else { (1u8 << rem) - 1 };
                    // SAFETY: the mask covers exactly the `rem` in-bounds
                    // elements; active gather lanes index `x` in bounds,
                    // masked-out lanes access no memory.
                    unsafe {
                        let idx = _mm256_maskz_loadu_epi32(m, cols.as_ptr().add(k).cast());
                        let xs = _mm256_mmask_i32gather_ps::<4>(
                            _mm256_setzero_ps(),
                            m,
                            idx,
                            x.as_ptr().cast(),
                        );
                        let vv = _mm256_maskz_loadu_ps(m, vals.as_ptr().add(k));
                        acc = _mm512_fmadd_pd(_mm512_cvtps_pd(vv), _mm512_cvtps_pd(xs), acc);
                    }
                    k += rem;
                }
                _mm512_reduce_add_pd(acc)
            })
            .collect()
    }

    /// CSC column scatter: products computed 16-wide (masked on the
    /// tail), stored to a spill buffer, then added in stored row order —
    /// bit-identical to the scalar path (SIMD multiplies are IEEE-exact,
    /// no FMA is used, and add order is unchanged).
    ///
    /// # Safety
    ///
    /// Caller must have verified avx512f+avx512vl+avx2+fma support. All
    /// scatter stores go through bounds-checked slice indexing.
    #[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
    pub(super) unsafe fn csc_scatter_avx512(rows: &[u32], vals: &[f32], xj: f32, y: &mut [f32]) {
        let xv = _mm512_set1_ps(xj);
        let mut buf = [0.0f32; 16];
        let mut k = 0usize;
        while k < rows.len() {
            let rem = (rows.len() - k).min(16);
            let m: __mmask16 = if rem == 16 { !0 } else { (1u16 << rem) - 1 };
            // SAFETY: the mask covers exactly the `rem` in-bounds value
            // elements; the masked store writes only the first `rem`
            // lanes of the 16-element spill buffer.
            unsafe {
                let p = _mm512_mul_ps(_mm512_maskz_loadu_ps(m, vals.as_ptr().add(k)), xv);
                _mm512_mask_storeu_ps(buf.as_mut_ptr(), m, p);
            }
            for (i, &row) in rows[k..k + rem].iter().enumerate() {
                y[row as usize] += buf[i];
            }
            k += rem;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{csc_scatter_avx2, csr_spmv_avx2, csr_spmv_f64_avx2};
#[cfg(target_arch = "x86_64")]
use avx512::{csc_scatter_avx512, csr_spmv_avx512, csr_spmv_f64_avx512};

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
    }

    #[test]
    fn csr_f64_backends_agree() {
        let m = crate::CsrMatrix::from(&gen::power_law(60, 60, 700, 1.8, 4));
        let x = vector(60, 6);
        let scalar = csr_spmv_f64(Backend::Scalar, &m, &x);
        for backend in [Backend::Avx2, Backend::Avx512] {
            if !backend.is_available() {
                continue;
            }
            let simd = csr_spmv_f64(backend, &m, &x);
            for (a, b) in scalar.iter().zip(&simd) {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "{} diverged from scalar",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn csc_scatter_is_bit_identical_across_backends() {
        let rows: Vec<u32> = (0..37).map(|i| (i * 7) % 50).collect();
        let vals = vector(37, 9);
        let mut y_scalar = vec![0.0f32; 50];
        csc_scatter_column(Backend::Scalar, &rows, &vals, 1.375, &mut y_scalar);
        for backend in [Backend::Avx2, Backend::Avx512] {
            if !backend.is_available() {
                continue;
            }
            let mut y_simd = vec![0.0f32; 50];
            csc_scatter_column(backend, &rows, &vals, 1.375, &mut y_simd);
            assert_eq!(y_scalar, y_simd, "CSC scatter must not depend on backend");
        }
    }
}
